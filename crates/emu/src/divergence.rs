//! Divergence characterisation: how much SIMD width and memory
//! coalescing a kernel loses, per thread block and per launch.
//!
//! These reports quantify the *sources* of the paper's inter-launch
//! features: control-flow divergence (feature 2 vs feature 1) and memory
//! divergence (feature 3). `tbpoint inspect` prints them; tests use them
//! to verify the synthetic workloads actually exhibit the irregularity
//! their Table VI types claim.

use crate::profile::LaunchProfile;
use serde::{Deserialize, Serialize};
use tbpoint_stats::Histogram;

/// Divergence summary of one launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DivergenceReport {
    /// Mean active lanes per warp instruction (32 = fully converged).
    pub avg_active_lanes: f64,
    /// SIMD efficiency: `avg_active_lanes / 32`.
    pub simd_efficiency: f64,
    /// Mean memory requests per global-memory warp instruction
    /// (1 = fully coalesced, 32 = fully divergent). Zero if the launch
    /// performs no global accesses.
    pub requests_per_mem_inst: f64,
    /// Distribution of per-TB SIMD efficiency (16 bins over [0, 1]).
    pub tb_efficiency_histogram: Vec<(f64, u64)>,
}

impl DivergenceReport {
    /// Build the report from a launch profile.
    pub fn from_profile(profile: &LaunchProfile) -> Self {
        let warp_insts = profile.warp_insts();
        let thread_insts = profile.thread_insts();
        let mem_requests = profile.mem_requests();
        let mem_insts = profile.mem_insts;
        let avg_active = if warp_insts == 0 {
            0.0
        } else {
            thread_insts as f64 / warp_insts as f64
        };

        let mut hist = Histogram::new(0.0, 1.0 + 1e-9, 16);
        profile.tbs().filter(|tb| tb.warp_insts > 0).for_each(|tb| {
            hist.record(tb.thread_insts as f64 / (tb.warp_insts as f64 * 32.0));
        });

        DivergenceReport {
            avg_active_lanes: avg_active,
            simd_efficiency: avg_active / 32.0,
            requests_per_mem_inst: if mem_insts == 0 {
                0.0
            } else {
                mem_requests as f64 / mem_insts as f64
            },
            tb_efficiency_histogram: hist.centers(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_launch;
    use tbpoint_ir::{AddrPattern, Cond, Dist, KernelBuilder, LaunchId, LaunchSpec, Op, TripCount};

    fn spec(n: u32) -> LaunchSpec {
        LaunchSpec {
            launch_id: LaunchId(0),
            num_blocks: n,
            work_scale: 1.0,
        }
    }

    #[test]
    fn converged_kernel_has_full_efficiency() {
        let mut b = KernelBuilder::new("t", 1, 64);
        let n = b.block(&[Op::IAlu, Op::FAlu]);
        let k = b.finish(n);
        let p = profile_launch(&k, &spec(10), 1);
        let r = DivergenceReport::from_profile(&p);
        assert!((r.simd_efficiency - 1.0).abs() < 1e-12);
        assert_eq!(r.avg_active_lanes, 32.0);
    }

    #[test]
    fn divergent_kernel_loses_lanes() {
        let mut b = KernelBuilder::new("t", 2, 64);
        let site = b.fresh_site();
        let t = b.block(&[Op::IAlu, Op::IAlu]);
        let n = b.if_(Cond::ThreadProb { p: 0.5, site }, t, None);
        let k = b.finish(n);
        let p = profile_launch(&k, &spec(50), 1);
        let r = DivergenceReport::from_profile(&p);
        assert!(
            r.simd_efficiency > 0.3 && r.simd_efficiency < 0.7,
            "p=0.5 branch should halve efficiency, got {}",
            r.simd_efficiency
        );
    }

    #[test]
    fn random_gather_is_memory_divergent() {
        let mut b = KernelBuilder::new("t", 3, 64);
        let n = b.block(&[Op::LdGlobal(AddrPattern::Random {
            region: 0,
            bytes: 32 << 20,
        })]);
        let k = b.finish(n);
        let p = profile_launch(&k, &spec(20), 1);
        let r = DivergenceReport::from_profile(&p);
        assert!(
            r.requests_per_mem_inst > 20.0,
            "random gather should be near-fully divergent: {}",
            r.requests_per_mem_inst
        );
    }

    #[test]
    fn coalesced_kernel_is_not() {
        let mut b = KernelBuilder::new("t", 4, 64);
        let n = b.block(&[Op::LdGlobal(AddrPattern::Coalesced {
            region: 0,
            stride: 4,
        })]);
        let k = b.finish(n);
        let p = profile_launch(&k, &spec(20), 1);
        let r = DivergenceReport::from_profile(&p);
        assert!(
            r.requests_per_mem_inst <= 1.01,
            "got {}",
            r.requests_per_mem_inst
        );
    }

    #[test]
    fn histogram_concentrates_for_uniform_blocks() {
        let mut b = KernelBuilder::new("t", 5, 64);
        let site = b.fresh_site();
        let body = b.block(&[Op::IAlu]);
        let n = b.loop_(
            TripCount::PerThread {
                base: 1,
                spread: 10,
                dist: Dist::Uniform,
                site,
            },
            body,
        );
        let k = b.finish(n);
        let p = profile_launch(&k, &spec(64), 1);
        let r = DivergenceReport::from_profile(&p);
        let total: u64 = r.tb_efficiency_histogram.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 64, "every TB lands in the histogram");
    }
}
