//! A parameterised synthetic-kernel builder: turn a handful of
//! high-level knobs into a [`KernelRun`].
//!
//! The Table-VI roster covers the paper's evaluation; this builder
//! exists for everything else — unit tests that need a kernel with a
//! specific property, benches that sweep memory intensity, and users who
//! want to probe how the sampler behaves on *their* workload shape
//! before writing a full program tree by hand.

use serde::{Deserialize, Serialize};
use tbpoint_ir::{
    AddrPattern, Cond, Dist, KernelBuilder, KernelRun, LaunchId, LaunchSpec, Op, TripCount,
};

/// High-level workload description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticSpec {
    /// Kernel name.
    pub name: String,
    /// RNG seed.
    pub seed: u64,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Number of identical launches.
    pub launches: u32,
    /// Thread blocks per launch.
    pub blocks_per_launch: u32,
    /// Base loop iterations per thread.
    pub iterations: u32,
    /// ALU instructions per iteration.
    pub alu_per_iter: u32,
    /// Global loads per iteration.
    pub loads_per_iter: u32,
    /// Fraction of loads that are data-dependent gathers (0 = all
    /// coalesced, 1 = all random).
    pub gather_fraction: f64,
    /// Per-thread iteration spread (0 = no control divergence).
    pub divergence_spread: u32,
    /// Contiguous grid phases with different work multipliers (1 = none;
    /// Fig. 8 Type-I irregularity).
    pub phases: PhaseSpec,
    /// Probability that a thread takes an extra-work branch.
    pub branch_prob: f64,
}

/// Phase-structured per-block work variation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PhaseSpec {
    /// Uniform blocks.
    None,
    /// Phases of `phase_len` blocks with multipliers in `1..=max_mult`.
    Phased {
        /// Blocks per phase.
        phase_len: u32,
        /// Largest work multiplier.
        max_mult: u32,
    },
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        SyntheticSpec {
            name: "synthetic".into(),
            seed: 0xD1CE,
            threads_per_block: 128,
            launches: 4,
            blocks_per_launch: 256,
            iterations: 16,
            alu_per_iter: 3,
            loads_per_iter: 1,
            gather_fraction: 0.0,
            divergence_spread: 0,
            phases: PhaseSpec::None,
            branch_prob: 0.0,
        }
    }
}

impl SyntheticSpec {
    /// Materialise the workload.
    pub fn build(&self) -> KernelRun {
        let mut b = KernelBuilder::new(&self.name, self.seed, self.threads_per_block);
        let div_site = b.fresh_site();
        let branch_site = b.fresh_site();
        let phase_site = b.fresh_site();

        // Iteration body: ALU work plus loads split between coalesced
        // streams and random gathers per `gather_fraction`.
        let mut ops: Vec<Op> = Vec::new();
        for _ in 0..self.alu_per_iter {
            ops.push(Op::IAlu);
        }
        // gather_fraction is in [0, 1], so gathers <= loads_per_iter: u32.
        #[expect(clippy::cast_possible_truncation)]
        let gathers = (self.loads_per_iter as f64 * self.gather_fraction).round() as u32;
        for i in 0..self.loads_per_iter {
            if i < gathers {
                ops.push(Op::LdGlobal(AddrPattern::Random {
                    region: 1,
                    bytes: 8 << 20,
                }));
            } else {
                ops.push(Op::LdGlobal(AddrPattern::Coalesced {
                    region: 0,
                    stride: 4,
                }));
            }
        }
        let mut body = b.block(&ops);

        // Optional divergent extra-work branch.
        if self.branch_prob > 0.0 {
            let extra = b.block(&[Op::IAlu, Op::IAlu]);
            let branch = b.if_(
                Cond::ThreadProb {
                    p: self.branch_prob,
                    site: branch_site,
                },
                extra,
                None,
            );
            body = b.seq(vec![body, branch]);
        }

        // Iteration loop: divergent when spread > 0.
        let trips = if self.divergence_spread > 0 {
            TripCount::PerThread {
                base: self.iterations,
                spread: self.divergence_spread,
                dist: Dist::Uniform,
                site: div_site,
            }
        } else {
            TripCount::Const(self.iterations)
        };
        let mut program = b.loop_(trips, body);

        // Optional phase multiplier.
        if let PhaseSpec::Phased {
            phase_len,
            max_mult,
        } = self.phases
        {
            program = b.loop_(
                TripCount::PerBlockPhase {
                    base: 1,
                    spread: max_mult.saturating_sub(1),
                    phase_len,
                    dist: Dist::Uniform,
                    site: phase_site,
                },
                program,
            );
        }

        let store = b.block(&[Op::StGlobal(AddrPattern::Coalesced {
            region: 2,
            stride: 4,
        })]);
        let program = b.seq(vec![program, store]);
        let kernel = b.finish(program);
        debug_assert!(kernel.validate().is_ok());
        KernelRun {
            kernel,
            launches: (0..self.launches)
                .map(|i| LaunchSpec {
                    launch_id: LaunchId(i),
                    num_blocks: self.blocks_per_launch,
                    work_scale: 1.0,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels; // ensure roster module links
    use tbpoint_emu::{profile_launch, LaunchProfile};

    /// Memory requests per warp instruction (Eq. 5's stall probability,
    /// launch-wide).
    fn requests_per_warp_inst(p: &LaunchProfile) -> f64 {
        p.mem_requests() as f64 / p.warp_insts() as f64
    }

    /// Active lanes per warp instruction over the warp width.
    fn simd_efficiency(p: &LaunchProfile) -> f64 {
        p.thread_insts() as f64 / (p.warp_insts() as f64 * 32.0)
    }

    #[test]
    fn default_spec_builds_valid_kernel() {
        let run = SyntheticSpec::default().build();
        run.kernel.validate().unwrap();
        assert_eq!(run.num_launches(), 4);
        assert_eq!(run.total_blocks(), 4 * 256);
        let _ = kernels::bfs::TOTAL_TBS; // roster still reachable
    }

    #[test]
    fn gather_fraction_controls_memory_divergence() {
        let coalesced = SyntheticSpec {
            gather_fraction: 0.0,
            ..Default::default()
        }
        .build();
        let gathering = SyntheticSpec {
            gather_fraction: 1.0,
            ..Default::default()
        }
        .build();
        let rc = requests_per_warp_inst(&profile_launch(&coalesced.kernel, &coalesced.launches[0]));
        let rg = requests_per_warp_inst(&profile_launch(&gathering.kernel, &gathering.launches[0]));
        assert!(rg > rc * 5.0, "gathers {rg} vs coalesced {rc}");
    }

    #[test]
    fn divergence_spread_costs_simd_efficiency() {
        let flat = SyntheticSpec::default().build();
        let div = SyntheticSpec {
            divergence_spread: 24,
            ..Default::default()
        }
        .build();
        let ef = simd_efficiency(&profile_launch(&flat.kernel, &flat.launches[0]));
        let ed = simd_efficiency(&profile_launch(&div.kernel, &div.launches[0]));
        assert!(ef > 0.99);
        assert!(ed < 0.9, "divergent spec should lose lanes, eff = {ed}");
    }

    #[test]
    fn phases_create_block_size_variation() {
        let flat = SyntheticSpec::default().build();
        let phased = SyntheticSpec {
            phases: PhaseSpec::Phased {
                phase_len: 32,
                max_mult: 4,
            },
            ..Default::default()
        }
        .build();
        let pf = profile_launch(&flat.kernel, &flat.launches[0]);
        let pp = profile_launch(&phased.kernel, &phased.launches[0]);
        assert_eq!(pf.tb_size_cov(), 0.0);
        assert!(pp.tb_size_cov() > 0.2, "cov = {}", pp.tb_size_cov());
    }
}
