//! Deterministic input generator for the property-style integration tests.
//!
//! The offline build environment has no `proptest`, so the property tests
//! drive the same invariants from seeded [`SplitMix64`] streams instead:
//! every case is a pure function of the loop index, so failures reproduce
//! exactly and the suite stays bit-deterministic across runs and machines.

// Each integration-test binary compiles its own copy of this module and
// uses a different subset of the helpers.
#![allow(dead_code)]

use tbpoint::ir::{AddrPattern, Cond, Dist, Kernel, KernelBuilder, LaunchSpec, Op, TripCount};
use tbpoint::obs::NullRecorder;
use tbpoint::sim::{simulate_launch_with, GpuConfig, LaunchSimResult, NullSampling, SimOptions};
use tbpoint::stats::SplitMix64;

/// Full-detail, untraced simulation under explicit [`SimOptions`].
pub fn simulate_opts(
    kernel: &Kernel,
    spec: &LaunchSpec,
    cfg: &GpuConfig,
    opts: SimOptions,
) -> LaunchSimResult {
    simulate_launch_with(
        kernel,
        spec,
        cfg,
        &mut NullSampling,
        None,
        opts,
        &NullRecorder,
    )
    .0
}

/// Seeded pseudo-random input generator.
pub struct Gen {
    rng: SplitMix64,
}

impl Gen {
    /// Generator for one test case; `test_seed` decorrelates tests and
    /// `case` decorrelates cases within a test.
    pub fn new(test_seed: u64, case: u64) -> Self {
        Gen {
            rng: SplitMix64::new(tbpoint::stats::hash_coords(&[test_seed, case])),
        }
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.rng.next_index(hi - lo)
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.u64(u64::from(lo), u64::from(hi)) as u32
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize(&mut self, lo: usize, hi: usize) -> usize {
        self.u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.next_f64() * (hi - lo)
    }

    /// Arbitrary `u64` over the full range.
    pub fn any_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A point set: `1..max_points` points of dimension `1..max_dim`,
    /// coordinates in `[-100, 100)`.
    pub fn points(&mut self, max_points: usize, max_dim: usize) -> Vec<Vec<f64>> {
        let dim = self.usize(1, max_dim);
        let n = self.usize(1, max_points);
        (0..n)
            .map(|_| (0..dim).map(|_| self.f64(-100.0, 100.0)).collect())
            .collect()
    }

    /// A vector of `f64` in `[lo, hi)` with length in `[min_len, max_len)`.
    pub fn f64_vec(&mut self, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
        let n = self.usize(min_len, max_len);
        (0..n).map(|_| self.f64(lo, hi)).collect()
    }
}

/// A random kernel mixing the dependence classes the interner key and the
/// profiler's block classes have to distinguish: constant, per-block,
/// per-thread and phase-sliced trip counts; divergent, block-uniform and
/// lane-structured branches; affine accesses at mixed strides, broadcasts
/// and gathers. With `block_invariant` the draw is restricted to what
/// `profile_launch` profiles by block class (constant or phase-sliced
/// trips, lane-structured branches, no gathers).
pub fn random_kernel(g: &mut Gen, case: u64, block_invariant: bool) -> Kernel {
    // Partial trailing warps (mask variation) and first-thread ids that
    // are not line-aligned (40, 96, 200 and most of the free draw).
    let tpb = match g.u32(0, 6) {
        0 => 40,
        1 => 96,
        2 => 128,
        3 => 200,
        4 => 512,
        _ => g.u32(16, 200),
    };
    let mut b = KernelBuilder::new(&format!("prop{case}"), g.u64(1, 1 << 20), tpb);
    let mut nodes = Vec::new();
    for _ in 0..g.usize(1, 4) {
        let mut ops = vec![Op::IAlu, Op::FAlu];
        for _ in 0..g.usize(0, 3) {
            let region = g.u32(0, 4);
            let stride = [1, 4, 8, 12, 100, 128, 132, 4096][g.usize(0, 8)];
            let pattern = match g.u32(0, if block_invariant { 3 } else { 4 }) {
                0 => AddrPattern::Coalesced { region, stride },
                1 => AddrPattern::Strided { region, stride },
                2 => AddrPattern::Broadcast { region },
                _ => AddrPattern::Random {
                    region,
                    bytes: 1 << 20,
                },
            };
            ops.push(if g.u32(0, 2) == 0 {
                Op::LdGlobal(pattern)
            } else {
                Op::StGlobal(pattern)
            });
        }
        let body = b.block(&ops);
        let site = b.fresh_site();
        let base = g.u32(1, 6);
        let spread = g.u32(0, 8);
        let trips = match g.u32(0, if block_invariant { 2 } else { 4 }) {
            0 => TripCount::Const(base),
            1 => TripCount::PerBlockPhase {
                base,
                spread,
                phase_len: g.u32(1, 33),
                dist: Dist::Uniform,
                site,
            },
            2 => TripCount::PerBlock {
                base,
                spread,
                dist: Dist::Uniform,
                site,
            },
            _ => TripCount::PerThread {
                base,
                spread,
                dist: Dist::Uniform,
                site,
            },
        };
        let looped = b.loop_(trips, body);
        let cond = match g.u32(0, if block_invariant { 2 } else { 4 }) {
            0 => None,
            1 => Some(Cond::LaneLt(g.u32(1, 32))),
            2 => Some(Cond::ThreadProb {
                p: g.f64(0.1, 0.9),
                site: b.fresh_site(),
            }),
            _ => Some(Cond::BlockProb {
                p: g.f64(0.1, 0.9),
                site: b.fresh_site(),
            }),
        };
        nodes.push(match cond {
            Some(cond) => b.if_(cond, looped, None),
            None => looped,
        });
    }
    let root = b.seq(nodes);
    b.finish(root)
}

/// A random kernel biased toward the memory path: global loads and
/// stores in every address pattern, mixed with ALU/SFU work,
/// shared-memory traffic, barriers, and divergent control flow — the
/// instruction mix that keeps MSHRs, L2 and DRAM queues busy.
pub fn random_mem_kernel(g: &mut Gen, case: u64) -> Kernel {
    let tpb = g.u32(16, 160);
    let mut b = KernelBuilder::new(&format!("mem{case}"), g.u64(1, 1 << 20), tpb);
    let mut nodes = Vec::new();
    for _ in 0..g.usize(2, 5) {
        let region = g.u32(0, 4);
        let pattern = match g.u32(0, 4) {
            0 => AddrPattern::Coalesced { region, stride: 4 },
            1 => AddrPattern::Strided {
                region,
                stride: 128 + g.u32(0, 3) * 64,
            },
            2 => AddrPattern::Random {
                region,
                bytes: 1 << g.u32(12, 18),
            },
            _ => AddrPattern::Broadcast { region },
        };
        let mut ops = vec![Op::LdGlobal(pattern), Op::IAlu, Op::FAlu];
        match g.u32(0, 4) {
            0 => ops.push(Op::StGlobal(pattern)),
            1 => {
                ops.push(Op::LdShared);
                ops.push(Op::StShared);
            }
            2 => ops.push(Op::Sfu),
            _ => ops.push(Op::Barrier),
        }
        let body = b.block(&ops);
        let site = b.fresh_site();
        let trips = match g.u32(0, 3) {
            0 => TripCount::Const(g.u32(1, 5)),
            1 => TripCount::PerBlock {
                base: g.u32(1, 4),
                spread: g.u32(0, 6),
                dist: Dist::Uniform,
                site,
            },
            _ => TripCount::PerThread {
                base: g.u32(1, 4),
                spread: g.u32(0, 6),
                dist: Dist::Uniform,
                site,
            },
        };
        let looped = b.loop_(trips, body);
        match g.u32(0, 3) {
            0 => nodes.push(looped),
            1 => {
                let cond = Cond::ThreadProb {
                    p: g.f64(0.2, 0.9),
                    site: b.fresh_site(),
                };
                nodes.push(b.if_(cond, looped, None));
            }
            _ => {
                let cond = Cond::LaneLt(g.u32(1, 32));
                nodes.push(b.if_(cond, looped, None));
            }
        }
    }
    let root = b.seq(nodes);
    b.finish(root)
}
