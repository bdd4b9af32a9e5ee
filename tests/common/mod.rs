//! Deterministic input generator for the property-style integration tests.
//!
//! The offline build environment has no `proptest`, so the property tests
//! drive the same invariants from seeded [`SplitMix64`] streams instead:
//! every case is a pure function of the loop index, so failures reproduce
//! exactly and the suite stays bit-deterministic across runs and machines.

// Each integration-test binary compiles its own copy of this module and
// uses a different subset of the helpers.
#![allow(dead_code)]

use tbpoint::ir::{Kernel, LaunchSpec};
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
