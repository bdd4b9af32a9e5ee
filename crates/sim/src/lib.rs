// Tests assert by panicking and compare exact floats on purpose; their
// clocks and hash maps never reach a result.
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods,
        clippy::disallowed_types
    )
)]

//! # tbpoint-sim
//!
//! Cycle-level, trace-driven GPU timing simulator — the reproduction's
//! stand-in for Macsim (Section V-A, Table V of the paper).
//!
//! The machine model follows the paper's Fermi configuration:
//!
//! * `num_sms` streaming multiprocessors, each fetching and issuing **one
//!   warp instruction per cycle, in order**, over a 32-wide SIMD unit;
//! * per-SM L1 data cache (16 KB, 128 B lines, 8-way) and software-managed
//!   shared memory; a shared 768 KB 8-way L2; DRAM behind 6 channels x 16
//!   banks with a 2 KB row buffer and an FR-FCFS-style open-row policy;
//! * a greedy global thread-block dispatcher that assigns blocks to SMs in
//!   id order as resources free up, bounded by the kernel's SM occupancy
//!   (threads, blocks, registers, shared memory, warp slots).
//!
//! Two features exist purely for the paper's experiments:
//!
//! * a [`dispatch::SamplingHook`] lets TBPoint's intra-launch sampler skip
//!   (fast-forward) thread blocks at dispatch time and observe sampling
//!   units (designated-TB lifetimes);
//! * an optional [`units`] collector records per-sampling-unit IPCs and
//!   BBVs from *full* runs — the inputs the Random and Ideal-SimPoint
//!   baselines need (both are defined on fixed one-million-instruction
//!   units).
//!
//! What is simplified relative to Macsim, and why it does not matter for
//! the sampling comparison, is catalogued in DESIGN.md: every evaluated
//! approach (Full, Random, Ideal-SimPoint, TBPoint) runs on *this same
//! simulator*, so sampling errors measure the samplers, not the substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod dispatch;
mod divisor;
pub mod dram;
pub mod memory;
pub mod simulator;
pub mod sm;
pub mod stats;
pub mod units;

pub use config::{CacheConfig, GpuConfig};
pub use dispatch::{CycleBudgetHook, DispatchDecision, NullSampling, SamplingHook};
pub use simulator::{
    simulate_launch, simulate_launch_perf, simulate_launch_with, simulate_run, LaunchSimResult,
    RunSimResult, SimOptions, SimPerf,
};
pub use stats::{InstMix, SmStats};
pub use units::{UnitRecord, UnitsConfig};
