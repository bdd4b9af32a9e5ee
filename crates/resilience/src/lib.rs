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

//! # tbpoint-resilience
//!
//! Deterministic fault injection for the TBPoint pipeline's trust
//! boundaries, and the matrix runner that asserts every fault is
//! *contained*: the pipeline returns `Err` or degrades gracefully —
//! it never panics, and a damaged profile never passes as a clean run.
//!
//! * [`fault`] — the fault taxonomy ([`Fault`]) and the seeded profile
//!   injector ([`inject_profile`]). Everything is a pure function of
//!   `(input, fault, seed)`, so a failing cell replays exactly.
//! * [`matrix`] — [`run_fault_matrix`] executes every
//!   `(benchmark, fault, seed)` cell under `catch_unwind` and
//!   classifies the [`Outcome`], next to each benchmark's clean
//!   sampling error.
//!
//! The graceful-degradation behaviour itself lives in `tbpoint-core`
//! (`TbpointConfig::{warming_budget, cycle_budget}`,
//! `TbpointResult::degradation_ratio`) and `tbpoint-obs`
//! (`DegradedMode` events); this crate supplies the adversarial inputs
//! and the containment report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod matrix;

pub use fault::{inject_profile, Fault, EPOCH_CHUNK};
pub use matrix::{run_fault_matrix, MatrixCell, MatrixReport, Outcome, MATRIX_SEEDS};
