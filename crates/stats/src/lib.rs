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

//! # tbpoint-stats
//!
//! Small numerical-statistics toolkit shared by every other TBPoint crate.
//!
//! The paper leans on a handful of descriptive statistics:
//!
//! * the **coefficient of variation** (CoV) drives the *variation factor*
//!   used to detect outlier thread blocks (Eq. 5 of the paper),
//! * the **geometric mean** summarises sampling errors and sample sizes
//!   across benchmarks (Figs. 9 and 10),
//! * **percentiles** quantify the Monte-Carlo IPC-variation experiment
//!   (Fig. 5: ">95% of samples are within 10% of the average IPC").
//!
//! Everything here is dependency-light, allocation-free where possible, and
//! deterministic, so the rest of the workspace can rely on it in hot loops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod descriptive;
pub mod error;
pub mod percentile;
pub mod rng;

pub use ci::{mean_ci, weighted_harmonic_mean, weighted_mean, ConfidenceInterval};
pub use descriptive::{cov, cov_of, geometric_mean, mean, population_variance};
pub use error::abs_pct_error;
pub use percentile::{fraction_within, percentile};
pub use rng::{
    hash_coords, hash_fold, mix64, unit_f64, unit_from_hash, unit_index, SplitMix64, HASH_SEED,
};
