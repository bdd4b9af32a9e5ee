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

//! # tbpoint-baselines
//!
//! The two comparison points of the paper's evaluation (Section V-A):
//!
//! * **Random sampling** — run the full timing simulation, slice it into
//!   one-million-instruction sampling units, keep a random 10% of the
//!   units and predict the overall IPC from them alone.
//! * **Ideal-SimPoint** — run the full timing simulation collecting a BBV
//!   per sampling unit, cluster the BBVs with k-means + BIC (the SimPoint
//!   recipe), simulate only each cluster's representative unit and weight
//!   its IPC by the cluster's size (Eq. 1).
//!
//! A third approach, **systematic sampling** (periodic units), appears in
//! the paper's Related Work as the alternative to profiling-based
//! sampling; [`systematic`] implements it so the comparison can be run.
//!
//! Both are "ideal" in the sense that they *require the full timing
//! simulation they are supposed to avoid* — on a GPU, which instructions
//! each warp executes inside a unit depends on warp scheduling, so BBVs
//! per unit cannot be collected by functional profiling. That is the
//! paper's core argument for TBPoint; the baselines here exist to
//! reproduce Figs. 9-11's comparisons, with their sample sizes and errors
//! computed from the recorded units.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ideal_simpoint;
pub mod random;
pub mod systematic;

pub use ideal_simpoint::ideal_simpoint;
pub use random::random_sampling;
pub use systematic::systematic_sampling;

use serde::{Deserialize, Serialize};
use tbpoint_ir::KernelRun;
use tbpoint_sim::{simulate_run, GpuConfig, NullSampling, UnitRecord, UnitsConfig};

/// Common result shape for both baselines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineResult {
    /// Predicted overall IPC.
    pub predicted_ipc: f64,
    /// Fraction of warp instructions inside selected units.
    pub sample_size: f64,
    /// Sampling units available.
    pub num_units: usize,
    /// Sampling units selected for "simulation".
    pub num_selected: usize,
}

impl BaselineResult {
    /// Absolute sampling error in percent against a reference IPC.
    pub fn error_vs(&self, full_ipc: f64) -> f64 {
        tbpoint_stats::abs_pct_error(self.predicted_ipc, full_ipc)
    }
}

/// Sampling units per benchmark that [`unit_size`] aims for.
const TARGET_UNITS: u64 = 60;

/// The baselines' sampling-unit size, in warp instructions, for a run of
/// `total_warp_insts`. The paper fixes units at one million instructions
/// on 10^9+-instruction workloads; the scaled workloads are only
/// ~10^6-10^7 warp instructions, so the unit *count* is fixed instead:
/// 60 units, the size clamped to 2,000..=1,000,000 (DESIGN.md,
/// "Substitutions and calibration decisions", item 10).
pub fn unit_size(total_warp_insts: u64) -> u64 {
    (total_warp_insts / TARGET_UNITS).clamp(2_000, 1_000_000)
}

/// Run the full timing simulation of `run` and collect its sampling
/// units (concatenated across launches, in execution order).
///
/// Returns the units, each with its BBV (Ideal-SimPoint's input), and the
/// full-simulation overall IPC (the error reference).
pub fn collect_units(
    run: &KernelRun,
    gpu: &GpuConfig,
    unit_warp_insts: u64,
) -> (Vec<UnitRecord>, f64) {
    let result = simulate_run(
        run,
        gpu,
        &mut NullSampling,
        Some(UnitsConfig { unit_warp_insts }),
    );
    let ipc = result.overall_ipc();
    let units = result.launches.into_iter().flat_map(|l| l.units).collect();
    (units, ipc)
}

/// Predicted overall IPC from a subset of units: total selected
/// instructions over total selected cycles — the cycle-weighted analogue
/// of Eq. 1's weighted-CPI sum.
pub(crate) fn subset_ipc(units: &[UnitRecord], selected: &[usize]) -> f64 {
    let insts: u64 = selected.iter().map(|&i| units[i].warp_insts).sum();
    let cycles: u64 = selected.iter().map(|&i| units[i].cycles).sum();
    if cycles == 0 {
        0.0
    } else {
        insts as f64 / cycles as f64
    }
}

/// Fraction of all instructions contained in the selected units.
pub(crate) fn subset_fraction(units: &[UnitRecord], selected: &[usize]) -> f64 {
    let total: u64 = units.iter().map(|u| u.warp_insts).sum();
    if total == 0 {
        return 0.0;
    }
    let sel: u64 = selected.iter().map(|&i| units[i].warp_insts).sum();
    sel as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn fake_units(ipcs: &[f64]) -> Vec<UnitRecord> {
        ipcs.iter()
            .map(|&ipc| UnitRecord {
                start_cycle: 0,
                cycles: (1000.0 / ipc) as u64,
                warp_insts: 1000,
                bbv: vec![],
            })
            .collect()
    }

    #[test]
    fn subset_ipc_is_cycle_weighted() {
        let units = fake_units(&[1.0, 0.5]);
        // All units: 2000 insts / (1000 + 2000) cycles = 0.667.
        let ipc = subset_ipc(&units, &[0, 1]);
        assert!((ipc - 2.0 / 3.0).abs() < 1e-9);
        assert!((subset_ipc(&units, &[0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unit_size_targets_sixty_units_within_the_clamp() {
        assert_eq!(unit_size(6_000_000), 100_000);
        assert_eq!(unit_size(60_000), 2_000);
        assert_eq!(unit_size(0), 2_000);
        assert_eq!(unit_size(600_000_000), 1_000_000);
    }

    #[test]
    fn subset_fraction_counts_insts() {
        let units = fake_units(&[1.0, 1.0, 1.0, 1.0]);
        assert!((subset_fraction(&units, &[0]) - 0.25).abs() < 1e-12);
        assert_eq!(subset_fraction(&[], &[]), 0.0);
    }
}
