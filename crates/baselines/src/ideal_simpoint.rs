//! The Ideal-SimPoint baseline (Section V-A).
//!
//! SimPoint's recipe, applied to per-unit BBVs harvested from a *full*
//! timing simulation: normalise each unit's BBV by its instruction count
//! (Eq. 1), cluster with k-means + BIC, keep the unit closest to each
//! cluster centroid as the simulation point, and predict the overall IPC
//! as the cluster-weighted combination of the representatives' IPCs.
//!
//! "Ideal" because no real GPU workflow could collect these BBVs without
//! the very simulation being avoided — warp scheduling decides which
//! instructions land in which unit.

use crate::{subset_fraction, BaselineResult};
use tbpoint_cluster::{kmeans_best_bic, Point};
use tbpoint_sim::UnitRecord;

/// Largest cluster count k-means may choose (SimPoint's default ~30).
const MAX_K: usize = 30;

/// BIC quality fraction for the smallest-acceptable-k rule.
const BIC_QUALITY: f64 = 0.9;

/// Clustering seed.
const SEED: u64 = 0x51A9;

/// Run Ideal-SimPoint over the recorded units.
///
/// # Panics
/// Panics if any unit's BBV is empty.
pub fn ideal_simpoint(units: &[UnitRecord]) -> BaselineResult {
    if units.is_empty() {
        return BaselineResult {
            predicted_ipc: 0.0,
            sample_size: 0.0,
            num_units: 0,
            num_selected: 0,
        };
    }
    // Eq. 1: BBV entries normalised by the unit's instruction count.
    let points: Vec<Point> = units
        .iter()
        .map(|u| {
            assert!(!u.bbv.is_empty(), "Ideal-SimPoint needs per-unit BBVs");
            let total = u.warp_insts.max(1) as f64;
            u.bbv.iter().map(|&c| c as f64 / total).collect()
        })
        .collect();

    let km = kmeans_best_bic(&points, MAX_K.min(points.len()), SEED, BIC_QUALITY);
    let reps = km.clustering.representatives(&points);

    // Predicted total cycles: each unit contributes its instructions at
    // its cluster representative's IPC (the cycle-domain form of Eq. 1's
    // weighted CPI).
    let mut predicted_cycles = 0.0;
    let mut total_insts = 0u64;
    for (i, u) in units.iter().enumerate() {
        let rep = reps[km.clustering.assignments[i]];
        let rep_ipc = units[rep].ipc();
        total_insts += u.warp_insts;
        if rep_ipc > 0.0 {
            predicted_cycles += u.warp_insts as f64 / rep_ipc;
        }
    }
    let predicted_ipc = if predicted_cycles > 0.0 {
        total_insts as f64 / predicted_cycles
    } else {
        0.0
    };

    BaselineResult {
        predicted_ipc,
        sample_size: subset_fraction(units, &reps),
        num_units: units.len(),
        num_selected: reps.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Units with a BBV signature and an IPC. Signature `s` selects the
    /// hot basic block.
    fn unit(sig: usize, ipc: f64) -> UnitRecord {
        let mut bbv = vec![0u64; 3];
        bbv[sig] = 900;
        bbv[(sig + 1) % 3] = 100;
        UnitRecord {
            start_cycle: 0,
            cycles: (1000.0 / ipc) as u64,
            warp_insts: 1000,
            bbv,
        }
    }

    #[test]
    fn two_phase_program_needs_two_points() {
        let mut units = vec![];
        for _ in 0..20 {
            units.push(unit(0, 1.0));
        }
        for _ in 0..20 {
            units.push(unit(1, 0.25));
        }
        let r = ideal_simpoint(&units);
        assert_eq!(r.num_selected, 2, "two BBV phases -> two simulation points");
        // Exact prediction: each phase is internally homogeneous.
        let full_cycles: u64 = units.iter().map(|u| u.cycles).sum();
        let full_ipc = 40_000.0 / full_cycles as f64;
        assert!(
            r.error_vs(full_ipc) < 1.0,
            "error {:.3}%",
            r.error_vs(full_ipc)
        );
        assert!((r.sample_size - 2.0 / 40.0).abs() < 1e-9);
    }

    #[test]
    fn bbv_blind_to_ipc_differences_within_same_code() {
        // The mst failure mode (Fig. 9): identical BBVs but different
        // IPCs (TLP changes from outlier TBs). Ideal-SimPoint merges the
        // units and mispredicts.
        let mut units = vec![];
        for _ in 0..30 {
            units.push(unit(0, 1.0));
        }
        for _ in 0..10 {
            units.push(unit(0, 0.2)); // same code signature, 5x slower
        }
        let r = ideal_simpoint(&units);
        assert_eq!(r.num_selected, 1, "identical BBVs collapse to one cluster");
        let full_cycles: u64 = units.iter().map(|u| u.cycles).sum();
        let full_ipc = 40_000.0 / full_cycles as f64;
        assert!(
            r.error_vs(full_ipc) > 5.0,
            "BBV blindness should cause visible error, got {:.3}%",
            r.error_vs(full_ipc)
        );
    }

    #[test]
    fn homogeneous_units_one_point_exact() {
        let units: Vec<UnitRecord> = (0..25).map(|_| unit(2, 0.6)).collect();
        let r = ideal_simpoint(&units);
        assert_eq!(r.num_selected, 1);
        assert!((r.predicted_ipc - 0.6).abs() < 0.01);
    }

    #[test]
    fn empty_units_is_graceful() {
        let r = ideal_simpoint(&[]);
        assert_eq!(r.num_units, 0);
    }

    #[test]
    #[should_panic(expected = "needs per-unit BBVs")]
    fn missing_bbv_rejected() {
        let u = UnitRecord {
            start_cycle: 0,
            cycles: 100,
            warp_insts: 100,
            bbv: vec![],
        };
        ideal_simpoint(&[u]);
    }
}
