//! Systematic sampling — the third approach the paper discusses
//! (Section VI, Related Work): "systematic sampling selects a random
//! starting point and takes samples periodically; for example, 0.1
//! million instructions are simulated for every 10 million instructions."
//!
//! The paper argues it is orthogonal-but-inferior for GPGPU kernels:
//! the simulated instruction count is proportional to the total (no
//! benefit from regularity), and it offers no insight into *why* a
//! sample is representative. Implemented here so the claim can be
//! measured rather than asserted — `tbpoint eval`/EXPERIMENTS.md
//! include it in the comparison.

use crate::{subset_fraction, subset_ipc, BaselineResult};
use tbpoint_sim::UnitRecord;
use tbpoint_stats::SplitMix64;

/// Period: one unit is kept out of every `PERIOD` units. The paper's
/// example ratio (0.1M simulated per 10M) is 1:100; its Random baseline
/// uses 10%, so the same 10% budget keeps the two directly comparable.
const PERIOD: usize = 10;

/// Seed of the random starting offset.
const SEED: u64 = 0x5A5;

/// Keep every tenth unit starting from a random offset and predict the
/// overall IPC from the kept units.
pub fn systematic_sampling(units: &[UnitRecord]) -> BaselineResult {
    if units.is_empty() {
        return BaselineResult {
            predicted_ipc: 0.0,
            sample_size: 0.0,
            num_units: 0,
            num_selected: 0,
        };
    }
    // offset < PERIOD: usize, so the u64 round-trip is exact.
    #[expect(clippy::cast_possible_truncation)]
    let offset = SplitMix64::new(SEED).next_index(PERIOD as u64) as usize;
    let selected: Vec<usize> = (offset..units.len()).step_by(PERIOD).collect();
    // Degenerate short streams: keep at least the offset unit.
    let selected = if selected.is_empty() {
        vec![units.len() - 1]
    } else {
        selected
    };
    BaselineResult {
        predicted_ipc: subset_ipc(units, &selected),
        sample_size: subset_fraction(units, &selected),
        num_units: units.len(),
        num_selected: selected.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::fake_units;

    #[test]
    fn keeps_one_in_period() {
        let units = fake_units(&[1.0; 100]);
        let r = systematic_sampling(&units);
        assert_eq!(r.num_selected, 10);
        assert!((r.sample_size - 0.10).abs() < 1e-12);
        assert!((r.predicted_ipc - 1.0).abs() < 1e-9);
    }

    #[test]
    fn offset_is_bounded() {
        // Whatever the offset, 40 units hold exactly four periods.
        let units = fake_units(&[1.0; 40]);
        assert_eq!(systematic_sampling(&units).num_selected, 4);
    }

    #[test]
    fn periodic_workload_aliases_with_matching_period() {
        // Five fast then five slow units, repeating with the sampling
        // period: systematic sampling sees only one phase — the aliasing
        // failure mode the paper's regular kernels expose.
        let ipcs: Vec<f64> = (0..100)
            .map(|i| if i % PERIOD < 5 { 1.0 } else { 0.25 })
            .collect();
        let units = fake_units(&ipcs);
        let full = {
            let insts: u64 = units.iter().map(|u| u.warp_insts).sum();
            let cycles: u64 = units.iter().map(|u| u.cycles).sum();
            insts as f64 / cycles as f64
        };
        let r = systematic_sampling(&units);
        assert!(
            r.error_vs(full) > 30.0,
            "aliasing should mispredict badly, got {:.2}%",
            r.error_vs(full)
        );
    }

    #[test]
    fn short_streams_keep_at_least_one_unit() {
        let units = fake_units(&[0.5, 0.5]);
        let r = systematic_sampling(&units);
        assert!(r.num_selected >= 1);
        assert!(r.predicted_ipc > 0.0);
    }

    #[test]
    fn deterministic() {
        let units = fake_units(&[1.0, 0.5, 0.7, 0.9, 0.2, 1.0, 0.5, 0.7, 0.9, 0.2]);
        assert_eq!(systematic_sampling(&units), systematic_sampling(&units));
    }

    #[test]
    fn empty_units_is_graceful() {
        let r = systematic_sampling(&[]);
        assert_eq!(r.num_units, 0);
    }
}
