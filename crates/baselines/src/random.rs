//! The Random baseline: "collect IPC for every sampling unit with one
//! million instructions and randomly select 10% sampling units"
//! (Section V-A).

use crate::{subset_fraction, subset_ipc, BaselineResult};
use tbpoint_sim::UnitRecord;
use tbpoint_stats::SplitMix64;

/// Fraction of units to select (paper: 10%).
const FRACTION: f64 = 0.10;

/// Seed of the selection.
const SEED: u64 = 0xACE;

/// Select 10% of the units uniformly at random (at least one) and
/// predict the overall IPC from the selection.
pub fn random_sampling(units: &[UnitRecord]) -> BaselineResult {
    if units.is_empty() {
        return BaselineResult {
            predicted_ipc: 0.0,
            sample_size: 0.0,
            num_units: 0,
            num_selected: 0,
        };
    }
    let n = units.len();
    // FRACTION is in [0, 1], so the saturating cast stays within [0, n]
    // before the clamp.
    #[expect(clippy::cast_possible_truncation)]
    let k = ((n as f64 * FRACTION).round() as usize).clamp(1, n);
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix64::new(SEED);
    rng.shuffle(&mut idx);
    let selected = &idx[..k];
    BaselineResult {
        predicted_ipc: subset_ipc(units, selected),
        sample_size: subset_fraction(units, selected),
        num_units: n,
        num_selected: k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::fake_units;

    #[test]
    fn selects_ten_percent() {
        let units = fake_units(&[1.0; 100]);
        let r = random_sampling(&units);
        assert_eq!(r.num_selected, 10);
        assert!((r.sample_size - 0.10).abs() < 1e-12);
        assert!((r.predicted_ipc - 1.0).abs() < 1e-9);
    }

    #[test]
    fn always_selects_at_least_one() {
        // 10% of three units rounds to none.
        let units = fake_units(&[2.0, 2.0, 2.0]);
        assert_eq!(random_sampling(&units).num_selected, 1);
    }

    #[test]
    fn homogeneous_units_give_exact_prediction() {
        let units = fake_units(&[0.5; 40]);
        let r = random_sampling(&units);
        assert!((r.predicted_ipc - 0.5).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_units_can_mispredict() {
        // A rare slow phase: random sampling frequently misses it, which
        // is exactly the paper's complaint about random sampling on
        // irregular kernels. The selection is fixed, so move the phase:
        // check that *some* placement of it mispredicts.
        let mut worst = 0.0f64;
        for start in (0..100).step_by(5) {
            let ipcs: Vec<f64> = (0..100)
                .map(|i| {
                    if (start..start + 5).contains(&i) {
                        0.05
                    } else {
                        1.0
                    }
                })
                .collect();
            let units = fake_units(&ipcs);
            let full: f64 = {
                let insts: u64 = units.iter().map(|u| u.warp_insts).sum();
                let cycles: u64 = units.iter().map(|u| u.cycles).sum();
                insts as f64 / cycles as f64
            };
            worst = worst.max(random_sampling(&units).error_vs(full));
        }
        assert!(
            worst > 10.0,
            "worst random error {worst:.1}% suspiciously low"
        );
    }

    #[test]
    fn deterministic() {
        let units = fake_units(&[1.0, 0.4, 0.9, 0.2, 0.7, 1.0, 0.4, 0.9, 0.2, 0.7]);
        assert_eq!(random_sampling(&units), random_sampling(&units));
    }

    #[test]
    fn empty_units_is_graceful() {
        let r = random_sampling(&[]);
        assert_eq!(r.num_units, 0);
        assert_eq!(r.predicted_ipc, 0.0);
    }
}
