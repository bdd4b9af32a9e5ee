//! The Random baseline: "collect IPC for every sampling unit with one
//! million instructions and randomly select 10% sampling units"
//! (Section V-A).

use crate::{subset_fraction, subset_ipc, BaselineResult};
use serde::{Deserialize, Serialize};
use tbpoint_sim::UnitRecord;
use tbpoint_stats::SplitMix64;

/// Random-sampling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomConfig {
    /// Fraction of units to select (paper: 0.10).
    pub fraction: f64,
    /// RNG seed for the selection.
    pub seed: u64,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            fraction: 0.10,
            seed: 0xACE,
        }
    }
}

/// Select `fraction` of the units uniformly at random (at least one) and
/// predict the overall IPC from the selection.
pub fn random_sampling(units: &[UnitRecord], cfg: &RandomConfig) -> BaselineResult {
    if units.is_empty() {
        return BaselineResult {
            predicted_ipc: 0.0,
            sample_size: 0.0,
            num_units: 0,
            num_selected: 0,
        };
    }
    let n = units.len();
    // fraction is in [0, 1], so the saturating cast stays within [0, n]
    // before the clamp.
    #[expect(clippy::cast_possible_truncation)]
    let k = ((n as f64 * cfg.fraction).round() as usize).clamp(1, n);
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix64::new(cfg.seed);
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
    use tbpoint_sim::UnitRecord;

    fn fake_units(ipcs: &[f64]) -> Vec<UnitRecord> {
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
    fn selects_ten_percent() {
        let units = fake_units(&[1.0; 100]);
        let r = random_sampling(&units, &RandomConfig::default());
        assert_eq!(r.num_selected, 10);
        assert!((r.sample_size - 0.10).abs() < 1e-12);
        assert!((r.predicted_ipc - 1.0).abs() < 1e-9);
    }

    #[test]
    fn always_selects_at_least_one() {
        let units = fake_units(&[2.0, 2.0, 2.0]);
        let r = random_sampling(
            &units,
            &RandomConfig {
                fraction: 0.01,
                seed: 1,
            },
        );
        assert_eq!(r.num_selected, 1);
    }

    #[test]
    fn homogeneous_units_give_exact_prediction() {
        let units = fake_units(&[0.5; 40]);
        let r = random_sampling(&units, &RandomConfig::default());
        assert!((r.predicted_ipc - 0.5).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_units_can_mispredict() {
        // A rare slow phase: random sampling frequently misses it, which
        // is exactly the paper's complaint about random sampling on
        // irregular kernels. Check that *some* seed mispredicts.
        let mut ipcs = vec![1.0; 95];
        ipcs.extend(vec![0.05; 5]);
        let units = fake_units(&ipcs);
        let full: f64 = {
            let insts: u64 = units.iter().map(|u| u.warp_insts).sum();
            let cycles: u64 = units.iter().map(|u| u.cycles).sum();
            insts as f64 / cycles as f64
        };
        let mut worst = 0.0f64;
        for seed in 0..20 {
            let r = random_sampling(
                &units,
                &RandomConfig {
                    fraction: 0.10,
                    seed,
                },
            );
            worst = worst.max(r.error_vs(full));
        }
        assert!(
            worst > 10.0,
            "worst random error {worst:.1}% suspiciously low"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let units = fake_units(&[1.0, 0.4, 0.9, 0.2, 0.7, 1.0, 0.4, 0.9, 0.2, 0.7]);
        let a = random_sampling(
            &units,
            &RandomConfig {
                fraction: 0.3,
                seed: 7,
            },
        );
        let b = random_sampling(
            &units,
            &RandomConfig {
                fraction: 0.3,
                seed: 7,
            },
        );
        assert_eq!(a, b);
    }

    #[test]
    fn empty_units_is_graceful() {
        let r = random_sampling(&[], &RandomConfig::default());
        assert_eq!(r.num_units, 0);
        assert_eq!(r.predicted_ipc, 0.0);
    }
}
