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
use serde::{Deserialize, Serialize};
use tbpoint_sim::UnitRecord;
use tbpoint_stats::SplitMix64;

/// Systematic-sampling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystematicConfig {
    /// Period: one unit is kept out of every `period` units.
    pub period: usize,
    /// Seed for the random starting offset.
    pub seed: u64,
}

impl Default for SystematicConfig {
    fn default() -> Self {
        // The paper's example ratio (0.1M simulated per 10M) is 1:100;
        // its Random baseline uses 10%. We default to the same 10%
        // budget (period 10) so the two are directly comparable.
        SystematicConfig {
            period: 10,
            seed: 0x5A5,
        }
    }
}

/// Keep every `period`-th unit starting from a random offset and predict
/// the overall IPC from the kept units.
pub fn systematic_sampling(units: &[UnitRecord], cfg: &SystematicConfig) -> BaselineResult {
    if units.is_empty() {
        return BaselineResult {
            predicted_ipc: 0.0,
            sample_size: 0.0,
            num_units: 0,
            num_selected: 0,
        };
    }
    let period = cfg.period.max(1);
    // offset < period: usize, so the u64 round-trip is exact.
    #[expect(clippy::cast_possible_truncation)]
    let offset = SplitMix64::new(cfg.seed).next_index(period as u64) as usize;
    let selected: Vec<usize> = (offset..units.len()).step_by(period).collect();
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
    fn keeps_one_in_period() {
        let units = fake_units(&[1.0; 100]);
        let r = systematic_sampling(&units, &SystematicConfig::default());
        assert_eq!(r.num_selected, 10);
        assert!((r.sample_size - 0.10).abs() < 1e-12);
        assert!((r.predicted_ipc - 1.0).abs() < 1e-9);
    }

    #[test]
    fn offset_is_random_but_bounded() {
        let units = fake_units(&[1.0; 40]);
        for seed in 0..20 {
            let r = systematic_sampling(&units, &SystematicConfig { period: 10, seed });
            assert!(r.num_selected == 4, "seed {seed}: {}", r.num_selected);
        }
    }

    #[test]
    fn periodic_workload_aliases_with_matching_period() {
        // Alternating fast/slow units with period equal to the sampling
        // period: systematic sampling sees only one phase — the aliasing
        // failure mode the paper's regular kernels expose.
        let mut ipcs = vec![];
        for i in 0..100 {
            ipcs.push(if i % 2 == 0 { 1.0 } else { 0.25 });
        }
        let units = fake_units(&ipcs);
        let full = {
            let insts: u64 = units.iter().map(|u| u.warp_insts).sum();
            let cycles: u64 = units.iter().map(|u| u.cycles).sum();
            insts as f64 / cycles as f64
        };
        let r = systematic_sampling(&units, &SystematicConfig { period: 2, seed: 3 });
        assert!(
            r.error_vs(full) > 30.0,
            "aliasing should mispredict badly, got {:.2}%",
            r.error_vs(full)
        );
    }

    #[test]
    fn short_streams_keep_at_least_one_unit() {
        let units = fake_units(&[0.5, 0.5]);
        let r = systematic_sampling(
            &units,
            &SystematicConfig {
                period: 10,
                seed: 0,
            },
        );
        assert!(r.num_selected >= 1);
        assert!(r.predicted_ipc > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let units = fake_units(&[1.0, 0.5, 0.7, 0.9, 0.2, 1.0, 0.5, 0.7, 0.9, 0.2]);
        let a = systematic_sampling(
            &units,
            &SystematicConfig {
                period: 3,
                seed: 11,
            },
        );
        let b = systematic_sampling(
            &units,
            &SystematicConfig {
                period: 3,
                seed: 11,
            },
        );
        assert_eq!(a, b);
    }

    #[test]
    fn empty_units_is_graceful() {
        let r = systematic_sampling(&[], &SystematicConfig::default());
        assert_eq!(r.num_units, 0);
    }
}
