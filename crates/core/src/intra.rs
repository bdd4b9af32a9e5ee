//! Homogeneous region identification (Section IV-B1 of the paper).
//!
//! Pipeline: thread blocks -> epochs (Eq. 4) -> intra-feature vectors
//! (Eq. 5, average stall probability) -> hierarchical clustering ->
//! variation-factor post-processing (outlier epochs isolated) -> maximal
//! runs of same-cluster epochs become homogeneous regions (Table III).
//!
//! Everything here consumes only the hardware-independent profile plus
//! the *system occupancy* — so when the simulated configuration changes
//! (Figs. 12-13), only this cheap step reruns, never the profiling.

use crate::error::{invalid, TbError};
use serde::{Deserialize, Serialize};
use tbpoint_cluster::hierarchical_cluster;
use tbpoint_emu::LaunchProfile;
use tbpoint_ir::TbId;
use tbpoint_stats::cov_of;

/// Intra-launch clustering parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntraConfig {
    /// Distance threshold σ for epoch clustering (paper: 0.2).
    pub sigma: f64,
    /// Variation-factor threshold above which an epoch is treated as
    /// containing outlier thread blocks (paper: 0.3).
    pub variation_factor: f64,
}

impl Default for IntraConfig {
    fn default() -> Self {
        IntraConfig {
            sigma: 0.2,
            variation_factor: 0.3,
        }
    }
}

impl IntraConfig {
    /// Reject values region identification cannot run with.
    ///
    /// # Errors
    ///
    /// [`TbError::InvalidConfig`] when σ is non-finite or non-positive,
    /// or the variation-factor threshold is non-finite or negative.
    pub fn validate(&self) -> Result<(), TbError> {
        if !self.sigma.is_finite() || self.sigma <= 0.0 {
            return Err(invalid(
                "intra.sigma",
                format!("must be finite and positive (got {})", self.sigma),
            ));
        }
        if !self.variation_factor.is_finite() || self.variation_factor < 0.0 {
            return Err(invalid(
                "intra.variation_factor",
                format!(
                    "must be finite and non-negative (got {})",
                    self.variation_factor
                ),
            ));
        }
        Ok(())
    }
}

/// One epoch: `system_occupancy` consecutive thread blocks (Eq. 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Epoch {
    /// Epoch index within the launch.
    pub index: u32,
    /// First TB id in the epoch (inclusive).
    pub start_tb: u32,
    /// One past the last TB id (exclusive).
    pub end_tb: u32,
    /// Average per-TB stall probability — the intra feature (Eq. 5).
    pub stall_probability: f64,
    /// Variation factor: max of the CoVs of per-TB memory requests and
    /// per-TB warp instructions (Eq. 5).
    pub variation_factor: f64,
}

/// A homogeneous region (one row of Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    /// Region id (the shared epoch-cluster id).
    pub region_id: u32,
    /// First TB id (inclusive).
    pub start_tb: u32,
    /// One past the last TB id (exclusive).
    pub end_tb: u32,
}

/// The homogeneous region table for one launch (Table III).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RegionTable {
    /// Regions in ascending TB order, non-overlapping.
    pub regions: Vec<Region>,
}

impl RegionTable {
    /// The region id covering `tb`, or `None` when the TB is outside all
    /// homogeneous regions (it must then be simulated as usual).
    pub fn region_of(&self, tb: TbId) -> Option<u32> {
        // Regions are sorted by start; binary search the candidate.
        let idx = self.regions.partition_point(|r| r.end_tb <= tb.0);
        self.regions.get(idx).and_then(|r| {
            if r.start_tb <= tb.0 && tb.0 < r.end_tb {
                Some(r.region_id)
            } else {
                None
            }
        })
    }

    /// Total thread blocks covered by regions.
    pub fn covered_tbs(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| (r.end_tb - r.start_tb) as u64)
            .sum()
    }
}

/// Slice the launch's thread blocks into epochs of `occupancy` TBs each
/// (Eq. 4; the trailing epoch may be short) and compute their features.
pub fn build_epochs(profile: &LaunchProfile, occupancy: u32) -> Vec<Epoch> {
    assert!(occupancy > 0, "occupancy must be positive");
    // TB count originates from spec.num_blocks: u32.
    #[expect(clippy::cast_possible_truncation)]
    let n = profile.num_blocks() as u32;
    let mut epochs = Vec::with_capacity(n.div_ceil(occupancy) as usize);
    let mut start = 0u32;
    let mut index = 0u32;
    while start < n {
        let end = (start + occupancy).min(n);
        // Each feature is summed over the epoch in block order, as the
        // slice forms of `mean` and `cov` would.
        let tbs = || profile.tbs_in(start as usize..end as usize);
        let stall: f64 = tbs().map(|t| t.stall_probability()).sum();
        let mem = cov_of(|| tbs().map(|t| t.mem_requests as f64));
        let insts = cov_of(|| tbs().map(|t| t.warp_insts as f64));
        epochs.push(Epoch {
            index,
            start_tb: start,
            end_tb: end,
            stall_probability: stall / f64::from(end - start),
            variation_factor: mem.max(insts),
        });
        start = end;
        index += 1;
    }
    epochs
}

/// Cluster epochs, isolate outliers, and build the region table.
///
/// Epochs whose variation factor exceeds the threshold contain outlier
/// thread blocks; they are excluded from every region so the simulator
/// runs them in full (the paper's mst case).
pub fn identify_regions(epochs: &[Epoch], cfg: &IntraConfig) -> RegionTable {
    if epochs.is_empty() {
        return RegionTable::default();
    }
    // Normalise the stall probabilities by their launch-wide mean before
    // applying the distance threshold. The paper's benchmarks have p well
    // under 1 (memory instructions per instruction), so its σ = 0.2 is a
    // ~20%+ relative band; our divergent gathers produce p of several
    // requests per instruction, which would make an absolute 0.2 band
    // far stricter than intended. Mean-normalising (the same move Eq. 2
    // makes for the inter features) keeps σ's meaning scale-free.
    let raw: Vec<f64> = epochs.iter().map(|e| e.stall_probability).collect();
    let mean_p = tbpoint_stats::mean(&raw);
    let points: Vec<Vec<f64>> = raw
        .iter()
        .map(|&p| vec![if mean_p > 0.0 { p / mean_p } else { p }])
        .collect();
    let clustering = hierarchical_cluster(&points, cfg.sigma);

    // Cluster id per epoch; None marks an isolated (outlier) epoch.
    let labels: Vec<Option<u32>> = epochs
        .iter()
        .zip(&clustering.assignments)
        .map(|(e, &c)| {
            if e.variation_factor > cfg.variation_factor {
                None
            } else {
                // Cluster ids are dense over epochs (< u32::MAX epochs).
                #[expect(clippy::cast_possible_truncation)]
                Some(c as u32)
            }
        })
        .collect();

    // Maximal runs of equal Some(label) become regions.
    let mut regions = Vec::new();
    let mut run_start = 0usize;
    while run_start < epochs.len() {
        let Some(label) = labels[run_start] else {
            run_start += 1;
            continue;
        };
        let mut run_end = run_start + 1;
        while run_end < epochs.len() && labels[run_end] == Some(label) {
            run_end += 1;
        }
        regions.push(Region {
            region_id: label,
            start_tb: epochs[run_start].start_tb,
            end_tb: epochs[run_end - 1].end_tb,
        });
        run_start = run_end;
    }
    RegionTable { regions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbpoint_emu::TbStats;
    use tbpoint_ir::{LaunchId, LaunchSpec};

    /// Hand-built launch profile: each entry is (warp_insts, mem_requests).
    fn launch_profile(tbs: &[(u64, u64)]) -> LaunchProfile {
        LaunchProfile::per_block(
            LaunchSpec {
                launch_id: LaunchId(0),
                num_blocks: tbs.len() as u32,
                work_scale: 1.0,
            },
            tbs.iter()
                .map(|&(w, m)| TbStats {
                    thread_insts: w * 32,
                    warp_insts: w,
                    mem_requests: m,
                })
                .collect(),
            vec![tbs.iter().map(|&(w, _)| w).sum()],
            tbs.iter().map(|&(w, m)| m.min(w)).sum(),
        )
    }

    #[test]
    fn epochs_cover_all_tbs() {
        let lp = launch_profile(&[(100, 20); 10]);
        let epochs = build_epochs(&lp, 4);
        assert_eq!(epochs.len(), 3); // 4 + 4 + 2
        assert_eq!(epochs[0].start_tb, 0);
        assert_eq!(epochs[0].end_tb, 4);
        assert_eq!(epochs[2].start_tb, 8);
        assert_eq!(epochs[2].end_tb, 10);
    }

    #[test]
    fn epoch_features_match_paper_example() {
        // Fig. 6: four epochs at stall probability 0.2, four at some other
        // value -> two clusters, two regions (minus outliers).
        let mut tbs = vec![(100u64, 20u64); 16]; // p = 0.2
        tbs.extend(vec![(100u64, 60u64); 16]); // p = 0.6
        let lp = launch_profile(&tbs);
        let epochs = build_epochs(&lp, 4);
        assert_eq!(epochs.len(), 8);
        assert!((epochs[0].stall_probability - 0.2).abs() < 1e-12);
        assert!((epochs[7].stall_probability - 0.6).abs() < 1e-12);
        assert_eq!(epochs[0].variation_factor, 0.0);

        let table = identify_regions(&epochs, &IntraConfig::default());
        assert_eq!(table.regions.len(), 2);
        assert_eq!(table.regions[0].start_tb, 0);
        assert_eq!(table.regions[0].end_tb, 16);
        assert_eq!(table.regions[1].start_tb, 16);
        assert_eq!(table.regions[1].end_tb, 32);
        assert_ne!(table.regions[0].region_id, table.regions[1].region_id);
    }

    #[test]
    fn outlier_epochs_are_excluded() {
        // Homogeneous TBs except epoch 1, which contains one huge outlier
        // TB (mst-style): that epoch must not join any region.
        let mut tbs = vec![(100u64, 20u64); 12];
        tbs[5] = (5000, 20); // outlier inflates warp-inst CoV of epoch 1
        let lp = launch_profile(&tbs);
        let epochs = build_epochs(&lp, 4);
        assert!(
            epochs[1].variation_factor > 0.3,
            "vf = {}",
            epochs[1].variation_factor
        );
        let table = identify_regions(&epochs, &IntraConfig::default());
        // Regions: epoch 0 alone, epochs 2..3 together.
        assert_eq!(table.regions.len(), 2);
        assert_eq!(table.regions[0].start_tb, 0);
        assert_eq!(table.regions[0].end_tb, 4);
        assert_eq!(table.regions[1].start_tb, 8);
        assert_eq!(table.regions[1].end_tb, 12);
        // The outlier epoch's TBs map to no region.
        assert_eq!(table.region_of(TbId(5)), None);
        assert_eq!(table.region_of(TbId(4)), None);
    }

    #[test]
    fn region_of_lookup() {
        let table = RegionTable {
            regions: vec![
                Region {
                    region_id: 0,
                    start_tb: 0,
                    end_tb: 8,
                },
                Region {
                    region_id: 1,
                    start_tb: 12,
                    end_tb: 20,
                },
            ],
        };
        assert_eq!(table.region_of(TbId(0)), Some(0));
        assert_eq!(table.region_of(TbId(7)), Some(0));
        assert_eq!(table.region_of(TbId(8)), None);
        assert_eq!(table.region_of(TbId(11)), None);
        assert_eq!(table.region_of(TbId(12)), Some(1));
        assert_eq!(table.region_of(TbId(19)), Some(1));
        assert_eq!(table.region_of(TbId(25)), None);
        assert_eq!(table.covered_tbs(), 16);
    }

    #[test]
    fn same_cluster_adjacent_runs_merge() {
        // All epochs identical: a single region spanning the launch.
        let lp = launch_profile(&[(100, 30); 20]);
        let epochs = build_epochs(&lp, 4);
        let table = identify_regions(&epochs, &IntraConfig::default());
        assert_eq!(table.regions.len(), 1);
        assert_eq!(table.regions[0].start_tb, 0);
        assert_eq!(table.regions[0].end_tb, 20);
    }

    #[test]
    fn alternating_epochs_form_many_regions() {
        // Epochs alternate stall probability far apart -> every epoch is
        // its own region (consecutive epochs never share a cluster).
        let mut tbs = Vec::new();
        for e in 0..6 {
            let m = if e % 2 == 0 { 10 } else { 90 };
            tbs.extend(vec![(100u64, m as u64); 4]);
        }
        let lp = launch_profile(&tbs);
        let epochs = build_epochs(&lp, 4);
        let table = identify_regions(&epochs, &IntraConfig::default());
        assert_eq!(table.regions.len(), 6);
    }

    /// Epochs of two thread blocks each with the given stall
    /// probabilities and no outliers, without profiling a launch.
    fn epochs_with_stall(ps: impl Iterator<Item = f64>) -> Vec<Epoch> {
        ps.enumerate()
            .map(|(i, p)| Epoch {
                index: i as u32,
                start_tb: 2 * i as u32,
                end_tb: 2 * i as u32 + 2,
                stall_probability: p,
                variation_factor: 0.0,
            })
            .collect()
    }

    // The next two would need a 10 GB and a 1.6 GB distance matrix if
    // clustering cost followed the epoch count instead of the number of
    // distinct feature values.

    #[test]
    fn fifty_thousand_identical_epochs_form_one_region() {
        // lbm-shaped: one stall probability across the whole launch.
        let epochs = epochs_with_stall((0..50_000).map(|_| 0.31));
        let table = identify_regions(&epochs, &IntraConfig::default());
        assert_eq!(
            table.regions,
            vec![Region {
                region_id: 0,
                start_tb: 0,
                end_tb: 100_000,
            }]
        );
    }

    #[test]
    fn twenty_thousand_alternating_epochs_form_two_clusters() {
        let epochs = epochs_with_stall((0..20_000).map(|i| if i % 2 == 0 { 0.1 } else { 0.9 }));
        let table = identify_regions(&epochs, &IntraConfig::default());
        assert_eq!(table.regions.len(), 20_000);
        for (i, r) in table.regions.iter().enumerate() {
            assert_eq!(r.region_id, i as u32 % 2);
            assert_eq!((r.start_tb, r.end_tb), (2 * i as u32, 2 * i as u32 + 2));
        }
    }

    #[test]
    fn empty_launch_gives_empty_table() {
        let lp = launch_profile(&[]);
        let epochs = build_epochs(&lp, 4);
        assert!(epochs.is_empty());
        let table = identify_regions(&epochs, &IntraConfig::default());
        assert!(table.regions.is_empty());
        assert_eq!(table.region_of(TbId(0)), None);
    }

    #[test]
    #[should_panic(expected = "occupancy must be positive")]
    fn zero_occupancy_rejected() {
        build_epochs(&launch_profile(&[(1, 1)]), 0);
    }

    #[test]
    fn sigma_controls_region_granularity() {
        // Slightly different stall probabilities: a tight sigma splits,
        // a loose sigma merges.
        let mut tbs = Vec::new();
        for e in 0..4 {
            tbs.extend(vec![(100u64, 20 + e as u64); 4]); // p = .20 .21 .22 .23
        }
        let lp = launch_profile(&tbs);
        let epochs = build_epochs(&lp, 4);
        let tight = identify_regions(
            &epochs,
            &IntraConfig {
                sigma: 0.001,
                variation_factor: 0.3,
            },
        );
        let loose = identify_regions(
            &epochs,
            &IntraConfig {
                sigma: 0.2,
                variation_factor: 0.3,
            },
        );
        assert!(tight.regions.len() > loose.regions.len());
        assert_eq!(loose.regions.len(), 1);
    }
}
