//! Inter-launch sampling (Section III of the paper).
//!
//! Kernel launches with homogeneous behaviour are clustered so only one
//! launch per cluster needs cycle-level simulation. The feature vector is
//! deliberately *not* a BBV: the paper argues GPGPU kernels have few basic
//! blocks whose counts correlate poorly with performance, while these four
//! features track the actual sources of IPC variation (size, control-flow
//! divergence, memory divergence, thread-block interleaving).

use crate::error::{invalid, TbError};
use serde::{Deserialize, Serialize};
use tbpoint_cluster::{hierarchical_cluster, kmeans_best_bic, normalize_by_mean, Clustering};
use tbpoint_emu::RunProfile;

/// Which clustering algorithm groups the launches.
///
/// The paper argues for hierarchical clustering (the σ threshold sets the
/// cluster count automatically); the k-means+BIC variant exists for the
/// design-choice ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InterAlgo {
    /// Complete-linkage hierarchical clustering with distance threshold σ.
    Hierarchical,
    /// k-means with BIC model selection (SimPoint's approach), searching
    /// `k = 1..=max_k`.
    KMeansBic {
        /// Largest cluster count considered.
        max_k: usize,
    },
}

/// Inter-launch clustering parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterConfig {
    /// Distance threshold σ of the hierarchical clustering (paper: 0.1).
    pub sigma: f64,
    /// Clustering algorithm (paper: hierarchical).
    pub algo: InterAlgo,
    /// Append the launch's normalised BBV to the feature vector — the
    /// extension the paper's footnote 2 leaves for future work ("The BBV
    /// can be added as another feature for improving accuracy with the
    /// cost of increased total sample size"). Off by default (the
    /// paper's configuration).
    pub use_bbv: bool,
}

impl Default for InterConfig {
    fn default() -> Self {
        InterConfig {
            sigma: 0.1,
            algo: InterAlgo::Hierarchical,
            use_bbv: false,
        }
    }
}

impl InterConfig {
    /// Reject values clustering cannot run with.
    ///
    /// # Errors
    ///
    /// [`TbError::InvalidConfig`] when σ is non-finite or non-positive,
    /// or the k-means variant searches zero cluster counts.
    pub fn validate(&self) -> Result<(), TbError> {
        if !self.sigma.is_finite() || self.sigma <= 0.0 {
            return Err(invalid(
                "inter.sigma",
                format!("must be finite and positive (got {})", self.sigma),
            ));
        }
        if let InterAlgo::KMeansBic { max_k } = self.algo {
            if max_k == 0 {
                return Err(invalid("inter.algo.max_k", "must be at least 1 (got 0)"));
            }
        }
        Ok(())
    }
}

/// Result of inter-launch sampling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterResult {
    /// Cluster id per launch (dense).
    pub clustering: Clustering,
    /// Per cluster, the index of the representative launch (the
    /// simulation point): the member closest to the cluster centroid.
    pub representatives: Vec<usize>,
    /// The normalised feature vectors that were clustered (Eq. 2).
    pub features: Vec<Vec<f64>>,
}

impl InterResult {
    /// Number of launches that must be simulated.
    pub fn num_simulated(&self) -> usize {
        self.representatives.len()
    }

    /// The representative launch index for launch `i`'s cluster.
    pub fn representative_of(&self, i: usize) -> usize {
        self.representatives[self.clustering.assignments[i]]
    }

    /// Is launch `i` a simulation point?
    pub fn is_representative(&self, i: usize) -> bool {
        self.representative_of(i) == i
    }
}

/// Position of the TB-size CoV in [`tbpoint_emu::InterFeatures::to_point`];
/// the three extensive features come before it.
const TB_SIZE_COV: usize = 3;

/// [`inter_launch_sample_at`] with no wave clip: every launch's size
/// counts in full.
#[doc(hidden)]
pub fn inter_launch_sample(profile: &RunProfile, cfg: &InterConfig) -> InterResult {
    inter_launch_sample_at(profile, cfg, u32::MAX)
}

/// Cluster the launches of `profile` per Eq. 2 and pick representatives.
///
/// `occupancy` is the machine-wide wave, in blocks
/// ([`tbpoint_sim::GpuConfig::system_occupancy`], the epoch size). The
/// extensive features (thread insts, warp insts, mem requests) count a
/// launch's size up to one wave: they are scaled by
/// `min(1, occupancy / num_blocks)`, since past one wave size no longer
/// predicts IPC. They and the BBV extension's entries are then
/// normalised by their mean across launches; the TB-size CoV, already a
/// scale-free ratio, enters as is (see DESIGN.md).
pub fn inter_launch_sample_at(
    profile: &RunProfile,
    cfg: &InterConfig,
    occupancy: u32,
) -> InterResult {
    let raw: Vec<Vec<f64>> = profile
        .launches
        .iter()
        .map(|l| {
            let mut point = l.inter_features().to_point();
            let wave = (f64::from(occupancy) / l.num_blocks().max(1) as f64).min(1.0);
            for x in &mut point[..TB_SIZE_COV] {
                *x *= wave;
            }
            if cfg.use_bbv {
                // Footnote-2 extension: BBV entries normalised by the
                // launch's instruction count (Eq. 1's convention), so
                // they describe the code *mix* independent of size.
                let total = l.warp_insts().max(1) as f64;
                point.extend(l.bbv.iter().map(|&c| c as f64 / total));
            }
            point
        })
        .collect();
    let mut features = normalize_by_mean(&raw);
    // Divided by its mean across launches, sssp's CoVs of 0.025-0.054
    // would sit ±40% apart and split equal-size launches whose IPC agrees.
    for (f, r) in features.iter_mut().zip(&raw) {
        f[TB_SIZE_COV] = r[TB_SIZE_COV];
    }
    let clustering = match cfg.algo {
        InterAlgo::Hierarchical => hierarchical_cluster(&features, cfg.sigma),
        InterAlgo::KMeansBic { max_k } => kmeans_best_bic(&features, max_k, 0xBEEF, 0.9).clustering,
    };
    let representatives = clustering.representatives(&features);
    InterResult {
        clustering,
        representatives,
        features,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbpoint_emu::{profile_run, LaunchProfile, TbStats};
    use tbpoint_ir::{AddrPattern, KernelBuilder, KernelRun, LaunchId, LaunchSpec, Op, TripCount};

    /// A kernel whose launches are exact functions of (num_blocks,
    /// work_scale): constant trip counts, so launches with equal
    /// parameters produce identical feature vectors.
    fn run_with_launches(launches: &[(u32, f64)]) -> KernelRun {
        let mut b = KernelBuilder::new("k", 17, 64);
        let body = b.block(&[
            Op::IAlu,
            Op::LdGlobal(AddrPattern::Coalesced {
                region: 0,
                stride: 4,
            }),
        ]);
        let n = b.loop_(TripCount::Const(10), body);
        let kernel = b.finish(n);
        KernelRun {
            kernel,
            launches: launches
                .iter()
                .enumerate()
                .map(|(i, &(nb, ws))| LaunchSpec {
                    launch_id: LaunchId(i as u32),
                    num_blocks: nb,
                    work_scale: ws,
                })
                .collect(),
        }
    }

    #[test]
    fn homogeneous_launches_need_one_simulation() {
        let run = run_with_launches(&[(40, 1.0); 12]);
        let profile = profile_run(&run, 2);
        let r = inter_launch_sample(&profile, &InterConfig::default());
        assert_eq!(
            r.num_simulated(),
            1,
            "identical launches must share a cluster"
        );
        assert!(r.is_representative(r.representatives[0]));
    }

    #[test]
    fn five_thousand_identical_launches_need_one_simulation() {
        // stream-shaped, at a launch count where clustering cost that
        // followed the launches rather than the distinct feature vectors
        // (a 100 MB distance matrix, cubic merge loop) would not finish.
        let mut profile = profile_run(&run_with_launches(&[(4, 1.0)]), 1);
        let launch = profile.launches[0].clone();
        profile.launches = (0..5_000)
            .map(|i| {
                let mut l = launch.clone();
                l.spec.launch_id = LaunchId(i);
                l
            })
            .collect();
        let r = inter_launch_sample(&profile, &InterConfig::default());
        assert_eq!(r.clustering.num_clusters, 1);
        // Every member ties for closest to the centroid; the middle wins.
        assert_eq!(r.representatives, vec![2_500]);
    }

    #[test]
    fn distinct_launch_sizes_split_clusters() {
        // Launches alternate between tiny and huge grids (bfs-like
        // frontier growth): at least two clusters expected.
        let run = run_with_launches(&[
            (4, 0.5),
            (200, 4.0),
            (4, 0.5),
            (200, 4.0),
            (4, 0.5),
            (200, 4.0),
        ]);
        let profile = profile_run(&run, 2);
        let r = inter_launch_sample(&profile, &InterConfig::default());
        assert!(r.num_simulated() >= 2, "got {} clusters", r.num_simulated());
        // The alternating launches must not share a cluster.
        let a = r.clustering.assignments[0];
        let b = r.clustering.assignments[1];
        assert_ne!(a, b);
        // And the pattern must repeat.
        assert_eq!(r.clustering.assignments[0], r.clustering.assignments[2]);
        assert_eq!(r.clustering.assignments[1], r.clustering.assignments[3]);
    }

    #[test]
    fn representative_of_maps_members_to_their_rep() {
        let run = run_with_launches(&[(40, 1.0), (40, 1.0), (400, 8.0)]);
        let profile = profile_run(&run, 1);
        let r = inter_launch_sample(&profile, &InterConfig::default());
        // Launches 0 and 1 share a representative; launch 2 is its own.
        assert_eq!(r.representative_of(0), r.representative_of(1));
        assert_eq!(r.representative_of(2), 2);
    }

    #[test]
    fn higher_sigma_means_fewer_clusters() {
        let run = run_with_launches(&[
            (10, 1.0),
            (14, 1.2),
            (18, 1.5),
            (24, 1.9),
            (30, 2.4),
            (40, 3.0),
        ]);
        let profile = profile_run(&run, 1);
        let tight = inter_launch_sample(
            &profile,
            &InterConfig {
                sigma: 0.02,
                ..Default::default()
            },
        );
        let loose = inter_launch_sample(
            &profile,
            &InterConfig {
                sigma: 10.0,
                ..Default::default()
            },
        );
        assert!(tight.num_simulated() >= loose.num_simulated());
        assert_eq!(loose.num_simulated(), 1);
    }

    #[test]
    fn bbv_extension_widens_the_feature_vector() {
        let run = run_with_launches(&[(40, 1.0), (40, 1.0), (40, 2.0)]);
        let profile = profile_run(&run, 1);
        let base = inter_launch_sample(&profile, &InterConfig::default());
        let ext = inter_launch_sample(
            &profile,
            &InterConfig {
                use_bbv: true,
                ..Default::default()
            },
        );
        let bbs = run.kernel.num_basic_blocks as usize;
        assert_eq!(ext.features[0].len(), base.features[0].len() + bbs);
        // Identical launches still merge with the extension on.
        assert_eq!(ext.clustering.assignments[0], ext.clustering.assignments[1]);
        // And the footnote's warning holds: the extension can only split
        // clusters further, never merge more.
        assert!(ext.num_simulated() >= base.num_simulated());
    }

    /// A profile of one record per block, with the given thread-inst
    /// counts per block of each launch; warp insts and memory requests
    /// are proportional to them.
    fn profile_of(launches: &[Vec<u64>]) -> RunProfile {
        let launch = |(i, sizes): (usize, &Vec<u64>)| {
            let spec = LaunchSpec {
                launch_id: LaunchId(i as u32),
                num_blocks: sizes.len() as u32,
                work_scale: 1.0,
            };
            let tbs = sizes
                .iter()
                .map(|&t| TbStats {
                    warp_insts: t,
                    thread_insts: 32 * t,
                    mem_requests: t / 4,
                })
                .collect();
            LaunchProfile::per_block(spec, tbs, vec![], 0)
        };
        RunProfile {
            kernel_name: "k".to_string(),
            launches: launches.iter().enumerate().map(launch).collect(),
        }
    }

    /// 100 blocks of mean size 1,000 whose sizes alternate by ±`d`: a
    /// TB-size CoV of `d / 1000` at an equal total.
    fn alternating(d: u64) -> Vec<u64> {
        (0..100)
            .map(|b| if b % 2 == 0 { 1_000 + d } else { 1_000 - d })
            .collect()
    }

    #[test]
    fn launches_past_one_wave_share_a_cluster() {
        // bfs's launches of 88-258 blocks all read IPC 0.19-0.21 at an
        // occupancy of 70: past one wave, size does not predict it.
        let run = run_with_launches(&[(70, 1.0), (100, 1.0), (300, 1.0)]);
        let profile = profile_run(&run, 1);
        let r = inter_launch_sample_at(&profile, &InterConfig::default(), 70);
        assert_eq!(r.num_simulated(), 1, "{:?}", r.features);
        // Without the clip, size splits them.
        assert_eq!(
            inter_launch_sample(&profile, &InterConfig::default()).num_simulated(),
            3
        );
    }

    #[test]
    fn launches_under_one_wave_keep_their_size() {
        // stream's 12- and 13-block launches at an occupancy of 28: a
        // partial wave's IPC follows its size, so they stay apart.
        let run = run_with_launches(&[(12, 1.0), (13, 1.0), (12, 1.0), (13, 1.0)]);
        let profile = profile_run(&run, 1);
        let r = inter_launch_sample_at(&profile, &InterConfig::default(), 28);
        assert_eq!(r.num_simulated(), 2);
        assert_eq!(r.representative_of(0), r.representative_of(2));
        assert_ne!(r.representative_of(0), r.representative_of(1));
    }

    #[test]
    fn a_cov_spread_like_sssps_splits_nothing() {
        // sssp's equal-size launches read CoVs of 0.025-0.054, which do
        // not predict their IPC. Mean-normalised, they sat ±40% apart.
        let profile = profile_of(&[
            alternating(25),
            alternating(35),
            alternating(45),
            alternating(54),
        ]);
        assert!((profile.launches[3].tb_size_cov() - 0.054).abs() < 1e-12);
        let r = inter_launch_sample_at(&profile, &InterConfig::default(), 112);
        assert_eq!(r.num_simulated(), 1, "{:?}", r.features);
        assert_eq!(
            r.features[0][TB_SIZE_COV],
            profile.launches[0].tb_size_cov()
        );
    }

    #[test]
    fn an_outlier_cov_like_msts_still_splits() {
        // mst's outlier launch: the same total work in 15 of 100 blocks,
        // a CoV of sqrt(85 / 15) = 2.38 against its peers' 0.
        let even = vec![1_000; 100];
        let outlier: Vec<u64> = (0..100)
            .map(|b| if b < 15 { 20_000 / 3 } else { 0 })
            .collect();
        let profile = profile_of(&[even.clone(), even.clone(), outlier, even]);
        assert!((profile.launches[2].tb_size_cov() - 2.38).abs() < 0.01);
        let r = inter_launch_sample_at(&profile, &InterConfig::default(), 112);
        assert_eq!(r.num_simulated(), 2);
        assert!(r.is_representative(2));
        assert_eq!(r.representative_of(0), r.representative_of(3));
    }

    #[test]
    fn extensive_features_are_mean_normalised() {
        let run = run_with_launches(&[(10, 1.0), (30, 1.0)]);
        let profile = profile_run(&run, 1);
        let r = inter_launch_sample(&profile, &InterConfig::default());
        for d in 0..3 {
            let avg: f64 = r.features.iter().map(|f| f[d]).sum::<f64>() / r.features.len() as f64;
            assert!((avg - 1.0).abs() < 1e-9, "dimension {d} averages to {avg}");
        }
    }
}
