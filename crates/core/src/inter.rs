//! Inter-launch sampling (Section III of the paper).
//!
//! Kernel launches with homogeneous behaviour are clustered so only one
//! launch per cluster needs cycle-level simulation. The feature vector is
//! deliberately *not* a BBV: the paper argues GPGPU kernels have few basic
//! blocks whose counts correlate poorly with performance, while these four
//! features track the actual sources of IPC variation (size, control-flow
//! divergence, memory divergence, thread-block interleaving). Launches are
//! grouped by complete-linkage hierarchical clustering under one distance
//! threshold σ, which sets the cluster count without a per-kernel search.

use crate::error::{invalid, TbError};
use serde::{Deserialize, Serialize};
use tbpoint_cluster::{hierarchical_cluster, normalize_by_mean, Clustering};
use tbpoint_emu::{InterFeatures, LaunchProfile, RunProfile};

/// Inter-launch clustering parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterConfig {
    /// Distance threshold σ of the hierarchical clustering (paper: 0.1).
    pub sigma: f64,
}

impl Default for InterConfig {
    fn default() -> Self {
        InterConfig { sigma: 0.1 }
    }
}

impl InterConfig {
    /// Reject values clustering cannot run with.
    ///
    /// # Errors
    ///
    /// [`TbError::InvalidConfig`] when σ is non-finite or non-positive.
    pub fn validate(&self) -> Result<(), TbError> {
        if !self.sigma.is_finite() || self.sigma <= 0.0 {
            return Err(invalid(
                "inter.sigma",
                format!("must be finite and positive (got {})", self.sigma),
            ));
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
}

impl InterResult {
    /// Number of launches that must be simulated.
    pub fn num_simulated(&self) -> usize {
        self.representatives.len()
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
/// predicts IPC. They are then normalised by their mean across launches;
/// the TB-size CoV, already a scale-free ratio, enters as is (see
/// DESIGN.md).
pub fn inter_launch_sample_at(
    profile: &RunProfile,
    cfg: &InterConfig,
    occupancy: u32,
) -> InterResult {
    let features: Vec<InterFeatures> = profile
        .launches
        .iter()
        .map(LaunchProfile::inter_features)
        .collect();
    inter_launch_sample_trusted(
        profile,
        &features,
        &vec![true; features.len()],
        cfg,
        occupancy,
    )
}

/// The clustering points of launches `members`, in that order: Eq. 2's
/// features with the extensive ones clipped to one wave and divided by
/// their mean over `members`, and the TB-size CoV as is.
fn points(
    profile: &RunProfile,
    features: &[InterFeatures],
    members: &[usize],
    occupancy: u32,
) -> Vec<Vec<f64>> {
    let raw: Vec<Vec<f64>> = members
        .iter()
        .map(|&i| {
            let mut point = features[i].to_point();
            let wave =
                (f64::from(occupancy) / profile.launches[i].num_blocks().max(1) as f64).min(1.0);
            for x in &mut point[..TB_SIZE_COV] {
                *x *= wave;
            }
            point
        })
        .collect();
    let mut normalised = normalize_by_mean(&raw);
    // Divided by its mean across launches, sssp's CoVs of 0.025-0.054
    // would sit ±40% apart and split equal-size launches whose IPC agrees.
    for (f, r) in normalised.iter_mut().zip(&raw) {
        f[TB_SIZE_COV] = r[TB_SIZE_COV];
    }
    normalised
}

/// [`inter_launch_sample_at`] over the launches `trusted` marks, given
/// every launch's features. The other launches are left out of
/// clustering (and of the feature means): each is a cluster of its own,
/// numbered after the clustered ones, that it represents.
pub(crate) fn inter_launch_sample_trusted(
    profile: &RunProfile,
    features: &[InterFeatures],
    trusted: &[bool],
    cfg: &InterConfig,
    occupancy: u32,
) -> InterResult {
    let members: Vec<usize> = (0..features.len()).filter(|&i| trusted[i]).collect();
    let normalised = points(profile, features, &members, occupancy);
    let clustering = hierarchical_cluster(&normalised, cfg.sigma);
    let mut representatives: Vec<usize> = clustering
        .representatives(&normalised)
        .into_iter()
        .map(|r| members[r])
        .collect();

    let mut assignments = vec![0; features.len()];
    for (&i, &c) in members.iter().zip(&clustering.assignments) {
        assignments[i] = c;
    }
    for (i, _) in trusted.iter().enumerate().filter(|(_, &t)| !t) {
        assignments[i] = representatives.len();
        representatives.push(i);
    }
    InterResult {
        clustering: Clustering {
            assignments,
            num_clusters: representatives.len(),
        },
        representatives,
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
        assert_eq!(r.clustering.assignments, vec![0; 12]);
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
    fn launches_map_to_their_clusters_representative() {
        let run = run_with_launches(&[(40, 1.0), (40, 1.0), (400, 8.0)]);
        let profile = profile_run(&run, 1);
        let r = inter_launch_sample(&profile, &InterConfig::default());
        // Launches 0 and 1 share a cluster; launch 2 represents its own.
        assert_eq!(r.clustering.assignments, [0, 0, 1]);
        assert_eq!(r.representatives[1], 2);
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
        let tight = inter_launch_sample(&profile, &InterConfig { sigma: 0.02 });
        let loose = inter_launch_sample(&profile, &InterConfig { sigma: 10.0 });
        assert!(tight.num_simulated() >= loose.num_simulated());
        assert_eq!(loose.num_simulated(), 1);
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
            LaunchProfile::per_block(spec, tbs)
        };
        RunProfile {
            kernel_name: "k".to_string(),
            launches: launches.iter().enumerate().map(launch).collect(),
        }
    }

    /// Every launch's clustering point.
    fn all_points(profile: &RunProfile, occupancy: u32) -> Vec<Vec<f64>> {
        let features: Vec<InterFeatures> = profile
            .launches
            .iter()
            .map(LaunchProfile::inter_features)
            .collect();
        let members: Vec<usize> = (0..features.len()).collect();
        points(profile, &features, &members, occupancy)
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
        assert_eq!(r.num_simulated(), 1);
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
        assert_eq!(r.clustering.assignments, [0, 1, 0, 1]);
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
        assert_eq!(r.num_simulated(), 1);
        let p = all_points(&profile, 112);
        assert_eq!(p[0][TB_SIZE_COV], profile.launches[0].tb_size_cov());
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
        assert_eq!(r.clustering.assignments, [0, 0, 1, 0]);
        assert_eq!(r.representatives[1], 2);
    }

    #[test]
    fn extensive_features_are_mean_normalised() {
        let run = run_with_launches(&[(10, 1.0), (30, 1.0)]);
        let profile = profile_run(&run, 1);
        let p = all_points(&profile, u32::MAX);
        for d in 0..3 {
            let avg: f64 = p.iter().map(|f| f[d]).sum::<f64>() / p.len() as f64;
            assert!((avg - 1.0).abs() < 1e-9, "dimension {d} averages to {avg}");
        }
    }
}
