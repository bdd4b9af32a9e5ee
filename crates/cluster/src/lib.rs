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

//! # tbpoint-cluster
//!
//! Clustering algorithms for the TBPoint reproduction.
//!
//! Two algorithms, matching Section III of the paper:
//!
//! * **Hierarchical agglomerative clustering** with a *distance threshold*
//!   stopping rule — TBPoint's choice for both inter-launch and
//!   intra-launch (epoch) clustering. The paper defines the threshold σ as
//!   "the maximum distance between any two points in a cluster", which is
//!   **complete linkage**, the only linkage implemented.
//! * **k-means** (k-means++ seeding, Lloyd iterations) with **BIC** model
//!   selection — what the SimPoint tool uses, needed for the Ideal-SimPoint
//!   baseline and for the "hierarchical vs k-means" design ablation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hierarchical;
pub mod kmeans;
pub mod point;

pub use hierarchical::hierarchical_cluster;
pub use kmeans::{kmeans, kmeans_best_bic, KMeansResult};
pub use point::{centroid, euclidean, normalize_by_mean, Point};

use serde::{Deserialize, Serialize};

/// The outcome of a clustering run: a cluster id per input point.
///
/// Cluster ids are dense (`0..num_clusters`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Clustering {
    /// `assignments[i]` is the cluster of input point `i`.
    pub assignments: Vec<usize>,
    /// Number of distinct clusters.
    pub num_clusters: usize,
}

impl Clustering {
    /// Build from raw assignments, compacting ids to `0..n`.
    pub fn from_assignments(raw: &[usize]) -> Self {
        let mut map = std::collections::BTreeMap::new();
        let mut assignments = Vec::with_capacity(raw.len());
        for &a in raw {
            let next = map.len();
            let id = *map.entry(a).or_insert(next);
            assignments.push(id);
        }
        Clustering {
            assignments,
            num_clusters: map.len(),
        }
    }

    /// Indices of the points in cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| (a == c).then_some(i))
            .collect()
    }

    /// Cluster sizes, indexed by cluster id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.num_clusters];
        for &a in &self.assignments {
            s[a] += 1;
        }
        s
    }

    /// For each cluster, the member whose point is closest to the cluster
    /// centroid — the paper's simulation-point selection rule ("the kernel
    /// launch with the inter-feature vector closest to the center").
    ///
    /// Ties (common when many members are *identical*, e.g. the sampling
    /// units of a perfectly uniform kernel) break toward the member in the
    /// middle of the cluster's time order: boundary members sit in warm-up
    /// or drain transients, so the central one is the least biased
    /// representative.
    pub fn representatives(&self, points: &[Point]) -> Vec<usize> {
        assert_eq!(points.len(), self.assignments.len());
        let mut reps = vec![usize::MAX; self.num_clusters];
        #[expect(clippy::needless_range_loop)] // c is a cluster id, not a position
        for c in 0..self.num_clusters {
            let members = self.members(c);
            let member_points: Vec<Point> = members.iter().map(|&i| points[i].clone()).collect();
            let center = centroid(&member_points);
            let best_d = members
                .iter()
                .map(|&i| euclidean(&points[i], &center))
                .fold(f64::INFINITY, f64::min);
            let mid = members[members.len() / 2];
            // Dense cluster ids guarantee at least one member; `mid` is the
            // (unreachable) fallback rather than a panic.
            let best = members
                .iter()
                .copied()
                .filter(|&i| euclidean(&points[i], &center) <= best_d + 1e-12)
                .min_by_key(|&i| i.abs_diff(mid))
                .unwrap_or(mid);
            reps[c] = best;
        }
        reps
    }

    /// Split point `i` out into a brand-new singleton cluster.
    ///
    /// This is the post-processing step of epoch clustering: epochs with a
    /// high variation factor (outlier thread blocks) are "removed from the
    /// cluster \[they belong\] to and assigned \[their\] own cluster".
    pub fn isolate(&mut self, i: usize) {
        assert!(i < self.assignments.len());
        let old = self.assignments[i];
        // Already a singleton? Nothing to do.
        if self.assignments.iter().filter(|&&a| a == old).count() == 1 {
            return;
        }
        self.assignments[i] = self.num_clusters;
        self.num_clusters += 1;
    }

    /// Maximum pairwise distance within any cluster (diagnostic; complete
    /// linkage with threshold σ keeps this near σ).
    pub fn max_intra_distance(&self, points: &[Point]) -> f64 {
        let mut worst: f64 = 0.0;
        for c in 0..self.num_clusters {
            let m = self.members(c);
            for (ai, &a) in m.iter().enumerate() {
                for &b in &m[ai + 1..] {
                    worst = worst.max(euclidean(&points[a], &points[b]));
                }
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_assignments_compacts() {
        let c = Clustering::from_assignments(&[5, 5, 9, 5, 2]);
        assert_eq!(c.num_clusters, 3);
        assert_eq!(c.assignments, vec![0, 0, 1, 0, 2]);
    }

    #[test]
    fn members_and_sizes() {
        let c = Clustering::from_assignments(&[0, 1, 0, 1, 1]);
        assert_eq!(c.members(0), vec![0, 2]);
        assert_eq!(c.members(1), vec![1, 3, 4]);
        assert_eq!(c.sizes(), vec![2, 3]);
    }

    #[test]
    fn representative_is_closest_to_centroid() {
        let points: Vec<Point> = vec![vec![0.0], vec![1.0], vec![2.0], vec![10.0]];
        let c = Clustering::from_assignments(&[0, 0, 0, 1]);
        let reps = c.representatives(&points);
        // Centroid of {0,1,2} is 1.0 -> representative is index 1.
        assert_eq!(reps, vec![1, 3]);
    }

    #[test]
    fn isolate_moves_to_new_cluster() {
        let mut c = Clustering::from_assignments(&[0, 0, 0]);
        c.isolate(1);
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.assignments, vec![0, 1, 0]);
        // Isolating a point that is already a singleton is a no-op.
        c.isolate(1);
        assert_eq!(c.num_clusters, 2);
    }

    #[test]
    fn max_intra_distance_reports_worst_pair() {
        let points: Vec<Point> = vec![vec![0.0], vec![3.0], vec![100.0]];
        let c = Clustering::from_assignments(&[0, 0, 1]);
        assert_eq!(c.max_intra_distance(&points), 3.0);
    }
}
