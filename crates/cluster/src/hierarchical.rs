//! Hierarchical agglomerative clustering with a distance-threshold stop.
//!
//! The paper picks hierarchical clustering over k-means precisely because
//! "the number of clusters can be determined automatically by setting the
//! *distance threshold* σ, which is the maximum distance between any two
//! points in a cluster" (Section III). That definition corresponds to
//! **complete linkage**: merging stops when no pair of clusters can merge
//! without some intra-cluster pair exceeding σ.
//!
//! Implementation: bitwise-identical points are first collapsed to one
//! representative each, then a greedy agglomerative loop runs over the `m`
//! distinct representatives on a condensed distance matrix updated with the
//! Lance–Williams recurrences. Memory is `m(m-1)/2` distances; time is
//! O(n log m) for the grouping pass plus O(m²) for the loop while the
//! nearest-neighbour cache holds. The cache degrades towards O(m³) when
//! many clusters *tie* for the same nearest neighbour: every entry that
//! points at a merged pair needs a fresh O(m) scan.
//!
//! Ties among duplicates were the common case, not a corner: homogeneity —
//! identical feature vectors — is the premise TBPoint samples on. A regular
//! kernel's launch is thousands of epochs with a single distinct stall
//! probability (lbm: 1,286 epochs, 1 value), and an iterative solver is
//! hundreds of launches with one distinct inter-feature vector (stream:
//! 211). Uncollapsed, every one of the n-1 zero-distance merges invalidated
//! every cache entry, so exactly the workloads the paper targets paid n³.
//! Collapsed they cost one map lookup per point and `m ≤ 2`; the cubic term
//! survives only for ties among *distinct* points, and irregular kernels —
//! the ones with many distinct values — have tens of epochs, not thousands.
//!
//! The collapse is exact, not approximate (see [`hierarchical_cluster`]).

use crate::point::{euclidean, Point};
use crate::Clustering;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Linkage criterion: how the distance between two *clusters* is derived
/// from point distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum pairwise distance (chains easily; ablation only).
    Single,
    /// Maximum pairwise distance — matches the paper's σ definition.
    Complete,
    /// Unweighted average pairwise distance (UPGMA; ablation only).
    Average,
}

/// A point ordered by the bit patterns of its coordinates, so that map
/// equality is bitwise identity (`-0.0` and `0.0` stay distinct points, at
/// distance zero from each other).
struct Bits<'a>(&'a [f64]);

impl Ord for Bits<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        let bits = |p: &Self| p.0.iter().copied().map(f64::to_bits);
        bits(self).cmp(bits(other))
    }
}

impl PartialOrd for Bits<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Bits<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Bits<'_> {}

/// Agglomeratively cluster `points`, merging greedily while the closest
/// pair of clusters is within `threshold` under `linkage`.
///
/// Returns dense cluster ids ordered by first appearance. An empty input
/// yields an empty clustering; a single point yields one cluster.
///
/// Bitwise-identical points are clustered as one representative (the first
/// of them), so cost follows the number of *distinct* points. The result is
/// the one the uncollapsed loop produces, for these reasons. Duplicates are
/// at distance zero from each other and have bit-identical distances to
/// every other point. With `threshold >= 0` the loop performs every
/// zero-distance merge before any other; it always picks the
/// lowest-indexed closest pair and keeps the lower index as the survivor,
/// so a cluster absorbs each group's first member before its duplicates;
/// and absorbing a duplicate of a member leaves a `max` or `min`
/// Lance–Williams row unchanged. Once the zero-distance merges are done the
/// uncollapsed state is therefore the collapsed one with every group
/// expanded, and the two runs make the same merges from there. (Single
/// linkage needs none of this: its result is the connected components of
/// the `distance <= threshold` graph, whatever the merge order.)
///
/// The argument needs each of its premises, so the collapse is skipped —
/// every point is its own representative — when one fails:
/// `threshold < 0` or NaN (zero-distance pairs do not merge first, or at
/// all), a non-finite coordinate (a duplicate of such a point is at
/// distance NaN from it, not zero), and [`Linkage::Average`], whose update
/// `(sa·d + sb·d) / (sa + sb)` is not guaranteed to round back to `d`.
/// Average linkage is ablation-only and never sees large inputs.
pub fn hierarchical_cluster(points: &[Point], threshold: f64, linkage: Linkage) -> Clustering {
    let collapse = threshold >= 0.0
        && linkage != Linkage::Average
        && points.iter().flatten().all(|x| x.is_finite());

    // group_of[i]: group of point i, numbered by first appearance;
    // reps[g]: first point of group g; size[g]: member count.
    let mut group_of: Vec<usize> = Vec::with_capacity(points.len());
    let mut reps: Vec<usize> = Vec::new();
    let mut size: Vec<usize> = Vec::new();
    let mut seen: BTreeMap<Bits, usize> = BTreeMap::new();
    for (i, p) in points.iter().enumerate() {
        let fresh = reps.len();
        let g = if collapse {
            *seen.entry(Bits(p)).or_insert(fresh)
        } else {
            fresh
        };
        if g == fresh {
            reps.push(i);
            size.push(0);
        }
        size[g] += 1;
        group_of.push(g);
    }
    let m = reps.len();
    if m < 2 {
        return Clustering::from_assignments(&group_of);
    }

    // dist[i][j] for i < j, stored in a flat upper-triangular layout.
    let idx = |i: usize, j: usize| {
        debug_assert!(i < j);
        i * m - i * (i + 1) / 2 + (j - i - 1)
    };
    let mut dist = vec![0.0f64; m * (m - 1) / 2];
    for i in 0..m {
        for j in (i + 1)..m {
            dist[idx(i, j)] = euclidean(&points[reps[i]], &points[reps[j]]);
        }
    }

    // active[c]: cluster c still exists. parent[c]: the cluster c was
    // merged into (itself while active); always the lower index.
    let mut active = vec![true; m];
    let mut parent: Vec<usize> = (0..m).collect();

    // Nearest-neighbour cache: nn[i] = (distance, j) over active j != i.
    // Recomputing only invalidated entries keeps the merge loop at an
    // amortised O(m^2) instead of the naive O(m^3) full rescan, as
    // long as few entries tie on the pair being merged.
    let pair_dist = |dist: &[f64], i: usize, j: usize| dist[idx(i.min(j), i.max(j))];
    let compute_nn = |dist: &[f64], active: &[bool], i: usize| -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        #[expect(clippy::needless_range_loop)] // j indexes two parallel arrays
        for j in 0..m {
            if j == i || !active[j] {
                continue;
            }
            let d = pair_dist(dist, i, j);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, j));
            }
        }
        best
    };
    let mut nn: Vec<Option<(f64, usize)>> = (0..m).map(|i| compute_nn(&dist, &active, i)).collect();

    loop {
        // Closest active pair via the NN cache.
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..m {
            if !active[i] {
                continue;
            }
            if let Some((d, j)) = nn[i] {
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((i, j, d));
                }
            }
        }
        let Some((a, b, d)) = best else { break };
        if d > threshold {
            break;
        }
        let (a, b) = (a.min(b), a.max(b));
        // Merge b into a; update distances via Lance–Williams.
        for k in 0..m {
            if !active[k] || k == a || k == b {
                continue;
            }
            let dak = pair_dist(&dist, a, k);
            let dbk = pair_dist(&dist, b, k);
            let new = match linkage {
                Linkage::Single => dak.min(dbk),
                Linkage::Complete => dak.max(dbk),
                Linkage::Average => {
                    let (sa, sb) = (size[a] as f64, size[b] as f64);
                    (sa * dak + sb * dbk) / (sa + sb)
                }
            };
            dist[idx(a.min(k), a.max(k))] = new;
        }
        size[a] += size[b];
        active[b] = false;
        parent[b] = a;
        // Repair the NN cache: entries pointing at a or b are stale (a's
        // distances changed, b vanished); a itself needs a fresh scan.
        nn[b] = None;
        nn[a] = compute_nn(&dist, &active, a);
        for i in 0..m {
            if !active[i] || i == a {
                continue;
            }
            match nn[i] {
                Some((_, j)) if j == a || j == b => {
                    nn[i] = compute_nn(&dist, &active, i);
                }
                _ => {
                    // Distance to the merged cluster may have *shrunk*
                    // under single/average linkage — check it.
                    let dia = pair_dist(&dist, i, a);
                    if nn[i].is_none_or(|(bd, _)| dia < bd) {
                        nn[i] = Some((dia, a));
                    }
                }
            }
        }
    }

    // parent[c] < c for every merged c, so one ascending pass turns the
    // pointers into roots.
    for c in 0..m {
        parent[c] = parent[parent[c]];
    }
    let roots: Vec<usize> = group_of.iter().map(|&g| parent[g]).collect();
    Clustering::from_assignments(&roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbpoint_stats::SplitMix64;

    fn pts(xs: &[f64]) -> Vec<Point> {
        xs.iter().map(|&x| vec![x]).collect()
    }

    /// The algorithm as it stood before duplicate points were collapsed,
    /// kept verbatim as the oracle for the differential tests below: one
    /// cluster per input point, an n(n-1)/2 distance matrix, a relabel
    /// sweep per merge.
    fn reference_cluster(points: &[Point], threshold: f64, linkage: Linkage) -> Clustering {
        let n = points.len();
        if n == 0 {
            return Clustering {
                assignments: vec![],
                num_clusters: 0,
            };
        }
        if n == 1 {
            return Clustering {
                assignments: vec![0],
                num_clusters: 1,
            };
        }

        // dist[i][j] for i < j, stored in a flat upper-triangular layout.
        let idx = |i: usize, j: usize| {
            debug_assert!(i < j);
            i * n - i * (i + 1) / 2 + (j - i - 1)
        };
        let mut dist = vec![0.0f64; n * (n - 1) / 2];
        for i in 0..n {
            for j in (i + 1)..n {
                dist[idx(i, j)] = euclidean(&points[i], &points[j]);
            }
        }

        // active[c]: cluster c still exists; size[c]: member count.
        let mut active = vec![true; n];
        let mut size = vec![1usize; n];
        // parent pointers for final assignment extraction.
        let mut assign: Vec<usize> = (0..n).collect();

        // Nearest-neighbour cache: nn[i] = (distance, j) over active j != i.
        // Recomputing only invalidated entries keeps the merge loop at an
        // amortised O(n^2) instead of the naive O(n^3) full rescan.
        let pair_dist = |dist: &[f64], i: usize, j: usize| dist[idx(i.min(j), i.max(j))];
        let compute_nn = |dist: &[f64], active: &[bool], i: usize| -> Option<(f64, usize)> {
            let mut best: Option<(f64, usize)> = None;
            #[expect(clippy::needless_range_loop)] // j indexes two parallel arrays
            for j in 0..n {
                if j == i || !active[j] {
                    continue;
                }
                let d = pair_dist(dist, i, j);
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, j));
                }
            }
            best
        };
        let mut nn: Vec<Option<(f64, usize)>> =
            (0..n).map(|i| compute_nn(&dist, &active, i)).collect();

        loop {
            // Closest active pair via the NN cache.
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..n {
                if !active[i] {
                    continue;
                }
                if let Some((d, j)) = nn[i] {
                    if best.is_none_or(|(_, _, bd)| d < bd) {
                        best = Some((i, j, d));
                    }
                }
            }
            let Some((a, b, d)) = best else { break };
            if d > threshold {
                break;
            }
            let (a, b) = (a.min(b), a.max(b));
            // Merge b into a; update distances via Lance–Williams.
            for k in 0..n {
                if !active[k] || k == a || k == b {
                    continue;
                }
                let dak = pair_dist(&dist, a, k);
                let dbk = pair_dist(&dist, b, k);
                let new = match linkage {
                    Linkage::Single => dak.min(dbk),
                    Linkage::Complete => dak.max(dbk),
                    Linkage::Average => {
                        let (sa, sb) = (size[a] as f64, size[b] as f64);
                        (sa * dak + sb * dbk) / (sa + sb)
                    }
                };
                dist[idx(a.min(k), a.max(k))] = new;
            }
            size[a] += size[b];
            active[b] = false;
            for asg in assign.iter_mut() {
                if *asg == b {
                    *asg = a;
                }
            }
            // Repair the NN cache: entries pointing at a or b are stale (a's
            // distances changed, b vanished); a itself needs a fresh scan.
            nn[b] = None;
            nn[a] = compute_nn(&dist, &active, a);
            for i in 0..n {
                if !active[i] || i == a {
                    continue;
                }
                match nn[i] {
                    Some((_, j)) if j == a || j == b => {
                        nn[i] = compute_nn(&dist, &active, i);
                    }
                    _ => {
                        // Distance to the merged cluster may have *shrunk*
                        // under single/average linkage — check it.
                        let dia = pair_dist(&dist, i, a);
                        if nn[i].is_none_or(|(bd, _)| dia < bd) {
                            nn[i] = Some((dia, a));
                        }
                    }
                }
            }
        }

        Clustering::from_assignments(&assign)
    }

    /// Uniform in `0..n`.
    fn below(rng: &mut SplitMix64, n: usize) -> usize {
        rng.next_index(n as u64) as usize
    }

    /// One seeded input: up to 64 points in 1-4 dimensions, drawn so that
    /// duplicates, equal distances among distinct points and zero distances
    /// between distinct points are all common, plus a threshold.
    fn random_case(rng: &mut SplitMix64) -> (Vec<Point>, f64) {
        let dim = 1 + below(rng, 4);
        // Sizes skew small (the reference is cubic on ties) but reach 64.
        let cap = 1 + below(rng, 65);
        let n = below(rng, cap);
        let step = [0.25, 1.0, 3.0][below(rng, 3)];
        // Coordinate alphabets, by what they provoke.
        let alphabet: Vec<f64> = match below(rng, 6) {
            // Heavy duplicates: a handful of arbitrary values.
            0 => (0..1 + below(rng, 4))
                .map(|_| rng.next_f64() * 4.0)
                .collect(),
            // Grid: many distinct pairs at exactly equal distances.
            1 | 2 => (0..1 + below(rng, 8)).map(|k| k as f64 * step).collect(),
            // Signed zeros: bitwise-distinct points at distance zero.
            3 => vec![-0.0, 0.0, step, -step],
            // Squares that underflow: zero distance is not transitive
            // (|a-b| = |b-c| = 1e-162 squares to 0, |a-c| does not).
            4 => vec![0.0, 1e-162, 2e-162, 3e-162],
            // No structure at all.
            _ => (0..64).map(|_| rng.next_f64() * 4.0).collect(),
        };
        let mut points: Vec<Point> = (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| alphabet[below(rng, alphabet.len())])
                    .collect()
            })
            .collect();
        // Rarely, a non-finite coordinate: such inputs must take the
        // uncollapsed path untouched.
        if n > 0 && below(rng, 50) == 0 {
            let i = below(rng, n);
            points[i][0] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][below(rng, 3)];
            if below(rng, 2) == 0 {
                let twin = points[i].clone();
                points.push(twin);
            }
        }
        let threshold = match below(rng, 10) {
            0..=2 => 0.0,
            3..=5 => step * [0.5, 1.0, std::f64::consts::SQRT_2, 2.0][below(rng, 4)],
            6 => rng.next_f64() * 4.0,
            7 => 1e300,
            8 => [f64::INFINITY, 1e-162, 5e-324][below(rng, 3)],
            _ => [-1.0, -0.0, f64::NAN, f64::NEG_INFINITY][below(rng, 4)],
        };
        (points, threshold)
    }

    /// Run `cases` seeded inputs through both implementations and demand
    /// whole-`Clustering` equality: complete and single linkage on every
    /// case, average (which never collapses) on every eighth.
    fn differential(seed: u64, cases: usize) {
        let mut rng = SplitMix64::new(seed);
        for case in 0..cases {
            let (points, threshold) = random_case(&mut rng);
            let linkages = [Linkage::Complete, Linkage::Single, Linkage::Average];
            for &linkage in &linkages[..if case % 8 == 0 { 3 } else { 2 }] {
                let got = hierarchical_cluster(&points, threshold, linkage);
                let want = reference_cluster(&points, threshold, linkage);
                assert_eq!(
                    got, want,
                    "case {case} (seed {seed:#x}): {linkage:?}, threshold {threshold:?}, points {points:?}"
                );
            }
        }
    }

    #[test]
    fn matches_the_uncollapsed_reference() {
        differential(0x7B90_1247, 20_000);
    }

    #[test]
    #[ignore = "1M cases; CI runs it in release (cargo test --release -p tbpoint-cluster -- --ignored)"]
    fn matches_the_uncollapsed_reference_1m() {
        differential(0x1357_9BDF_2468_ACE0, 1_000_000);
    }

    #[test]
    fn negative_threshold_merges_nothing_not_even_duplicates() {
        let points = pts(&[1.0, 1.0, 2.0, 1.0]);
        for t in [-1.0, -1e-300, f64::NEG_INFINITY] {
            for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
                let c = hierarchical_cluster(&points, t, linkage);
                assert_eq!(c, reference_cluster(&points, t, linkage));
                assert_eq!(c.assignments, vec![0, 1, 2, 3], "threshold {t}");
            }
        }
    }

    #[test]
    fn nan_threshold_never_stops_merging() {
        // `d > NaN` is false, so the stop rule never fires.
        let points = pts(&[1.0, 1.0, 2.0, 50.0, 2.0]);
        for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
            let c = hierarchical_cluster(&points, f64::NAN, linkage);
            assert_eq!(c, reference_cluster(&points, f64::NAN, linkage));
            assert_eq!(c.num_clusters, 1);
        }
    }

    #[test]
    fn infinite_threshold_merges_everything() {
        let points = pts(&[1.0, 1.0, 2.0, 1e308, -1e308, 2.0]);
        for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
            let c = hierarchical_cluster(&points, f64::INFINITY, linkage);
            assert_eq!(c, reference_cluster(&points, f64::INFINITY, linkage));
            assert_eq!(c.num_clusters, 1);
        }
    }

    #[test]
    fn signed_zeros_are_distinct_points_at_distance_zero() {
        let points = pts(&[0.0, -0.0, 1.0, -0.0, 0.0]);
        for linkage in [Linkage::Complete, Linkage::Single] {
            let c = hierarchical_cluster(&points, 0.0, linkage);
            assert_eq!(c, reference_cluster(&points, 0.0, linkage));
            assert_eq!(c.assignments, vec![0, 0, 1, 0, 0]);
        }
    }

    #[test]
    fn cost_follows_distinct_points_not_input_size() {
        // 200,000 points, two distinct values: the uncollapsed distance
        // matrix alone would be 160 GB.
        let points: Vec<Point> = (0..200_000).map(|i| vec![(i % 2) as f64 * 10.0]).collect();
        let c = hierarchical_cluster(&points, 0.5, Linkage::Complete);
        assert_eq!(c.num_clusters, 2);
        assert!(c.assignments.iter().enumerate().all(|(i, &a)| a == i % 2));
    }

    #[test]
    fn empty_and_singleton() {
        let c = hierarchical_cluster(&[], 1.0, Linkage::Complete);
        assert_eq!(c.num_clusters, 0);
        let c = hierarchical_cluster(&pts(&[5.0]), 1.0, Linkage::Complete);
        assert_eq!(c.num_clusters, 1);
        assert_eq!(c.assignments, vec![0]);
    }

    #[test]
    fn two_well_separated_groups() {
        let points = pts(&[0.0, 0.1, 0.2, 10.0, 10.1]);
        let c = hierarchical_cluster(&points, 1.0, Linkage::Complete);
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.assignments[0], c.assignments[1]);
        assert_eq!(c.assignments[1], c.assignments[2]);
        assert_eq!(c.assignments[3], c.assignments[4]);
        assert_ne!(c.assignments[0], c.assignments[3]);
    }

    #[test]
    fn threshold_zero_keeps_distinct_points_apart() {
        let points = pts(&[0.0, 1.0, 2.0]);
        let c = hierarchical_cluster(&points, 0.0, Linkage::Complete);
        assert_eq!(c.num_clusters, 3);
    }

    #[test]
    fn threshold_zero_merges_identical_points() {
        let points = pts(&[1.0, 1.0, 2.0]);
        let c = hierarchical_cluster(&points, 0.0, Linkage::Complete);
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.assignments[0], c.assignments[1]);
    }

    #[test]
    fn huge_threshold_merges_everything() {
        let points = pts(&[0.0, 5.0, 50.0, 500.0]);
        let c = hierarchical_cluster(&points, 1e9, Linkage::Complete);
        assert_eq!(c.num_clusters, 1);
    }

    #[test]
    fn complete_linkage_respects_sigma_semantics() {
        // With complete linkage, no cluster may contain a pair farther
        // apart than sigma — the paper's definition of the threshold.
        let points = pts(&[0.0, 0.4, 0.8, 1.2, 1.6, 2.0]);
        let sigma = 0.9;
        let c = hierarchical_cluster(&points, sigma, Linkage::Complete);
        assert!(c.max_intra_distance(&points) <= sigma + 1e-12);
    }

    #[test]
    fn single_linkage_chains_where_complete_does_not() {
        // A chain of points each 0.9 apart, threshold 1.0: single linkage
        // merges the whole chain; complete stops early.
        let points = pts(&[0.0, 0.9, 1.8, 2.7, 3.6]);
        let single = hierarchical_cluster(&points, 1.0, Linkage::Single);
        let complete = hierarchical_cluster(&points, 1.0, Linkage::Complete);
        assert_eq!(single.num_clusters, 1);
        assert!(complete.num_clusters > 1);
    }

    #[test]
    fn average_linkage_between_the_two() {
        let points = pts(&[0.0, 0.9, 1.8, 2.7, 3.6]);
        let s = hierarchical_cluster(&points, 1.0, Linkage::Single).num_clusters;
        let a = hierarchical_cluster(&points, 1.0, Linkage::Average).num_clusters;
        let c = hierarchical_cluster(&points, 1.0, Linkage::Complete).num_clusters;
        assert!(s <= a && a <= c, "s={s} a={a} c={c}");
    }

    #[test]
    fn multidimensional_points() {
        let points = vec![
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.05, 0.0, 0.0, 0.0],
            vec![5.0, 5.0, 5.0, 5.0],
        ];
        let c = hierarchical_cluster(&points, 0.1, Linkage::Complete);
        assert_eq!(c.num_clusters, 2);
    }

    #[test]
    fn homogeneous_launches_collapse_to_one_cluster() {
        // The stream benchmark scenario: hundreds of identical launches
        // must land in one cluster (inter-launch savings, Fig. 11).
        let points: Vec<Point> = (0..200).map(|_| vec![1.0, 1.0, 1.0, 0.0]).collect();
        let c = hierarchical_cluster(&points, 0.1, Linkage::Complete);
        assert_eq!(c.num_clusters, 1);
    }
}
