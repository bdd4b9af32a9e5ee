//! k-means with k-means++ seeding and BIC model selection.
//!
//! This is what the SimPoint tool does internally, needed here for the
//! **Ideal-SimPoint** baseline: cluster per-sampling-unit BBVs, score each
//! candidate `k` with the Bayesian Information Criterion, and keep the
//! smallest `k` whose score reaches a fixed fraction of the best score
//! (SimPoint's own selection rule).

use crate::point::{euclidean, Point};
use crate::Clustering;
use tbpoint_stats::SplitMix64;

/// Result of one k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Point-to-cluster assignment (dense ids).
    pub clustering: Clustering,
    /// Final cluster centroids.
    pub centroids: Vec<Point>,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
    /// BIC score of this clustering (higher is better).
    pub bic: f64,
}

/// Lloyd's algorithm with k-means++ seeding.
///
/// `k` is clamped to the number of points. Runs at most `max_iters`
/// iterations (convergence is detected earlier when assignments stop
/// changing). Deterministic for a fixed `seed`.
pub fn kmeans(points: &[Point], k: usize, seed: u64, max_iters: usize) -> KMeansResult {
    let n = points.len();
    let k = k.clamp(1, n.max(1));
    if n == 0 {
        return KMeansResult {
            clustering: Clustering {
                assignments: vec![],
                num_clusters: 0,
            },
            centroids: vec![],
            inertia: 0.0,
            bic: f64::NEG_INFINITY,
        };
    }
    let mut rng = SplitMix64::new(seed);
    let mut centroids = seed_plus_plus(points, k, &mut rng);
    let mut assignments = vec![0usize; n];

    for _ in 0..max_iters {
        // Assignment step.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = nearest_centroid(p, &centroids);
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        // Update step.
        let mut sums: Vec<Point> = vec![vec![0.0; points[0].len()]; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (i, p) in points.iter().enumerate() {
            counts[assignments[i]] += 1;
            for (s, x) in sums[assignments[i]].iter_mut().zip(p) {
                *s += x;
            }
        }
        for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
            if count > 0 {
                *c = sum.iter().map(|s| s / count as f64).collect();
            } else {
                // Re-seed an empty cluster at the point farthest from its
                // centroid, the standard fix-up.
                let cur = c.clone();
                let far = points
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| euclidean(a, &cur).total_cmp(&euclidean(b, &cur)))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                *c = points[far].clone();
            }
        }
        if !changed {
            break;
        }
    }

    let inertia: f64 = points
        .iter()
        .zip(&assignments)
        .map(|(p, &a)| {
            let d = euclidean(p, &centroids[a]);
            d * d
        })
        .sum();
    let clustering = Clustering::from_assignments(&assignments);
    let bic = bic_score(points, &assignments, &centroids);
    KMeansResult {
        clustering,
        centroids,
        inertia,
        bic,
    }
}

fn nearest_centroid(p: &Point, centroids: &[Point]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = euclidean(p, c);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// k-means++ seeding: first centroid uniform, the rest D²-weighted.
fn seed_plus_plus(points: &[Point], k: usize, rng: &mut SplitMix64) -> Vec<Point> {
    let n = points.len();
    let mut centroids = Vec::with_capacity(k);
    // next_index(n) < n <= usize::MAX, so the u64 round-trip is exact.
    #[expect(clippy::cast_possible_truncation)]
    centroids.push(points[rng.next_index(n as u64) as usize].clone());
    let mut d2: Vec<f64> = points
        .iter()
        .map(|p| {
            let d = euclidean(p, &centroids[0]);
            d * d
        })
        .collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let pick = if total <= 0.0 {
            // All points identical to a centroid; any index works.
            #[expect(clippy::cast_possible_truncation)]
            {
                rng.next_index(n as u64) as usize
            }
        } else {
            let mut target = rng.next_f64() * total;
            let mut chosen = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            chosen
        };
        let newest = points[pick].clone();
        for (i, p) in points.iter().enumerate() {
            let d = euclidean(p, &newest);
            d2[i] = d2[i].min(d * d);
        }
        centroids.push(newest);
    }
    centroids
}

/// X-means/SimPoint-style BIC of a hard clustering under a spherical
/// Gaussian model. Higher is better.
pub fn bic_score(points: &[Point], assignments: &[usize], centroids: &[Point]) -> f64 {
    let n = points.len();
    let k = centroids.len();
    if n == 0 || k == 0 {
        return f64::NEG_INFINITY;
    }
    let d = points[0].len() as f64;
    // Pooled ML variance estimate.
    let rss: f64 = points
        .iter()
        .zip(assignments)
        .map(|(p, &a)| {
            let e = euclidean(p, &centroids[a]);
            e * e
        })
        .sum();
    let denom = (n.saturating_sub(k)) as f64;
    let sigma2 = if denom > 0.0 { rss / (denom * d) } else { 0.0 };
    // Perfectly tight clusters: variance collapses; treat as "very good"
    // but finite so comparisons across k still behave.
    let sigma2 = sigma2.max(1e-12);

    let mut sizes = vec![0usize; k];
    for &a in assignments {
        sizes[a] += 1;
    }
    let mut loglik = 0.0;
    for &r in &sizes {
        if r == 0 {
            continue;
        }
        let rf = r as f64;
        loglik += rf * rf.ln()
            - rf * (n as f64).ln()
            - rf * d / 2.0 * (2.0 * std::f64::consts::PI * sigma2).ln()
            - (rf - 1.0) * d / 2.0;
    }
    let params = k as f64 * (d + 1.0);
    loglik - params / 2.0 * (n as f64).ln()
}

/// Run k-means for `k = 1..=max_k` and apply SimPoint's selection rule:
/// the smallest `k` whose BIC reaches `quality` (default 0.9 in SimPoint)
/// of the way from the worst to the best observed BIC.
pub fn kmeans_best_bic(points: &[Point], max_k: usize, seed: u64, quality: f64) -> KMeansResult {
    assert!(!points.is_empty(), "cannot cluster zero points");
    let max_k = max_k.clamp(1, points.len());
    let runs: Vec<KMeansResult> = (1..=max_k)
        .map(|k| kmeans(points, k, seed ^ (k as u64) << 32, 100))
        .collect();
    let best = runs.iter().map(|r| r.bic).fold(f64::NEG_INFINITY, f64::max);
    let worst = runs.iter().map(|r| r.bic).fold(f64::INFINITY, f64::min);
    let cutoff = if (best - worst).abs() < 1e-12 {
        best
    } else {
        worst + quality.clamp(0.0, 1.0) * (best - worst)
    };
    // The best run always passes its own cutoff; the fallback arm is only
    // reachable if every BIC is NaN, in which case the largest k (the last
    // run) is the least-wrong answer.
    let mut runs = runs;
    let idx = runs
        .iter()
        .position(|r| r.bic >= cutoff)
        .unwrap_or(runs.len() - 1);
    runs.swap_remove(idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Point> {
        let mut pts = vec![];
        for i in 0..20 {
            pts.push(vec![i as f64 * 0.01, 0.0]);
            pts.push(vec![10.0 + i as f64 * 0.01, 5.0]);
        }
        pts
    }

    #[test]
    fn kmeans_separates_blobs() {
        let pts = two_blobs();
        let r = kmeans(&pts, 2, 42, 100);
        assert_eq!(r.clustering.num_clusters, 2);
        // Points alternate blob membership by construction.
        let a0 = r.clustering.assignments[0];
        for i in (0..pts.len()).step_by(2) {
            assert_eq!(r.clustering.assignments[i], a0);
        }
        let a1 = r.clustering.assignments[1];
        assert_ne!(a0, a1);
        assert!(r.inertia < 1.0, "inertia = {}", r.inertia);
    }

    #[test]
    fn kmeans_k1_centroid_is_mean() {
        let pts: Vec<Point> = vec![vec![0.0], vec![10.0]];
        let r = kmeans(&pts, 1, 7, 100);
        assert_eq!(r.clustering.num_clusters, 1);
        assert!((r.centroids[0][0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn kmeans_clamps_k_to_n() {
        let pts: Vec<Point> = vec![vec![0.0], vec![1.0]];
        let r = kmeans(&pts, 10, 7, 100);
        assert!(r.clustering.num_clusters <= 2);
    }

    #[test]
    fn kmeans_empty_input() {
        let r = kmeans(&[], 3, 7, 100);
        assert_eq!(r.clustering.num_clusters, 0);
        assert_eq!(r.inertia, 0.0);
    }

    #[test]
    fn kmeans_deterministic_for_seed() {
        let pts = two_blobs();
        let a = kmeans(&pts, 3, 99, 100);
        let b = kmeans(&pts, 3, 99, 100);
        assert_eq!(a.clustering, b.clustering);
    }

    #[test]
    fn kmeans_survives_nan_coordinates() {
        // Regression for the partial_cmp(..).unwrap() sites: a NaN feature
        // (e.g. a 0/0 normalization upstream) must not panic the clustering
        // pipeline end to end, and clean points must still get assignments.
        let mut pts = two_blobs();
        pts.push(vec![f64::NAN, 1.0]);
        pts.push(vec![f64::NAN, f64::NAN]);
        let r = kmeans(&pts, 2, 42, 100);
        assert_eq!(r.clustering.assignments.len(), pts.len());
        let best = kmeans_best_bic(&pts, 4, 42, 0.9);
        assert_eq!(best.clustering.assignments.len(), pts.len());
        let reps = best.clustering.representatives(&pts);
        assert_eq!(reps.len(), best.clustering.num_clusters);
    }

    #[test]
    fn bic_prefers_true_k_on_separated_blobs() {
        let pts = two_blobs();
        let k1 = kmeans(&pts, 1, 5, 100);
        let k2 = kmeans(&pts, 2, 5, 100);
        assert!(
            k2.bic > k1.bic,
            "k2 bic {} should beat k1 bic {}",
            k2.bic,
            k1.bic
        );
    }

    #[test]
    fn best_bic_picks_two_for_two_blobs() {
        let pts = two_blobs();
        let r = kmeans_best_bic(&pts, 6, 5, 0.9);
        assert_eq!(r.clustering.num_clusters, 2);
    }

    #[test]
    fn best_bic_identical_points_one_cluster() {
        let pts: Vec<Point> = (0..10).map(|_| vec![3.0, 3.0]).collect();
        let r = kmeans_best_bic(&pts, 4, 1, 0.9);
        assert_eq!(r.clustering.num_clusters, 1);
    }

    #[test]
    #[should_panic(expected = "zero points")]
    fn best_bic_rejects_empty() {
        kmeans_best_bic(&[], 3, 1, 0.9);
    }
}
