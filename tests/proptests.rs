//! Property-style tests on the core data structures and invariants,
//! spanning crates.
//!
//! Inputs come from seeded deterministic generators (see `common::Gen`)
//! rather than `proptest`, which is unavailable in the offline build
//! environment; each case reproduces exactly from its loop index.

mod common;

use common::Gen;
use tbpoint::cluster::{hierarchical_cluster, kmeans, normalize_by_mean};
use tbpoint::core::intra::{build_epochs, identify_regions, IntraConfig, Region, RegionTable};
use tbpoint::ir::{Cond, Dist, ExecCtx, LaunchId, LaunchSpec, TbId, TripCount};
use tbpoint::stats::{percentile, SplitMix64};

const CASES: u64 = 64;

/// Hierarchical clustering always yields dense cluster ids covering every
/// point, and respects the complete-linkage sigma bound.
#[test]
fn hierarchical_clustering_invariants() {
    for case in 0..CASES {
        let mut g = Gen::new(0x01, case);
        let points = g.points(40, 5);
        let sigma = g.f64(0.0, 50.0);
        let c = hierarchical_cluster(&points, sigma);
        assert_eq!(c.assignments.len(), points.len());
        assert!(c.num_clusters >= 1);
        assert!(c.num_clusters <= points.len());
        // Ids are dense 0..num_clusters.
        let mut seen = vec![false; c.num_clusters];
        for &a in &c.assignments {
            assert!(a < c.num_clusters);
            seen[a] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // The sigma semantics: no intra-cluster pair exceeds sigma.
        assert!(c.max_intra_distance(&points) <= sigma + 1e-9);
    }
}

/// k-means produces valid assignments and finite, non-negative inertia.
#[test]
fn kmeans_invariants() {
    for case in 0..CASES {
        let mut g = Gen::new(0x02, case);
        let points = g.points(40, 5);
        let k = g.usize(1, 8);
        let r = kmeans(&points, k, 99, 50);
        assert_eq!(r.clustering.assignments.len(), points.len());
        assert!(r.clustering.num_clusters <= k.min(points.len()));
        assert!(r.inertia.is_finite());
        assert!(r.inertia >= 0.0);
    }
}

/// Mean-normalisation makes every dimension average to 1 (or stay 0).
#[test]
fn normalization_unit_means() {
    for case in 0..CASES {
        let mut g = Gen::new(0x03, case);
        let points = g.points(40, 5);
        // Shift positive so means are nonzero in general.
        let pts: Vec<Vec<f64>> = points
            .iter()
            .map(|p| p.iter().map(|x| x.abs() + 1.0).collect())
            .collect();
        let n = normalize_by_mean(&pts);
        let dim = pts[0].len();
        for d in 0..dim {
            let m = n.iter().map(|p| p[d]).sum::<f64>() / n.len() as f64;
            assert!((m - 1.0).abs() < 1e-9, "dim {d} mean {m}");
        }
    }
}

/// Percentiles are monotone in q and bounded by the extrema.
#[test]
fn percentile_monotone() {
    for case in 0..CASES {
        let mut g = Gen::new(0x06, case);
        let xs = g.f64_vec(-1e3, 1e3, 1, 100);
        let (q1, q2) = (g.f64(0.0, 100.0), g.f64(0.0, 100.0));
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let p_lo = percentile(&xs, lo);
        let p_hi = percentile(&xs, hi);
        assert!(p_lo <= p_hi + 1e-12);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(p_lo >= min - 1e-12 && p_hi <= max + 1e-12);
    }
}

/// Trip counts stay within their declared bounds for every context.
#[test]
fn trip_counts_bounded() {
    for case in 0..CASES {
        let mut g = Gen::new(0x07, case);
        let base = g.u32(0, 50);
        let spread = g.u32(0, 50);
        let block = g.u32(0, 1000);
        let thread = g.u64(0, 100_000);
        let seed = g.any_u64();
        let which = g.usize(0, 3);
        let ctx = ExecCtx {
            kernel_seed: seed,
            launch_id: LaunchId(3),
            block_id: block,
            num_blocks: 1000,
            work_scale: 1.0,
        };
        let dists = [
            Dist::Uniform,
            Dist::PowerLaw { alpha: 2.0 },
            Dist::Bimodal { p_heavy: 0.1 },
        ];
        for dist in dists {
            let tc = match which {
                0 => TripCount::PerBlock {
                    base,
                    spread,
                    dist,
                    site: 1,
                },
                1 => TripCount::PerThread {
                    base,
                    spread,
                    dist,
                    site: 1,
                },
                _ => TripCount::PerBlockPhase {
                    base,
                    spread,
                    phase_len: 64,
                    dist,
                    site: 1,
                },
            };
            let v = tc.eval(&ctx, thread);
            assert!(
                v >= base && v <= base + spread,
                "{v} outside [{base}, {}]",
                base + spread
            );
        }
    }
}

/// Block-uniform conditions agree across all lanes of a warp.
#[test]
fn block_uniform_conds_agree() {
    for case in 0..CASES {
        let mut g = Gen::new(0x08, case);
        let p = g.f64(0.0, 1.0);
        let block = g.u32(0, 100);
        let seed = g.any_u64();
        let ctx = ExecCtx {
            kernel_seed: seed,
            launch_id: LaunchId(0),
            block_id: block,
            num_blocks: 100,
            work_scale: 1.0,
        };
        let cond = Cond::BlockProb { p, site: 7 };
        let first = cond.eval(&ctx, 0, 0);
        for lane in 1..32u32 {
            assert_eq!(cond.eval(&ctx, lane as u64, lane), first);
        }
    }
}

/// Epochs tile the launch exactly: every TB in exactly one epoch.
#[test]
fn epochs_tile_launch() {
    use tbpoint::emu::TbStats;
    for case in 0..CASES {
        let mut g = Gen::new(0x09, case);
        let n_tbs = g.usize(1, 300);
        let occupancy = g.u32(1, 100);
        let profile = tbpoint::emu::LaunchProfile::per_block(
            LaunchSpec {
                launch_id: LaunchId(0),
                num_blocks: n_tbs as u32,
                work_scale: 1.0,
            },
            vec![
                TbStats {
                    thread_insts: 320,
                    warp_insts: 10,
                    mem_requests: 2,
                };
                n_tbs
            ],
        );
        let epochs = build_epochs(&profile, occupancy);
        let covered: u32 = epochs.iter().map(|e| e.end_tb - e.start_tb).sum();
        assert_eq!(covered as usize, n_tbs);
        for w in epochs.windows(2) {
            assert_eq!(w[0].end_tb, w[1].start_tb);
        }
        // Homogeneous TBs: one region covering everything.
        let table = identify_regions(&epochs, &IntraConfig::default());
        assert_eq!(table.covered_tbs(), n_tbs as u64);
    }
}

/// Region tables never overlap and lookups agree with the intervals.
#[test]
fn region_lookup_consistent() {
    for case in 0..CASES {
        let mut g = Gen::new(0x0a, case);
        let n_starts = g.usize(1, 10);
        let mut s: Vec<u32> = (0..n_starts).map(|_| g.u32(0, 1000)).collect();
        let len = g.u32(1, 50);
        // Build disjoint regions from sorted starts spaced by at least
        // `len`.
        s.sort_unstable();
        let mut regions = vec![];
        let mut next_free = 0u32;
        for (i, &st) in s.iter().enumerate() {
            let st = st.max(next_free);
            regions.push(Region {
                region_id: i as u32,
                start_tb: st,
                end_tb: st + len,
            });
            next_free = st + len;
        }
        let table = RegionTable {
            regions: regions.clone(),
        };
        for r in &regions {
            assert_eq!(table.region_of(TbId(r.start_tb)), Some(r.region_id));
            assert_eq!(table.region_of(TbId(r.end_tb - 1)), Some(r.region_id));
            // One past the end is outside this region (it may be the
            // start of the next, adjacent one, but never this id).
            assert_ne!(table.region_of(TbId(r.end_tb)), Some(r.region_id));
        }
        assert_eq!(table.covered_tbs(), regions.len() as u64 * u64::from(len));
    }
}

/// The deterministic RNG's shuffle is a permutation for any seed.
#[test]
fn shuffle_is_permutation() {
    for case in 0..CASES {
        let mut g = Gen::new(0x0b, case);
        let seed = g.any_u64();
        let n = g.usize(0, 200);
        let mut rng = SplitMix64::new(seed);
        let mut xs: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}
