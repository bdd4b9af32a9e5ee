//! Clustering microbenches: the hierarchical algorithm the paper picks
//! vs. the k-means+BIC it rejects, across input sizes that bracket the
//! real uses (dozens of launches, thousands of epochs, hundreds of BBVs),
//! on well-separated blobs and on the duplicate-heavy inputs regular
//! kernels produce.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tbpoint_bench::blob_points;
use tbpoint_cluster::{hierarchical_cluster, kmeans_best_bic, Linkage};

fn bench_hierarchical(c: &mut Criterion) {
    let mut g = c.benchmark_group("clustering/hierarchical");
    for n in [50usize, 200, 1000] {
        let points = blob_points(n, 4, 3, 42);
        g.bench_with_input(BenchmarkId::new("complete", n), &points, |b, points| {
            b.iter(|| {
                let r = hierarchical_cluster(points, 4.0, Linkage::Complete);
                // Blobs sit 10 apart: they never merge, but a large blob's
                // diameter can exceed the threshold and split it.
                assert!(r.num_clusters >= 3);
                black_box(r)
            });
        });
    }
    // Linkage comparison at one size.
    let points = blob_points(200, 4, 3, 42);
    for (label, linkage) in [
        ("single", Linkage::Single),
        ("average", Linkage::Average),
        ("complete", Linkage::Complete),
    ] {
        g.bench_with_input(BenchmarkId::new("linkage", label), &points, |b, points| {
            b.iter(|| black_box(hierarchical_cluster(points, 4.0, linkage)));
        });
    }
    // The shapes homogeneous kernels actually produce: thousands of epochs
    // (lbm) or hundreds of launches (stream) with one distinct feature
    // vector, and a launch alternating between two. Cost must follow the
    // distinct points, not the input size.
    let cases: [(&str, &str, Vec<Vec<f64>>, usize); 3] = [
        ("duplicates", "1286x1", vec![vec![0.31]; 1286], 1),
        (
            "duplicates",
            "211x4",
            vec![vec![1.0, 1.0, 1.0, 0.0]; 211],
            1,
        ),
        (
            "two_values",
            "2000x1",
            (0..2000).map(|i| vec![f64::from(i % 2)]).collect(),
            2,
        ),
    ];
    for (shape, size, points, clusters) in &cases {
        g.bench_with_input(BenchmarkId::new(*shape, size), points, |b, points| {
            b.iter(|| {
                let r = hierarchical_cluster(points, 0.2, Linkage::Complete);
                assert_eq!(r.num_clusters, *clusters);
                black_box(r)
            });
        });
    }
    g.finish();
}

fn bench_kmeans_bic(c: &mut Criterion) {
    let mut g = c.benchmark_group("clustering/kmeans_bic");
    g.sample_size(10);
    for n in [50usize, 200] {
        let points = blob_points(n, 4, 3, 42);
        g.bench_with_input(BenchmarkId::from_parameter(n), &points, |b, points| {
            b.iter(|| {
                let r = kmeans_best_bic(points, 10, 7, 0.9);
                assert_eq!(r.clustering.num_clusters, 3);
                black_box(r)
            });
        });
    }
    // High-dimensional BBV-shaped inputs (Ideal-SimPoint's workload).
    let bbvs = blob_points(120, 32, 4, 9);
    g.bench_function("bbv_120x32", |b| {
        b.iter(|| black_box(kmeans_best_bic(&bbvs, 30, 7, 0.9)));
    });
    g.finish();
}

criterion_group!(benches, bench_hierarchical, bench_kmeans_bic);
criterion_main!(benches);
