//! Integration tests for the Random / Ideal-SimPoint baselines against
//! the real simulator (unit-level behaviour is covered inside the
//! baselines crate; here the full collection pipeline runs).

use tbpoint::baselines::{collect_units, ideal_simpoint, random_sampling};
use tbpoint::sim::GpuConfig;
use tbpoint::workloads::{benchmark_by_name, Scale};

#[test]
fn unit_collection_conserves_instructions() {
    let bench = benchmark_by_name("conv", Scale::Tiny).unwrap();
    let gpu = GpuConfig::fermi();
    let (units, full_ipc) = collect_units(&bench.run, &gpu, 3_000);
    assert!(!units.is_empty());
    assert!(full_ipc > 0.0);
    // Unit BBV totals equal unit instruction counts.
    for u in &units {
        let bbv_total: u64 = u.bbv.iter().sum();
        assert_eq!(bbv_total, u.warp_insts);
    }
}

#[test]
fn baselines_predict_regular_kernel_accurately() {
    // A uniform kernel is the easy case: both baselines must land close.
    let bench = benchmark_by_name("kmeans", Scale::Tiny).unwrap();
    let gpu = GpuConfig::fermi();
    let (units, full_ipc) = collect_units(&bench.run, &gpu, 3_000);
    let rnd = random_sampling(&units);
    let isp = ideal_simpoint(&units);
    assert!(
        rnd.error_vs(full_ipc) < 10.0,
        "random err {:.2}%",
        rnd.error_vs(full_ipc)
    );
    assert!(
        isp.error_vs(full_ipc) < 10.0,
        "ideal err {:.2}%",
        isp.error_vs(full_ipc)
    );
    // Ideal-SimPoint needs far fewer units than Random's fixed 10%.
    assert!(isp.num_selected < rnd.num_selected.max(2) * 3);
}

#[test]
fn random_sample_size_is_ten_percent() {
    let bench = benchmark_by_name("cfd", Scale::Tiny).unwrap();
    let gpu = GpuConfig::fermi();
    let (units, _) = collect_units(&bench.run, &gpu, 2_000);
    let rnd = random_sampling(&units);
    assert!(
        (rnd.sample_size - 0.10).abs() < 0.05,
        "sample {:.3}",
        rnd.sample_size
    );
}

#[test]
fn ideal_simpoint_sample_shrinks_on_uniform_workload() {
    // Uniform BBVs collapse to very few clusters.
    let bench = benchmark_by_name("lbm", Scale::Tiny).unwrap();
    let gpu = GpuConfig::fermi();
    let (units, _) = collect_units(&bench.run, &gpu, 3_000);
    let isp = ideal_simpoint(&units);
    assert!(
        isp.sample_size < 0.30,
        "uniform workload should need few points, got {:.2}",
        isp.sample_size
    );
}
