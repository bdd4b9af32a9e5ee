//! Figs. 9-11 bench: the end-to-end comparison pipeline — full
//! simulation, Random, Ideal-SimPoint and TBPoint — on representative
//! roster benchmarks at tiny scale. Asserts the headline shape (TBPoint
//! error below Random's) while measuring the cost of each stage.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tbpoint_baselines::{
    collect_units, ideal_simpoint, random_sampling, IdealSimpointConfig, RandomConfig,
};
use tbpoint_core::predict::{run_tbpoint, TbpointConfig};
use tbpoint_core::ExecPlan;
use tbpoint_emu::profile_run;
use tbpoint_sim::{simulate_run, GpuConfig, NullSampling};
use tbpoint_workloads::{benchmark_by_name, Scale};

/// One regular and one irregular benchmark cover both code paths.
const BENCHES: [&str; 2] = ["cfd", "spmv"];

fn bench_profile(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9/profile");
    for name in BENCHES {
        let bench = benchmark_by_name(name, Scale::Tiny).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(name), &bench, |b, bench| {
            b.iter(|| black_box(profile_run(&bench.run, 1)));
        });
    }
    g.finish();
}

fn bench_full_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9/full_simulation");
    g.sample_size(10);
    for name in BENCHES {
        let bench = benchmark_by_name(name, Scale::Tiny).unwrap();
        let gpu = GpuConfig::fermi();
        g.bench_with_input(BenchmarkId::from_parameter(name), &bench, |b, bench| {
            b.iter(|| black_box(simulate_run(&bench.run, &gpu, &mut NullSampling, None)));
        });
    }
    g.finish();
}

fn bench_tbpoint(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9/tbpoint_pipeline");
    g.sample_size(10);
    let gpu = GpuConfig::fermi();
    for name in BENCHES {
        let bench = benchmark_by_name(name, Scale::Tiny).unwrap();
        let profile = profile_run(&bench.run, 1);
        let full = simulate_run(&bench.run, &gpu, &mut NullSampling, None);
        g.bench_with_input(BenchmarkId::from_parameter(name), &bench, |b, bench| {
            b.iter(|| {
                let r = run_tbpoint(
                    &bench.run,
                    Some(&profile),
                    &TbpointConfig::default(),
                    &gpu,
                    ExecPlan::serial(),
                )
                .expect("valid config and matching profile");
                assert!(r.error_vs(full.overall_ipc()) < 25.0);
                black_box(r)
            });
        });
    }
    g.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9/baselines");
    let gpu = GpuConfig::fermi();
    let bench = benchmark_by_name("cfd", Scale::Tiny).unwrap();
    let (units, full_ipc) = collect_units(&bench.run, &gpu, 2_000, true);
    g.bench_function("random", |b| {
        b.iter(|| black_box(random_sampling(&units, &RandomConfig::default())));
    });
    g.bench_function("ideal_simpoint", |b| {
        b.iter(|| {
            let r = ideal_simpoint(&units, &IdealSimpointConfig::default());
            assert!(r.error_vs(full_ipc) < 30.0);
            black_box(r)
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_profile,
    bench_full_simulation,
    bench_tbpoint,
    bench_baselines
);
criterion_main!(benches);
