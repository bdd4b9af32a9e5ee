//! Observability overhead: `simulate_launch` against `simulate_launch_with`
//! under each recorder. The contract the ISSUE pins is that the
//! `NullRecorder` path is free — monomorphisation compiles the
//! instrumentation away, so `null_recorder` must track `baseline` within
//! noise (a few percent). `collecting` and `jsonl` quantify what an
//! enabled recorder costs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tbpoint_obs::{CollectingRecorder, JsonlRecorder, NullRecorder};
use tbpoint_sim::{simulate_launch, simulate_launch_with, GpuConfig, NullSampling, SimOptions};
use tbpoint_workloads::{benchmark_by_name, Scale};

fn bench_obs_overhead(c: &mut Criterion) {
    let bench = benchmark_by_name("cfd", Scale::Tiny).unwrap();
    let gpu = GpuConfig::fermi();
    let launch = &bench.run.launches[0];
    let kernel = &bench.run.kernel;

    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(20);

    g.bench_function("baseline", |b| {
        b.iter(|| {
            black_box(simulate_launch(
                kernel,
                launch,
                &gpu,
                &mut NullSampling,
                None,
            ))
        });
    });

    g.bench_function("null_recorder", |b| {
        b.iter(|| {
            black_box(
                simulate_launch_with(
                    kernel,
                    launch,
                    &gpu,
                    &mut NullSampling,
                    None,
                    SimOptions::default(),
                    &NullRecorder,
                )
                .0,
            )
        });
    });

    g.bench_function("collecting", |b| {
        b.iter(|| {
            let rec = CollectingRecorder::new();
            let r = simulate_launch_with(
                kernel,
                launch,
                &gpu,
                &mut NullSampling,
                None,
                SimOptions::default(),
                &rec,
            )
            .0;
            black_box((r, rec.finish()))
        });
    });

    g.bench_function("jsonl", |b| {
        b.iter(|| {
            let rec = JsonlRecorder::new();
            let r = simulate_launch_with(
                kernel,
                launch,
                &gpu,
                &mut NullSampling,
                None,
                SimOptions::default(),
                &rec,
            )
            .0;
            black_box((r, rec.finish()))
        });
    });

    g.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
