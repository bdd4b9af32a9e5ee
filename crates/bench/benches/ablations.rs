//! Ablation benches for the design choices DESIGN.md calls out: each
//! measures the *runtime cost* of a design variant on the same workload
//! (the quality impact of the same sweeps is produced by `tbpoint
//! ablate`, which reports error/sample-size tables).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tbpoint_core::inter::{InterAlgo, InterConfig};
use tbpoint_core::intra::{build_epochs, identify_regions, IntraConfig};
use tbpoint_core::predict::{run_tbpoint, TbpointConfig};
use tbpoint_core::ExecPlan;
use tbpoint_emu::{profile_run, RunProfile};
use tbpoint_ir::KernelRun;
use tbpoint_sim::{GpuConfig, SchedPolicy};
use tbpoint_workloads::{benchmark_by_name, Scale};

fn fixture() -> (KernelRun, RunProfile, GpuConfig) {
    let bench = benchmark_by_name("spmv", Scale::Tiny).unwrap();
    let profile = profile_run(&bench.run, 1);
    (bench.run, profile, GpuConfig::fermi())
}

/// Ablation 1: epoch size relative to system occupancy (the paper fixes
/// it at exactly the occupancy, Eq. 4).
fn bench_epoch_size(c: &mut Criterion) {
    let (run, profile, gpu) = fixture();
    let occupancy = gpu.system_occupancy(&run.kernel);
    let mut g = c.benchmark_group("ablation/epoch_size");
    for mult in [0.5f64, 1.0, 2.0] {
        let epoch = ((occupancy as f64 * mult) as u32).max(1);
        g.bench_with_input(BenchmarkId::from_parameter(mult), &epoch, |b, &epoch| {
            b.iter(|| {
                let epochs = build_epochs(&profile.launches[0], epoch);
                black_box(identify_regions(&epochs, &IntraConfig::default()))
            });
        });
    }
    g.finish();
}

/// Ablation 2: hierarchical vs k-means+BIC for inter-launch clustering.
fn bench_inter_algo(c: &mut Criterion) {
    let (run, profile, gpu) = fixture();
    let mut g = c.benchmark_group("ablation/inter_algo");
    g.sample_size(10);
    for (label, algo) in [
        ("hierarchical", InterAlgo::Hierarchical),
        ("kmeans_bic", InterAlgo::KMeansBic { max_k: 10 }),
    ] {
        let cfg = TbpointConfig {
            inter: InterConfig {
                algo,
                ..InterConfig::default()
            },
            ..TbpointConfig::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(label), &cfg, |b, cfg| {
            b.iter(|| {
                black_box(
                    run_tbpoint(&run, Some(&profile), cfg, &gpu, ExecPlan::serial())
                        .expect("valid"),
                )
            });
        });
    }
    g.finish();
}

/// Ablation 3: warp scheduler policy (loose round-robin vs GTO).
fn bench_scheduler(c: &mut Criterion) {
    let (run, profile, _) = fixture();
    let mut g = c.benchmark_group("ablation/warp_scheduler");
    g.sample_size(10);
    for (label, sched) in [("rr", SchedPolicy::RoundRobin), ("gto", SchedPolicy::Gto)] {
        let mut gpu = GpuConfig::fermi();
        gpu.sched = sched;
        g.bench_with_input(BenchmarkId::from_parameter(label), &gpu, |b, gpu| {
            b.iter(|| {
                black_box(
                    run_tbpoint(
                        &run,
                        Some(&profile),
                        &TbpointConfig::default(),
                        gpu,
                        ExecPlan::serial(),
                    )
                    .expect("valid"),
                )
            });
        });
    }
    g.finish();
}

/// Ablation 4: variation-factor threshold (outlier sensitivity).
fn bench_variation_factor(c: &mut Criterion) {
    let bench = benchmark_by_name("mst", Scale::Tiny).unwrap();
    let profile = profile_run(&bench.run, 1);
    let gpu = GpuConfig::fermi();
    let occupancy = gpu.system_occupancy(&bench.run.kernel);
    let epochs = build_epochs(&profile.launches[0], occupancy);
    let mut g = c.benchmark_group("ablation/variation_factor");
    for vf in [0.1f64, 0.3, 0.6] {
        let cfg = IntraConfig {
            sigma: 0.2,
            variation_factor: vf,
        };
        g.bench_with_input(BenchmarkId::from_parameter(vf), &cfg, |b, cfg| {
            b.iter(|| black_box(identify_regions(&epochs, cfg)));
        });
    }
    g.finish();
}

/// Figs. 12/13 cost: retargeting TBPoint at a different hardware
/// configuration from the SAME profile (the one-time-profiling claim —
/// only clustering and the sampled simulation rerun).
fn bench_hw_retarget(c: &mut Criterion) {
    let (run, profile, _) = fixture();
    let mut g = c.benchmark_group("fig12_13/hw_retarget");
    g.sample_size(10);
    for (w, s) in [(16u32, 8u32), (32, 14), (48, 28)] {
        let gpu = GpuConfig::with_occupancy(w, s);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("W{w}S{s}")),
            &gpu,
            |b, gpu| {
                b.iter(|| {
                    black_box(
                        run_tbpoint(
                            &run,
                            Some(&profile),
                            &TbpointConfig::default(),
                            gpu,
                            ExecPlan::serial(),
                        )
                        .expect("valid"),
                    )
                });
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_epoch_size,
    bench_inter_algo,
    bench_scheduler,
    bench_variation_factor,
    bench_hw_retarget
);
criterion_main!(benches);
