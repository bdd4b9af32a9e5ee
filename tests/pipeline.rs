//! End-to-end integration tests: the full TBPoint pipeline (profile ->
//! cluster -> sampled simulation -> prediction) against full simulation,
//! across crates. Tiny scale keeps them fast.

use tbpoint::baselines::{collect_units, random_sampling, unit_size};
use tbpoint::core::predict::{run_tbpoint, SamplingMode, TbpointConfig};
use tbpoint::emu::profile_run;
use tbpoint::pool::ExecPlan;
use tbpoint::sim::{simulate_run, GpuConfig, NullSampling};
use tbpoint::stats::geometric_mean;
use tbpoint::workloads::{all_benchmarks, benchmark_by_name, Scale};

/// Any benchmark, full pipeline: the prediction must be finite, the
/// accounting must conserve instructions, and the two-phase error must
/// stay inside the paper's 10% envelope.
#[test]
fn pipeline_invariants_hold_for_every_benchmark() {
    let gpu = GpuConfig::fermi();
    let cfg = TbpointConfig::default();
    for bench in all_benchmarks(Scale::Tiny) {
        let profile = profile_run(&bench.run, 2);
        let full = simulate_run(&bench.run, &gpu, &mut NullSampling, None);
        let tbp = run_tbpoint(&bench.run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();

        // Instruction conservation: the profile and the full simulation
        // must agree exactly (same walker), and TBPoint's accounting must
        // partition the workload.
        assert_eq!(
            profile.total_warp_insts(),
            full.total_issued_warp_insts(),
            "{}: profile and simulation disagree on instruction count",
            bench.name
        );
        assert_eq!(
            tbp.simulated_warp_insts + tbp.breakdown.total_skipped(),
            tbp.total_warp_insts,
            "{}: sampled accounting does not conserve instructions",
            bench.name
        );
        assert_eq!(
            tbp.total_warp_insts,
            profile.total_warp_insts(),
            "{}",
            bench.name
        );

        // Prediction sanity.
        assert!(
            tbp.predicted_ipc.is_finite() && tbp.predicted_ipc > 0.0,
            "{}",
            bench.name
        );
        let err = tbp.error_vs(full.overall_ipc());
        assert!(err < 10.0, "{}: error {err:.2}% at tiny scale", bench.name);

        // Sample size is a valid fraction and never zero (something must
        // be simulated).
        let s = tbp.sample_size();
        assert!(s > 0.0 && s <= 1.0, "{}: sample size {s}", bench.name);
    }
}

/// The dev-scale accuracy ratchet: both sampling modes on the 12 dev
/// workloads, every kernel inside the paper's 10% envelope except mri,
/// whose phases differ in work per block but not in stall probability
/// (ROADMAP item 1). mri must still read at or above 10% in both modes:
/// when it stops, the exception has outlived its reason and goes.
/// Accuracy must not be bought with sample size: the two-phase geomean
/// sample stays below Random's (10% of the sampling units, as `eval`
/// draws them).
#[test]
#[ignore = "dev-scale roster in both modes; CI runs it in release (cargo test --release --test pipeline -- --ignored)"]
fn dev_scale_errors_stay_inside_the_envelope() {
    let gpu = GpuConfig::fermi();
    let two_phase = TbpointConfig::default();
    let live = TbpointConfig {
        mode: SamplingMode::Live,
        ..TbpointConfig::default()
    };
    let (mut two_phase_samples, mut random_samples) = (Vec::new(), Vec::new());
    for bench in all_benchmarks(Scale::Dev) {
        let profile = profile_run(&bench.run, 1);
        let size = unit_size(profile.total_warp_insts());
        let (units, full_ipc) = collect_units(&bench.run, &gpu, size);
        random_samples.push(random_sampling(&units).sample_size);
        for (mode, cfg, profile) in [
            ("two-phase", &two_phase, Some(&profile)),
            ("live", &live, None),
        ] {
            let r = run_tbpoint(&bench.run, profile, cfg, &gpu, ExecPlan::serial()).unwrap();
            if mode == "two-phase" {
                two_phase_samples.push(r.sample_size());
            }
            let err = r.error_vs(full_ipc);
            println!(
                "{} {mode}: error {err:.2}%, sample {:.2}%",
                bench.name,
                r.sample_size() * 100.0
            );
            if bench.name == "mri" {
                assert!(
                    err >= 10.0,
                    "mri {mode} error is {err:.2}%, inside the 10% envelope: delete mri's \
                     exception from this test so the envelope holds for every kernel"
                );
            } else {
                assert!(
                    err < 10.0,
                    "{} {mode}: error {err:.2}% at dev scale",
                    bench.name
                );
            }
        }
    }
    let (two_phase, random) = (
        geometric_mean(&two_phase_samples) * 100.0,
        geometric_mean(&random_samples) * 100.0,
    );
    println!("geomean sample: two-phase {two_phase:.2}%, random {random:.2}%");
    assert!(
        two_phase < random,
        "two-phase geomean sample {two_phase:.2}% is not below Random's {random:.2}%"
    );
}

/// Regular many-launch kernels must collapse to very few simulated
/// launches; single-launch kernels must rely on intra sampling only.
#[test]
fn savings_structure_matches_kernel_shape() {
    let gpu = GpuConfig::fermi();
    let cfg = TbpointConfig::default();
    for (name, expect_single) in [("cfd", false), ("stream", false), ("lbm", true)] {
        let bench = benchmark_by_name(name, Scale::Tiny).unwrap();
        let profile = profile_run(&bench.run, 2);
        let tbp = run_tbpoint(&bench.run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();
        if expect_single {
            assert_eq!(tbp.num_launches, 1, "{name}");
            assert_eq!(
                tbp.breakdown.inter_skipped_warp_insts, 0,
                "{name}: single launch cannot have inter savings"
            );
        } else {
            assert!(
                tbp.num_simulated_launches * 5 <= tbp.num_launches,
                "{name}: homogeneous launches should collapse ({}/{})",
                tbp.num_simulated_launches,
                tbp.num_launches
            );
            assert!(tbp.breakdown.inter_skipped_warp_insts > 0, "{name}");
        }
    }
}

/// TBPoint's defining accuracy claim at small scale: on regular kernels
/// the error stays within a few percent of full simulation.
#[test]
fn regular_kernels_predict_accurately() {
    let gpu = GpuConfig::fermi();
    let cfg = TbpointConfig::default();
    for name in ["cfd", "kmeans", "stream", "conv"] {
        let bench = benchmark_by_name(name, Scale::Tiny).unwrap();
        let profile = profile_run(&bench.run, 2);
        let full = simulate_run(&bench.run, &gpu, &mut NullSampling, None);
        let tbp = run_tbpoint(&bench.run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();
        let err = tbp.error_vs(full.overall_ipc());
        assert!(err < 8.0, "{name}: error {err:.2}%");
    }
}

/// The hardware-independence claim: one profile drives TBPoint at any
/// simulated configuration.
#[test]
fn one_profile_serves_multiple_configs() {
    let bench = benchmark_by_name("spmv", Scale::Tiny).unwrap();
    let profile = profile_run(&bench.run, 2); // collected once
    let cfg = TbpointConfig::default();
    for (w, s) in [(16u32, 8u32), (48, 14)] {
        let gpu = GpuConfig::with_occupancy(w, s);
        let full = simulate_run(&bench.run, &gpu, &mut NullSampling, None);
        let tbp = run_tbpoint(&bench.run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();
        assert!(
            tbp.error_vs(full.overall_ipc()) < 20.0,
            "W{w}S{s}: error {:.2}%",
            tbp.error_vs(full.overall_ipc())
        );
    }
}

/// A launch whose profile fails validation is simulated in detail, so a
/// one-launch run with a truncated profile must reproduce the full
/// simulation exactly (the null sampling identity).
#[test]
fn truncated_profile_is_exact() {
    let bench = benchmark_by_name("hotspot", Scale::Tiny).unwrap();
    assert_eq!(bench.run.num_launches(), 1);
    let gpu = GpuConfig::fermi();
    let mut profile = profile_run(&bench.run, 2);
    profile.launches[0].edit_per_block(|tbs| {
        tbs.pop();
    });
    let full = simulate_run(&bench.run, &gpu, &mut NullSampling, None);
    let cfg = TbpointConfig::default();
    let tbp = run_tbpoint(&bench.run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();
    assert_eq!(tbp.degraded_launches, 1);
    assert_eq!(tbp.predicted_ipc, full.overall_ipc());
    assert_eq!(tbp.sample_size(), 1.0);
}
