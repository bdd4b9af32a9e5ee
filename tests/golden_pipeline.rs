//! Golden bit-identity suite for the *sampled* pipeline.
//!
//! `tests/goldens/launch_sim_tiny.json` pins the unsampled simulator;
//! this suite pins what sits on top of it. For every Table-VI workload
//! at Tiny scale and both sampling modes, the committed
//! `tests/goldens/pipeline_tiny.json` holds the serialised
//! [`TbpointResult`] and an FNV-1a-64 digest of the concatenated
//! per-launch trace JSONL (see `examples/gen_goldens.rs`). The file was
//! generated before the pipeline entry points and the two sampler state
//! machines were merged, so it catches a moved prediction *or* a
//! reordered sampler event — the trace digest covers every
//! `RegionEntered`/`UnitClosed`/`BlockSkipped`/… line in order.
//!
//! Compared at the serial plan and at `pool_workers = 2`: the pool axis
//! promises byte-identical results and trace streams.

use tbpoint::core::{
    run_tbpoint, run_tbpoint_traced, LaunchTrace, SamplingMode, TbpointConfig, TbpointResult,
};
use tbpoint::emu::profile_run;
use tbpoint::obs::fnv1a64;
use tbpoint::pool::ExecPlan;
use tbpoint::sim::GpuConfig;
use tbpoint::workloads::{all_benchmarks, Benchmark, Scale};

const GOLDEN: &str = include_str!("goldens/pipeline_tiny.json");

fn golden_entry(key: &str) -> &'static str {
    let prefix = format!("\"{key}\": ");
    for line in GOLDEN.lines() {
        if let Some(rest) = line.strip_prefix(&prefix) {
            return rest.strip_suffix(',').unwrap_or(rest);
        }
    }
    panic!(
        "tests/goldens/pipeline_tiny.json has no entry for `{key}`; \
         regenerate with `cargo run --release --example gen_goldens`"
    );
}

fn entry(result: &TbpointResult, traces: &[LaunchTrace]) -> String {
    let jsonl: String = traces.iter().map(|t| t.trace.to_jsonl()).collect();
    format!(
        "{{\"result\":{},\"trace_fnv64\":\"{:016x}\"}}",
        serde_json::to_string(result).expect("TbpointResult serialises"),
        fnv1a64(jsonl.as_bytes())
    )
}

fn check(bench: &Benchmark, gpu: &GpuConfig, mode: SamplingMode, plan: ExecPlan) {
    let cfg = TbpointConfig {
        mode,
        ..TbpointConfig::default()
    };
    let label = match mode {
        SamplingMode::TwoPhase => "two-phase",
        SamplingMode::Live => "live",
    };
    let profile = mode.needs_profile().then(|| profile_run(&bench.run, 1));
    let untraced = run_tbpoint(&bench.run, profile.as_ref(), &cfg, gpu, plan).expect("pipeline");
    let (traced, traces) =
        run_tbpoint_traced(&bench.run, profile.as_ref(), &cfg, gpu, plan).expect("pipeline");
    let key = format!("{}/{label}", bench.name);
    assert_eq!(untraced, traced, "{key}: tracing changed the result");
    assert_eq!(
        golden_entry(&key),
        entry(&traced, &traces),
        "{key} at pool_workers={} diverges from tests/goldens/pipeline_tiny.json",
        plan.pool_workers
    );
}

fn check_roster(plan: ExecPlan) {
    let gpu = GpuConfig::fermi();
    let benches = all_benchmarks(Scale::Tiny);
    assert_eq!(benches.len(), 12, "Table VI roster is twelve benchmarks");
    for bench in &benches {
        for mode in [SamplingMode::TwoPhase, SamplingMode::Live] {
            check(bench, &gpu, mode, plan);
        }
    }
}

#[test]
fn tiny_pipeline_matches_committed_golden_serial() {
    check_roster(ExecPlan::serial());
}

#[test]
fn tiny_pipeline_matches_committed_golden_pooled() {
    check_roster(ExecPlan { pool_workers: 2 });
}
