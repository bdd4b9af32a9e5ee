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
//! Two passes over the roster pin three things: the untraced pipeline
//! at the serial plan matches the golden result, and the traced
//! pipeline at `pool_workers = 2` matches the golden result *and* trace
//! digest — so tracing changes no result, and the pool axis changes no
//! result and no trace byte.

use tbpoint::core::{run_tbpoint, run_tbpoint_traced, SamplingMode, TbpointConfig};
use tbpoint::emu::profile_run;
use tbpoint::obs::fnv1a64;
use tbpoint::pool::ExecPlan;
use tbpoint::sim::GpuConfig;
use tbpoint::workloads::{all_benchmarks, Benchmark, Scale};

const GOLDEN: &str = include_str!("goldens/pipeline_tiny.json");

/// The committed entry for `key`, split into its serialised
/// [`TbpointResult`] and its trace digest.
fn golden_entry(key: &str) -> (&'static str, &'static str) {
    let prefix = format!("\"{key}\": {{\"result\":");
    for line in GOLDEN.lines() {
        if let Some(rest) = line.strip_prefix(&prefix) {
            let rest = rest.strip_suffix(',').unwrap_or(rest);
            let (result, digest) = rest
                .rsplit_once(",\"trace_fnv64\":")
                .expect("golden entry carries a trace digest");
            return (result, digest.trim_end_matches('}'));
        }
    }
    panic!(
        "tests/goldens/pipeline_tiny.json has no entry for `{key}`; \
         regenerate with `cargo run --release --example gen_goldens`"
    );
}

fn check_roster(plan: ExecPlan, traced: bool) {
    let gpu = GpuConfig::fermi();
    let benches = all_benchmarks(Scale::Tiny);
    assert_eq!(benches.len(), 12, "Table VI roster is twelve benchmarks");
    for bench in &benches {
        for mode in [SamplingMode::TwoPhase, SamplingMode::Live] {
            check(bench, &gpu, mode, plan, traced);
        }
    }
}

fn check(bench: &Benchmark, gpu: &GpuConfig, mode: SamplingMode, plan: ExecPlan, traced: bool) {
    let cfg = TbpointConfig {
        mode,
        ..TbpointConfig::default()
    };
    let label = match mode {
        SamplingMode::TwoPhase => "two-phase",
        SamplingMode::Live => "live",
    };
    let key = format!("{}/{label}", bench.name);
    let (golden_result, golden_digest) = golden_entry(&key);
    let profile = mode.needs_profile().then(|| profile_run(&bench.run, 1));
    let ctx = format!(
        "{key} (traced: {traced}) at pool_workers={}",
        plan.pool_workers
    );
    let result = if traced {
        let (result, traces) =
            run_tbpoint_traced(&bench.run, profile.as_ref(), &cfg, gpu, plan).expect("pipeline");
        let jsonl: String = traces.iter().map(|t| t.trace.to_jsonl()).collect();
        assert_eq!(
            golden_digest,
            format!("\"{:016x}\"", fnv1a64(jsonl.as_bytes())),
            "{ctx}: trace digest diverges from tests/goldens/pipeline_tiny.json"
        );
        result
    } else {
        run_tbpoint(&bench.run, profile.as_ref(), &cfg, gpu, plan).expect("pipeline")
    };
    assert_eq!(
        golden_result,
        serde_json::to_string(&result).expect("TbpointResult serialises"),
        "{ctx}: result diverges from tests/goldens/pipeline_tiny.json"
    );
}

#[test]
fn tiny_pipeline_matches_committed_golden_serial() {
    check_roster(ExecPlan::serial(), false);
}

#[test]
fn tiny_pipeline_matches_committed_golden_pooled() {
    check_roster(ExecPlan { pool_workers: 2 }, true);
}
