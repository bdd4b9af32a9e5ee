//! Regenerate the golden files used by `tests/golden_sim.rs` and
//! `tests/golden_pipeline.rs`.
//!
//! ```text
//! cargo run --release --example gen_goldens
//! ```
//!
//! For every Table-VI workload at Tiny scale this simulates every launch
//! with the default (full-detail) dispatch hook and serialises the
//! complete [`tbpoint_sim::RunSimResult`] to
//! `tests/goldens/launch_sim_tiny.json`. The golden test compares the
//! simulator's current output byte-for-byte against the committed file,
//! so any change that perturbs a single cycle count, issue total or hit
//! rate — however small — fails loudly.
//!
//! It then runs the *sampled* pipeline on the same roster in both
//! sampling modes and writes `tests/goldens/pipeline_tiny.json`: per
//! workload and mode, the serialised [`tbpoint_core::TbpointResult`] and
//! an FNV-1a-64 digest of the concatenated per-launch trace JSONL, so a
//! refactor of the pipeline or the samplers cannot move a prediction or
//! reorder a single sampler event unnoticed.
//!
//! Last it writes `tests/goldens/serve_cache_names_tiny.json`: the
//! result-cache file name of a default `simulate` and `eval` request per
//! workload (`crates/serve/tests/cache_keys.rs` compares), so re-keying
//! the entries already on disk shows as a diff of this file.
//!
//! Only regenerate (and commit the diff) when a change is *supposed* to
//! alter what it altered. Performance and simplification work must leave
//! `launch_sim_tiny.json` and every `result` object untouched; the trace
//! digest also covers the host loop's `IdleJump` events, which a change
//! to idle skipping moves by design. See EXPERIMENTS.md ("Bit-identity
//! goldens").

use tbpoint_core::{run_tbpoint_traced, SamplingMode, TbpointConfig};
use tbpoint_emu::profile_run;
use tbpoint_obs::fnv1a64;
use tbpoint_pool::ExecPlan;
use tbpoint_serve::{cache_name, key_text, ServeOptions};
use tbpoint_sim::{simulate_run, GpuConfig, NullSampling};
use tbpoint_workloads::{all_benchmarks, Benchmark, Scale};

fn write_golden(path: &str, lines: &[String]) {
    let out = format!("{{\n{}\n}}\n", lines.join(",\n"));
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create goldens dir");
    }
    std::fs::write(path, &out).expect("write golden file");
    println!("wrote {} ({} bytes)", path.display(), out.len());
}

/// One `pipeline_tiny.json` line: `"<bench>/<mode>": {"result":…,"trace_fnv64":"…"}`.
/// `tests/golden_pipeline.rs` rebuilds the same text from the current code.
fn pipeline_line(bench: &Benchmark, gpu: &GpuConfig, mode: SamplingMode) -> String {
    let cfg = TbpointConfig {
        mode,
        ..TbpointConfig::default()
    };
    let label = match mode {
        SamplingMode::TwoPhase => "two-phase",
        SamplingMode::Live => "live",
    };
    let profile = mode.needs_profile().then(|| profile_run(&bench.run, 1));
    let (result, traces) =
        run_tbpoint_traced(&bench.run, profile.as_ref(), &cfg, gpu, ExecPlan::serial())
            .expect("pipeline runs");
    let jsonl: String = traces.iter().map(|t| t.trace.to_jsonl()).collect();
    format!(
        "\"{}/{label}\": {{\"result\":{},\"trace_fnv64\":\"{:016x}\"}}",
        bench.name,
        serde_json::to_string(&result).expect("TbpointResult serialises"),
        fnv1a64(jsonl.as_bytes())
    )
}

fn main() {
    let cfg = GpuConfig::fermi();
    let benches = all_benchmarks(Scale::Tiny);

    let mut sim_lines = Vec::new();
    for bench in &benches {
        let r = simulate_run(&bench.run, &cfg, &mut NullSampling, None);
        let line = serde_json::to_string(&r).expect("RunSimResult serialises");
        sim_lines.push(format!("\"{}\": {line}", bench.name));
        eprintln!(
            "{:8} {:3} launches, {:>12} cycles total",
            bench.name,
            r.launches.len(),
            r.total_cycles()
        );
    }
    write_golden("tests/goldens/launch_sim_tiny.json", &sim_lines);

    let mut pipeline_lines = Vec::new();
    for bench in &benches {
        for mode in [SamplingMode::TwoPhase, SamplingMode::Live] {
            pipeline_lines.push(pipeline_line(bench, &cfg, mode));
        }
    }
    write_golden("tests/goldens/pipeline_tiny.json", &pipeline_lines);

    let serve_cfg = ServeOptions::default().config;
    let mut name_lines = Vec::new();
    for bench in &benches {
        for cmd in ["simulate", "eval"] {
            let key = key_text(cmd, bench, Scale::Tiny, &serve_cfg, &cfg).expect("key text");
            name_lines.push(format!(
                "\"{cmd}/{}\": \"{}\"",
                bench.name,
                cache_name(cmd, bench.name, &key)
            ));
        }
    }
    write_golden("tests/goldens/serve_cache_names_tiny.json", &name_lines);
}
