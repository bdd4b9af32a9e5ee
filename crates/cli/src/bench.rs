//! `tbpoint bench` — the recorded performance trajectory.
//!
//! Times the two eval stages (functional profile, cycle-level simulate)
//! for every Table VI workload over the shared `tbpoint-workloads`
//! fixtures (the same roster the Criterion benches in `crates/bench`
//! draw from) and writes a schema'd artifact (`BENCH_PR9.json`) holding
//! per-stage wall times, throughputs, interner hit counts, the
//! cross-launch pool speedup of the [`ExecPlan`] (`--pool-workers`)
//! and **both sampling modes**: the paper's two-phase pipeline (profile
//! then sample) against the live single-pass pipeline, each with its
//! wall time and sampled-vs-full
//! error, plus the previous PR's numbers as the frozen baseline for the
//! speedup comparison. Each future perf PR regenerates the artifact
//! (seeding `baseline` from the previous one), growing a measured
//! trajectory instead of anecdotes.
//!
//! Methodology: per workload, `reps` measurements of each stage
//! (single-threaded, whole-launch) and the **minimum** is kept — the
//! standard wall-clock estimator under scheduler noise. The pinned scale
//! for the committed artifact is `dev`; `--quick` (CI's `perf-smoke`
//! job) runs one rep at `tiny` and compares against the artifact's
//! `quick` section with a deliberately generous regression threshold.

use serde::{Deserialize, Serialize};
use std::time::Instant;
use tbpoint_core::{run_tbpoint, SamplingMode, TbpointConfig};
use tbpoint_pool::{map_indexed, ExecPlan};
use tbpoint_sim::{simulate_launch_perf, GpuConfig, NullSampling, SimPerf};
use tbpoint_workloads::{all_benchmarks, Scale};

/// Artifact schema identifier; bump on breaking shape changes.
pub const SCHEMA: &str = "tbpoint-bench/v4";

/// Default artifact path (repo root, committed).
pub const DEFAULT_ARTIFACT: &str = "BENCH_PR9.json";

/// Fail `--check` when current throughput falls below `committed / 2` —
/// generous on purpose: CI runners are noisy, and the check exists to
/// catch order-of-magnitude hot-path regressions, not 10% drift.
pub const REGRESSION_FACTOR: f64 = 2.0;

/// Fail `--check` when either sampling mode's sampled-vs-full error
/// exceeds this bound. It is the clean-baseline anchor of the
/// resilience suite's error-growth curve (zero injected faults keeps
/// `curve[0].mean_err_pct` under 10%), so a quick bench that breaches
/// it means accuracy regressed, not that the runner was slow.
pub const ERROR_BOUND_PCT: f64 = 10.0;

/// One workload's measurements.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct WorkloadBench {
    /// Table VI abbreviation.
    pub name: String,
    /// `regular` or `irregular` (Fig. 8 Type II / Type I).
    pub kind: String,
    /// Launches in the run.
    pub launches: u64,
    /// Total thread blocks across launches.
    pub blocks: u64,
    /// Functional-profile stage wall time (best of `reps`).
    pub profile_ms: f64,
    /// Cycle-level simulation wall time for every launch (best of `reps`).
    pub simulate_ms: f64,
    /// `profile_ms + simulate_ms`.
    pub eval_ms: f64,
    /// Warp instructions issued by the simulation.
    pub warp_insts: u64,
    /// Simulated cycles summed over launches.
    pub cycles: u64,
    /// Simulation throughput: `warp_insts / simulate_ms`.
    pub warp_insts_per_sec: f64,
    /// Simulation throughput: `cycles / simulate_ms`.
    pub cycles_per_sec: f64,
    /// Warp traces served from the interner.
    pub intern_hits: u64,
    /// Warp traces emulated and cached.
    pub intern_misses: u64,
    /// Warp traces emulated with caching bypassed (thread-varying).
    pub intern_uncacheable: u64,
    /// Always 1: the intra-launch parallel leg this column described was
    /// removed with the SM-sharded simulator. `jobs`, `simulate_par_ms`
    /// and `par_speedup` keep the v4 schema parseable and carry its
    /// "leg skipped" values.
    pub jobs: u64,
    /// Always equal to `simulate_ms`.
    pub simulate_par_ms: f64,
    /// Always 1.0.
    pub par_speedup: f64,
    /// Pool workers scheduling whole launches for the cross-launch leg
    /// (`ExecPlan::pool_workers`); 1 = the leg was skipped.
    pub pool_workers: u64,
    /// Cycle-level simulation wall time with launches fanned out over
    /// `pool_workers` (best of `reps`); equals `simulate_ms` when
    /// `pool_workers` is 1.
    pub simulate_pool_ms: f64,
    /// `simulate_ms / simulate_pool_ms` — cross-launch pool speedup.
    pub pool_speedup: f64,
    /// Two-phase TBPoint pipeline wall time (best of `reps`): sampling
    /// and prediction on an already-collected profile. The full
    /// two-phase cost is `profile_ms + two_phase_ms`.
    pub two_phase_ms: f64,
    /// Two-phase sampled-vs-full IPC error (absolute %).
    pub two_phase_err_pct: f64,
    /// Live single-pass pipeline wall time (best of `reps`); live mode
    /// needs no profile, so this is its whole cost.
    pub live_ms: f64,
    /// Live sampled-vs-full IPC error (absolute %).
    pub live_err_pct: f64,
    /// `(profile_ms + two_phase_ms) / live_ms` — end-to-end gain from
    /// fusing profiling into the timing simulation.
    pub live_speedup: f64,
}

/// Suite-wide sums.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct BenchTotals {
    /// Sum of per-workload profile times.
    pub profile_ms: f64,
    /// Sum of per-workload simulate times.
    pub simulate_ms: f64,
    /// Sum of per-workload eval times.
    pub eval_ms: f64,
    /// Total warp instructions.
    pub warp_insts: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// `warp_insts / simulate_ms`.
    pub warp_insts_per_sec: f64,
}

/// One workload of the frozen pre-optimisation baseline (no interner
/// existed there, so no hit counts).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct BaselineWorkload {
    /// Table VI abbreviation.
    pub name: String,
    /// Functional-profile stage wall time.
    pub profile_ms: f64,
    /// Cycle-level simulation wall time.
    pub simulate_ms: f64,
    /// `profile_ms + simulate_ms`.
    pub eval_ms: f64,
    /// Warp instructions issued (must match the current build's).
    pub warp_insts: u64,
    /// Simulated cycles (must match the current build's).
    pub cycles: u64,
}

/// The frozen reference build's measurements, embedded in the artifact
/// and carried over verbatim when the artifact is regenerated.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct BaselineSection {
    /// Human description of the reference build.
    pub build: String,
    /// Scale of `workloads` (matches the artifact's pinned scale).
    pub scale: String,
    /// Repetitions (minimum taken).
    pub reps: u32,
    /// Per-workload baseline at the pinned scale.
    pub workloads: Vec<BaselineWorkload>,
    /// Per-workload baseline at the `--quick` scale.
    pub quick: Vec<BaselineWorkload>,
}

/// The committed artifact.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct BenchReport {
    /// Must equal [`SCHEMA`].
    pub schema: String,
    /// Build description of the measured binary.
    pub build: String,
    /// Logical CPUs visible to the measuring process. Context for the
    /// pool columns: `pool_speedup > 1` is only attainable when this
    /// exceeds 1 — on a single-CPU host the pool leg measures pure
    /// coordination overhead.
    pub host_cpus: u64,
    /// Pinned scale of `workloads`.
    pub scale: String,
    /// Repetitions per stage (minimum taken).
    pub reps: u32,
    /// Per-workload measurements at the pinned scale.
    pub workloads: Vec<WorkloadBench>,
    /// Suite-wide sums at the pinned scale.
    pub totals: BenchTotals,
    /// Scale of the `quick` section (CI smoke runs).
    pub quick_scale: String,
    /// One-rep measurements at `quick_scale`, compared by `--check`.
    pub quick: Vec<WorkloadBench>,
    /// The frozen pre-optimisation reference, if recorded.
    pub baseline: Option<BaselineSection>,
}

/// Logical CPUs available to this process (1 if undeterminable).
pub fn host_cpus() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// Description of the currently-measured build (kept in lockstep with
/// `[profile.release]` in the workspace `Cargo.toml` and the hot-path
/// defaults in `tbpoint-sim`).
pub fn build_label() -> String {
    "release, thin LTO, codegen-units=1; trace interning + event horizon on; \
     ExecPlan pool parallelism available (--pool-workers); \
     live single-pass sampling available (--live)"
        .to_string()
}

/// Canonical scale tag used inside the artifact.
pub fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "full",
        Scale::Dev => "dev",
        Scale::Tiny => "tiny",
    }
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn per_sec(count: u64, ms: f64) -> f64 {
    if ms <= 0.0 {
        0.0
    } else {
        (count as f64 / (ms / 1e3)).round()
    }
}

/// Measure every Table VI workload at `scale`, `reps` times per stage,
/// keeping the minimum. `plan.pool_workers > 1` adds a leg that
/// re-times the same simulations with whole launches fanned out over
/// the job pool and asserts the counted work is identical, so the
/// speedup is measured *and* its bit-identity spot-checked in the same
/// breath. Progress lines go to stderr via `progress`.
pub fn measure(
    scale: Scale,
    reps: u32,
    plan: ExecPlan,
    mut progress: impl FnMut(&str),
) -> Vec<WorkloadBench> {
    let pool = plan.normalized().pool_workers;
    let cfg = GpuConfig::fermi();
    let tb_cfg = TbpointConfig::default();
    let live_cfg = TbpointConfig {
        mode: SamplingMode::Live,
        ..TbpointConfig::default()
    };
    let mut out = Vec::new();
    for bench in all_benchmarks(scale) {
        let mut best_profile = f64::MAX;
        let mut best_sim = f64::MAX;
        let mut best_pool = f64::MAX;
        let mut best_two = f64::MAX;
        let mut best_live = f64::MAX;
        let mut two_err = 0.0f64;
        let mut live_err = 0.0f64;
        let mut warp_insts = 0u64;
        let mut cycles = 0u64;
        let mut perf = SimPerf::default();
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            let profile = tbpoint_emu::profile_run(&bench.run, 1);
            let profile_ms = t0.elapsed().as_secs_f64() * 1e3;

            let t1 = Instant::now();
            let mut wi = 0u64;
            let mut cy = 0u64;
            let mut p = SimPerf::default();
            for spec in &bench.run.launches {
                let (r, lp) =
                    simulate_launch_perf(&bench.run.kernel, spec, &cfg, &mut NullSampling, None, 1);
                wi += r.issued_warp_insts;
                cy += r.cycles;
                p.accumulate(&lp);
            }
            let sim_ms = t1.elapsed().as_secs_f64() * 1e3;

            // The two stages walk the same deterministic programs; a
            // mismatch means the simulator dropped or duplicated work.
            assert_eq!(
                wi,
                profile.total_warp_insts(),
                "{}: simulate disagrees with profile",
                bench.name
            );

            if pool > 1 {
                let specs = &bench.run.launches;
                let t3 = Instant::now();
                let counts = map_indexed(pool, specs.len(), |i| {
                    let mut sampling = NullSampling;
                    let (r, _) = simulate_launch_perf(
                        &bench.run.kernel,
                        &specs[i],
                        &cfg,
                        &mut sampling,
                        None,
                        1,
                    );
                    (r.issued_warp_insts, r.cycles)
                });
                let pool_ms = t3.elapsed().as_secs_f64() * 1e3;
                let (wi_pool, cy_pool) = counts
                    .iter()
                    .fold((0u64, 0u64), |(a, b), &(w, c)| (a + w, b + c));
                // Launches are independent and the merge is canonical,
                // so the pooled counts must equal the serial ones.
                assert_eq!(
                    (wi_pool, cy_pool),
                    (wi, cy),
                    "{}: pooled simulation (pool_workers={pool}) disagrees with serial",
                    bench.name
                );
                best_pool = best_pool.min(pool_ms);
            }

            // The sampling-mode legs: the paper's two-phase pipeline on
            // the profile already in hand, then the live single-pass
            // pipeline that needs none. Both run serially so the
            // comparison is free of scheduling noise; both are exact
            // about accuracy — the errors are deterministic, the wall
            // times take the per-rep minimum like every other stage.
            let full_ipc = if cy > 0 { wi as f64 / cy as f64 } else { 0.0 };
            let t4 = Instant::now();
            let tbp = run_tbpoint(
                &bench.run,
                Some(&profile),
                &tb_cfg,
                &cfg,
                ExecPlan::serial(),
            )
            .expect("two-phase pipeline rejected");
            let two_ms = t4.elapsed().as_secs_f64() * 1e3;
            let t5 = Instant::now();
            let live = run_tbpoint(&bench.run, None, &live_cfg, &cfg, ExecPlan::serial())
                .expect("live pipeline rejected");
            let live_ms = t5.elapsed().as_secs_f64() * 1e3;
            two_err = tbp.error_vs(full_ipc);
            live_err = live.error_vs(full_ipc);
            best_two = best_two.min(two_ms);
            best_live = best_live.min(live_ms);

            best_profile = best_profile.min(profile_ms);
            best_sim = best_sim.min(sim_ms);
            warp_insts = wi;
            cycles = cy;
            perf = p;
        }
        if pool <= 1 {
            best_pool = best_sim;
        }
        let eval_ms = best_profile + best_sim;
        progress(&format!(
            "{:8} {:>9.1} ms eval ({:>8.1} profile + {:>9.1} simulate{}), {} warp insts",
            bench.name,
            eval_ms,
            best_profile,
            best_sim,
            if pool > 1 {
                format!(" serial, {best_pool:.1} at pool={pool}")
            } else {
                String::new()
            },
            warp_insts
        ));
        progress(&format!(
            "{:8} sampling: two-phase {:>7.1} ms (err {:.2}%), live {:>7.1} ms (err {:.2}%)",
            "", best_two, two_err, best_live, live_err
        ));
        out.push(WorkloadBench {
            name: bench.name.to_string(),
            kind: match bench.kind {
                tbpoint_workloads::KernelKind::Regular => "regular".to_string(),
                tbpoint_workloads::KernelKind::Irregular => "irregular".to_string(),
            },
            launches: bench.run.num_launches() as u64,
            blocks: bench.run.total_blocks(),
            profile_ms: round2(best_profile),
            simulate_ms: round2(best_sim),
            eval_ms: round2(eval_ms),
            warp_insts,
            cycles,
            warp_insts_per_sec: per_sec(warp_insts, best_sim),
            cycles_per_sec: per_sec(cycles, best_sim),
            intern_hits: perf.intern_hits,
            intern_misses: perf.intern_misses,
            intern_uncacheable: perf.intern_uncacheable,
            jobs: 1,
            simulate_par_ms: round2(best_sim),
            par_speedup: 1.0,
            pool_workers: pool as u64,
            simulate_pool_ms: round2(best_pool),
            pool_speedup: if best_pool > 0.0 {
                round2(best_sim / best_pool)
            } else {
                0.0
            },
            two_phase_ms: round2(best_two),
            two_phase_err_pct: round2(two_err),
            live_ms: round2(best_live),
            live_err_pct: round2(live_err),
            live_speedup: if best_live > 0.0 {
                round2((best_profile + best_two) / best_live)
            } else {
                0.0
            },
        });
    }
    out
}

/// Suite-wide sums of `workloads`.
pub fn totals(workloads: &[WorkloadBench]) -> BenchTotals {
    let mut t = BenchTotals::default();
    for w in workloads {
        t.profile_ms += w.profile_ms;
        t.simulate_ms += w.simulate_ms;
        t.eval_ms += w.eval_ms;
        t.warp_insts += w.warp_insts;
        t.cycles += w.cycles;
    }
    t.profile_ms = round2(t.profile_ms);
    t.simulate_ms = round2(t.simulate_ms);
    t.eval_ms = round2(t.eval_ms);
    t.warp_insts_per_sec = per_sec(t.warp_insts, t.simulate_ms);
    t
}

/// Parse and schema-check an artifact.
pub fn parse_report(bytes: &[u8]) -> Result<BenchReport, String> {
    let report: BenchReport =
        serde_json::from_slice(bytes).map_err(|e| format!("artifact does not parse: {e}"))?;
    if report.schema != SCHEMA {
        return Err(format!(
            "artifact schema {:?} != expected {:?}",
            report.schema, SCHEMA
        ));
    }
    if report.workloads.is_empty() {
        return Err("artifact has no workloads".to_string());
    }
    Ok(report)
}

/// Render the per-workload simulated-work counts (name, warp
/// instructions, cycles) as stable one-per-line text, so two runs can
/// be `cmp`ed byte-for-byte — the cheapest possible cross-process
/// bit-identity check.
pub fn render_counts(workloads: &[WorkloadBench]) -> String {
    let mut out = String::new();
    for w in workloads {
        out.push_str(&format!("{} {} {}\n", w.name, w.warp_insts, w.cycles));
    }
    out
}

/// Compare a fresh `--quick` run against the committed artifact's
/// `quick` section: every workload must retain at least
/// `1 / REGRESSION_FACTOR` of the committed simulation throughput.
/// Returns the list of failures (empty = pass).
pub fn check_regressions(current: &[WorkloadBench], committed: &BenchReport) -> Vec<String> {
    let mut failures = Vec::new();
    for cur in current {
        let Some(base) = committed.quick.iter().find(|w| w.name == cur.name) else {
            failures.push(format!("{}: missing from committed artifact", cur.name));
            continue;
        };
        // Simulated work must be reproducible exactly; a drift here is a
        // correctness bug, not a perf regression.
        if cur.warp_insts != base.warp_insts || cur.cycles != base.cycles {
            failures.push(format!(
                "{}: simulated work drifted (warp_insts {} vs {}, cycles {} vs {})",
                cur.name, cur.warp_insts, base.warp_insts, cur.cycles, base.cycles
            ));
            continue;
        }
        let floor = base.warp_insts_per_sec / REGRESSION_FACTOR;
        if cur.warp_insts_per_sec < floor {
            failures.push(format!(
                "{}: throughput {:.0} warp-insts/s below floor {:.0} (committed {:.0} / {})",
                cur.name, cur.warp_insts_per_sec, floor, base.warp_insts_per_sec, REGRESSION_FACTOR
            ));
        }
        // Accuracy gate: both sampling modes must stay inside the
        // clean-baseline error envelope. Unlike throughput this is
        // deterministic, so there is no noise allowance.
        for (mode, err) in [
            ("two-phase", cur.two_phase_err_pct),
            ("live", cur.live_err_pct),
        ] {
            if err > ERROR_BOUND_PCT {
                failures.push(format!(
                    "{}: {mode} sampled-vs-full error {err:.2}% exceeds the \
                     {ERROR_BOUND_PCT}% clean-baseline bound",
                    cur.name
                ));
            }
        }
    }
    failures
}

/// Render a human summary table; includes per-workload speedup columns
/// when the baseline section covers the same scale.
pub fn render_summary(report: &BenchReport) -> String {
    let baseline = report.baseline.as_ref().filter(|b| b.scale == report.scale);
    let pooled = report.workloads.iter().any(|w| w.pool_workers > 1);
    let live = report.workloads.iter().any(|w| w.live_ms > 0.0);
    let mut headers = vec!["bench", "kind", "eval ms", "simulate ms", "Mwi/s", "hit%"];
    if pooled {
        headers.push("pool x");
    }
    if live {
        headers.push("live x");
    }
    if baseline.is_some() {
        headers.push("speedup");
    }
    let mut rows = Vec::new();
    let mut base_total = 0.0f64;
    for w in &report.workloads {
        let req = w.intern_hits + w.intern_misses + w.intern_uncacheable;
        let hit_pct = if req == 0 {
            0.0
        } else {
            100.0 * w.intern_hits as f64 / req as f64
        };
        let mut row = vec![
            w.name.clone(),
            w.kind.clone(),
            format!("{:.1}", w.eval_ms),
            format!("{:.1}", w.simulate_ms),
            format!("{:.2}", w.warp_insts_per_sec / 1e6),
            format!("{hit_pct:.0}"),
        ];
        if pooled {
            row.push(if w.pool_workers > 1 {
                format!("{:.2}x@{}", w.pool_speedup, w.pool_workers)
            } else {
                "-".to_string()
            });
        }
        if live {
            row.push(if w.live_ms > 0.0 {
                format!("{:.2}x", w.live_speedup)
            } else {
                "-".to_string()
            });
        }
        if let Some(b) = baseline {
            match b.workloads.iter().find(|bw| bw.name == w.name) {
                Some(bw) if w.eval_ms > 0.0 => {
                    base_total += bw.eval_ms;
                    row.push(format!("{:.2}x", bw.eval_ms / w.eval_ms));
                }
                _ => row.push("-".to_string()),
            }
        }
        rows.push(row);
    }
    let mut out = crate::output::render_table(&headers, &rows);
    out.push_str(&format!(
        "\ntotal eval: {:.1} ms ({} scale, best of {} reps, {} host CPU{}; build: {})\n",
        report.totals.eval_ms,
        report.scale,
        report.reps,
        report.host_cpus,
        if report.host_cpus == 1 { "" } else { "s" },
        report.build
    ));
    if let Some(b) = baseline {
        if report.totals.eval_ms > 0.0 && base_total > 0.0 {
            out.push_str(&format!(
                "baseline:   {:.1} ms ({}) -> {:.2}x end-to-end\n",
                base_total,
                b.build,
                base_total / report.totals.eval_ms
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl(name: &str, wips: f64) -> WorkloadBench {
        WorkloadBench {
            name: name.to_string(),
            kind: "regular".to_string(),
            launches: 1,
            blocks: 2,
            profile_ms: 1.0,
            simulate_ms: 10.0,
            eval_ms: 11.0,
            warp_insts: 1000,
            cycles: 500,
            warp_insts_per_sec: wips,
            cycles_per_sec: 50_000.0,
            intern_hits: 3,
            intern_misses: 1,
            intern_uncacheable: 0,
            jobs: 1,
            simulate_par_ms: 10.0,
            par_speedup: 1.0,
            pool_workers: 1,
            simulate_pool_ms: 10.0,
            pool_speedup: 1.0,
            two_phase_ms: 5.0,
            two_phase_err_pct: 2.0,
            live_ms: 4.0,
            live_err_pct: 3.0,
            live_speedup: 1.5,
        }
    }

    fn report() -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_string(),
            build: build_label(),
            host_cpus: 4,
            scale: "dev".to_string(),
            reps: 3,
            workloads: vec![wl("stream", 100_000.0)],
            totals: totals(&[wl("stream", 100_000.0)]),
            quick_scale: "tiny".to_string(),
            quick: vec![wl("stream", 100_000.0)],
            baseline: None,
        }
    }

    #[test]
    fn report_round_trips_and_schema_checks() {
        let r = report();
        let bytes = serde_json::to_vec(&r).unwrap();
        let back = parse_report(&bytes).unwrap();
        assert_eq!(back, r);

        let mut bad = r.clone();
        bad.schema = "tbpoint-bench/v0".to_string();
        let bytes = serde_json::to_vec(&bad).unwrap();
        assert!(parse_report(&bytes).unwrap_err().contains("schema"));

        assert!(parse_report(b"not json").is_err());
    }

    #[test]
    fn regression_check_trips_only_below_floor() {
        let committed = report();
        // Same throughput: pass. Half-ish: still pass (factor 2). Tenth: fail.
        assert!(check_regressions(&[wl("stream", 100_000.0)], &committed).is_empty());
        assert!(check_regressions(&[wl("stream", 51_000.0)], &committed).is_empty());
        let fails = check_regressions(&[wl("stream", 10_000.0)], &committed);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("below floor"));
    }

    #[test]
    fn regression_check_catches_work_drift() {
        let committed = report();
        let mut cur = wl("stream", 100_000.0);
        cur.warp_insts += 1;
        let fails = check_regressions(&[cur], &committed);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("drifted"));
    }

    #[test]
    fn regression_check_catches_missing_workload() {
        let committed = report();
        let fails = check_regressions(&[wl("conv", 100_000.0)], &committed);
        assert!(fails[0].contains("missing"));
    }

    #[test]
    fn regression_check_trips_on_error_bound_breach() {
        let committed = report();
        let mut cur = wl("stream", 100_000.0);
        cur.live_err_pct = ERROR_BOUND_PCT + 2.0;
        let fails = check_regressions(&[cur], &committed);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("live"));
        assert!(fails[0].contains("clean-baseline bound"));

        let mut cur = wl("stream", 100_000.0);
        cur.two_phase_err_pct = ERROR_BOUND_PCT + 0.5;
        let fails = check_regressions(&[cur], &committed);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("two-phase"));
    }

    #[test]
    fn summary_shows_live_speedup_column() {
        let s = render_summary(&report());
        assert!(s.contains("live x"), "summary:\n{s}");
        assert!(s.contains("1.50x"), "summary:\n{s}");
    }

    #[test]
    fn summary_shows_pool_speedup_column() {
        let mut r = report();
        r.workloads[0].pool_workers = 4;
        r.workloads[0].simulate_pool_ms = 5.0;
        r.workloads[0].pool_speedup = 2.0;
        let s = render_summary(&r);
        assert!(s.contains("pool x"), "summary:\n{s}");
        assert!(s.contains("2.00x@4"), "summary:\n{s}");
    }

    #[test]
    fn measure_pool_leg_matches_serial_counts() {
        // The pooled leg asserts bit-identity internally; run it once
        // on the tiny roster to exercise that assertion.
        let rows = measure(Scale::Tiny, 1, ExecPlan { pool_workers: 2 }, |_| {});
        assert!(!rows.is_empty());
        for w in &rows {
            assert_eq!(w.pool_workers, 2);
            assert!(w.simulate_pool_ms >= 0.0);
        }
    }

    #[test]
    fn counts_render_one_stable_line_per_workload() {
        let text = render_counts(&[wl("a", 1.0), wl("b", 1.0)]);
        assert_eq!(
            text,
            "a 1000 500
b 1000 500
"
        );
    }

    #[test]
    fn totals_sum_workloads() {
        let t = totals(&[wl("a", 1.0), wl("b", 1.0)]);
        assert_eq!(t.eval_ms, 22.0);
        assert_eq!(t.warp_insts, 2000);
        assert_eq!(t.warp_insts_per_sec, 100_000.0);
    }

    #[test]
    fn summary_includes_speedup_against_baseline() {
        let mut r = report();
        r.baseline = Some(BaselineSection {
            build: "pre-PR4".to_string(),
            scale: "dev".to_string(),
            reps: 3,
            workloads: vec![BaselineWorkload {
                name: "stream".to_string(),
                profile_ms: 2.0,
                simulate_ms: 20.0,
                eval_ms: 22.0,
                warp_insts: 1000,
                cycles: 500,
            }],
            quick: vec![],
        });
        let s = render_summary(&r);
        assert!(s.contains("2.00x"), "summary:\n{s}");
        assert!(s.contains("end-to-end"));
    }
}
