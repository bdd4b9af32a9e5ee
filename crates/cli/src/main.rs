//! `tbpoint` — regenerate any table or figure from the paper.
//!
//! ```text
//! tbpoint table1 [--scale dev]        Table I   simulation slowdown
//! tbpoint table6 [--scale full]       Table VI  benchmark roster
//! tbpoint fig5   [--samples 10000]    Fig. 5    Monte-Carlo IPC variation
//! tbpoint fig8   [--scale dev]        Fig. 8    TB-size scatter (CSV artefacts)
//! tbpoint eval   [--scale dev]        Figs. 9-11
//! tbpoint fig9 | fig10 | fig11        one figure of eval, reusing its units
//! tbpoint fig12 | fig13 [--scale dev] hardware-sensitivity sweep
//! tbpoint ablate [--scale dev]        design-choice quality ablations
//! tbpoint inspect <bench>             characterisation report
//! tbpoint faultmatrix [--scale tiny]  fault-injection containment matrix
//! tbpoint serve  [--cache-dir DIR]    long-running JSONL request service
//! tbpoint all    [--scale dev]        everything above
//! ```
//!
//! Parallelism is one [`ExecPlan`]:
//! `--pool-workers N` (default: the host's CPU count; `0` is a usage
//! error) schedules whole launches and sweep units on the deterministic
//! job pool, with results merged in canonical order so every artifact is
//! byte-identical to a serial run (DESIGN.md, "Pool parallelism"). The
//! same pool runs `fig5`'s eight Monte-Carlo configurations and the
//! launches `inspect` profiles, one unit each.
//!
//! `--live` switches `eval`, `fig12`/`fig13` and `ablate` to **live
//! single-pass sampling** (`TbpointConfig::mode = Live`, DESIGN.md
//! "Live sampling"): the separate profiling pass is skipped and the
//! online epoch detector decides during the one timing pass when to
//! warm, fast-forward and fall back. Live artifacts are written under
//! distinct names (`eval_live_*.json`, `sensitivity_live_*.json`,
//! `ablate_live_*.json`) so the modes never overwrite each other.
//!
//! Artefacts (JSON + CSV) land in `./artifacts/`.
//!
//! `eval`, `fig8` and `fig12`/`fig13` (the sensitivity sweep) run as
//! **crash-safe resumable sweeps**: each benchmark's result is written
//! to its own atomically-renamed, sealed unit entry under
//! `artifacts/units/`, named by a hash of everything it depends on
//! (command, benchmark, scale, TBPoint and GPU config), so `--live`,
//! `--cycle-budget` and `--scale` all enter the name. `eval` and `fig8`
//! reuse entries that verify only with `--resume` (the final artifacts
//! are byte-identical to an uninterrupted run); `fig9`-`fig13` always
//! reuse them, so a figure renders from the units `eval` or another
//! figure left, and recomputes what is missing. `--max-units K` stops
//! after K units and exits with code 3; `--cycle-budget N` arms a
//! per-launch watchdog that aborts runaway simulations with a
//! `BudgetExceeded` error while keeping finished units on disk. `0` for
//! either, as for `--pool-workers` and `--max-pending`, is a usage error.
//!
//! `eval`, `fig12`/`fig13` and `ablate` accept `--trace-out <path>`:
//! the simulated launches are then recorded through the observability
//! layer (events, plus each launch's simulator statistics as counters)
//! and written as deterministic, integrity-sealed JSON lines, with a
//! summary (events by kind, heaviest memory-stall sites) printed after
//! the figures. Traced sweeps run on the same pool and resumable
//! sweep as untraced ones; the trace file is written in roster order,
//! byte-identical at any `--pool-workers`, and never changes the
//! results. A partial sweep (`--max-units`) writes no trace file,
//! `--trace-out` with `--resume` is a usage error and a traced figure
//! reuses no unit: a unit resumed from disk has no trace. Every other
//! command, `all` included (its two sweeps would write one file twice),
//! rejects `--trace-out` as a usage error.

use std::num::{NonZeroU64, NonZeroUsize};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use tbpoint_cli::experiments::{self, EvalConfig};
use tbpoint_cli::output::{self, TraceEntry};
use tbpoint_cli::sweep::{self, SweepOutcome, SweepPlan};
use tbpoint_core::predict::TbpointConfig;
use tbpoint_core::TbError;
use tbpoint_pool::ExecPlan;
use tbpoint_sim::GpuConfig;
use tbpoint_workloads::{Benchmark, Scale};

/// Exit code for a deliberately partial sweep (`--max-units`).
const EXIT_PARTIAL: i32 = 3;

/// The commands that record what `--trace-out` writes: one traced
/// pipeline pass each.
const TRACED_COMMANDS: [&str; 7] = ["eval", "fig9", "fig10", "fig11", "fig12", "fig13", "ablate"];

struct Args {
    command: String,
    target: Option<String>,
    scale: Scale,
    samples: usize,
    artifacts: PathBuf,
    trace_out: Option<PathBuf>,
    resume: bool,
    max_units: Option<usize>,
    cycle_budget: Option<u64>,
    /// Live single-pass sampling (`TbpointConfig::mode = Live`): fuse
    /// profiling into the timing simulation for `eval`, `fig12`/`fig13`
    /// and `ablate`. Live artifacts are written under distinct names
    /// (`eval_live_*.json`, ...) so the modes never collide.
    live: bool,
    /// The parallelism plan: `--pool-workers`, else the host CPU count.
    plan: ExecPlan,
    /// `serve`: response file for `--requests` (omit to print to stdout).
    out: Option<PathBuf>,
    /// `serve`: request file to process instead of streaming stdin.
    requests: Option<PathBuf>,
    /// `serve`: result-cache directory (omit to disable caching).
    cache_dir: Option<PathBuf>,
    /// `serve`: bounded-queue depth per batch window.
    max_pending: usize,
}

/// Print an actionable error and exit non-zero. Every fallible I/O or
/// pipeline path in this binary funnels through here instead of
/// panicking.
fn die(context: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("error: {context}: {err}");
    std::process::exit(1);
}

/// The value of a valued flag: the next argument, parsed, or a usage
/// error (`<flag> needs <what>`, exit 2) when it is missing or malformed.
fn flag_value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> T {
    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs {what}");
        std::process::exit(2);
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        command: String::new(),
        target: None,
        scale: Scale::Dev,
        samples: 10_000,
        artifacts: PathBuf::from("artifacts"),
        trace_out: None,
        resume: false,
        max_units: None,
        cycle_budget: None,
        live: false,
        plan: ExecPlan {
            pool_workers: experiments::default_threads(),
        },
        out: None,
        requests: None,
        cache_dir: None,
        max_pending: 256,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v: String = flag_value(&mut it, &a, "full|dev|tiny");
                args.scale = experiments::parse_scale(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale {v:?} (full|dev|tiny)");
                    std::process::exit(2);
                });
            }
            "--samples" => args.samples = flag_value(&mut it, &a, "a sample count"),
            "--artifacts" => args.artifacts = flag_value(&mut it, &a, "a directory"),
            "--trace-out" => args.trace_out = Some(flag_value(&mut it, &a, "a path")),
            "--resume" => args.resume = true,
            "--max-units" => {
                let k: NonZeroUsize = flag_value(&mut it, &a, "a positive integer");
                args.max_units = Some(k.get());
            }
            "--cycle-budget" => {
                let n: NonZeroU64 = flag_value(&mut it, &a, "a positive cycle count");
                args.cycle_budget = Some(n.get());
            }
            "--live" => args.live = true,
            "--pool-workers" => {
                let workers: NonZeroUsize = flag_value(&mut it, &a, "a worker count");
                args.plan = ExecPlan {
                    pool_workers: workers.get(),
                };
            }
            "--out" => args.out = Some(flag_value(&mut it, &a, "a path")),
            "--requests" => args.requests = Some(flag_value(&mut it, &a, "a path")),
            "--cache-dir" => args.cache_dir = Some(flag_value(&mut it, &a, "a path")),
            "--max-pending" => {
                let n: NonZeroUsize = flag_value(&mut it, &a, "a positive integer");
                args.max_pending = n.get();
            }
            cmd if args.command.is_empty() && !cmd.starts_with('-') => {
                args.command = cmd.to_string();
            }
            tgt if !tgt.starts_with('-') && args.target.is_none() => {
                args.target = Some(tgt.to_string());
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    if args.trace_out.is_some() && args.resume {
        eprintln!("--trace-out cannot be combined with --resume: a resumed unit has no trace");
        std::process::exit(2);
    }
    if args.trace_out.is_some() && !TRACED_COMMANDS.contains(&args.command.as_str()) {
        if args.command == "all" {
            eprintln!(
                "--trace-out cannot be combined with all: eval and the sensitivity sweep \
                 would write one trace file twice; trace them one command at a time"
            );
        } else {
            eprintln!(
                "--trace-out is not honoured by {:?}: only {} trace",
                args.command,
                TRACED_COMMANDS.join(", ")
            );
        }
        std::process::exit(2);
    }
    args
}

fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "full",
        Scale::Dev => "dev",
        Scale::Tiny => "tiny",
    }
}

/// The paper-default TBPoint config with the flags every sampling
/// command honours: `--live` selects the mode, `--cycle-budget` arms
/// the per-launch watchdog.
fn tbpoint_config(args: &Args) -> TbpointConfig {
    TbpointConfig {
        cycle_budget: args.cycle_budget,
        mode: if args.live {
            tbpoint_core::SamplingMode::Live
        } else {
            tbpoint_core::SamplingMode::TwoPhase
        },
        ..TbpointConfig::default()
    }
}

/// `<artifacts>/<stem>_[live_]<scale>.json`: the two sampling modes
/// produce different numbers, so their artifacts must never overwrite
/// each other.
fn mode_artifact(args: &Args, stem: &str) -> PathBuf {
    let live = if args.live { "live_" } else { "" };
    let scale = scale_tag(args.scale);
    args.artifacts.join(format!("{stem}_{live}{scale}.json"))
}

fn dump_traces(path: &Path, entries: &[TraceEntry]) {
    if let Err(e) = output::write_trace_jsonl(path, entries) {
        die(&format!("writing trace file {}", path.display()), e);
    }
    eprintln!(
        "wrote {} launch traces to {}",
        entries.len(),
        path.display()
    );
    println!("{}", output::render_trace_summary(entries, 10));
}

fn write_json_or_die(path: &Path, value: &impl serde::Serialize) {
    if let Err(e) = output::write_json(path, value) {
        die(&format!("writing artefact {}", path.display()), e);
    }
}

/// Unwrap a sweep outcome, handling the two non-success shapes: a
/// failed unit (exit 1 with an actionable message) and a deliberately
/// partial sweep (`--max-units`; progress is reported and the process
/// exits with [`EXIT_PARTIAL`] so scripts can tell "stopped early" from
/// "failed").
fn finish_sweep<T>(result: Result<SweepOutcome<T>, sweep::SweepError>, what: &str) -> Vec<T> {
    let outcome = match result {
        Ok(o) => o,
        Err(e) => die(&format!("{what} sweep failed"), e),
    };
    eprintln!(
        "{what}: {} unit(s) computed, {} resumed from disk",
        outcome.computed, outcome.resumed
    );
    if outcome.partial {
        eprintln!(
            "{what}: stopped after --max-units; re-run with --resume to finish \
             (completed units are kept)"
        );
        std::process::exit(EXIT_PARTIAL);
    }
    outcome.into_complete()
}

/// Run roster command `cmd` through the resumable sweep, one unit per
/// benchmark (unit entries live under `<artifacts>/units/`);
/// `unit(bench, trace)` computes a unit and its traces. Entries are
/// named like serve's cache entries, from the key text of `cmd`, the
/// benchmark, the scale, `cfg` and `gpu`, so `resume` reuses only units
/// computed from the same inputs. With `trace_out`, units record, each
/// unit's traces land in a slot indexed by unit, and once the sweep is
/// complete they are written in roster order — so the trace file is
/// byte-identical at any `--pool-workers`. A partial sweep exits before
/// writing it.
fn run_roster<T>(
    args: &Args,
    cmd: &str,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    resume: bool,
    trace_out: Option<&Path>,
    unit: impl Fn(&Benchmark, bool) -> Result<(T, Vec<TraceEntry>), TbError> + Sync,
) -> Vec<T>
where
    T: serde::Serialize + serde::Deserialize + Send,
{
    let benches = tbpoint_workloads::all_benchmarks(args.scale);
    let names: Vec<String> = benches
        .iter()
        .map(|b| {
            let key = tbpoint_serve::key_text(cmd, b, args.scale, cfg, gpu)
                .unwrap_or_else(|e| die(&format!("keying {cmd} unit {}", b.name), e));
            tbpoint_serve::cache_name(cmd, b.name, &key)
        })
        .collect();
    let slots: Vec<OnceLock<Vec<TraceEntry>>> = benches.iter().map(|_| OnceLock::new()).collect();
    let plan = SweepPlan {
        dir: args.artifacts.join("units"),
        resume,
        max_units: args.max_units,
        workers: args.plan.pool_workers,
    };
    let outcome = sweep::run_units(&plan, &names, |i| {
        let (value, traces) = unit(&benches[i], trace_out.is_some())?;
        // A unit runs at most once per sweep, so its slot is empty.
        let _ = slots[i].set(traces);
        Ok(value)
    });
    let results = finish_sweep(outcome, cmd);
    if let Some(path) = trace_out {
        let entries: Vec<TraceEntry> = slots
            .into_iter()
            .filter_map(OnceLock::into_inner)
            .flatten()
            .collect();
        dump_traces(path, &entries);
    }
    results
}

/// Run the evaluation sweep (reusing verified units when `resume`),
/// write `eval_*.json` and return it.
fn run_eval(args: &Args, resume: bool) -> experiments::EvalResult {
    let cfg = EvalConfig {
        tbpoint: tbpoint_config(args),
        ..EvalConfig::new(args.scale)
    };
    eprintln!(
        "running {} evaluation at {} scale on {} pool worker(s) \
         (this simulates every benchmark in full)...",
        if args.live {
            "live single-pass"
        } else {
            "two-phase"
        },
        scale_tag(args.scale),
        args.plan.pool_workers
    );
    let gpu = GpuConfig::fermi();
    let benches = run_roster(
        args,
        "eval",
        &cfg.tbpoint,
        &gpu,
        resume,
        args.trace_out.as_deref(),
        |bench, trace| experiments::eval_bench(bench, &cfg, &gpu, trace),
    );
    let r = experiments::EvalResult {
        config: cfg,
        benches,
    };
    write_json_or_die(&mode_artifact(args, "eval"), &r);
    r
}

fn cmd_fig5(args: &Args) {
    let r = experiments::fig5(args.samples, args.plan.pool_workers);
    write_json_or_die(&args.artifacts.join("fig5.json"), &r);
    println!(
        "Fig. 5 — IPC variation of a homogeneous interval ({} samples)",
        args.samples
    );
    println!("{}", r.render());
}

fn cmd_fig8(args: &Args) {
    // Profiling inside a unit runs serially; the sweep itself fans units
    // out over `--pool-workers` pool workers. Fig. 8 reads only the
    // workload, so its units are keyed with the default configs whatever
    // the flags say.
    let series = run_roster(
        args,
        "fig8",
        &TbpointConfig::default(),
        &GpuConfig::fermi(),
        args.resume,
        None,
        |bench, _| Ok((experiments::fig8_bench(bench), Vec::new())),
    );
    let r = experiments::Fig8Result { series };
    write_json_or_die(
        &args
            .artifacts
            .join(format!("fig8_{}.json", scale_tag(args.scale))),
        &r,
    );
    for s in &r.series {
        let rows: Vec<Vec<String>> = s
            .size_ratio
            .iter()
            .enumerate()
            .map(|(i, v)| vec![i.to_string(), output::fmt(*v, 4)])
            .collect();
        let csv_path =
            args.artifacts
                .join(format!("fig8_{}_{}.csv", scale_tag(args.scale), s.name));
        if let Err(e) = output::write_csv(&csv_path, &["tb_index", "size_ratio"], &rows) {
            die(&format!("writing artefact {}", csv_path.display()), e);
        }
    }
    println!("Fig. 8 — thread-block size ratios (scatter data in artifacts/fig8_*.csv)");
    println!("{}", r.render());
}

/// Run the hardware-sensitivity sweep behind Figs. 12 and 13, reusing
/// verified units unless traced, and write `sensitivity_*.json`. Units
/// are keyed with the Fermi baseline the (W, S) grid departs from.
fn run_sensitivity(args: &Args) -> experiments::SensitivityResult {
    eprintln!("running hardware-sensitivity sweep (6 configs x 12 benchmarks)...");
    let tb_cfg = tbpoint_config(args);
    let rows = run_roster(
        args,
        "sensitivity",
        &tb_cfg,
        &GpuConfig::fermi(),
        args.trace_out.is_none(),
        args.trace_out.as_deref(),
        |bench, trace| experiments::sensitivity_bench(bench, &tb_cfg, trace),
    );
    let r = experiments::SensitivityResult {
        cells: rows.into_iter().flatten().collect(),
    };
    write_json_or_die(&mode_artifact(args, "sensitivity"), &r);
    r
}

fn print_fig12(r: &experiments::SensitivityResult) {
    println!("Fig. 12 — TBPoint sampling error across hardware configurations");
    println!("{}", experiments::render_fig12(r));
}

fn print_fig13(r: &experiments::SensitivityResult) {
    println!("Fig. 13 — TBPoint total sample size across hardware configurations");
    println!("{}", experiments::render_fig13(r));
}

/// `tbpoint serve`: the long-running JSONL request service (see
/// DESIGN.md, "Serve: supervision, deadlines, and the self-healing
/// cache").
///
/// Requests arrive one JSON object per line, in blank-line-delimited
/// batch windows; each gets exactly one JSON response line, in arrival
/// order, byte-identical at every `--pool-workers` count. With
/// `--requests FILE` the file is processed in one pass and the
/// responses are written to `--out` via the crash-safe atomic writer
/// (a kill -9 mid-run leaves the previous output intact, never a torn
/// file) or to stdout; without it the service streams stdin → stdout
/// until EOF or a `shutdown` request drains. A final counters line on
/// stderr reports the admission/deadline/cache traffic — the CI
/// drill greps it to prove cache reuse across a restart.
fn cmd_serve(args: &Args) {
    use tbpoint_serve::{ServeOptions, Service};
    let opts = ServeOptions {
        plan: args.plan,
        max_pending: args.max_pending,
        cache_dir: args.cache_dir.clone(),
        ..ServeOptions::default()
    };
    let mut svc = Service::new(opts).unwrap_or_else(|e| die("opening the serve result cache", e));

    if let Some(reqs) = &args.requests {
        let text = std::fs::read_to_string(reqs)
            .unwrap_or_else(|e| die(&format!("reading requests {}", reqs.display()), e));
        let responses = tbpoint_serve::process_text(&mut svc, &text);
        match &args.out {
            Some(path) => {
                if let Err(e) = tbpoint_obs::write_atomic(path, responses.as_bytes()) {
                    die(&format!("writing responses {}", path.display()), e);
                }
                eprintln!("wrote {}", path.display());
            }
            None => print!("{responses}"),
        }
    } else {
        let stdin = std::io::stdin();
        let mut stdout = std::io::stdout();
        if let Err(e) = tbpoint_serve::run_loop(&mut svc, stdin.lock(), &mut stdout) {
            die("serve request loop", e);
        }
    }

    let c = svc.counters();
    eprintln!(
        "serve: admitted={} rejected={} deadline_exceeded={} \
         cache_hits={} cache_quarantined={} cache_stores={} completed_ok={} failed={}",
        c.admitted,
        c.rejected,
        c.deadline_exceeded,
        c.cache_hits,
        c.cache_quarantined,
        c.cache_stores,
        c.completed_ok,
        c.failed
    );
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "table1" => {
            let r = experiments::table1(args.scale);
            write_json_or_die(
                &args
                    .artifacts
                    .join(format!("table1_{}.json", scale_tag(args.scale))),
                &r,
            );
            println!(
                "Table I — GPU time vs simulation time ({} scale)",
                scale_tag(args.scale)
            );
            println!("{}", r.render());
        }
        "table6" => {
            println!(
                "Table VI — evaluated benchmarks ({} scale)",
                scale_tag(args.scale)
            );
            println!("{}", experiments::table6(args.scale));
        }
        "fig5" => cmd_fig5(&args),
        "fig8" => cmd_fig8(&args),
        "eval" => {
            let r = run_eval(&args, args.resume);
            println!("{}", experiments::render_fig9(&r));
            println!("{}", experiments::render_fig10(&r));
            println!("{}", experiments::render_fig11(&r));
        }
        "fig9" => {
            let r = run_eval(&args, args.trace_out.is_none());
            println!("Fig. 9 — overall IPC and sampling errors");
            println!("{}", experiments::render_fig9(&r));
        }
        "fig10" => {
            let r = run_eval(&args, args.trace_out.is_none());
            println!("Fig. 10 — total sample size");
            println!("{}", experiments::render_fig10(&r));
        }
        "fig11" => {
            let r = run_eval(&args, args.trace_out.is_none());
            println!("Fig. 11 — skipped-instruction breakdown");
            println!("{}", experiments::render_fig11(&r));
        }
        "fig12" => print_fig12(&run_sensitivity(&args)),
        "fig13" => print_fig13(&run_sensitivity(&args)),
        "inspect" => {
            let Some(name) = args.target.as_deref() else {
                eprintln!("usage: tbpoint inspect <bench> [--scale ...]");
                std::process::exit(2);
            };
            match experiments::inspect(name, args.scale, args.plan.pool_workers) {
                Some(report) => println!("{report}"),
                None => {
                    eprintln!("unknown benchmark {name:?}; see `tbpoint table6`");
                    std::process::exit(2);
                }
            }
        }
        "ablate" => {
            eprintln!(
                "running design-choice ablations at {} scale...",
                scale_tag(args.scale)
            );
            let traced = args.trace_out.is_some();
            let (r, traces) =
                experiments::ablate(args.scale, args.plan, &tbpoint_config(&args), traced)
                    .unwrap_or_else(|e| die("ablation failed", e));
            if let Some(trace_path) = &args.trace_out {
                dump_traces(trace_path, &traces);
            }
            write_json_or_die(&mode_artifact(&args, "ablate"), &r);
            println!(
                "Design-choice ablations ({} scale; * marks the paper's value)",
                scale_tag(args.scale)
            );
            println!("{}", r.render());
        }
        "faultmatrix" => {
            // Containment audit: inject every fault kind at several
            // seeds into every roster benchmark (or just `<bench>` if
            // given) and check the pipeline never panics and never
            // silently accepts corrupt input.
            let benches = tbpoint_workloads::all_benchmarks(args.scale);
            let runs: Vec<(String, tbpoint_ir::KernelRun)> = benches
                .into_iter()
                .filter(|b| args.target.as_deref().is_none_or(|t| t == b.name))
                .map(|b| (b.name.to_string(), b.run))
                .collect();
            if runs.is_empty() {
                eprintln!(
                    "unknown benchmark {:?}; see `tbpoint table6`",
                    args.target.as_deref().unwrap_or("")
                );
                std::process::exit(2);
            }
            eprintln!(
                "injecting {} fault kinds x {} seeds into {} benchmark(s)...",
                tbpoint_resilience::Fault::default_matrix().len(),
                tbpoint_resilience::MATRIX_SEEDS.len(),
                runs.len()
            );
            let report = tbpoint_resilience::run_fault_matrix(&runs);
            write_json_or_die(
                &args
                    .artifacts
                    .join(format!("faultmatrix_{}.json", scale_tag(args.scale))),
                &report,
            );
            println!(
                "Fault-injection containment matrix ({} cells)",
                report.cells.len()
            );
            println!("{}", report.summary());
            if !report.all_contained() {
                eprintln!(
                    "error: containment violated — {} panic(s), {} silently-accepted corruption(s)",
                    report.panics(),
                    report.silently_accepted()
                );
                std::process::exit(1);
            }
            println!("all faults contained: no panics, no silently accepted corruption");
        }
        "serve" => cmd_serve(&args),
        "all" => {
            println!("Table VI\n{}", experiments::table6(args.scale));
            cmd_fig5(&args);
            cmd_fig8(&args);
            let r = run_eval(&args, args.resume);
            println!("Fig. 9\n{}", experiments::render_fig9(&r));
            println!("Fig. 10\n{}", experiments::render_fig10(&r));
            println!("Fig. 11\n{}", experiments::render_fig11(&r));
            let r = run_sensitivity(&args);
            print_fig12(&r);
            print_fig13(&r);
            let t1 = experiments::table1(args.scale);
            println!("Table I\n{}", t1.render());
        }
        "" => {
            eprintln!(
                "usage: tbpoint <table1|table6|fig5|fig8|eval|fig9|fig10|fig11|fig12|fig13|ablate|inspect <bench>|faultmatrix [bench]|serve|all> \
                 [--scale full|dev|tiny] [--samples N] [--artifacts DIR] [--trace-out FILE] \
                 [--resume] [--max-units K] [--cycle-budget N] [--pool-workers N] \
                 [--live] [--out FILE] \
                 [--requests FILE] [--cache-dir DIR] [--max-pending N]"
            );
            std::process::exit(2);
        }
        other => {
            eprintln!("unknown command {other:?}");
            std::process::exit(2);
        }
    }
}
