//! The repo benchmark: `run` measures, `compare` judges two result files.
//! See README.md for the metric glossary and the layer map.

mod bench;
mod compare;
mod layers;
mod spec;
mod stats;
mod trace;

use serde::Value;
use spec::{MetricDef, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "\
usage:
  tbpoint-benchmark run --workload W [--seed N] [--seconds N] [--trace 0|1]
      one run of one workload, in this process; the last line of standard
      output is the result as one JSON object
  tbpoint-benchmark run --out FILE [--workload W] [--seed N] [--seconds N] [--runs N] [--trace 0|1]
      N runs (seeds N.., default 1) of every workload (or W), each in a child
      process, plus one traced run each with --trace 1; results go to FILE
  tbpoint-benchmark compare A.json B.json
      judge B against A per workload and end-to-end metric; exit 1 on `worse`
workloads: graph-gather dense-regular outlier-warming launch-storm";

struct RunArgs {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 0,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    spec::workload_by_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()? as f64,
            "--runs" => parsed.runs = number()?.max(1),
            "--trace" => {
                parsed.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(|a| match (&a.out, a.workload) {
            (None, Some(w)) => run_one(w, &a),
            (None, None) => Err("run needs --workload or --out".to_string()),
            (Some(_), _) => run_many(&a),
        }),
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// One run of one workload in this process. `Ok(false)` when a check failed.
fn run_one(workload: &'static Workload, args: &RunArgs) -> Result<bool, String> {
    let wall = Instant::now();
    println!("{}: {}", workload.name, workload.why);
    let io = |e: std::io::Error| format!("{}: {e}", workload.name);
    let (mut run, setup_s) = bench::Run::set_up(workload, args.seed).map_err(io)?;

    let (defs, values): (&[MetricDef], Vec<f64>) = if args.trace {
        let by_name = layers::traced_pass(&mut run).map_err(io)?;
        let values = PER_LAYER
            .iter()
            .map(|d| {
                by_name
                    .iter()
                    .find(|(n, _)| *n == d.name)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| panic!("traced pass did not report {}", d.name))
            })
            .collect();
        let path = run.out_dir().join(format!("trace-{}.json", workload.name));
        let body = serde_json::to_string_pretty(&trace::to_json(workload.name, run.tracer.spans()))
            .map_err(|e| e.to_string())?;
        std::fs::create_dir_all(run.out_dir()).map_err(io)?;
        std::fs::write(&path, body + "\n").map_err(io)?;
        println!("spans written to {}", path.display());
        (&PER_LAYER, values)
    } else {
        let rounds = run.measure(args.seconds).map_err(io)?;
        println!("{}: {} rounds", workload.name, rounds.len());
        (
            &END_TO_END,
            bench::end_to_end_values(&mut run, setup_s, &rounds),
        )
    };

    for (d, v) in defs.iter().zip(&values) {
        println!(
            "{:<28} {:>16.6} {:<9} ({} is better)",
            d.name,
            v,
            d.unit,
            d.better.tag()
        );
    }
    let finite = values.iter().all(|v| v.is_finite());
    run.ops
        .record(finite, || "a metric is not a finite number".to_string());
    let (attempted, failed) = (run.ops.attempted, run.ops.failed);
    drop(run);
    println!(
        "{}: seed {} ops_attempted {attempted} ops_failed {failed} wall {:.1} s",
        workload.name,
        args.seed,
        wall.elapsed().as_secs_f64()
    );

    let metrics = defs
        .iter()
        .zip(&values)
        .map(|(d, v)| {
            let fields = vec![
                ("value".to_string(), Value::F64(*v)),
                ("unit".to_string(), Value::Str(d.unit.to_string())),
            ];
            (d.name.to_string(), Value::Obj(fields))
        })
        .collect();
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(failed == 0)
}

/// Runs in child processes (a fresh allocator and a `VmHWM` of its own for
/// each), collected into the `--out` file.
fn run_many(args: &RunArgs) -> Result<bool, String> {
    let wall = Instant::now();
    let out = args.out.as_ref().expect("run_many is the --out mode");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| args.workload.is_none_or(|only| only.name == w.name))
    {
        let plain = (0..args.runs).map(|i| (args.seed + i, false));
        let traced = args.trace.then_some((args.seed, true));
        for (seed, trace) in plain.chain(traced) {
            let started = Instant::now();
            let child = Command::new(&exe)
                .args(["run", "--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            print!("{stdout}");
            let result = stdout
                .lines()
                .last()
                .and_then(|line| serde_json::parse(line).ok())
                .ok_or_else(|| format!("{}: run printed no result", w.name))?;
            all_ok &= child.status.success();
            runs.push(Value::Obj(vec![
                ("workload".into(), Value::Str(w.name.into())),
                ("seed".into(), Value::U64(seed)),
                ("trace".into(), Value::U64(u64::from(trace))),
                ("wall_s".into(), Value::F64(started.elapsed().as_secs_f64())),
                ("result".into(), result),
            ]));
        }
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = Value::Obj(vec![
        ("schema".into(), Value::Str(compare::SCHEMA.into())),
        ("host_cpus".into(), Value::U64(host_cpus as u64)),
        ("runs".into(), Value::Arr(runs)),
    ]);
    let body = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(out, body + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "results written to {}; total wall {:.1} s on {host_cpus} cpus",
        out.display(),
        wall.elapsed().as_secs_f64()
    );
    Ok(all_ok)
}
