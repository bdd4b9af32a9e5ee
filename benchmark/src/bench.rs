//! One run of one workload: set-up, the measured rounds, the output checks,
//! and the end-to-end metrics.
//!
//! Everything here is single-threaded and reaches the program only through
//! public functions. Each call into a layer goes through [`Tracer::span`],
//! which records nothing unless the traced pass switched it on.

use crate::spec::{seeded_order, Workload};
use crate::stats::median;
use crate::trace::Tracer;
use serde::Value;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tbpoint::core::{run_tbpoint_live_plan, run_tbpoint_plan, SamplingMode, TbpointConfig};
use tbpoint::core::{TbError, TbpointResult};
use tbpoint::emu::profile_run;
use tbpoint::ir::KernelRun;
use tbpoint::obs::NullRecorder;
use tbpoint::pool::ExecPlan;
use tbpoint::sim::{simulate_launch_perf, GpuConfig, NullSampling, SimPerf};
use tbpoint::workloads::{benchmark_by_name, Benchmark};
use tbpoint_serve::{Response, ServeOptions, Service, SimSummary};

/// Set-up is repeated so that `setup_s` is a median, not one sample.
const SETUP_REPS: usize = 5;
/// Cache-hot serve requests per round.
pub const HOT_REQUESTS: usize = 1000;
/// Thread blocks the set-up warm-up simulates of each kernel's first launch:
/// enough to fault in the code and grow the heap, cheap enough to repeat.
const WARMUP_BLOCKS: u32 = 64;

/// Operations attempted and failed. Each leg sample, each serve request and
/// each probe is one operation; a failed output check fails its operation.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

/// What an unsampled simulation of every launch of one kernel produced.
#[derive(Clone, PartialEq)]
pub struct FullSim {
    pub cycles: u64,
    pub warp_insts: u64,
    pub perf: SimPerf,
    /// Hit rates and DRAM wait, each launch weighted by its warp
    /// instructions.
    pub l1_hit: f64,
    pub l2_hit: f64,
    pub dram_row_hit: f64,
    pub dram_wait: f64,
}

impl FullSim {
    pub fn ipc(&self) -> f64 {
        self.warp_insts as f64 / self.cycles as f64
    }
}

pub fn simulate_all(run: &KernelRun, gpu: &GpuConfig, jobs: usize) -> FullSim {
    let mut out = FullSim {
        cycles: 0,
        warp_insts: 0,
        perf: SimPerf::default(),
        l1_hit: 0.0,
        l2_hit: 0.0,
        dram_row_hit: 0.0,
        dram_wait: 0.0,
    };
    for spec in &run.launches {
        let (r, perf) = simulate_launch_perf(&run.kernel, spec, gpu, &mut NullSampling, None, jobs);
        let w = r.issued_warp_insts as f64;
        out.cycles += r.cycles;
        out.warp_insts += r.issued_warp_insts;
        out.perf.accumulate(&perf);
        out.l1_hit += r.l1_hit_rate * w;
        out.l2_hit += r.l2_hit_rate * w;
        out.dram_row_hit += r.dram_row_hit_rate * w;
        out.dram_wait += r.dram_avg_wait * w;
    }
    let total = (out.warp_insts as f64).max(1.0);
    out.l1_hit /= total;
    out.l2_hit /= total;
    out.dram_row_hit /= total;
    out.dram_wait /= total;
    out
}

/// One kernel of the workload, with the first result of every leg: later
/// rounds must reproduce it bit for bit.
pub struct KernelState {
    pub name: &'static str,
    pub bench: Benchmark,
    /// The one-request serve batch that asks for this kernel.
    pub batch: [String; 1],
    /// `(cycles, warp_insts)` of a full simulation, from `expected.json`.
    expected: Option<(u64, u64)>,
    pub full: Option<FullSim>,
    pub two_phase: Option<TbpointResult>,
    pub live: Option<TbpointResult>,
    pub cold_body: Option<SimSummary>,
}

/// The pinned `(cycles, warp_insts)` under `key` (`kernel@scale`).
fn expected_counts(expected: &Value, key: &str) -> Option<(u64, u64)> {
    let entry = &expected.as_obj()?.iter().find(|(k, _)| k == key)?.1;
    let num = |name: &str| match entry.as_obj()?.iter().find(|(k, _)| k == name)?.1 {
        Value::U64(n) => Some(n),
        _ => None,
    };
    Some((num("cycles")?, num("warp_insts")?))
}

/// Store `new` in an empty slot, or report whether it equals what is there.
fn reproduces<T: PartialEq>(slot: &mut Option<T>, new: T) -> bool {
    match slot {
        Some(old) => *old == new,
        None => {
            *slot = Some(new);
            true
        }
    }
}

/// One sample of every leg: per-iteration seconds, and the sorted latencies
/// of the cache-hot requests in microseconds.
pub struct Round {
    pub full_s: f64,
    pub profile_s: f64,
    pub sampled_s: f64,
    pub live_s: f64,
    pub serve_cold_s: f64,
    pub hot_us: Vec<f64>,
}

impl Round {
    /// Seconds of the timed legs (the hot requests add about 0.1 s).
    pub fn total(&self) -> f64 {
        self.full_s + self.profile_s + self.sampled_s + self.live_s + self.serve_cold_s
    }
}

pub struct Run {
    pub workload: &'static Workload,
    pub seed: u64,
    pub gpu: GpuConfig,
    pub cfg: TbpointConfig,
    pub live_cfg: TbpointConfig,
    pub kernels: Vec<KernelState>,
    pub ops: Ops,
    pub tracer: Tracer,
    /// Seconds spent in `benchmark_by_name` during the last set-up.
    pub build_s: f64,
    out_dir: PathBuf,
    service: Option<Service>,
    cache_dir: Option<PathBuf>,
}

/// The benchmark's own directory: where `cargo run` says the manifest is,
/// else where it was at build time.
pub fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

impl Run {
    /// Set the workload up `SETUP_REPS` times and return the run built by
    /// the last one with the median set-up time.
    pub fn set_up(workload: &'static Workload, seed: u64) -> std::io::Result<(Run, f64)> {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut run = None;
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            run = Some(Run::set_up_once(workload, seed)?);
            times.push(start.elapsed().as_secs_f64());
        }
        let run = run.expect("SETUP_REPS is at least 1");
        Ok((run, median(&times)))
    }

    /// Generate the workload's `KernelRun`s in roster order, open (and remove)
    /// a serve cache directory, and simulate a slice of every kernel's first
    /// launch as a discarded warm-up.
    fn set_up_once(workload: &'static Workload, seed: u64) -> std::io::Result<Run> {
        let expected = serde_json::parse(include_str!("../expected.json"))
            .expect("expected.json is valid JSON");
        let build_start = Instant::now();
        let kernels: Vec<KernelState> = workload
            .kernels
            .iter()
            .map(|&name| {
                let bench = benchmark_by_name(name, workload.scale)
                    .unwrap_or_else(|| panic!("`{name}` is not a roster kernel"));
                KernelState {
                    name,
                    bench,
                    batch: [format!(
                        "{{\"id\":\"{name}\",\"cmd\":\"simulate\",\"bench\":\"{name}\",\"scale\":\"{}\"}}",
                        workload.scale_tag()
                    )],
                    expected: expected_counts(
                        &expected,
                        &format!("{name}@{}", workload.scale_tag()),
                    ),
                    full: None,
                    two_phase: None,
                    live: None,
                    cold_body: None,
                }
            })
            .collect();
        let build_s = build_start.elapsed().as_secs_f64();

        let mut run = Run {
            workload,
            seed,
            gpu: GpuConfig::fermi(),
            cfg: TbpointConfig::default(),
            live_cfg: TbpointConfig {
                mode: SamplingMode::Live,
                ..TbpointConfig::default()
            },
            kernels,
            ops: Ops::default(),
            tracer: Tracer::new(false),
            build_s,
            out_dir: manifest_dir().join("out"),
            service: None,
            cache_dir: None,
        };
        run.open_service("setup")?;
        run.drop_service();

        for k in &run.kernels {
            let mut spec = k.bench.run.launches[0];
            spec.num_blocks = spec.num_blocks.min(WARMUP_BLOCKS);
            black_box(simulate_launch_perf(
                &k.bench.run.kernel,
                &spec,
                &run.gpu,
                &mut NullSampling,
                None,
                1,
            ));
        }
        Ok(run)
    }

    /// A fresh service over an empty cache directory under `out/`.
    fn open_service(&mut self, tag: &str) -> std::io::Result<()> {
        self.drop_service();
        let dir = self.out_dir.join(format!(
            "cache-{}-{}-{tag}",
            self.workload.name,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        self.service = Some(Service::new(ServeOptions {
            cache_dir: Some(dir.clone()),
            ..ServeOptions::default()
        })?);
        self.cache_dir = Some(dir);
        Ok(())
    }

    fn drop_service(&mut self) {
        self.service = None;
        if let Some(dir) = self.cache_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// The directory of the live service's cache.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    pub fn out_dir(&self) -> &Path {
        &self.out_dir
    }

    /// Take whole rounds until `seconds` have passed, and at least the
    /// workload's `min_rounds`.
    pub fn measure(&mut self, seconds: f64) -> std::io::Result<Vec<Round>> {
        let start = Instant::now();
        let mut rounds = Vec::new();
        while rounds.len() < self.workload.min_rounds || start.elapsed().as_secs_f64() < seconds {
            let r = self.round(rounds.len())?;
            println!(
                "round {}: full {:.3} s, profile {:.3} s, sampled {:.3} s, live {:.3} s, serve cold {:.3} s, hot p50 {:.1} us",
                rounds.len(),
                r.full_s,
                r.profile_s,
                r.sampled_s,
                r.live_s,
                r.serve_cold_s,
                median(&r.hot_us)
            );
            rounds.push(r);
        }
        Ok(rounds)
    }

    /// One sample of every leg.
    pub fn round(&mut self, index: usize) -> std::io::Result<Round> {
        // The full simulation first: its counts are the reference the
        // profile is checked against.
        let full_s = self.full_leg();
        let (profile_s, sampled_s) = self.two_phase_leg();
        Ok(Round {
            full_s,
            profile_s,
            sampled_s,
            live_s: self.live_leg(),
            serve_cold_s: self.serve_cold_leg(index)?,
            hot_us: self.serve_hot_leg(),
        })
    }

    /// Unsampled simulation of every launch of every kernel. Checks that
    /// each kernel's counts repeat and equal `expected.json`.
    fn full_leg(&mut self) -> f64 {
        let Run {
            gpu,
            kernels,
            tracer,
            ..
        } = self;
        let (problems, secs) = tracer.span("harness", "leg.full", "", |t| {
            let mut problems = Vec::new();
            for k in kernels.iter_mut() {
                let (sim, _) = t.span("sim", "simulate_launch", k.name, |_| {
                    simulate_all(&k.bench.run, gpu, 1)
                });
                let got = (sim.cycles, sim.warp_insts);
                if k.expected != Some(got) {
                    problems.push(format!(
                        "{}: full simulation (cycles, warp_insts) = {got:?}, expected.json says {:?}",
                        k.name, k.expected
                    ));
                }
                if !reproduces(&mut k.full, sim) {
                    problems.push(format!("{}: full simulation did not repeat", k.name));
                }
            }
            problems
        });
        self.ops.record(problems.is_empty(), || problems.join("; "));
        secs
    }

    /// The paper's pipeline, kernel by kernel: `profile_run`, then
    /// `run_tbpoint_plan` (serial plan) with that profile in hand. Returns the
    /// per-iteration seconds of the two halves. One profile is alive at a
    /// time, as in `tbpoint eval`, so `peak_rss_mb` is the program's
    /// footprint, not the harness's. Checks that profiler and
    /// simulator agree on warp instructions and that the prediction repeats.
    fn two_phase_leg(&mut self) -> (f64, f64) {
        let (cfg, w) = (self.cfg, self.workload);
        let Run {
            gpu,
            kernels,
            tracer,
            ..
        } = self;
        let (mut profile_s, mut sampled_s) = (0.0, 0.0);
        let (problems, _) = tracer.span("harness", "leg.two_phase", "", |t| {
            let mut problems = Vec::new();
            for k in kernels.iter_mut() {
                let mut profile = None;
                for _ in 0..w.k_profile {
                    // Free the last iteration's profile before building the next.
                    drop(profile.take());
                    let (p, secs) = t.span("emu", "profile_run", k.name, |_| {
                        profile_run(&k.bench.run, 1)
                    });
                    profile_s += secs;
                    profile = Some(p);
                }
                let profile = profile.expect("k_profile is at least 1");
                let counted = profile.total_warp_insts();
                let simulated = k.full.as_ref().map(|f| f.warp_insts);
                if Some(counted) != simulated {
                    problems.push(format!(
                        "{}: profiler counts {counted} warp instructions, simulator {simulated:?}",
                        k.name
                    ));
                }
                for _ in 0..w.k_sampled {
                    let (result, secs) = t.span("core", "run_tbpoint_plan", k.name, |_| {
                        run_tbpoint_plan(&k.bench.run, &profile, &cfg, gpu, ExecPlan::serial())
                    });
                    sampled_s += secs;
                    check_sampled(k.name, "two-phase", &mut k.two_phase, result, &mut problems);
                }
            }
            problems
        });
        self.ops.record(problems.is_empty(), || problems.join("; "));
        (
            profile_s / f64::from(w.k_profile),
            sampled_s / f64::from(w.k_sampled),
        )
    }

    /// `run_tbpoint_live_plan`, serial plan.
    fn live_leg(&mut self) -> f64 {
        let (cfg, k_iter) = (self.live_cfg, self.workload.k_live);
        let Run {
            gpu,
            kernels,
            tracer,
            ..
        } = self;
        let (problems, secs) = tracer.span("harness", "leg.live", "", |t| {
            let mut problems = Vec::new();
            for _ in 0..k_iter {
                for k in kernels.iter_mut() {
                    let (result, _) = t.span("core", "run_tbpoint_live_plan", k.name, |_| {
                        run_tbpoint_live_plan(&k.bench.run, &cfg, gpu, ExecPlan::serial())
                    });
                    check_sampled(k.name, "live", &mut k.live, result, &mut problems);
                }
            }
            problems
        });
        self.ops.record(problems.is_empty(), || problems.join("; "));
        secs / f64::from(k_iter)
    }

    /// Closed loop, one client, empty cache: one `simulate` request per
    /// kernel, one request per batch. Returns the summed request time; each
    /// request is one operation.
    fn serve_cold_leg(&mut self, index: usize) -> std::io::Result<f64> {
        self.open_service(&format!("round{index}"))?;
        let Run {
            service,
            kernels,
            ops,
            tracer,
            ..
        } = self;
        let service = service.as_mut().expect("just opened");
        let ((), secs) = tracer.span("harness", "leg.serve_cold", "", |t| {
            for k in kernels.iter_mut() {
                let (responses, _) = t.span("serve", "run_batch.cold", k.name, |_| {
                    service.run_batch(&k.batch, &NullRecorder)
                });
                let body = ok_body(&responses);
                let ok = match body {
                    Some(body) => reproduces(&mut k.cold_body, body),
                    None => false,
                };
                ops.record(ok, || {
                    format!("{}: cold serve response {responses:?}", k.name)
                });
            }
        });
        let hits = service.counters().cache_hits;
        ops.record(hits == 0, || {
            format!("cold serve leg saw {hits} cache hits")
        });
        Ok(secs)
    }

    /// `HOT_REQUESTS` cache-hot repeats against the service the cold leg just
    /// filled, one request per batch, in seed-shuffled blocks that each name
    /// every kernel once. Returns the sorted latencies in microseconds.
    fn serve_hot_leg(&mut self) -> Vec<f64> {
        let service = self.service.as_mut().expect("the cold leg ran first");
        let n = self.kernels.len();
        let mut latencies = Vec::with_capacity(HOT_REQUESTS);
        let mut block = 0u64;
        'blocks: loop {
            let order_seed = match self.seed {
                0 => 0,
                s => s.wrapping_mul(1_000_003).wrapping_add(block),
            };
            for i in seeded_order(order_seed, n) {
                if latencies.len() == HOT_REQUESTS {
                    break 'blocks;
                }
                let k = &self.kernels[i];
                let start = Instant::now();
                let responses = service.run_batch(&k.batch, &NullRecorder);
                latencies.push(start.elapsed().as_secs_f64() * 1e6);
                let ok = ok_body(&responses).is_some_and(|b| Some(&b) == k.cold_body.as_ref());
                self.ops.record(ok, || {
                    format!(
                        "{}: hot serve response differs from cold: {responses:?}",
                        k.name
                    )
                });
            }
            block += 1;
        }
        let hits = service.counters().cache_hits;
        self.ops.record(hits == HOT_REQUESTS as u64, || {
            format!("{HOT_REQUESTS} hot requests but {hits} cache hits")
        });
        latencies.sort_by(f64::total_cmp);
        latencies
    }

    pub fn service_cache_hits(&self) -> u64 {
        self.service.as_ref().map_or(0, |s| s.counters().cache_hits)
    }

    /// Total warp instructions of one unsampled pass over the workload.
    pub fn total_warp_insts(&self) -> u64 {
        self.kernels
            .iter()
            .filter_map(|k| k.full.as_ref())
            .map(|f| f.warp_insts)
            .sum()
    }

    /// Largest sampling error over the workload's kernels, in percent, of
    /// the two-phase and the live result against the full simulation.
    pub fn max_errors_pct(&self) -> (f64, f64) {
        let mut worst = (0.0f64, 0.0f64);
        for k in &self.kernels {
            if let (Some(full), Some(two), Some(live)) = (&k.full, &k.two_phase, &k.live) {
                worst.0 = worst.0.max(two.error_vs(full.ipc()));
                worst.1 = worst.1.max(live.error_vs(full.ipc()));
            }
        }
        worst
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        self.drop_service();
        // Leaves `out/` itself only when a trace file is in it.
        let _ = std::fs::remove_dir(&self.out_dir);
    }
}

fn check_sampled(
    kernel: &str,
    mode: &str,
    slot: &mut Option<TbpointResult>,
    result: Result<TbpointResult, TbError>,
    problems: &mut Vec<String>,
) {
    match result {
        Ok(r) => {
            if !reproduces(slot, r) {
                problems.push(format!("{kernel}: {mode} result did not repeat"));
            }
        }
        Err(e) => problems.push(format!("{kernel}: {mode} pipeline failed: {e}")),
    }
}

/// The `simulate` body of a one-response batch whose status is `ok`.
fn ok_body(responses: &[Response]) -> Option<SimSummary> {
    match responses {
        [r] if r.status == "ok" => r.simulate.clone(),
        _ => None,
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The end-to-end metric values of a finished measurement, in `END_TO_END`
/// order.
pub fn end_to_end_values(run: &mut Run, setup_s: f64, rounds: &[Round]) -> Vec<f64> {
    let col = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let (two_err, live_err) = run.max_errors_pct();
    let rss = peak_rss_mib();
    run.ops
        .record(rss.is_some(), || "VmHWM not readable".to_string());
    vec![
        setup_s,
        run.total_warp_insts() as f64 / col(|r| r.full_s) / 1e6,
        col(|r| r.profile_s + r.sampled_s),
        col(|r| r.sampled_s),
        col(|r| r.live_s),
        100.0 - two_err,
        100.0 - live_err,
        col(|r| r.serve_cold_s),
        col(|r| median(&r.hot_us)),
        rss.unwrap_or(f64::NAN),
    ]
}
