//! The traced pass: one round with spans off, one with spans on, then the
//! layer probes. Layer = crate. Every number comes from outside the program,
//! through public functions; the replay-based `sim.*` figures re-run a
//! layer's work on its own, cold, so they are estimates of its share, not an
//! attribution of the full simulation's time.

use crate::bench::{FullSim, KernelState, Round, Run};
use crate::stats::tail_percentile;
use crate::trace::Tracer;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tbpoint::core::{build_epochs, identify_regions, inter_launch_sample, run_tbpoint_traced_plan};
use tbpoint::emu::{profile_run, TraceArena, TraceInst};
use tbpoint::ir::{ExecCtx, Kernel, LaunchSpec, Op};
use tbpoint::obs::EventKind;
use tbpoint::pool::{map_indexed, ExecPlan};
use tbpoint::sim::memory::MemorySystem;
use tbpoint::sim::{simulate_launch_perf, GpuConfig, NullSampling};
use tbpoint::workloads::benchmark_by_name;
use tbpoint_serve::{cache_name, key_text, parse_request, Lookup, Response, ResultCache, WorkBody};

/// Iterations of the microsecond-scale probes.
const INTER_REPS: u32 = 10;
const SERVE_PROBE_REPS: u32 = 200;
const STORE_PROBE_REPS: u32 = 20;
const HANDOFF_UNITS: usize = 100_000;
const JOBS2_BLOCKS: u32 = 1024;

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

fn exec_ctx(kernel: &Kernel, spec: &LaunchSpec, block_id: u32) -> ExecCtx {
    ExecCtx {
        kernel_seed: kernel.seed,
        launch_id: spec.launch_id,
        block_id,
        num_blocks: spec.num_blocks,
        work_scale: spec.work_scale,
    }
}

/// Visit the global-memory instructions of `traces` (one per warp, in
/// dispatch order) with the coalesced lines each one touches.
fn for_each_access(
    kernel: &Kernel,
    spec: &LaunchSpec,
    traces: &[Arc<[TraceInst]>],
    mut visit: impl FnMut(u32, &TraceInst, &tbpoint::ir::inst::CoalescedLines),
) {
    let warps = kernel.warps_per_block() as usize;
    for (i, trace) in traces.iter().enumerate() {
        let block = (i / warps) as u32;
        let warp = (i % warps) as u64;
        let ctx = exec_ctx(kernel, spec, block);
        let gtid_base = u64::from(block) * u64::from(kernel.threads_per_block) + warp * 32;
        for inst in trace.iter() {
            if let Some(pattern) = inst.op.addr_pattern() {
                let lines =
                    pattern.coalesced_lines(&ctx, gtid_base, inst.mask, inst.iter_key, inst.site);
                visit(block, inst, &lines);
            }
        }
    }
}

/// Replay one kernel's trace generation, address generation and memory
/// traffic, each on its own. Returns the number of line accesses replayed.
fn replay_kernel(k: &KernelState, gpu: &GpuConfig, t: &mut Tracer) -> u64 {
    let kernel = &k.bench.run.kernel;
    let mut accesses = 0u64;
    for spec in &k.bench.run.launches {
        // Every warp of the launch through a fresh arena, as the simulator's
        // dispatcher asks for them.
        let (traces, _) = t.span("emu", "trace_gen", k.name, |_| {
            let mut arena = TraceArena::new(kernel);
            let mut traces = Vec::new();
            for block in 0..spec.num_blocks {
                let ctx = exec_ctx(kernel, spec, block);
                for warp in 0..kernel.warps_per_block() {
                    traces.push(arena.warp_trace(kernel, &ctx, warp));
                }
            }
            traces
        });
        t.span("sim", "addr_gen", k.name, |_| {
            for_each_access(kernel, spec, &traces, |_, _, lines| {
                black_box(lines.len());
            });
        });
        // Address generation again, this time feeding a fresh memory system;
        // the metric subtracts the pass above.
        t.span("sim", "addr_gen+mem", k.name, |_| {
            let mut mem = MemorySystem::new(gpu);
            let mut now = 0u64;
            for_each_access(kernel, spec, &traces, |block, inst, lines| {
                let sm = (block % gpu.num_sms) as usize;
                now += 1;
                for line in lines.iter() {
                    accesses += 1;
                    black_box(match inst.op {
                        Op::StGlobal(_) => mem.store(sm, line, now),
                        _ => mem.load(sm, line, now),
                    });
                }
            });
        });
    }
    accesses
}

/// Mean microseconds of `reps` calls of `work`.
fn mean_us(reps: u32, mut work: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        work();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
}

/// Metric values by name, in the order they were measured.
type Metrics = Vec<(&'static str, f64)>;

/// Run the traced pass and return every per-layer metric by name.
pub fn traced_pass(run: &mut Run) -> std::io::Result<Metrics> {
    let untraced = run.round(0)?;
    run.tracer.set_enabled(true);
    let traced = run.round(1)?;

    let mut m = Metrics::new();
    sim_metrics(run, &mut m);
    parallel_probes(run, &mut m);
    core_metrics(run, &mut m);
    serve_metrics(run, &traced, &mut m)?;
    m.push(("workloads.build_s", run.build_s));
    m.push((
        "trace.overhead_pct",
        pct(traced.total() - untraced.total(), untraced.total()),
    ));
    m.push(("trace.spans", run.tracer.spans().len() as f64));
    Ok(m)
}

/// `emu` and `sim`: the traced round's unsampled simulation, its counters,
/// and its replayed parts.
fn sim_metrics(run: &mut Run, m: &mut Metrics) {
    let mut mem_accesses = 0u64;
    let Run {
        kernels,
        gpu,
        tracer,
        workload,
        ..
    } = run;
    tracer.span("harness", "probe.replay", "", |t| {
        for k in kernels.iter() {
            mem_accesses += replay_kernel(k, gpu, t);
        }
    });
    let full_s = tracer.total_secs("sim", "simulate_launch", None);
    let trace_gen_s = tracer.total_secs("emu", "trace_gen", None);
    let addr_gen_s = tracer.total_secs("sim", "addr_gen", None);
    let mem_replay_s = tracer.total_secs("sim", "addr_gen+mem", None) - addr_gen_s;

    let fulls: Vec<&FullSim> = kernels
        .iter()
        .map(|k| k.full.as_ref().expect("the full leg ran"))
        .collect();
    let sum = |f: fn(&FullSim) -> u64| fulls.iter().map(|s| f(s)).sum::<u64>() as f64;
    let warp_insts = sum(|f| f.warp_insts);
    let cycles = sum(|f| f.cycles);
    let weighted = |f: fn(&FullSim) -> f64| {
        fulls
            .iter()
            .map(|s| f(s) * s.warp_insts as f64)
            .sum::<f64>()
            / warp_insts
    };
    let requests = sum(|f| f.perf.intern_hits + f.perf.intern_misses + f.perf.intern_uncacheable);

    m.extend([
        (
            "emu.profile_s",
            tracer.total_secs("emu", "profile_run", None) / f64::from(workload.k_profile),
        ),
        ("emu.trace_gen_s", trace_gen_s),
        (
            "emu.intern_hit_pct",
            pct(sum(|f| f.perf.intern_hits), requests),
        ),
        (
            "emu.intern_uncacheable_pct",
            pct(sum(|f| f.perf.intern_uncacheable), requests),
        ),
        ("emu.traced_warp_insts", sum(|f| f.perf.traced_warp_insts)),
        ("sim.full_s", full_s),
        ("sim.ns_per_warp_inst", full_s * 1e9 / warp_insts),
        ("sim.ns_per_cycle", full_s * 1e9 / cycles),
        ("sim.addr_gen_s", addr_gen_s),
        ("sim.mem_replay_s", mem_replay_s),
        (
            "sim.mem_ns_per_access",
            mem_replay_s * 1e9 / (mem_accesses as f64).max(1.0),
        ),
        ("sim.mem_accesses", mem_accesses as f64),
        (
            "sim.core_s",
            full_s - trace_gen_s - addr_gen_s - mem_replay_s,
        ),
        ("sim.idle_jumps", sum(|f| f.perf.idle_jumps)),
        (
            "sim.idle_cycles_skipped_pct",
            pct(sum(|f| f.perf.idle_cycles_skipped), cycles),
        ),
        ("sim.cycles", cycles),
        ("sim.warp_insts", warp_insts),
        ("sim.l1_hit_pct", 100.0 * weighted(|f| f.l1_hit)),
        ("sim.l2_hit_pct", 100.0 * weighted(|f| f.l2_hit)),
        ("sim.dram_row_hit_pct", 100.0 * weighted(|f| f.dram_row_hit)),
        ("sim.dram_avg_wait_cyc", weighted(|f| f.dram_wait)),
    ]);
}

/// One launch, serially or SM-sharded: `(cycles, warp_insts)`.
fn launch_counts(kernel: &Kernel, spec: &LaunchSpec, gpu: &GpuConfig, jobs: usize) -> (u64, u64) {
    let (r, _) = simulate_launch_perf(kernel, spec, gpu, &mut NullSampling, None, jobs);
    (r.cycles, r.issued_warp_insts)
}

/// The two parallel axes and the pool's hand-off cost, 2 threads each.
fn parallel_probes(run: &mut Run, m: &mut Metrics) {
    let Run {
        kernels,
        gpu,
        tracer,
        ops,
        ..
    } = run;
    // jobs=2 runs at a fraction of serial speed on a 2-core host, so the
    // probe times a slice: each kernel's largest launch, cut to
    // `JOBS2_BLOCKS`, serially and then with two SM-shard workers.
    tracer.span("harness", "probe.jobs2", "", |t| {
        for k in kernels.iter() {
            let kernel = &k.bench.run.kernel;
            let mut spec = *k
                .bench
                .run
                .launches
                .iter()
                .max_by_key(|l| l.num_blocks)
                .expect("a run has launches");
            spec.num_blocks = spec.num_blocks.min(JOBS2_BLOCKS);
            let (serial, _) = t.span("sim", "simulate_launch.slice", k.name, |_| {
                launch_counts(kernel, &spec, gpu, 1)
            });
            let (sharded, _) = t.span("sim", "simulate_launch.slice.jobs2", k.name, |_| {
                launch_counts(kernel, &spec, gpu, 2)
            });
            ops.record(serial == sharded, || {
                format!("{}: jobs=2 simulation disagrees with serial", k.name)
            });
        }
    });
    let ((), pool2_s) = tracer.span("harness", "probe.pool2", "", |t| {
        for k in kernels.iter() {
            let run = &k.bench.run;
            let (counts, _) = t.span("pool", "map_indexed.simulate", k.name, |_| {
                map_indexed(2, run.launches.len(), |i| {
                    launch_counts(&run.kernel, &run.launches[i], gpu, 1)
                })
            });
            let got = counts
                .iter()
                .fold((0, 0), |acc, c| (acc.0 + c.0, acc.1 + c.1));
            let want = k.full.as_ref().map(|f| (f.cycles, f.warp_insts));
            ops.record(Some(got) == want, || {
                format!("{}: pooled simulation disagrees with serial", k.name)
            });
        }
    });
    let (units, handoff_s) = tracer.span("pool", "map_indexed.identity", "", |_| {
        map_indexed(2, HANDOFF_UNITS, |i| i)
    });
    ops.record(units.iter().copied().eq(0..HANDOFF_UNITS), || {
        "pool hand-off returned units out of order".to_string()
    });

    let secs = |name| tracer.total_secs("sim", name, None);
    m.extend([
        (
            "sim.jobs2_speedup",
            secs("simulate_launch.slice") / secs("simulate_launch.slice.jobs2"),
        ),
        (
            "pool.handoff_us_per_unit",
            handoff_s * 1e6 / HANDOFF_UNITS as f64,
        ),
        (
            "pool.full_sim_speedup_w2",
            secs("simulate_launch") / pool2_s,
        ),
    ]);
}

/// `core` and `obs`: where the sampled run's time goes, and what collecting
/// the deterministic event stream adds to it.
fn core_metrics(run: &mut Run, m: &mut Metrics) {
    let mut inter_s = 0.0;
    let mut regions_s = 0.0;
    let mut obs_s = 0.0;
    let mut events = 0u64;
    let mut hook_skips = 0u64;
    let mut stat_retires = 0u64;
    let Run {
        kernels,
        gpu,
        cfg,
        tracer,
        ops,
        workload,
        ..
    } = &mut *run;
    tracer.span("harness", "probe.core", "", |t| {
        for k in kernels.iter() {
            // The rounds keep no profile (one alive at a time); build it again.
            let profile = &profile_run(&k.bench.run, 1);
            let (inter, secs) = t.span("core", "inter_launch_sample", k.name, |_| {
                for _ in 1..INTER_REPS {
                    black_box(inter_launch_sample(profile, &cfg.inter));
                }
                inter_launch_sample(profile, &cfg.inter)
            });
            inter_s += secs / f64::from(INTER_REPS);

            let occupancy = gpu.system_occupancy(&k.bench.run.kernel);
            let ((), secs) = t.span("core", "regions", k.name, |_| {
                for &rep in &inter.representatives {
                    let epochs = build_epochs(&profile.launches[rep], occupancy);
                    black_box(identify_regions(&epochs, &cfg.intra));
                }
            });
            regions_s += secs;

            let (traced, secs) = t.span("obs", "run_tbpoint_traced_plan", k.name, |_| {
                run_tbpoint_traced_plan(&k.bench.run, profile, cfg, gpu, ExecPlan::serial())
            });
            obs_s += secs;
            let same = match &traced {
                Ok((result, traces)) => {
                    for e in traces.iter().flat_map(|lt| &lt.trace.events) {
                        events += 1;
                        match e.kind {
                            EventKind::TbSkipped { .. } => hook_skips += 1,
                            EventKind::TbRetired { .. } => stat_retires += 1,
                            _ => {}
                        }
                    }
                    Some(result) == k.two_phase.as_ref()
                }
                Err(_) => false,
            };
            ops.record(same, || {
                format!("{}: traced two-phase result differs from untraced", k.name)
            });
        }
    });
    let sampled_s =
        tracer.total_secs("core", "run_tbpoint_plan", None) / f64::from(workload.k_sampled);
    let live_s =
        tracer.total_secs("core", "run_tbpoint_live_plan", None) / f64::from(workload.k_live);
    let sampled_sim_s = sampled_s - inter_s - regions_s;

    // What the simulated share of each kernel would cost at full-simulation
    // speed; the rest of the sampled run is the sampler's own.
    let mut at_full_speed = (0.0, 0.0);
    let mut two = Totals::default();
    let mut live = Totals::default();
    for k in kernels.iter() {
        let full_k = tracer.total_secs("sim", "simulate_launch", Some(k.name));
        let (r2, rl) = (
            k.two_phase.as_ref().expect("the sampled leg ran"),
            k.live.as_ref().expect("the live leg ran"),
        );
        at_full_speed.0 += r2.sample_size() * full_k;
        at_full_speed.1 += rl.sample_size() * full_k;
        two.add(r2);
        live.add(rl);
    }
    let (two_err, live_err) = run.max_errors_pct();

    m.extend([
        ("core.inter_s", inter_s),
        ("core.regions_s", regions_s),
        ("core.sampled_sim_s", sampled_sim_s),
        ("core.sampler_overhead_s", sampled_sim_s - at_full_speed.0),
        ("core.live_overhead_s", live_s - at_full_speed.1),
        ("core.two_phase_sample_pct", pct(two.simulated, two.total)),
        ("core.live_sample_pct", pct(live.simulated, live.total)),
        ("core.inter_skipped_pct", pct(two.inter_skipped, two.total)),
        ("core.intra_skipped_pct", pct(two.intra_skipped, two.total)),
        ("core.simulated_launches", two.launches),
        ("core.degraded_launches", two.degraded),
        ("core.hook_skips", hook_skips as f64),
        ("core.stat_retires", stat_retires as f64),
        ("core.two_phase_err_pct", two_err),
        ("core.live_err_pct", live_err),
        (
            "obs.collect_overhead_pct",
            pct(obs_s - sampled_s, sampled_s),
        ),
        ("obs.events", events as f64),
    ]);
}

/// Sums over the workload's kernels of one sampling mode's result.
#[derive(Default)]
struct Totals {
    simulated: f64,
    total: f64,
    inter_skipped: f64,
    intra_skipped: f64,
    launches: f64,
    degraded: f64,
}

impl Totals {
    fn add(&mut self, r: &tbpoint::core::TbpointResult) {
        self.simulated += r.simulated_warp_insts as f64;
        self.total += r.total_warp_insts as f64;
        self.inter_skipped += r.breakdown.inter_skipped_warp_insts as f64;
        self.intra_skipped += r.breakdown.intra_skipped_warp_insts as f64;
        self.launches += r.num_simulated_launches as f64;
        self.degraded += r.degraded_launches as f64;
    }
}

/// `serve`: the public pieces a cache-hot request is made of, plus the store
/// a cold one ends with, timed against the traced round's filled cache (each
/// the mean over the workload's kernels); then that round's hot tail.
fn serve_metrics(run: &mut Run, traced: &Round, m: &mut Metrics) -> std::io::Result<()> {
    let dir = run.cache_dir().expect("a round ran first").to_path_buf();
    let (cache, _) = ResultCache::open(&dir)?;
    let store_dir = run.out_dir().join(format!(
        "cache-{}-{}-store-probe",
        run.workload.name,
        std::process::id()
    ));
    let (store_cache, _) = ResultCache::open(&store_dir)?;

    let serve_cfg = tbpoint_serve::ServeOptions::default().config;
    let scale = run.workload.scale;
    let (mut parse_us, mut key_us, mut lookup_us, mut encode_us, mut store_us) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let Run {
        kernels,
        gpu,
        tracer,
        ops,
        ..
    } = &mut *run;
    tracer.span("harness", "probe.serve", "", |t| {
        for k in kernels.iter() {
            let (us, _) = t.span("serve", "parse_request", k.name, |_| {
                mean_us(SERVE_PROBE_REPS, || {
                    black_box(parse_request(&k.batch[0], 0)).ok();
                })
            });
            parse_us += us;

            let mut name = String::new();
            let (us, _) = t.span("serve", "key_text", k.name, |_| {
                mean_us(SERVE_PROBE_REPS, || {
                    let bench = benchmark_by_name(k.name, scale).expect("roster kernel");
                    let key = key_text("simulate", &bench, scale, &serve_cfg, gpu)
                        .expect("key text serialises");
                    name = cache_name("simulate", bench.name, &key);
                })
            });
            key_us += us;

            let mut hit = None;
            let (us, _) = t.span("serve", "cache.lookup", k.name, |_| {
                mean_us(SERVE_PROBE_REPS, || {
                    hit = Some(cache.lookup(&name));
                })
            });
            lookup_us += us;
            let body = match hit {
                Some(Lookup::Hit(WorkBody::Sim(body))) => Some(body),
                _ => None,
            };
            ops.record(body.is_some() && body == k.cold_body, || {
                format!("{}: probe key `{name}` did not hit the cold entry", k.name)
            });
            let Some(body) = body else { continue };

            let mut response = Response::empty(k.name.to_string(), 0, "ok", "simulate", k.name);
            response.simulate = Some(body.clone());
            let (us, _) = t.span("serve", "response.to_line", k.name, |_| {
                mean_us(SERVE_PROBE_REPS, || {
                    black_box(response.to_line());
                })
            });
            encode_us += us;

            let body = WorkBody::Sim(body);
            let mut stored = true;
            let (us, _) = t.span("serve", "cache.store", k.name, |_| {
                mean_us(STORE_PROBE_REPS, || {
                    stored &= store_cache.store(&name, &body).is_ok();
                })
            });
            store_us += us;
            ops.record(stored, || format!("{}: cache store failed", k.name));
        }
    });
    std::fs::remove_dir_all(&store_dir)?;

    let n = kernels.len() as f64;
    // The 99th with HOT_REQUESTS = 1000, which `serve.hot_p99_us` is named after.
    let (_, hot_tail_us) = tail_percentile(&traced.hot_us).expect("HOT_REQUESTS is at least 20");
    m.extend([
        ("serve.parse_us", parse_us / n),
        ("serve.key_us", key_us / n),
        ("serve.cache_lookup_us", lookup_us / n),
        ("serve.encode_us", encode_us / n),
        ("serve.cache_store_us", store_us / n),
        (
            "serve.cold_overhead_s",
            traced.serve_cold_s - (traced.profile_s + traced.sampled_s),
        ),
        ("serve.hot_p99_us", hot_tail_us),
        ("serve.cache_hits", run.service_cache_hits() as f64),
    ]);
    Ok(())
}
