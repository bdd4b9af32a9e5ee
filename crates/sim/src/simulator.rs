//! Top-level launch/run simulation: the global thread-block dispatcher,
//! the cycle loop, and result aggregation.

use crate::config::GpuConfig;
use crate::dispatch::{DispatchDecision, SamplingHook};
use crate::memory::MemorySystem;
use crate::sm::SmCore;
use crate::units::{UnitCollector, UnitRecord, UnitsConfig};
use serde::{Deserialize, Serialize};
use tbpoint_emu::{InternStats, TbStats, TraceArena};
use tbpoint_ir::{ExecCtx, Kernel, KernelRun, LaunchSpec, TbId};
use tbpoint_obs::{EventKind, NullRecorder, Recorder};

/// Hot-path switches for [`simulate_launch_with`]. The boolean
/// switches default to on; turning one off selects the slow reference
/// implementation the bit-identity golden suite compares against.
/// Results are identical under every combination — only wall time
/// changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Serve dispatch traces from a per-launch [`TraceArena`] instead of
    /// re-emulating every warp.
    pub intern_traces: bool,
    /// Use cached per-SM `ready_hint`s to skip provably-idle scheduling
    /// scans and to jump the cycle loop across machine-wide idle spans
    /// in one step (instead of stepping cycle by cycle).
    pub event_horizon: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            intern_traces: true,
            event_horizon: true,
        }
    }
}

/// Hot-path effectiveness counters for one simulated launch, returned by
/// [`simulate_launch_perf`]. Kept out of [`LaunchSimResult`] so the
/// result's serialised form (pinned by golden files) is unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SimPerf {
    /// Warp traces served from the interner.
    pub intern_hits: u64,
    /// Warp traces emulated and cached.
    pub intern_misses: u64,
    /// Warp traces emulated with caching bypassed (thread-varying
    /// kernels have per-warp-unique traces by construction).
    pub intern_uncacheable: u64,
    /// Trace instructions whose emulation the interner avoided.
    pub reused_warp_insts: u64,
    /// Trace instructions actually emulated.
    pub traced_warp_insts: u64,
    /// Machine-wide idle spans crossed in a single jump. A counter of the
    /// host loop, not of the modelled hardware: a speed-only change to
    /// idle skipping may move it (and `idle_cycles_skipped`) while every
    /// [`LaunchSimResult`] stays bit-identical.
    pub idle_jumps: u64,
    /// Cycles those jumps skipped (host-loop counter, as above); the
    /// launch's remaining `cycles` were stepped one issue pass each.
    pub idle_cycles_skipped: u64,
    /// Thread-block retirements whose feature counters were streamed to
    /// the sampling hook (every simulated TB generates exactly one).
    pub stat_retires: u64,
    /// Thread blocks the sampling hook skipped at dispatch — the
    /// fast-forward periods of a sampling run.
    pub hook_skips: u64,
}

impl SimPerf {
    pub(crate) fn absorb_intern(&mut self, s: &InternStats) {
        self.intern_hits = s.hits;
        self.intern_misses = s.misses;
        self.intern_uncacheable = s.uncacheable;
        self.reused_warp_insts = s.reused_warp_insts;
        self.traced_warp_insts = s.traced_warp_insts;
    }

    /// Merge counters from another launch (for run-level totals).
    pub fn accumulate(&mut self, other: &SimPerf) {
        self.intern_hits += other.intern_hits;
        self.intern_misses += other.intern_misses;
        self.intern_uncacheable += other.intern_uncacheable;
        self.reused_warp_insts += other.reused_warp_insts;
        self.traced_warp_insts += other.traced_warp_insts;
        self.idle_jumps += other.idle_jumps;
        self.idle_cycles_skipped += other.idle_cycles_skipped;
        self.stat_retires += other.stat_retires;
        self.hook_skips += other.hook_skips;
    }
}

/// Result of simulating one kernel launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaunchSimResult {
    /// Which launch.
    pub launch_id: tbpoint_ir::LaunchId,
    /// Total cycles from first dispatch to last retirement.
    pub cycles: u64,
    /// Warp instructions actually issued (skipped blocks excluded).
    pub issued_warp_insts: u64,
    /// Thread instructions actually issued.
    pub issued_thread_insts: u64,
    /// Thread blocks simulated.
    pub simulated_tbs: u32,
    /// Thread blocks skipped by the sampling hook.
    pub skipped_tbs: u32,
    /// Aggregate L1 hit rate.
    pub l1_hit_rate: f64,
    /// L2 hit rate.
    pub l2_hit_rate: f64,
    /// DRAM row-buffer hit rate.
    pub dram_row_hit_rate: f64,
    /// Mean DRAM wait per access (cycles) — the empirical "M".
    pub dram_avg_wait: f64,
    /// Fixed-size sampling units (only when requested).
    pub units: Vec<UnitRecord>,
    /// Per-SM statistics (mix, residency, retirements).
    pub sm_stats: Vec<crate::stats::SmStats>,
}

impl LaunchSimResult {
    /// Aggregate IPC over the simulated portion: issued warp instructions
    /// per cycle, summed across SMs (the paper's Fig. 9 definition
    /// collapses to this because every SM spans the same cycle count).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.issued_warp_insts as f64 / self.cycles as f64
        }
    }
}

/// Result of simulating a whole benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSimResult {
    /// Kernel name.
    pub kernel_name: String,
    /// Per-launch results in launch order.
    pub launches: Vec<LaunchSimResult>,
}

impl RunSimResult {
    /// Total cycles across launches.
    pub fn total_cycles(&self) -> u64 {
        self.launches.iter().map(|l| l.cycles).sum()
    }

    /// Total issued warp instructions across launches.
    pub fn total_issued_warp_insts(&self) -> u64 {
        self.launches.iter().map(|l| l.issued_warp_insts).sum()
    }

    /// Overall IPC: total issued warp instructions / total cycles.
    pub fn overall_ipc(&self) -> f64 {
        let c = self.total_cycles();
        if c == 0 {
            0.0
        } else {
            self.total_issued_warp_insts() as f64 / c as f64
        }
    }
}

/// Simulate one launch of `kernel` under `cfg`, with `hook` controlling
/// thread-block skipping and `units` optionally collecting fixed-size
/// sampling units (pass `None` for normal runs). The convenience form of
/// [`simulate_launch_with`]: default [`SimOptions`], no recorder.
pub fn simulate_launch(
    kernel: &Kernel,
    spec: &LaunchSpec,
    cfg: &GpuConfig,
    hook: &mut dyn SamplingHook,
    units: Option<UnitsConfig>,
) -> LaunchSimResult {
    simulate_launch_with(
        kernel,
        spec,
        cfg,
        hook,
        units,
        SimOptions::default(),
        &NullRecorder,
    )
    .0
}

/// [`simulate_launch`] plus the hot-path counters ([`SimPerf`]).
/// `_jobs` is ignored: it once selected
/// an SM-sharded simulator (removed, see DESIGN.md) and stays in the
/// signature for the frozen `benchmark/` harness.
pub fn simulate_launch_perf(
    kernel: &Kernel,
    spec: &LaunchSpec,
    cfg: &GpuConfig,
    hook: &mut dyn SamplingHook,
    units: Option<UnitsConfig>,
    _jobs: usize,
) -> (LaunchSimResult, SimPerf) {
    simulate_launch_with(
        kernel,
        spec,
        cfg,
        hook,
        units,
        SimOptions::default(),
        &NullRecorder,
    )
}

/// Dispatch-side progress counters of the cycle loop.
#[derive(Debug, Default, Clone, Copy)]
struct DispatchState {
    /// Next thread-block id to consult the hook about.
    next_tb: u32,
    /// Dispatched-and-simulating TBs.
    outstanding: u32,
    /// TBs the hook chose to simulate.
    simulated: u32,
    /// TBs the hook skipped.
    skipped: u32,
}

/// No warp can ever become ready while blocks are outstanding: the
/// simulator itself is broken, not the input.
#[cold]
#[expect(
    clippy::panic,
    reason = "aborting loudly beats returning a silently wrong cycle count"
)]
fn deadlock(cycle: u64, ds: DispatchState, total_tbs: u32) -> ! {
    panic!(
        "simulator deadlock at cycle {cycle}: outstanding={}, next_tb={}/{total_tbs}",
        ds.outstanding, ds.next_tb
    );
}

/// Greedy dispatch: fill every free slot, consulting the hook per TB.
/// Breadth-first over SMs (fewest-resident first, lowest index on ties)
/// so that consecutive TB ids spread across SMs — the behaviour the
/// paper's epoch construction assumes ("thread blocks having closer
/// thread block IDs are likely to be running concurrently").
// Ten arguments: the launch (kernel, spec, stagger), the machine (SMs,
// trace arena), the dispatch cursor, the hook, the clock (cycle, issue
// total) and the recorder — each owned by the cycle loop, which goes on
// using all of them between calls, so a bundle would be rebuilt per call.
#[expect(clippy::too_many_arguments)]
fn greedy_fill<R: Recorder + ?Sized>(
    sms: &mut [SmCore],
    arena: &mut TraceArena,
    kernel: &Kernel,
    spec: &LaunchSpec,
    stagger: u64,
    ds: &mut DispatchState,
    hook: &mut dyn SamplingHook,
    cycle: u64,
    issued_total: u64,
    rec: &R,
) {
    let total_tbs = spec.num_blocks;
    let make_ctx = |block_id: u32| ExecCtx {
        kernel_seed: kernel.seed,
        launch_id: spec.launch_id,
        block_id,
        num_blocks: spec.num_blocks,
        work_scale: spec.work_scale,
    };
    while ds.next_tb < total_tbs {
        // Find the SM with a free slot that currently hosts the fewest
        // blocks (breadth-first fill), and grab the slot while at it so
        // dispatch below cannot fail.
        let target = sms
            .iter()
            .enumerate()
            .filter_map(|(i, sm)| sm.free_slot().map(|s| (i, s, sm.resident_blocks())))
            .min_by_key(|&(_, _, r)| r)
            .map(|(i, s, _)| (i, s));
        let Some((sm_idx, slot)) = target else { return };
        // SM indices are config-bounded (tens), far below u32::MAX.
        let sm_u32 = u32::try_from(sm_idx).unwrap_or(u32::MAX);
        // Skipped blocks vanish — no resources, no sim events — so the
        // whole run of skips up to the next simulated block is consumed
        // against this one target.
        let tb = loop {
            if ds.next_tb >= total_tbs {
                return;
            }
            let tb = TbId(ds.next_tb);
            ds.next_tb += 1;
            match hook.on_dispatch(tb, cycle, issued_total) {
                DispatchDecision::Skip => {
                    ds.skipped += 1;
                    rec.record(cycle, EventKind::TbSkipped { tb: tb.0 });
                }
                DispatchDecision::Simulate => break tb,
            }
        };
        ds.simulated += 1;
        // Serial dispatch: during the initial fill every block starts
        // `stagger` cycles after the previous one. Mid-launch refills
        // inherit natural staggering from retirement times, so no extra
        // delay is added there.
        let start = if cycle == 0 {
            ds.simulated as u64 * stagger
        } else {
            cycle
        };
        let insta_retire =
            sms[sm_idx].dispatch(slot, kernel, make_ctx(tb.0), tb, cycle, start, arena);
        rec.record(
            cycle,
            EventKind::TbDispatched {
                tb: tb.0,
                sm: sm_u32,
            },
        );
        if let Some(rtb) = insta_retire {
            rec.record(
                cycle,
                EventKind::TbRetired {
                    tb: rtb.0,
                    sm: sm_u32,
                },
            );
            // A degenerate (all-empty-trace) block issues nothing, so its
            // streamed profile is the all-zero one — exactly what the
            // profiler would have recorded for it.
            hook.on_retire(rtb, cycle, issued_total, TbStats::default());
        } else {
            ds.outstanding += 1;
        }
    }
}

/// The general entry point: [`simulate_launch`] with explicit hot-path
/// switches ([`SimOptions`]), observability, and the [`SimPerf`] counters.
///
/// `rec` receives dispatch/skip/retire events (per-SM residency follows
/// from `TbDispatched` / `TbRetired`, which carry the SM), idle-jump and
/// memory-stall events, and at the end of the launch one counter per
/// statistic the simulator keeps anyway: `issued_warp_insts`,
/// `load_wait_cycles`, the cache and DRAM counts behind the result's
/// hit rates (store probes included), `store` and `trace_intern_*`.
/// The function is monomorphised over the recorder, so the
/// [`NullRecorder`] path compiles the instrumentation away; recording
/// never influences the simulation, and the result is bit-identical for
/// every recorder and every option combination — only wall time changes.
pub fn simulate_launch_with<R: Recorder + ?Sized>(
    kernel: &Kernel,
    spec: &LaunchSpec,
    cfg: &GpuConfig,
    hook: &mut dyn SamplingHook,
    units: Option<UnitsConfig>,
    opts: SimOptions,
    rec: &R,
) -> (LaunchSimResult, SimPerf) {
    let occupancy = cfg.sm_occupancy(kernel);
    let mut sms: Vec<SmCore> = (0..cfg.num_sms)
        .map(|i| {
            let mut sm = SmCore::new(i as usize, occupancy, cfg);
            sm.set_event_horizon(opts.event_horizon);
            sm
        })
        .collect();
    let mut arena = TraceArena::with_caching(kernel, opts.intern_traces);
    let mut perf = SimPerf::default();
    let mut mem = MemorySystem::new(cfg);
    let mut collector = units.map(|u| UnitCollector::new(u, kernel.num_basic_blocks as usize));

    let total_tbs = spec.num_blocks;
    let mut ds = DispatchState::default();
    let mut cycle: u64 = 0;
    let mut issued_total: u64 = 0;
    let stagger = cfg.dispatch_stagger_cycles as u64;

    greedy_fill(
        &mut sms,
        &mut arena,
        kernel,
        spec,
        stagger,
        &mut ds,
        hook,
        cycle,
        issued_total,
        rec,
    );

    while ds.outstanding > 0 || ds.next_tb < total_tbs {
        let mut any_issued = false;
        let mut any_retired = false;
        for (sm_idx, sm) in sms.iter_mut().enumerate() {
            let r = sm.try_issue_obs(cycle, &mut mem, rec);
            if let Some(bb) = r.issued_bb {
                any_issued = true;
                issued_total += 1;
                if let Some(c) = collector.as_mut() {
                    c.on_issue(cycle, bb);
                }
            }
            if let Some(tb) = r.retired {
                ds.outstanding -= 1;
                any_retired = true;
                rec.record(
                    cycle,
                    EventKind::TbRetired {
                        tb: tb.0,
                        sm: u32::try_from(sm_idx).unwrap_or(u32::MAX),
                    },
                );
                hook.on_retire(tb, cycle, issued_total, r.retired_stats);
            }
        }
        if any_retired {
            greedy_fill(
                &mut sms,
                &mut arena,
                kernel,
                spec,
                stagger,
                &mut ds,
                hook,
                cycle,
                issued_total,
                rec,
            );
        }
        if ds.outstanding == 0 && ds.next_tb >= total_tbs {
            break;
        }
        if any_issued {
            cycle += 1;
            continue;
        }
        // Nothing issued, so nothing retired and nothing was dispatched.
        // With the event horizon on, every SM's latest scan failed and no
        // dispatch came after it, so each `ready_hint` is exact and past
        // `cycle` (`u64::MAX` on an empty SM) and their minimum is the
        // machine-wide wake cycle: the loop jumps there, and every
        // iteration either issues or jumps. The oracle finds the same
        // cycle by scanning every warp, then steps.
        let wake = if opts.event_horizon {
            sms.iter().map(SmCore::ready_hint).min()
        } else {
            sms.iter().filter_map(SmCore::next_ready).min()
        }
        .unwrap_or(u64::MAX);
        if wake == u64::MAX {
            deadlock(cycle, ds, total_tbs);
        }
        if opts.event_horizon {
            debug_assert!(wake > cycle, "idle jump to {wake} at cycle {cycle}");
            rec.record(
                cycle,
                EventKind::IdleJump {
                    cycles: wake - cycle,
                },
            );
            perf.idle_jumps += 1;
            perf.idle_cycles_skipped += wake - cycle;
            cycle = wake;
        } else {
            cycle += 1;
        }
    }

    perf.stat_retires += u64::from(ds.simulated);
    perf.hook_skips += u64::from(ds.skipped);
    perf.absorb_intern(&arena.stats);
    let issued_warp_insts: u64 = sms.iter().map(|s| s.issued_warp_insts).sum();
    let issued_thread_insts: u64 = sms.iter().map(|s| s.issued_thread_insts).sum();
    let (l1_hit, l1_miss) = mem.l1_stats();
    let (l2_hit, l2_miss) = mem.l2_stats();
    let (row_hit, row_miss) = mem.dram_row_stats();
    for (name, value) in [
        ("issued_warp_insts", issued_warp_insts),
        (
            "load_wait_cycles",
            sms.iter().map(|s| s.stats.load_latency_sum).sum(),
        ),
        ("l1_hit", l1_hit),
        ("l1_miss", l1_miss),
        ("l2_hit", l2_hit),
        ("l2_miss", l2_miss),
        ("dram_row_hit", row_hit),
        ("dram_row_miss", row_miss),
        ("store", mem.stores),
        ("trace_intern_hits", perf.intern_hits),
        ("trace_intern_misses", perf.intern_misses),
        ("trace_intern_uncacheable", perf.intern_uncacheable),
    ] {
        rec.counter(name, value);
    }
    let result = LaunchSimResult {
        launch_id: spec.launch_id,
        cycles: cycle,
        issued_warp_insts,
        issued_thread_insts,
        simulated_tbs: ds.simulated,
        skipped_tbs: ds.skipped,
        l1_hit_rate: mem.l1_hit_rate(),
        l2_hit_rate: mem.l2_hit_rate(),
        dram_row_hit_rate: mem.dram_row_hit_rate(),
        dram_avg_wait: mem.dram_avg_wait(),
        units: collector.map(|c| c.finish(cycle)).unwrap_or_default(),
        sm_stats: sms.iter().map(|s| s.stats).collect(),
    };
    (result, perf)
}

/// Simulate every launch of a run with the same hook (e.g. Full
/// simulation with `NullSampling`).
pub fn simulate_run(
    run: &KernelRun,
    cfg: &GpuConfig,
    hook: &mut dyn SamplingHook,
    units: Option<UnitsConfig>,
) -> RunSimResult {
    RunSimResult {
        kernel_name: run.kernel.name.clone(),
        launches: run
            .launches
            .iter()
            .map(|spec| simulate_launch(&run.kernel, spec, cfg, hook, units))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::NullSampling;
    use tbpoint_ir::{AddrPattern, Cond, Dist, KernelBuilder, LaunchId, Op, TripCount};

    /// Skips an explicit set of TB ids and records every dispatch and
    /// retirement (real policies live in `tbpoint-core`).
    #[derive(Default)]
    struct SkipList {
        /// TB ids to skip.
        skip: std::collections::BTreeSet<u32>,
        /// Dispatch events observed, in order.
        dispatched: Vec<u32>,
        /// Retire events observed, in order.
        retired: Vec<u32>,
    }

    impl SamplingHook for SkipList {
        fn on_dispatch(&mut self, tb: TbId, _cycle: u64, _issued: u64) -> DispatchDecision {
            self.dispatched.push(tb.0);
            if self.skip.contains(&tb.0) {
                DispatchDecision::Skip
            } else {
                DispatchDecision::Simulate
            }
        }

        fn on_retire(&mut self, tb: TbId, _cycle: u64, _issued: u64, _stats: TbStats) {
            self.retired.push(tb.0);
        }
    }

    fn launch(n: u32) -> LaunchSpec {
        LaunchSpec {
            launch_id: LaunchId(0),
            num_blocks: n,
            work_scale: 1.0,
        }
    }

    fn compute_kernel() -> Kernel {
        // Long enough that the staggered initial dispatch (which trades a
        // little startup utilisation for realistic desynchronisation) is
        // amortised away.
        let mut b = KernelBuilder::new("compute", 7, 128);
        let body = b.block(&[Op::IAlu, Op::FAlu, Op::IAlu, Op::FAlu]);
        let n = b.loop_(TripCount::Const(100), body);
        b.finish(n)
    }

    fn memory_kernel() -> Kernel {
        let mut b = KernelBuilder::new("membound", 7, 128);
        let body = b.block(&[
            Op::IAlu,
            Op::LdGlobal(AddrPattern::Random {
                region: 0,
                bytes: 64 << 20,
            }),
        ]);
        let n = b.loop_(TripCount::Const(20), body);
        b.finish(n)
    }

    #[test]
    fn all_blocks_retire() {
        let k = compute_kernel();
        let r = simulate_launch(
            &k,
            &launch(30),
            &GpuConfig::fermi(),
            &mut NullSampling,
            None,
        );
        assert_eq!(r.simulated_tbs, 30);
        assert_eq!(r.skipped_tbs, 0);
        assert!(r.cycles > 0);
        // 30 TBs * 4 warps * 100 iters * 4 insts.
        assert_eq!(r.issued_warp_insts, 30 * 4 * 100 * 4);
        assert_eq!(r.issued_thread_insts, r.issued_warp_insts * 32);
    }

    #[test]
    fn compute_kernel_reaches_decent_ipc() {
        let k = compute_kernel();
        let cfg = GpuConfig::fermi();
        let r = simulate_launch(&k, &launch(cfg.num_sms * 8), &cfg, &mut NullSampling, None);
        // Pure-ALU with many warps: latency fully hidden, IPC ~ num_sms.
        let per_sm = r.ipc() / cfg.num_sms as f64;
        assert!(
            per_sm > 0.8,
            "per-SM IPC {per_sm} too low for compute-bound"
        );
    }

    /// Zero cache and DRAM geometry used to divide by zero at the first
    /// access; `Cache::new` / `Dram::new` now clamp it to one of each.
    #[test]
    fn zeroed_config_simulates_without_panicking() {
        let zero_cache = crate::CacheConfig {
            size_bytes: 0,
            line_bytes: 0,
            assoc: 0,
        };
        let cfg = GpuConfig {
            // No SM at all could never drain a launch; everything else is 0.
            num_sms: 1,
            clock_ghz: 0.0,
            max_warps_per_sm: 0,
            max_blocks_per_sm: 0,
            regs_per_sm: 0,
            smem_per_sm: 0,
            alu_latency: 0,
            sfu_latency: 0,
            smem_latency: 0,
            l1_hit_latency: 0,
            l2_hit_latency: 0,
            dram_base_latency: 0,
            l1: zero_cache,
            l2: zero_cache,
            mshrs_per_sm: 0,
            dispatch_stagger_cycles: 0,
            dram_channels: 0,
            dram_banks_per_channel: 0,
            dram_page_bytes: 0,
            dram_row_hit_cycles: 0,
            dram_row_miss_cycles: 0,
        };
        let r = simulate_launch(&memory_kernel(), &launch(3), &cfg, &mut NullSampling, None);
        assert_eq!(r.simulated_tbs, 3);
        assert_eq!(r.issued_warp_insts, 3 * 4 * 20 * 2);
    }

    #[test]
    fn memory_kernel_is_slower_than_compute() {
        let cfg = GpuConfig::fermi();
        let rc = simulate_launch(
            &compute_kernel(),
            &launch(28),
            &cfg,
            &mut NullSampling,
            None,
        );
        let rm = simulate_launch(&memory_kernel(), &launch(28), &cfg, &mut NullSampling, None);
        assert!(
            rm.ipc() < rc.ipc() * 0.8,
            "memory-bound IPC {} should trail compute-bound {}",
            rm.ipc(),
            rc.ipc()
        );
        assert!(rm.dram_avg_wait > 0.0);
    }

    #[test]
    fn skipping_blocks_reduces_work() {
        let k = compute_kernel();
        let mut hook = SkipList::default();
        for i in 10..30 {
            hook.skip.insert(i);
        }
        let r = simulate_launch(&k, &launch(30), &GpuConfig::fermi(), &mut hook, None);
        assert_eq!(r.simulated_tbs, 10);
        assert_eq!(r.skipped_tbs, 20);
        assert_eq!(r.issued_warp_insts, 10 * 4 * 100 * 4);
        assert_eq!(hook.dispatched.len(), 30);
        assert_eq!(hook.retired.len(), 10);
    }

    #[test]
    fn skip_everything_is_legal() {
        let k = compute_kernel();
        let mut hook = SkipList::default();
        for i in 0..10 {
            hook.skip.insert(i);
        }
        let r = simulate_launch(&k, &launch(10), &GpuConfig::fermi(), &mut hook, None);
        assert_eq!(r.simulated_tbs, 0);
        assert_eq!(r.issued_warp_insts, 0);
    }

    #[test]
    fn cycle_budget_hook_bounds_a_run() {
        let k = compute_kernel();
        let cfg = GpuConfig::fermi();
        // Enough blocks that dispatch continues well past the first wave
        // (a budget can only trip on a dispatch event).
        let n = cfg.num_sms * 40;
        let full = simulate_launch(&k, &launch(n), &cfg, &mut NullSampling, None);

        // A generous budget never trips and changes nothing.
        let mut inner = NullSampling;
        let mut hook = crate::dispatch::CycleBudgetHook::new(&mut inner, full.cycles * 2);
        let r = simulate_launch(&k, &launch(n), &cfg, &mut hook, None);
        assert!(!hook.exceeded());
        assert_eq!(r.issued_warp_insts, full.issued_warp_insts);

        // A tiny budget trips and drains the launch quickly.
        let mut inner = NullSampling;
        let mut hook = crate::dispatch::CycleBudgetHook::new(&mut inner, 1);
        let r = simulate_launch(&k, &launch(n), &cfg, &mut hook, None);
        assert!(hook.exceeded());
        assert!(r.cycles < full.cycles, "drained run must finish early");
        assert!(r.skipped_tbs > 0);
    }

    #[test]
    fn determinism_across_runs() {
        let k = memory_kernel();
        let cfg = GpuConfig::fermi();
        let a = simulate_launch(&k, &launch(40), &cfg, &mut NullSampling, None);
        let b = simulate_launch(&k, &launch(40), &cfg, &mut NullSampling, None);
        assert_eq!(a, b);
    }

    #[test]
    fn barrier_kernel_completes() {
        let mut b = KernelBuilder::new("bar", 7, 128);
        let pre = b.block(&[Op::IAlu, Op::StShared, Op::Barrier]);
        let post = b.block(&[Op::LdShared, Op::IAlu]);
        let n = b.seq(vec![pre, post]);
        let k = b.finish(n);
        k.validate().unwrap();
        let r = simulate_launch(&k, &launch(8), &GpuConfig::fermi(), &mut NullSampling, None);
        assert_eq!(r.simulated_tbs, 8);
        assert_eq!(r.issued_warp_insts, 8 * 4 * 5);
    }

    #[test]
    fn divergent_kernel_completes() {
        let mut b = KernelBuilder::new("div", 7, 64);
        let s1 = b.fresh_site();
        let s2 = b.fresh_site();
        let heavy = b.block(&[Op::IAlu, Op::IAlu, Op::IAlu]);
        let light = b.block(&[Op::IAlu]);
        let iffy = b.if_(Cond::ThreadProb { p: 0.3, site: s1 }, heavy, Some(light));
        let n = b.loop_(
            TripCount::PerThread {
                base: 1,
                spread: 6,
                dist: Dist::Uniform,
                site: s2,
            },
            iffy,
        );
        let k = b.finish(n);
        let r = simulate_launch(
            &k,
            &launch(20),
            &GpuConfig::fermi(),
            &mut NullSampling,
            None,
        );
        assert_eq!(r.simulated_tbs, 20);
        assert!(r.issued_warp_insts > 0);
        // Divergence: thread insts strictly below lanes * warp insts.
        assert!(r.issued_thread_insts < r.issued_warp_insts * 32);
    }

    #[test]
    fn unit_collection_covers_all_issues() {
        let k = compute_kernel();
        let r = simulate_launch(
            &k,
            &launch(20),
            &GpuConfig::fermi(),
            &mut NullSampling,
            Some(UnitsConfig {
                unit_warp_insts: 5000,
            }),
        );
        let unit_insts: u64 = r.units.iter().map(|u| u.warp_insts).sum();
        assert_eq!(unit_insts, r.issued_warp_insts);
        // BBVs sum to the same total.
        let bbv_insts: u64 = r.units.iter().flat_map(|u| u.bbv.iter()).sum();
        assert_eq!(bbv_insts, r.issued_warp_insts);
        // 20 TBs * 4 warps * 400 insts = 32000 -> 6 full units + 1 partial.
        assert_eq!(r.units.len(), 7);
    }

    #[test]
    fn more_sms_speed_up_the_launch() {
        let k = compute_kernel();
        let slow = simulate_launch(
            &k,
            &launch(56),
            &GpuConfig::with_occupancy(48, 2),
            &mut NullSampling,
            None,
        );
        let fast = simulate_launch(
            &k,
            &launch(56),
            &GpuConfig::with_occupancy(48, 14),
            &mut NullSampling,
            None,
        );
        assert!(
            fast.cycles * 3 < slow.cycles,
            "14 SMs ({}) should be much faster than 2 ({})",
            fast.cycles,
            slow.cycles
        );
    }

    #[test]
    fn run_simulation_aggregates_launches() {
        let k = compute_kernel();
        let run = KernelRun {
            kernel: k,
            launches: vec![
                LaunchSpec {
                    launch_id: LaunchId(0),
                    num_blocks: 10,
                    work_scale: 1.0,
                },
                LaunchSpec {
                    launch_id: LaunchId(1),
                    num_blocks: 10,
                    work_scale: 2.0,
                },
            ],
        };
        let r = simulate_run(&run, &GpuConfig::fermi(), &mut NullSampling, None);
        assert_eq!(r.launches.len(), 2);
        assert!(r.launches[1].issued_warp_insts > r.launches[0].issued_warp_insts);
        assert_eq!(
            r.total_issued_warp_insts(),
            r.launches[0].issued_warp_insts + r.launches[1].issued_warp_insts
        );
        assert!(r.overall_ipc() > 0.0);
    }
}
