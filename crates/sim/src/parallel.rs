//! SM-sharded parallel launch simulation, bit-identical to serial.
//!
//! `simulate_launch_sharded` splits the SMs of one launch across `jobs`
//! worker threads and advances them in bounded *cycle windows* with a
//! barrier between windows. Everything that couples SMs — the shared
//! MSHR/L2/DRAM path, thread-block dispatch, retirement hooks — is kept
//! out of the windows and applied at the barriers in a canonical order,
//! so the result is a pure function of the input, independent of thread
//! count and scheduling. `LaunchSimResult` is bit-identical to the
//! serial simulator's for every `jobs` value (pinned by the golden and
//! property suites).
//!
//! # Why windows can be parallel at all
//!
//! Within a window `[t0, t1)`:
//!
//! * **L1s are SM-private** — each shard owns its SMs' L1 caches and
//!   probes them at issue time, exactly as serial does (hits resolve
//!   immediately; the probe order per SM equals serial's).
//! * **The shared path can wait.** `SharedMemPath` guarantees a miss
//!   issued at `now` completes no earlier than
//!   `now + l1_hit_latency + l2_hit_latency`. With the window length
//!   capped at `W = max(1, l1_hit_latency + l2_hit_latency)`, a miss
//!   issued inside the window completes at or after `t1` — so its
//!   effect on *this* window is fully described by "the warp sleeps".
//!   Shards therefore buffer the miss (`SharedReq`) and park the warp
//!   (`ready_at = u64::MAX`); the barrier replays all buffered requests
//!   through the shared hierarchy in `(cycle, sm)` order — the exact
//!   call sequence serial would have made, because one SM issues at most
//!   one memory instruction per cycle — and wakes the warps with the
//!   same completion cycles serial would have computed.
//! * **Dispatch and retirement only happen at the last window cycle.**
//!   `SmCore::earliest_retire_bound` lower-bounds the next retirement;
//!   the window is cut so that bound is its last cycle. Retirements
//!   (detected by shards) are then processed at the barrier in SM order
//!   with a reconstructed global `issued_total`, and the greedy
//!   dispatcher refills free slots exactly as serial's post-retire fill.
//!
//! `jobs == 1` never reaches this module — `simulate_launch_with` keeps
//! the serial path as-is.
//!
//! # Thread structure and rendezvous cost
//!
//! Windows are short (at most `l1_hit + l2_hit` cycles), so a launch
//! crosses thousands of barriers and rendezvous cost dominates overhead.
//! Three choices keep it down: the coordinator runs shard 0's window
//! inline between the barriers (so `jobs` threads rendezvous in total,
//! not `jobs + 1`, and shard 0 costs no context switch); the barrier is
//! a sense-reversing [`AdaptiveBarrier`] that spins briefly when cores
//! outnumber parties and parks immediately when they don't (spinning on
//! an oversubscribed host only steals time from the threads being waited
//! on); and the coordinator phases are allocation-free on the steady
//! state — a static `locate` table maps global SM ids to shard slots,
//! drain buffers and the replay-sort scratch are reused, and sorted SM
//! views are only materialised on the rare retire windows that need the
//! dispatcher.
//!
//! What is *not* bit-identical to serial: the observability side
//! channel. `IdleJump` events and the `SimPerf` idle counters depend on
//! where window boundaries fall (a machine-wide idle span serial crosses
//! in one jump may span several windows here), and event order within a
//! cycle differs. Both are still deterministic for a fixed `jobs`;
//! everything in `LaunchSimResult` — and every counter total — matches
//! serial exactly.

use crate::cache::Cache;
use crate::config::GpuConfig;
use crate::dispatch::SamplingHook;
use crate::memory::{l1_hit_rate_over, SharedMemPath};
use crate::order::cycle_sm_key;
use crate::shadow;
use crate::simulator::{greedy_fill, DispatchState, LaunchSimResult, SimOptions, SimPerf};
use crate::sm::{IssueMem, LoadOutcome, SmCore};
use crate::units::{UnitCollector, UnitsConfig};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use tbpoint_emu::{TbStats, TraceArena};
use tbpoint_ir::inst::CoalescedLines;
use tbpoint_ir::{Kernel, LaunchSpec, TbId};
use tbpoint_obs::{CollectingRecorder, EventKind, NullRecorder, Recorder};

/// One buffered shared-path request (a load that missed L1, or a store's
/// write-through traffic), replayed at the window barrier. Line addresses
/// live in the shard's `lines` arena (`lo..hi`) so buffering allocates
/// nothing on the steady state.
#[derive(Debug, Clone, Copy)]
struct SharedReq {
    cycle: u64,
    sm: usize,
    kind: ReqKind,
    lo: u32,
    hi: u32,
}

#[derive(Debug, Clone, Copy)]
enum ReqKind {
    /// A load with at least one L1-missing line; `base_done` folds the
    /// ALU floor and any L1-hit lines. `(slot, warp)` locate the parked
    /// warp for `resolve_deferred_load`.
    Load {
        slot: usize,
        warp: usize,
        base_done: u64,
    },
    /// A store's L2 write-through probes.
    Store,
}

/// The shard-side [`IssueMem`] backend: probe the SM-local L1 inline,
/// buffer the shared-path remainder for the barrier.
struct WindowMem<'a, R: Recorder> {
    l1: &'a mut Cache,
    l1_hit_latency: u64,
    reqs: &'a mut Vec<SharedReq>,
    lines: &'a mut Vec<u64>,
    rec: &'a R,
}

impl<R: Recorder> IssueMem for WindowMem<'_, R> {
    // tbpoint-phase: shard
    // tbpoint-hot
    fn load(
        &mut self,
        sm: usize,
        slot: usize,
        warp: usize,
        lines: &CoalescedLines,
        now: u64,
        alu_done: u64,
    ) -> LoadOutcome {
        let mut done = alu_done;
        let lo = u32::try_from(self.lines.len()).unwrap_or(u32::MAX);
        for line in lines.iter() {
            if self.l1.access_load(line) {
                self.rec.counter("l1_hit", 1);
                done = done.max(now + self.l1_hit_latency);
            } else {
                self.rec.counter("l1_miss", 1);
                self.lines.push(line);
            }
        }
        let hi = u32::try_from(self.lines.len()).unwrap_or(u32::MAX);
        if lo == hi {
            return LoadOutcome::Done(done);
        }
        self.reqs.push(SharedReq {
            cycle: now,
            sm,
            kind: ReqKind::Load {
                slot,
                warp,
                base_done: done,
            },
            lo,
            hi,
        });
        LoadOutcome::Deferred
    }

    // tbpoint-phase: shard
    // tbpoint-hot
    fn store(&mut self, sm: usize, lines: &CoalescedLines, now: u64) {
        let lo = u32::try_from(self.lines.len()).unwrap_or(u32::MAX);
        for line in lines.iter() {
            self.rec.counter("store", 1);
            self.l1.access_store(line);
            self.lines.push(line);
        }
        let hi = u32::try_from(self.lines.len()).unwrap_or(u32::MAX);
        if lo != hi {
            self.reqs.push(SharedReq {
                cycle: now,
                sm,
                kind: ReqKind::Store,
                lo,
                hi,
            });
        }
    }
}

/// What a shard reports back at each barrier.
#[derive(Debug, Default)]
struct ShardReport {
    /// Issues at window cycles before the last one.
    before_last: u64,
    /// Global SM ids that issued at the window's last cycle, ascending.
    at_last: Vec<usize>,
    /// `(sm, tb, stats)` retirements, all at the last cycle, ascending
    /// by SM — carrying each block's accumulated feature counters for
    /// the retire-hook stream.
    retired: Vec<(usize, TbId, TbStats)>,
    /// `(cycle, sm, bb)` issue trail for the unit collector (only
    /// gathered when requested).
    trail: Vec<(u64, usize, u16)>,
    /// A retirement landed before the window's last cycle — the retire
    /// bound was violated; the coordinator aborts (simulator bug).
    stray_retire: bool,
}

/// Everything one worker thread owns: its SMs (with global ids), their
/// L1s (index-aligned with `sms`), a private recorder for counters, and
/// the per-window request/report buffers.
struct ShardState<R2> {
    sms: Vec<(usize, SmCore)>,
    l1s: Vec<Cache>,
    rec: R2,
    reqs: Vec<SharedReq>,
    lines: Vec<u64>,
    report: ShardReport,
    idle_jumps: u64,
    idle_cycles_skipped: u64,
}

/// The coordinator-published window, read by every shard after the
/// opening barrier.
#[derive(Debug, Clone, Copy)]
struct WindowCtl {
    t0: u64,
    t1: u64,
    collect: bool,
    done: bool,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sense-reversing barrier tuned for thousands of short rendezvous per
/// launch. When the machine has more cores than parties, late arrivals
/// spin briefly before parking (windows are microseconds; a futex
/// round-trip per window would dominate). When cores <= parties — an
/// oversubscribed or single-core host — spinning only steals time from
/// the threads we are waiting on, so arrivals park immediately.
///
/// Each thread keeps a local sense flag and passes it to every `wait`;
/// the last arrival flips the shared sense (under the park lock, so a
/// parked waiter cannot miss the flip) and wakes everyone.
struct AdaptiveBarrier {
    parties: usize,
    spin: u32,
    count: AtomicUsize,
    sense: AtomicBool,
    park: Mutex<()>,
    cv: Condvar,
}

impl AdaptiveBarrier {
    fn new(parties: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        AdaptiveBarrier {
            parties,
            spin: if cores > parties { 1 << 12 } else { 0 },
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            park: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn wait(&self, local_sense: &mut bool) {
        let s = !*local_sense;
        *local_sense = s;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.count.store(0, Ordering::Relaxed);
            let guard = lock(&self.park);
            self.sense.store(s, Ordering::Release);
            drop(guard);
            self.cv.notify_all();
            return;
        }
        for _ in 0..self.spin {
            if self.sense.load(Ordering::Acquire) == s {
                return;
            }
            std::hint::spin_loop();
        }
        let mut guard = lock(&self.park);
        while self.sense.load(Ordering::Acquire) != s {
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One worker: run every published window over this shard's SMs until
/// the coordinator says done. (The coordinator itself runs shard 0's
/// windows inline between the same barriers, so only shards `1..jobs`
/// get a worker thread.)
// tbpoint-phase: shard
fn shard_worker<R2: Recorder>(
    state: &Mutex<ShardState<R2>>,
    ctl: &Mutex<WindowCtl>,
    barrier: &AdaptiveBarrier,
    use_hint: bool,
    l1_hit_latency: u64,
) {
    let mut sense = false;
    loop {
        barrier.wait(&mut sense); // window published
        let w = *lock(ctl);
        if w.done {
            return;
        }
        {
            let _phase = shadow::enter(shadow::Phase::Shard);
            run_window(&mut lock(state), w, use_hint, l1_hit_latency);
        }
        barrier.wait(&mut sense); // window complete
    }
}

/// Advance one shard through the window `[w.t0, w.t1)`, filing issues,
/// retirements, and buffered shared-path traffic into its report.
// tbpoint-phase: shard
// tbpoint-hot
fn run_window<R2: Recorder>(
    st: &mut ShardState<R2>,
    w: WindowCtl,
    use_hint: bool,
    l1_hit_latency: u64,
) {
    let mut c = w.t0;
    while c < w.t1 {
        let mut any = false;
        for (k, (gid, sm)) in st.sms.iter_mut().enumerate() {
            let mut port = WindowMem {
                l1: &mut st.l1s[k],
                l1_hit_latency,
                reqs: &mut st.reqs,
                lines: &mut st.lines,
                rec: &st.rec,
            };
            let r = sm.try_issue_mem(c, &mut port, &st.rec);
            if let Some(bb) = r.issued_bb {
                any = true;
                if c + 1 == w.t1 {
                    st.report.at_last.push(*gid);
                } else {
                    st.report.before_last += 1;
                }
                if w.collect {
                    st.report.trail.push((c, *gid, bb));
                }
            }
            if let Some(tb) = r.retired {
                if c + 1 != w.t1 {
                    st.report.stray_retire = true;
                }
                st.report.retired.push((*gid, tb, r.retired_stats));
            }
        }
        if any {
            for (_, sm) in st.sms.iter_mut() {
                sm.credit_resident_cycles(1);
            }
            c += 1;
        } else {
            // Nothing issueable on this shard: jump to the earliest
            // own wake-up (clamped to the window). Every own SM's
            // last scan failed, so its `ready_hint` is exact —
            // skipped cycles would have been fast-returns for every
            // SM here, which is exactly what serial does with them.
            // The stepped reference visits every cycle.
            let next = if use_hint {
                st.sms
                    .iter()
                    .map(|(_, s)| s.ready_hint())
                    .min()
                    .unwrap_or(u64::MAX)
                    .max(c + 1)
                    .min(w.t1)
            } else {
                c + 1
            };
            let delta = next - c;
            for (_, sm) in st.sms.iter_mut() {
                sm.credit_resident_cycles(delta);
            }
            if use_hint {
                st.idle_jumps += 1;
                st.idle_cycles_skipped += delta;
            }
            c = next;
        }
    }
}

/// Entry point from `simulate_launch_with` (`jobs >= 2`, already clamped
/// to `num_sms`). Picks the shard-recorder monomorphisation: collecting
/// when the caller's recorder is live (counters merge back in shard
/// order at the end), null otherwise so the instrumentation compiles
/// away.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_launch_sharded<R: Recorder + ?Sized>(
    kernel: &Kernel,
    spec: &LaunchSpec,
    cfg: &GpuConfig,
    hook: &mut dyn SamplingHook,
    units: Option<UnitsConfig>,
    opts: SimOptions,
    jobs: usize,
    rec: &R,
) -> (LaunchSimResult, SimPerf) {
    if rec.enabled() {
        let (result, perf, shard_recs) =
            run::<R, CollectingRecorder>(kernel, spec, cfg, hook, units, opts, jobs, rec);
        let mut merged = CollectingRecorder::new();
        for r in shard_recs {
            merged.merge(r);
        }
        merged.replay_into(rec);
        (result, perf)
    } else {
        let (result, perf, _) =
            run::<R, NullRecorder>(kernel, spec, cfg, hook, units, opts, jobs, rec);
        (result, perf)
    }
}

// tbpoint-phase: coordinator
#[allow(clippy::too_many_arguments)]
fn run<R: Recorder + ?Sized, R2: Recorder + Default + Send>(
    kernel: &Kernel,
    spec: &LaunchSpec,
    cfg: &GpuConfig,
    hook: &mut dyn SamplingHook,
    units: Option<UnitsConfig>,
    opts: SimOptions,
    jobs: usize,
    rec: &R,
) -> (LaunchSimResult, SimPerf, Vec<R2>) {
    let occupancy = cfg.sm_occupancy(kernel);
    let num_sms = cfg.num_sms as usize;
    let mut sms: Vec<SmCore> = (0..num_sms)
        .map(|i| {
            let mut sm = SmCore::new(i, occupancy, cfg);
            sm.set_event_horizon(opts.event_horizon);
            sm
        })
        .collect();
    let mut arena = TraceArena::with_caching(kernel, opts.intern_traces);
    let mut perf = SimPerf::default();
    let mut shared = SharedMemPath::new(cfg);
    let mut collector = units.map(|u| UnitCollector::new(u, kernel.num_basic_blocks as usize));
    let l1_hit_latency = cfg.l1_hit_latency as u64;
    // Any L1 miss completes >= now + l1_hit + l2_hit (see SharedMemPath):
    // windows of this length can defer all shared-path traffic to their
    // closing barrier without any warp oversleeping.
    let w_max = 1.max(l1_hit_latency + cfg.l2_hit_latency as u64);
    let stagger = cfg.dispatch_stagger_cycles as u64;
    let total_tbs = spec.num_blocks;

    let mut ds = DispatchState::default();
    let mut issued_total: u64 = 0;
    greedy_fill(
        &mut sms,
        &mut arena,
        kernel,
        spec,
        stagger,
        &mut ds,
        hook,
        0,
        issued_total,
        rec,
    );

    let mut final_cycle: u64 = 0;
    if ds.outstanding > 0 || ds.next_tb < total_tbs {
        // Shard the SMs round-robin (breadth-first dispatch loads low
        // indices first, so striding balances the shards), each with its
        // own L1s and recorder.
        let mut l1s: Vec<Cache> = (0..num_sms).map(|_| Cache::new(cfg.l1)).collect();
        let mut shards: Vec<ShardState<R2>> = (0..jobs)
            .map(|_| ShardState {
                sms: Vec::new(),
                l1s: Vec::new(),
                rec: R2::default(),
                reqs: Vec::new(),
                lines: Vec::new(),
                report: ShardReport::default(),
                idle_jumps: 0,
                idle_cycles_skipped: 0,
            })
            .collect();
        let mut locate: Vec<(usize, usize)> = vec![(0, 0); num_sms];
        for (i, (sm, l1)) in sms.drain(..).zip(l1s.drain(..)).enumerate() {
            let shard = &mut shards[i % jobs];
            locate[i] = (i % jobs, shard.sms.len());
            shard.sms.push((i, sm));
            shard.l1s.push(l1);
        }
        let states: Vec<Mutex<ShardState<R2>>> = shards.into_iter().map(Mutex::new).collect();
        let ctl = Mutex::new(WindowCtl {
            t0: 0,
            t1: 0,
            collect: collector.is_some(),
            done: false,
        });
        // The coordinator doubles as shard 0's runner, so `jobs` threads
        // rendezvous in total and only shards 1.. spawn workers.
        let barrier = AdaptiveBarrier::new(jobs);

        std::thread::scope(|scope| {
            for state in &states[1..] {
                let ctl = &ctl;
                let barrier = &barrier;
                scope.spawn(move || {
                    shard_worker(state, ctl, barrier, opts.event_horizon, l1_hit_latency)
                });
            }

            // Coordinator: schedule a window, run shard 0's slice of it
            // inline, apply the cross-SM coupling once every shard is
            // done, repeat. The coordinator only touches other shards'
            // state while their workers are parked at a barrier.
            let mut sense = false;
            let mut t0: u64 = 0;
            // Reusable scratch (drain buffers are swapped with shard
            // buffers so both sides keep their capacity).
            let mut drained_reqs: Vec<Vec<SharedReq>> = vec![Vec::new(); jobs];
            let mut drained_lines: Vec<Vec<u64>> = vec![Vec::new(); jobs];
            let mut at_last: Vec<usize> = Vec::new();
            let mut retired: Vec<(usize, TbId, TbStats)> = Vec::new();
            let mut trail: Vec<(u64, usize, u16)> = Vec::new();
            let mut order: Vec<(usize, usize)> = Vec::new();
            loop {
                // --- Schedule the next window [t0, t1). ---
                let w = {
                    let mut guards: Vec<_> = states.iter().map(lock).collect();
                    if opts.event_horizon {
                        // All SMs idle until h: take the idle span in one
                        // jump, exactly as serial's machine-wide jump
                        // (every hint is exact after a failed scan).
                        let h = guards
                            .iter()
                            .flat_map(|g| g.sms.iter().map(|(_, s)| s.ready_hint()))
                            .min()
                            .unwrap_or(u64::MAX);
                        if h == u64::MAX {
                            deadlock(&ctl, &barrier, &mut sense, t0, &ds, total_tbs);
                        }
                        if h > t0 {
                            rec.record(t0, EventKind::IdleJump { cycles: h - t0 });
                            for g in guards.iter_mut() {
                                for (_, sm) in g.sms.iter_mut() {
                                    sm.credit_resident_cycles(h - t0);
                                }
                            }
                            perf.idle_jumps += 1;
                            perf.idle_cycles_skipped += h - t0;
                            t0 = h;
                        }
                    } else if guards
                        .iter()
                        .all(|g| g.sms.iter().all(|(_, s)| s.next_ready().is_none()))
                    {
                        deadlock(&ctl, &barrier, &mut sense, t0, &ds, total_tbs);
                    }
                    let bound = guards
                        .iter()
                        .flat_map(|g| g.sms.iter().map(|(_, s)| s.earliest_retire_bound(t0)))
                        .min()
                        .unwrap_or(u64::MAX);
                    let w = WindowCtl {
                        t0,
                        t1: (t0 + w_max).min(bound.saturating_add(1)),
                        collect: collector.is_some(),
                        done: false,
                    };
                    *lock(&ctl) = w;
                    w
                };
                let t1 = w.t1;

                barrier.wait(&mut sense); // open the window
                {
                    let _phase = shadow::enter(shadow::Phase::Shard);
                    run_window(&mut lock(&states[0]), w, opts.event_horizon, l1_hit_latency);
                }
                barrier.wait(&mut sense); // wait for every shard to finish it

                // --- Apply the window's cross-SM coupling at c_last. ---
                let c_last = t1 - 1;
                let mut terminated = false;
                {
                    let _phase = shadow::enter(shadow::Phase::Coordinator);
                    let mut guards: Vec<_> = states.iter().map(lock).collect();
                    let mut issued_before_last = 0u64;
                    let mut stray = false;
                    at_last.clear();
                    retired.clear();
                    trail.clear();
                    for (j, g) in guards.iter_mut().enumerate() {
                        drained_reqs[j].clear();
                        drained_lines[j].clear();
                        std::mem::swap(&mut drained_reqs[j], &mut g.reqs);
                        std::mem::swap(&mut drained_lines[j], &mut g.lines);
                        issued_before_last += g.report.before_last;
                        g.report.before_last = 0;
                        at_last.append(&mut g.report.at_last);
                        retired.append(&mut g.report.retired);
                        trail.append(&mut g.report.trail);
                        stray |= g.report.stray_retire;
                    }
                    if stray {
                        deadlock(&ctl, &barrier, &mut sense, c_last, &ds, total_tbs);
                    }

                    // Replay buffered memory traffic through the shared
                    // hierarchy in (cycle, sm) order — unique keys, since
                    // an SM issues at most one memory instruction per
                    // cycle — i.e. the serial call sequence. Wake the
                    // parked warps with the serial completion cycles.
                    order.clear();
                    for (j, reqs) in drained_reqs.iter().enumerate() {
                        order.extend((0..reqs.len()).map(|i| (j, i)));
                    }
                    order.sort_unstable_by_key(|&(j, i)| {
                        let r = &drained_reqs[j][i];
                        cycle_sm_key(r.cycle, r.sm)
                    });
                    for &(j, i) in &order {
                        let r = drained_reqs[j][i];
                        let lines = &drained_lines[j][r.lo as usize..r.hi as usize];
                        match r.kind {
                            ReqKind::Load {
                                slot,
                                warp,
                                base_done,
                            } => {
                                let mut done = base_done;
                                for &line in lines {
                                    done = done.max(shared.miss_load_obs(r.sm, line, r.cycle, rec));
                                }
                                let (sj, sp) = locate[r.sm];
                                guards[sj].sms[sp]
                                    .1
                                    .resolve_deferred_load(slot, warp, done, r.cycle, rec);
                            }
                            ReqKind::Store => {
                                for &line in lines {
                                    shared.store_line(line, r.cycle);
                                }
                            }
                        }
                    }

                    // Retirements: SM order, with the issued_total serial
                    // would have seen mid-scan at c_last (all issues from
                    // earlier cycles, plus this cycle's issues on SMs up
                    // to and including the retiring one).
                    issued_total += issued_before_last;
                    at_last.sort_unstable();
                    retired.sort_unstable_by_key(|&(sm, _, _)| sm);
                    for &(sm, tb, stats) in &retired {
                        let prefix = at_last.partition_point(|&s| s <= sm) as u64;
                        ds.outstanding -= 1;
                        if rec.enabled() {
                            let sm_u32 = u32::try_from(sm).unwrap_or(u32::MAX);
                            rec.record(
                                c_last,
                                EventKind::TbRetired {
                                    tb: tb.0,
                                    sm: sm_u32,
                                },
                            );
                            let (sj, sp) = locate[sm];
                            let resident = u64::try_from(guards[sj].sms[sp].1.resident_blocks())
                                .unwrap_or(u64::MAX);
                            rec.gauge("sm_resident_blocks", sm_u32, resident);
                        }
                        hook.on_retire(tb, c_last, issued_total + prefix, stats);
                    }
                    issued_total += at_last.len() as u64;

                    // Feed the unit collector the global issue stream in
                    // (cycle, sm) order — serial's exact feed order.
                    if let Some(c) = collector.as_mut() {
                        trail.sort_unstable_by_key(|&(cycle, sm, _)| cycle_sm_key(cycle, sm));
                        for &(cycle, _, bb) in trail.iter() {
                            c.on_issue(cycle, bb);
                        }
                    }

                    if !retired.is_empty() {
                        // Refill freed slots, then credit c_last residency
                        // to SMs the fill just repopulated (their shard
                        // credited them before the fill existed; serial
                        // credits after it). Sorted views are only built
                        // here — retire windows are rare.
                        let mut views = sorted_views(&mut guards);
                        let was_empty: Vec<bool> = views.iter().map(|s| s.is_empty()).collect();
                        greedy_fill(
                            &mut views,
                            &mut arena,
                            kernel,
                            spec,
                            stagger,
                            &mut ds,
                            hook,
                            c_last,
                            issued_total,
                            rec,
                        );
                        for (sm, was) in views.iter_mut().zip(was_empty) {
                            if was && !sm.is_empty() {
                                sm.credit_resident_cycles(1);
                            }
                        }
                        if ds.outstanding == 0 && ds.next_tb >= total_tbs {
                            final_cycle = c_last;
                            terminated = true;
                            lock(&ctl).done = true;
                        }
                    }
                }

                if terminated {
                    barrier.wait(&mut sense); // release the workers to exit
                    break;
                }
                t0 = t1;
            }
        });

        // Gather everything back in SM order.
        let mut cores: Vec<(usize, SmCore)> = Vec::with_capacity(num_sms);
        let mut l1s: Vec<(usize, Cache)> = Vec::with_capacity(num_sms);
        let mut shard_recs: Vec<R2> = Vec::with_capacity(jobs);
        for state in states {
            let st = state.into_inner().unwrap_or_else(PoisonError::into_inner);
            perf.idle_jumps += st.idle_jumps;
            perf.idle_cycles_skipped += st.idle_cycles_skipped;
            for ((gid, sm), l1) in st.sms.into_iter().zip(st.l1s) {
                cores.push((gid, sm));
                l1s.push((gid, l1));
            }
            shard_recs.push(st.rec);
        }
        cores.sort_unstable_by_key(|&(gid, _)| gid);
        l1s.sort_unstable_by_key(|&(gid, _)| gid);
        sms = cores.into_iter().map(|(_, sm)| sm).collect();

        perf.stat_retires += u64::from(ds.simulated);
        perf.hook_skips += u64::from(ds.skipped);
        perf.absorb_intern(&arena.stats);
        if rec.enabled() {
            rec.counter("trace_intern_hits", perf.intern_hits);
            rec.counter("trace_intern_misses", perf.intern_misses);
            rec.counter("trace_intern_uncacheable", perf.intern_uncacheable);
        }
        let result = assemble(
            spec,
            final_cycle,
            &sms,
            &ds,
            l1_hit_rate_over(l1s.iter().map(|(_, c)| c)),
            &shared,
            collector,
        );
        return (result, perf, shard_recs);
    }

    // Degenerate launch: everything skipped or insta-retired during the
    // initial fill — no cycle loop, same as serial.
    perf.stat_retires += u64::from(ds.simulated);
    perf.hook_skips += u64::from(ds.skipped);
    perf.absorb_intern(&arena.stats);
    if rec.enabled() {
        rec.counter("trace_intern_hits", perf.intern_hits);
        rec.counter("trace_intern_misses", perf.intern_misses);
        rec.counter("trace_intern_uncacheable", perf.intern_uncacheable);
    }
    let result = assemble(spec, 0, &sms, &ds, 0.0, &shared, collector);
    (result, perf, Vec::new())
}

/// Collect `&mut SmCore` views from all shard guards, indexable by
/// global SM id (every id in `0..num_sms` is present exactly once).
fn sorted_views<'a, R2>(
    guards: &'a mut [std::sync::MutexGuard<'_, ShardState<R2>>],
) -> Vec<&'a mut SmCore> {
    let mut pairs: Vec<(usize, &'a mut SmCore)> = guards
        .iter_mut()
        .flat_map(|g| g.sms.iter_mut().map(|(gid, sm)| (*gid, sm)))
        .collect();
    pairs.sort_unstable_by_key(|&(gid, _)| gid);
    pairs.into_iter().map(|(_, sm)| sm).collect()
}

/// Release the parked workers, then abort: the coordinator found a state
/// no valid simulation reaches (a deadlock, or a retirement outside the
/// window's last cycle). Panicking while workers wait at the barrier
/// would hang the scope join, so the shutdown handshake runs first.
fn deadlock(
    ctl: &Mutex<WindowCtl>,
    barrier: &AdaptiveBarrier,
    sense: &mut bool,
    cycle: u64,
    ds: &DispatchState,
    total_tbs: u32,
) -> ! {
    lock(ctl).done = true;
    barrier.wait(sense);
    // tbpoint-lint: allow(no-panic-in-library)
    panic!(
        "parallel simulator deadlock at cycle {cycle}: outstanding={}, next_tb={}/{total_tbs}",
        ds.outstanding, ds.next_tb
    );
}

// tbpoint-phase: coordinator
fn assemble(
    spec: &LaunchSpec,
    cycles: u64,
    sms: &[SmCore],
    ds: &DispatchState,
    l1_hit_rate: f64,
    shared: &SharedMemPath,
    collector: Option<UnitCollector>,
) -> LaunchSimResult {
    LaunchSimResult {
        launch_id: spec.launch_id,
        cycles,
        issued_warp_insts: sms.iter().map(|s| s.issued_warp_insts).sum(),
        issued_thread_insts: sms.iter().map(|s| s.issued_thread_insts).sum(),
        simulated_tbs: ds.simulated,
        skipped_tbs: ds.skipped,
        l1_hit_rate,
        l2_hit_rate: shared.l2_hit_rate(),
        dram_row_hit_rate: shared.dram_row_hit_rate(),
        dram_avg_wait: shared.dram_avg_wait(),
        units: collector.map(|c| c.finish(cycles)).unwrap_or_default(),
        sm_stats: sms.iter().map(|s| s.stats).collect(),
    }
}
