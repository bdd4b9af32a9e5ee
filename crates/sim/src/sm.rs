//! One streaming multiprocessor: resident blocks, warp scheduling, issue.

use crate::config::GpuConfig;
use crate::memory::MemorySystem;
use crate::stats::SmStats;
use std::sync::Arc;
use tbpoint_emu::{StaticInst, TbStats, TraceArena, TraceEntry};
use tbpoint_ir::inst::CoalescedLines;
use tbpoint_ir::{ExecCtx, Kernel, LatencyClass, Op, TbId};
use tbpoint_obs::Recorder;

/// Runtime state of one resident warp.
#[derive(Debug)]
struct WarpRt {
    /// Interned trace — identical warps across blocks share one
    /// allocation (see [`tbpoint_emu::TraceArena`]). Entries index
    /// `SmCore::table`.
    trace: Arc<[TraceEntry]>,
    pc: usize,
    /// The cycle the warp can next issue. The scheduler reads the packed
    /// copy in `SmCore::sched_at`; this one stays exact for warps parked
    /// at a barrier, whose release resumes from it.
    ready_at: u64,
    at_barrier: bool,
    done: bool,
    gtid_base: u64,
}

/// A thread block resident on the SM.
#[derive(Debug)]
struct ResidentBlock {
    tb_id: TbId,
    ctx: ExecCtx,
    warps: Vec<WarpRt>,
    live: u32,
    at_barrier: u32,
    /// Feature counters accumulated at issue time — at retirement they
    /// equal exactly what the profiler would have recorded for this
    /// block ([`tbpoint_emu::profile_tb`] counts the same events), which
    /// is what lets the live sampler run without a profiling pass.
    stats: TbStats,
}

/// The memory side of an issue: where a global-memory instruction's
/// coalesced lines go. The simulator walks the full hierarchy inline
/// ([`DirectMem`]); the packed-pick differential test substitutes
/// scripted latencies. [`SmCore::try_issue_mem`] is monomorphised over
/// this.
pub(crate) trait IssueMem {
    /// Resolve the lines of one load from SM `sm` and return its
    /// completion cycle; `alu_done` is the issue pipeline floor
    /// (`now + alu_latency`).
    fn load(&mut self, sm: usize, lines: &CoalescedLines, now: u64, alu_done: u64) -> u64;

    /// Resolve the lines of one store (fire-and-forget).
    fn store(&mut self, sm: usize, lines: &CoalescedLines, now: u64);
}

/// The simulator's backend: the inline walk through [`MemorySystem`].
pub(crate) struct DirectMem<'a, 'r, R: Recorder + ?Sized> {
    pub mem: &'a mut MemorySystem,
    pub rec: &'r R,
}

impl<R: Recorder + ?Sized> IssueMem for DirectMem<'_, '_, R> {
    fn load(&mut self, sm: usize, lines: &CoalescedLines, now: u64, alu_done: u64) -> u64 {
        let mut done_at = alu_done;
        for line in lines.iter() {
            done_at = done_at.max(self.mem.load_obs(sm, line, now, self.rec));
        }
        done_at
    }

    fn store(&mut self, sm: usize, lines: &CoalescedLines, now: u64) {
        self.mem.stores += lines.len() as u64;
        for line in lines.iter() {
            self.mem.store(sm, line, now);
        }
    }
}

/// Outcome of one issue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueResult {
    /// Basic block of the issued instruction, if one issued.
    pub issued_bb: Option<u16>,
    /// Active-lane count of the issued instruction (thread instructions).
    pub issued_lanes: u32,
    /// A thread block that retired as a result of this issue.
    pub retired: Option<TbId>,
    /// The retired block's accumulated feature counters (meaningful only
    /// when `retired` is `Some`; zeroed otherwise). Streamed to the
    /// sampling hook so live mode needs no separate profiling pass.
    pub retired_stats: TbStats,
}

impl IssueResult {
    /// Nothing issued this cycle.
    fn none() -> Self {
        IssueResult {
            issued_bb: None,
            issued_lanes: 0,
            retired: None,
            retired_stats: TbStats::default(),
        }
    }
}

/// One SM core.
pub struct SmCore {
    /// This SM's index (selects its L1/MSHRs in the memory system).
    pub id: usize,
    slots: Vec<Option<ResidentBlock>>,
    /// Warps per block — a launch constant, learnt at the first dispatch.
    wpb: usize,
    /// The launch's static instructions (op, site, basic block) that
    /// trace entries index — taken from the arena at the first dispatch.
    table: Arc<[StaticInst]>,
    /// Packed scheduler words, `occupancy x wpb`: `sched_at[slot * wpb + w]`
    /// is the warp's `ready_at` while it is schedulable (slot occupied,
    /// not done, not at a barrier) and `u64::MAX` otherwise. So
    /// `ready(w)` is `sched_at <= now` and a failed scan's wake time is
    /// `min(sched_at)`. Written wherever `ready_at`, `done` or
    /// `at_barrier` change.
    sched_at: Vec<u64>,
    /// Occupied slot indices, ascending — the scheduler's scan order.
    occupied: Vec<usize>,
    /// The cycle `occupied` last became non-empty; the span up to the
    /// retirement that empties it again goes to `stats.resident_cycles`.
    resident_since: u64,
    /// Conservative lower bound on the next cycle at which some warp
    /// could issue; `u64::MAX` when nothing is issueable — in particular
    /// after a scan of an SM with no resident block.
    /// Lowered at dispatch, reset to `now` on every issue, raised to the
    /// exact candidate minimum by a failed scheduling scan. `try_issue_obs`
    /// returns without scanning while `now < ready_hint`.
    ready_hint: u64,
    /// Event-horizon switch: when false, `try_issue_obs` always scans (the
    /// pre-optimisation reference behaviour golden tests compare against).
    use_hint: bool,
    /// Round-robin cursor: an index into the (slot, warp) pairs of the
    /// occupied slots in ascending order, reduced modulo their number at
    /// the next pick.
    rr_cursor: usize,
    /// `rr_cursor` as `(rank in occupied, warp)`; `None` once occupancy
    /// changed, so the divisions run only then.
    rr_pos: Option<(usize, usize)>,
    alu_latency: u64,
    sfu_latency: u64,
    smem_latency: u64,
    /// The coalesced lines of the memory instruction being issued,
    /// refilled in place by every global load or store.
    lines: CoalescedLines,
    /// Warp instructions issued by this SM.
    pub issued_warp_insts: u64,
    /// Thread instructions issued by this SM.
    pub issued_thread_insts: u64,
    /// Full per-SM statistics (mix, residency, retirements).
    pub stats: SmStats,
}

impl SmCore {
    /// An empty SM with `occupancy` block slots.
    pub fn new(id: usize, occupancy: u32, cfg: &GpuConfig) -> Self {
        SmCore {
            id,
            slots: (0..occupancy).map(|_| None).collect(),
            wpb: 0,
            table: Arc::new([]),
            sched_at: Vec::new(),
            occupied: Vec::with_capacity(occupancy as usize),
            resident_since: 0,
            ready_hint: u64::MAX,
            use_hint: true,
            rr_cursor: 0,
            rr_pos: None,
            alu_latency: cfg.alu_latency as u64,
            sfu_latency: cfg.sfu_latency as u64,
            smem_latency: cfg.smem_latency as u64,
            lines: CoalescedLines::default(),
            issued_warp_insts: 0,
            issued_thread_insts: 0,
            stats: SmStats::default(),
        }
    }

    /// Index of a free block slot, if any — always the lowest free index
    /// (slot order feeds the round-robin scheduler, so any other order
    /// would perturb issue order).
    pub fn free_slot(&self) -> Option<usize> {
        // `occupied` is ascending and distinct, so the first rank that
        // does not hold its own index is the lowest hole.
        (0..self.slots.len()).find(|&i| self.occupied.get(i) != Some(&i))
    }

    /// Number of resident blocks.
    pub fn resident_blocks(&self) -> usize {
        self.occupied.len()
    }

    /// Disable the `ready_hint` fast path so every `try_issue_obs` performs a
    /// full scheduling scan (the cycle-stepped reference the bit-identity
    /// golden suite compares the event horizon against).
    #[doc(hidden)]
    pub fn set_event_horizon(&mut self, on: bool) {
        self.use_hint = on;
    }

    /// Materialise (or intern) traces for `tb_id` and install it in
    /// `slot`; the block's warps first become ready at `start` (>= now),
    /// letting the dispatcher stagger the initial fill.
    ///
    /// Returns `Some(tb_id)` immediately if every warp's trace is empty
    /// (the block retires without issuing anything).
    // Eight arguments: the dispatcher's full per-block context. Bundling
    // them into a one-shot struct would only move the same fields.
    #[expect(clippy::too_many_arguments)]
    pub fn dispatch(
        &mut self,
        slot: usize,
        kernel: &Kernel,
        ctx: ExecCtx,
        tb_id: TbId,
        now: u64,
        start: u64,
        arena: &mut TraceArena,
    ) -> Option<TbId> {
        assert!(self.slots[slot].is_none(), "dispatch into occupied slot");
        if !Arc::ptr_eq(&self.table, arena.table().insts()) {
            self.table = Arc::clone(arena.table().insts());
        }
        let mut warps = Vec::with_capacity(kernel.warps_per_block() as usize);
        for w in 0..kernel.warps_per_block() {
            let trace = arena.warp_entries(kernel, &ctx, w);
            let done = trace.is_empty();
            warps.push(WarpRt {
                trace,
                pc: 0,
                ready_at: now.max(start),
                at_barrier: false,
                done,
                gtid_base: ctx.block_id as u64 * kernel.threads_per_block as u64 + w as u64 * 32,
            });
        }
        // warps.len() <= warps_per_block: u32 by construction.
        #[expect(clippy::cast_possible_truncation)]
        let live = warps.iter().filter(|w| !w.done).count() as u32;
        if live == 0 {
            return Some(tb_id); // degenerate block, retires instantly
        }
        let wpb = warps.len();
        if self.wpb != wpb {
            assert!(
                self.occupied.is_empty(),
                "warps per block is a launch constant"
            );
            self.wpb = wpb;
            self.sched_at.clear();
            self.sched_at.resize(self.slots.len() * wpb, u64::MAX);
        }
        for (word, w) in self.sched_at[slot * wpb..][..wpb].iter_mut().zip(&warps) {
            *word = if w.done { u64::MAX } else { w.ready_at };
        }
        if self.occupied.is_empty() {
            self.resident_since = now;
        }
        let rank = self.occupied.partition_point(|&s| s < slot);
        self.occupied.insert(rank, slot);
        self.rr_pos = None;
        // New warps wake at `start` — lower the hint so the fast path
        // cannot skip past them.
        self.ready_hint = self.ready_hint.min(now.max(start));
        self.slots[slot] = Some(ResidentBlock {
            tb_id,
            ctx,
            warps,
            live,
            at_barrier: 0,
            stats: TbStats::default(),
        });
        None
    }

    /// Select a warp to issue at `now`, maintaining `ready_hint` as a
    /// side effect: a successful pick resets it to `now` (forcing a full
    /// scan next cycle, so the round-robin cursor stays exactly as in the
    /// always-scan reference), and a failed scan raises it to the exact
    /// minimum `ready_at` among candidate warps (`u64::MAX` when none
    /// exist). Reads only the packed words.
    fn pick_warp(&mut self, now: u64) -> Option<(usize, usize)> {
        let wpb = self.wpb;
        let picked = 'rr: {
            // Walk (slot, warp) pairs starting from the cursor; the
            // cursor advances past each issued warp, giving loose
            // round-robin.
            let n = self.occupied.len();
            if n == 0 {
                // Rule 4: an SM with no resident block never wakes.
                self.ready_hint = u64::MAX;
                break 'rr None;
            }
            let (rank, warp) = self.rr_pos.unwrap_or_else(|| {
                let start = self.rr_cursor % (n * wpb);
                (start / wpb, start % wpb)
            });
            // One lap in n + 1 runs of contiguous words: the tail of
            // the cursor's block, the other blocks in slot order, then
            // the head of the cursor's block.
            let mut wake = u64::MAX;
            let mut r = rank;
            for run in 0..=n {
                let lo = if run == 0 { warp } else { 0 };
                let hi = if run == n { warp } else { wpb };
                let slot = self.occupied[r];
                let next_r = if r + 1 == n { 0 } else { r + 1 };
                for (w, &t) in self.sched_at[slot * wpb..][lo..hi].iter().enumerate() {
                    if t <= now {
                        let w = lo + w;
                        let next = if w + 1 == wpb {
                            (next_r, 0)
                        } else {
                            (r, w + 1)
                        };
                        self.rr_pos = Some(next);
                        self.rr_cursor = next.0 * wpb + next.1;
                        break 'rr Some((slot, w));
                    }
                    wake = wake.min(t);
                }
                r = next_r;
            }
            self.rr_pos = Some((rank, warp));
            self.ready_hint = wake;
            None
        };
        if picked.is_some() {
            self.ready_hint = now;
        }
        picked
    }

    /// Attempt to issue one warp instruction at cycle `now`, recording the
    /// memory-stall and DRAM events the memory system emits. Monomorphised
    /// over the recorder, so `NullRecorder` compiles the instrumentation
    /// away.
    pub fn try_issue_obs<R: Recorder + ?Sized>(
        &mut self,
        now: u64,
        mem: &mut MemorySystem,
        rec: &R,
    ) -> IssueResult {
        let mut port = DirectMem { mem, rec };
        self.try_issue_mem(now, &mut port)
    }

    /// The issue body, generic over where memory traffic goes
    /// ([`IssueMem`]).
    fn try_issue_mem<M: IssueMem>(&mut self, now: u64, mem: &mut M) -> IssueResult {
        // Event-horizon fast path, by the four `ready_hint` rules of
        // DESIGN.md. `now < ready_hint` implies a *failed* scan already
        // ran since the last issue (rule 2: issuing resets the hint to
        // its cycle, so the first attempt after it always scans) and
        // proved no warp wakes before `ready_hint` (rule 1; rule 4 on an
        // SM with no resident block, which never wakes: `u64::MAX`). The
        // only later write is a dispatch (rule 3), which lowers the hint
        // to the new block's start, never below its own `now`. A repeat
        // scan would fail again and failed scans are idempotent, so
        // skipping them is free of observable effects.
        if self.use_hint && now < self.ready_hint {
            return IssueResult::none();
        }
        match self.pick_warp(now) {
            Some((s, w)) => self.issue_picked(s, w, now, mem),
            None => IssueResult::none(),
        }
    }

    /// Issue the next instruction of the warp [`SmCore::pick_warp`] chose.
    #[inline]
    fn issue_picked<M: IssueMem>(
        &mut self,
        s: usize,
        w: usize,
        now: u64,
        mem: &mut M,
    ) -> IssueResult {
        // pick_warp only returns occupied slots; an empty one issues nothing.
        let Some(block) = self.slots[s].as_mut() else {
            return IssueResult::none();
        };
        let ctx = block.ctx;
        let warp = &mut block.warps[w];
        let entry = warp.trace[warp.pc];
        let inst = &self.table[entry.inst as usize];
        warp.pc += 1;
        self.issued_warp_insts += 1;
        let lanes = entry.mask.count_ones();
        self.issued_thread_insts += lanes as u64;
        block.stats.warp_insts += 1;
        block.stats.thread_insts += lanes as u64;
        self.stats.issued_warp_insts += 1;
        self.stats.issued_thread_insts += lanes as u64;
        self.stats.mix.record(inst.op.latency_class());

        match inst.op.latency_class() {
            LatencyClass::Alu => warp.ready_at = now + self.alu_latency,
            LatencyClass::Sfu => warp.ready_at = now + self.sfu_latency,
            LatencyClass::SharedMem => warp.ready_at = now + self.smem_latency,
            LatencyClass::GlobalMem => {
                // Every GlobalMem op carries a pattern by construction of
                // the IR; a missing one degrades to ALU latency instead of
                // aborting the simulation.
                if let Some(pat) = inst.op.addr_pattern() {
                    let lines = &mut self.lines;
                    pat.coalesced_lines_into(
                        &ctx,
                        warp.gtid_base,
                        entry.mask,
                        entry.iter_key,
                        inst.site,
                        lines,
                    );
                    // Same count the profiler records: coalesced lines,
                    // loads and stores alike.
                    block.stats.mem_requests += lines.len() as u64;
                    let is_store = matches!(inst.op, Op::StGlobal(_));
                    if is_store {
                        mem.store(self.id, lines, now);
                        // Fire-and-forget: the warp only pays issue latency.
                        warp.ready_at = now + self.alu_latency;
                    } else {
                        let done_at = mem.load(self.id, lines, now, now + self.alu_latency);
                        warp.ready_at = done_at;
                        self.stats.load_latency_sum += done_at - now;
                        self.stats.loads_waited += 1;
                    }
                } else {
                    warp.ready_at = now + self.alu_latency;
                }
            }
            LatencyClass::Barrier => {
                warp.at_barrier = true;
                warp.ready_at = now + 1;
                block.at_barrier += 1;
            }
        }

        // Trace exhausted?
        if warp.pc >= warp.trace.len() {
            warp.done = true;
            // A warp cannot end on an unreleased barrier (validated IR),
            // but guard the accounting anyway.
            if warp.at_barrier {
                warp.at_barrier = false;
                block.at_barrier -= 1;
            }
            block.live -= 1;
        }
        // The one packed-word write of the issue path: every latency arm
        // and trace exhaustion land here.
        let words = &mut self.sched_at[s * self.wpb..][..self.wpb];
        words[w] = if warp.done || warp.at_barrier {
            u64::MAX
        } else {
            warp.ready_at
        };

        let mut retired = None;
        let mut retired_stats = TbStats::default();
        if block.live == 0 {
            // Every warp is done, so the slot's words are already
            // `u64::MAX`; only the scan order changes.
            retired = Some(block.tb_id);
            retired_stats = block.stats;
            self.stats.blocks_retired += 1;
            self.slots[s] = None;
            self.occupied.retain(|&o| o != s);
            if self.occupied.is_empty() {
                self.stats.resident_cycles += now - self.resident_since;
            }
            self.rr_pos = None;
        } else if block.at_barrier > 0 && block.at_barrier == block.live {
            // Barrier release: all live warps arrived.
            for (warp, word) in block.warps.iter_mut().zip(words) {
                if warp.at_barrier {
                    warp.at_barrier = false;
                    warp.ready_at = warp.ready_at.max(now + 1);
                    *word = warp.ready_at;
                }
            }
            block.at_barrier = 0;
        }

        IssueResult {
            issued_bb: Some(inst.bb),
            issued_lanes: lanes,
            retired,
            retired_stats,
        }
    }

    /// The earliest cycle at which some warp could issue, or `None` when
    /// the SM has nothing issueable (empty, or everything at a barrier
    /// that cannot release without external progress — impossible for
    /// validated kernels).
    pub fn next_ready(&self) -> Option<u64> {
        let wake = self.sched_at.iter().copied().min();
        wake.filter(|&t| t != u64::MAX)
    }

    /// The maintained lower bound on this SM's next issueable cycle
    /// (`u64::MAX` when nothing is issueable). Exact whenever the last
    /// scheduling scan failed — which is the case on every SM when the
    /// machine as a whole is idle, making `min` over the hints the global
    /// event horizon the cycle loop can jump to.
    pub fn ready_hint(&self) -> u64 {
        self.ready_hint
    }

    /// True when no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbpoint_ir::{AddrPattern, Dist, KernelBuilder, LaunchId, Node, TripCount};
    use tbpoint_obs::NullRecorder;
    use tbpoint_stats::SplitMix64;

    impl SmCore {
        /// The pre-packing scheduler, kept as the differential reference:
        /// it rebuilds the (slot, warp) order from the cold `WarpRt` fields
        /// on every pick. Only the 128-entry cap of its scratch array is
        /// gone (that was a bug, see `no_resident_warp_starves`).
        fn pick_warp_reference(&mut self, now: u64) -> Option<(usize, usize)> {
            let ready = |w: &WarpRt| !w.done && !w.at_barrier && w.ready_at <= now;
            let picked = 'rr: {
                let mut order = Vec::new();
                for (s, blk) in self.slots.iter().enumerate() {
                    if let Some(b) = blk {
                        order.extend((0..b.warps.len()).map(|w| (s, w)));
                    }
                }
                let len = order.len();
                if len == 0 {
                    self.ready_hint = u64::MAX;
                    break 'rr None;
                }
                let start = self.rr_cursor % len;
                let mut pick = None;
                let mut wake = u64::MAX;
                for k in 0..len {
                    let (s, w) = order[(start + k) % len];
                    let warp = &self.slots[s].as_ref().unwrap().warps[w];
                    if ready(warp) {
                        self.rr_cursor = (start + k + 1) % len;
                        pick = Some((s, w));
                        break;
                    }
                    if !warp.done && !warp.at_barrier {
                        wake = wake.min(warp.ready_at);
                    }
                }
                if pick.is_none() {
                    self.ready_hint = wake;
                }
                pick
            };
            if picked.is_some() {
                self.ready_hint = now;
            }
            picked
        }

        /// Scheduler state both picks may write.
        fn sched_state(&self) -> (usize, u64) {
            (self.rr_cursor, self.ready_hint)
        }

        /// The packed-word invariant: `sched_at[i] == ready_at` iff the
        /// warp is schedulable, `u64::MAX` otherwise; `occupied` is the
        /// ascending list of occupied slots.
        fn assert_words_exact(&self, what: &str) {
            for (slot, blk) in self.slots.iter().enumerate() {
                for w in 0..self.wpb {
                    let want = match blk {
                        Some(b) if !b.warps[w].done && !b.warps[w].at_barrier => {
                            b.warps[w].ready_at
                        }
                        _ => u64::MAX,
                    };
                    let got = self.sched_at[slot * self.wpb + w];
                    assert_eq!(got, want, "{what}: word of slot {slot} warp {w}");
                }
            }
            let occupied: Vec<usize> = (0..self.slots.len())
                .filter(|&s| self.slots[s].is_some())
                .collect();
            assert_eq!(self.occupied, occupied, "{what}: occupied list");
        }

        /// `try_issue_mem`, with the packed pick checked against the
        /// reference on the same state; returns whether a pick was compared.
        fn step_checked<M: IssueMem>(&mut self, now: u64, mem: &mut M) -> (IssueResult, bool) {
            let before = self.sched_state();
            if self.use_hint && now < self.ready_hint {
                // The skipped scan would have failed and changed nothing.
                assert_eq!(self.pick_warp_reference(now), None, "skipped scan at {now}");
                assert_eq!(self.sched_state(), before, "skipped scan at {now}");
                return (IssueResult::none(), false);
            }
            let want = self.pick_warp_reference(now);
            let want_state = self.sched_state();
            (self.rr_cursor, self.ready_hint) = before;
            let got = self.pick_warp(now);
            assert_eq!(got, want, "pick at {now}");
            assert_eq!(self.sched_state(), want_state, "scheduler state at {now}");
            if got.is_none() {
                // Rules 1 and 4 from the packed words themselves, so a
                // contract both twins break is still caught.
                let wake = self.sched_at.iter().copied().min().unwrap_or(u64::MAX);
                assert_eq!(self.ready_hint, wake, "hint after failed pick at {now}");
            }
            let r = match got {
                Some((s, w)) => self.issue_picked(s, w, now, mem),
                None => IssueResult::none(),
            };
            self.assert_words_exact("issue");
            (r, true)
        }
    }

    /// Memory port for the histories: a load completes after a random
    /// latency.
    struct ScriptedMem {
        rng: SplitMix64,
    }

    impl IssueMem for ScriptedMem {
        fn load(&mut self, _sm: usize, _lines: &CoalescedLines, now: u64, alu_done: u64) -> u64 {
            alu_done.max(now + self.rng.next_index(300))
        }

        fn store(&mut self, _sm: usize, _lines: &CoalescedLines, _now: u64) {}
    }

    fn below(rng: &mut SplitMix64, n: usize) -> usize {
        rng.next_index(n as u64) as usize
    }

    /// A block of 1-4 random non-barrier ops.
    fn random_ops(rng: &mut SplitMix64, b: &mut KernelBuilder) -> Node {
        let gather = AddrPattern::Random {
            region: 0,
            bytes: 1 << 20,
        };
        let menu = [
            Op::IAlu,
            Op::Sfu,
            Op::LdShared,
            Op::LdGlobal(gather),
            Op::StGlobal(gather),
        ];
        let ops: Vec<Op> = (0..1 + below(rng, 4))
            .map(|_| menu[below(rng, menu.len())])
            .collect();
        b.block(&ops)
    }

    /// Warps of unequal length (per-thread trip counts) that meet at
    /// 0-2 barriers placed outside the divergent loops.
    fn random_kernel(rng: &mut SplitMix64, wpb: usize) -> Kernel {
        // A ragged last warp now and then.
        let threads = wpb * 32 - below(rng, 2) * below(rng, 32);
        let mut b = KernelBuilder::new("history", rng.next_u64(), threads as u32);
        let mut nodes = Vec::new();
        for stage in 0..1 + below(rng, 3) {
            if stage > 0 {
                nodes.push(b.block(&[Op::Barrier]));
            }
            let body = random_ops(rng, &mut b);
            let trips = TripCount::PerThread {
                base: below(rng, 3) as u32,
                spread: below(rng, 6) as u32,
                dist: Dist::Uniform,
                site: b.fresh_site(),
            };
            nodes.push(b.loop_(trips, body));
            if below(rng, 2) == 0 {
                nodes.push(random_ops(rng, &mut b));
            }
        }
        let program = b.seq(nodes);
        b.finish(program)
    }

    /// One random SM history: dispatches, issues, barrier arrivals and
    /// releases and retirements interleaved at random, every pick
    /// compared with the reference. Returns the number of picks compared.
    fn run_history(seed: u64, use_hint: bool) -> u64 {
        let mut rng = SplitMix64::new(seed);
        let wpb = 1 + below(&mut rng, 32);
        let occupancy = 1 + below(&mut rng, 8);
        let kernel = random_kernel(&mut rng, wpb);
        let mut sm = SmCore::new(0, occupancy as u32, &GpuConfig::fermi());
        sm.set_event_horizon(use_hint);
        let mut arena = TraceArena::with_caching(&kernel, true);
        let mut mem = ScriptedMem {
            rng: SplitMix64::new(seed ^ 0xD1F),
        };
        let num_blocks = (occupancy * (1 + below(&mut rng, 3))) as u32;
        let (mut next_block, mut retired, mut picks, mut now) = (0u32, 0u32, 0u64, 0u64);
        while retired < num_blocks {
            assert!(now < 10_000_000, "history {seed:#x} does not drain");
            if next_block < num_blocks && below(&mut rng, 3) != 0 {
                if let Some(slot) = sm.free_slot() {
                    let ctx = ExecCtx {
                        kernel_seed: kernel.seed,
                        launch_id: LaunchId(0),
                        block_id: next_block,
                        num_blocks,
                        work_scale: 1.0,
                    };
                    let start = now + rng.next_index(40);
                    let tb = TbId(next_block);
                    if sm
                        .dispatch(slot, &kernel, ctx, tb, now, start, &mut arena)
                        .is_some()
                    {
                        retired += 1;
                    }
                    next_block += 1;
                    sm.assert_words_exact("dispatch");
                }
            }
            let (r, compared) = sm.step_checked(now, &mut mem);
            picks += u64::from(compared);
            retired += u32::from(r.retired.is_some());
            // Mostly cycle by cycle; sometimes a jump, as the idle skip does.
            now += if below(&mut rng, 8) == 0 {
                1 + rng.next_index(60)
            } else {
                1
            };
        }
        assert!(sm.is_empty());
        picks
    }

    fn differential(seed: u64, histories: u64) {
        let mut picks = 0;
        for h in 0..histories {
            picks += run_history(seed + h, h % 2 == 0);
        }
        println!("packed pick vs reference: {histories} histories, {picks} picks, 0 mismatches");
    }

    #[test]
    fn packed_pick_matches_the_rebuilding_reference() {
        differential(0x5C4E_D000, 100);
    }

    #[test]
    #[ignore = "10k histories; CI runs it in release (cargo test --release -p tbpoint-sim -- --ignored)"]
    fn packed_pick_matches_the_rebuilding_reference_10k() {
        differential(0x0DD5_EED5_0000, 10_000);
    }

    /// The old scheduler's scratch array held 128 (slot, warp) pairs and
    /// silently dropped the rest, so with 8 x 32 resident warps slots 4-7
    /// starved until slots 0-3 drained. An ALU latency of one lap makes
    /// the scheduler visit every warp once before any is ready again.
    #[test]
    fn no_resident_warp_starves() {
        let mut b = KernelBuilder::new("alu", 3, 1024);
        let body = b.block(&[Op::IAlu]);
        let program = b.loop_(TripCount::Const(8), body);
        let kernel = b.finish(program);
        let cfg = GpuConfig {
            alu_latency: 256,
            regs_per_sm: 1 << 20,
            ..GpuConfig::with_occupancy(256, 1)
        };
        let occupancy = cfg.sm_occupancy(&kernel);
        assert_eq!(occupancy * kernel.warps_per_block(), 256);
        let mut sm = SmCore::new(0, occupancy, &cfg);
        let mut arena = TraceArena::with_caching(&kernel, true);
        let mut mem = MemorySystem::new(&cfg);
        for block_id in 0..occupancy {
            let ctx = ExecCtx {
                kernel_seed: kernel.seed,
                launch_id: LaunchId(0),
                block_id,
                num_blocks: occupancy,
                work_scale: 1.0,
            };
            let slot = sm.free_slot().unwrap();
            sm.dispatch(slot, &kernel, ctx, TbId(block_id), 0, 0, &mut arena);
        }
        for now in 0..2 * 256 {
            sm.try_issue_obs(now, &mut mem, &NullRecorder);
        }
        for (s, blk) in sm.slots.iter().enumerate() {
            for (w, warp) in blk.as_ref().unwrap().warps.iter().enumerate() {
                assert!(warp.pc > 0, "slot {s} warp {w} never issued");
            }
        }
    }
}
