//! Content-addressed warp-trace interning.
//!
//! `SmCore::dispatch` used to re-emulate a full [`WarpTrace`](crate::WarpTrace) for every
//! warp of every dispatched block, even though regular kernels (stream,
//! conv rows of Table VI) produce one identical trace per warp shape.
//! A [`TraceArena`] memoises traces behind `Arc<[TraceEntry]>` for the
//! duration of one launch, so identical warps share a single allocation.
//! It also owns the launch's [`StaticTable`], built once from the program
//! tree like [`TraceDeps`]; every trace it hands out, interned or not,
//! indexes that table.
//!
//! ## Why the key is exact, not a hash
//!
//! A warp's trace is a pure function of the walker's inputs. Auditing
//! [`crate::walker`] and the `TripCount::eval` / `Cond::eval`
//! implementations in `tbpoint-ir`, the trace of warp `w` of block `b`
//! depends on exactly:
//!
//! * the kernel (program tree, `threads_per_block`) and `kernel_seed` —
//!   fixed for a launch, so fixed per arena;
//! * `launch_id`, `work_scale` — fixed per arena (`num_blocks` is never
//!   read by any decision);
//! * the initial live-lane mask, a function of `w` and
//!   `threads_per_block` (`Cond::LaneLt` and SIMT loop masks only ever
//!   narrow it);
//! * `block_id` — but **only** via `PerBlock`/`BlockProb` decision rng
//!   coordinates, `PerThread`/`ThreadProb` coordinates, or the
//!   `block_id / phase_len` quotient of `PerBlockPhase`;
//! * the lane thread ids — **only** via `PerThread`/`ThreadProb`
//!   coordinates, which mix in `block_id * tpb + w * 32 + lane`.
//!
//! [`TraceDeps`] records, from a static walk of the program, which of
//! those block/thread inputs the kernel can observe, and [`TraceKey`]
//! stores the observable inputs *verbatim* (no hash folding). Two warps
//! with equal keys therefore feed bit-identical inputs into a
//! deterministic walker and must produce bit-identical traces — there is
//! no collision to defend against, which is what lets the timing
//! simulator substitute interned traces without changing a single output
//! bit. A seeded property test
//! (`tests/golden_sim.rs::interner_key_never_collides_differing_traces`)
//! checks the claim against the walker anyway.
//!
//! ## What a profile observes beyond the trace
//!
//! [`crate::profile::profile_tb`] folds the same walker events into
//! counters, so a block's profile reads everything its warps' traces
//! read, plus one thing traces do not carry: addresses, through the
//! coalesced-line count of every global access. Auditing
//! `AddrPattern::lane_addr` in `tbpoint-ir`:
//!
//! * `Coalesced` / `Strided` — `C + gtid * stride` with `C` (region base
//!   plus an iteration slab) a multiple of the line size, so which lanes
//!   share a line depends on `gtid` only through `gtid mod LINE_BYTES`.
//!   With `gtid = block_id * tpb + warp * 32 + lane` that is one more
//!   block input: the residue `block_id * tpb mod LINE_BYTES`. It holds
//!   modulo 2^64 too, because the line size divides 2^64;
//! * `Broadcast` — no thread id at all;
//! * `Random` — hashes `gtid`: every block is distinct
//!   ([`TraceDeps::gather`]).
//!
//! So for a kernel with no `per_thread`, `per_block` or `gather`
//! dependence, a block's whole profile (stats and memory-instruction
//! count) is a function of its *block class*: the `block_id / phase_len`
//! quotients already in [`TraceKey`] plus that residue. `profile_launch`
//! profiles one block per class; `tests/profile_classes.rs` checks it
//! against `profile_tb` on every block.
//!
//! ## Memory discipline
//!
//! Traces are dropped when their block retires precisely so that peak
//! memory tracks *resident* blocks, not grid size. The arena must not
//! undo that, so it retains entries only when the key space is small:
//!
//! * block-invariant keys (mask + phase quotients) live in a global map
//!   — bounded by warp shapes × phase slices, shared by every block;
//! * block-varying keys (`PerBlock`/`BlockProb` kernels) are cached only
//!   for the most recently traced block — warps of one block are traced
//!   back-to-back at dispatch, so this still collapses the per-warp
//!   duplication without retaining per-block garbage;
//! * thread-varying kernels bypass the cache entirely (every key is
//!   distinct by construction) and are counted as `uncacheable`.

use crate::trace::{trace_warp, StaticTable, TraceEntry, TraceInst};
use crate::walker::initial_mask;
use std::collections::BTreeMap;
use std::sync::Arc;
use tbpoint_ir::{AddrPattern, Cond, ExecCtx, Kernel, Node, TripCount};

/// Which block- and thread-varying inputs a kernel can observe, derived
/// from a static walk of the program tree: the three control-flow
/// classes a warp trace depends on, plus the one address class only a
/// profile sees.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceDeps {
    /// Some decision reads the per-thread rng stream
    /// (`TripCount::PerThread` / `Cond::ThreadProb`).
    pub per_thread: bool,
    /// Some decision reads the per-block rng stream
    /// (`TripCount::PerBlock` / `Cond::BlockProb`).
    pub per_block: bool,
    /// Phase lengths of every `TripCount::PerBlockPhase` site (sorted,
    /// deduplicated); the trace sees `block_id / phase_len` for each.
    pub phase_lens: Vec<u32>,
    /// Some global access is `AddrPattern::Random`, whose addresses hash
    /// the thread id. Traces carry no addresses, so the interner ignores
    /// this; coalesced request counts (profiles) do depend on it.
    pub gather: bool,
}

impl TraceDeps {
    /// Analyse `kernel`'s program tree.
    pub fn of(kernel: &Kernel) -> Self {
        let mut deps = TraceDeps::default();
        kernel.program.visit(&mut |node| match node {
            Node::Loop { trips, .. } => match trips {
                TripCount::Const(_) => {}
                TripCount::PerBlock { .. } => deps.per_block = true,
                TripCount::PerThread { .. } => deps.per_thread = true,
                TripCount::PerBlockPhase { phase_len, .. } => {
                    deps.phase_lens.push((*phase_len).max(1));
                }
            },
            Node::If { cond, .. } => match cond {
                Cond::Always | Cond::Never | Cond::LaneLt(_) => {}
                Cond::BlockProb { .. } => deps.per_block = true,
                Cond::ThreadProb { .. } => deps.per_thread = true,
            },
            Node::Block { insts, .. } => {
                deps.gather |= insts
                    .iter()
                    .any(|i| matches!(i.op.addr_pattern(), Some(AddrPattern::Random { .. })));
            }
            Node::Seq(_) => {}
        });
        deps.phase_lens.sort_unstable();
        deps.phase_lens.dedup();
        deps
    }

    /// `block_id / phase_len` for each distinct `PerBlockPhase` length.
    pub(crate) fn phases(&self, block_id: u32) -> Vec<u32> {
        self.phase_lens.iter().map(|&pl| block_id / pl).collect()
    }
}

/// The exact trace-relevant inputs of one warp, under a fixed
/// (kernel, launch) pair. Equal keys imply bit-identical traces; see the
/// module docs for the derivation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceKey {
    /// Initial live-lane mask (warp position vs `threads_per_block`).
    pub mask: u32,
    /// `block_id`, included iff some decision observes the block
    /// (directly, or through per-thread ids).
    pub block: Option<u32>,
    /// Warp index within the block, included iff some decision observes
    /// per-thread ids (`gtid = block_id * tpb + warp * 32 + lane`).
    pub warp: Option<u32>,
    /// `block_id / phase_len` per distinct `PerBlockPhase` length —
    /// redundant (hence omitted) when `block` is already present.
    pub phases: Vec<u32>,
}

/// Interner traffic counters for one launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Warp traces served from the arena.
    pub hits: u64,
    /// Warp traces emulated and then cached.
    pub misses: u64,
    /// Warp traces emulated with caching bypassed (thread-varying
    /// kernels, or an arena built with caching disabled).
    pub uncacheable: u64,
    /// Trace instructions served from the arena (the emulation work the
    /// interner avoided).
    pub reused_warp_insts: u64,
    /// Trace instructions actually emulated.
    pub traced_warp_insts: u64,
}

impl InternStats {
    /// Total trace requests.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses + self.uncacheable
    }
}

/// A shared trace and its expansion; holding the entries keeps their
/// address, the key, from being reused.
type Expansion = (Arc<[TraceEntry]>, Arc<[TraceInst]>);

/// Per-launch warp-trace interner.
///
/// Callers must use one arena per `(kernel, launch)` pair: the key
/// deliberately omits `kernel_seed`, `launch_id` and `work_scale`
/// because they are launch constants. [`TraceArena::warp_entries`]
/// checks this in debug builds.
pub struct TraceArena {
    deps: TraceDeps,
    table: StaticTable,
    caching: bool,
    /// Block-invariant entries, retained for the whole launch.
    global: BTreeMap<TraceKey, Arc<[TraceEntry]>>,
    /// Block-varying entries for the most recently traced block only.
    block_local: BTreeMap<u32, Arc<[TraceEntry]>>,
    block_local_id: Option<u32>,
    /// `warp_trace`'s expansions of shared traces, by entry address: the
    /// harness holds every trace of a launch, so expanding per request
    /// would keep one copy per warp where the arena keeps one per shape.
    expanded: BTreeMap<usize, Expansion>,
    #[cfg(debug_assertions)]
    bound: Option<(u64, tbpoint_ir::LaunchId, f64)>,
    /// Hit/miss/bypass counters.
    pub stats: InternStats,
}

impl TraceArena {
    /// An empty arena for one launch of `kernel`.
    pub fn new(kernel: &Kernel) -> Self {
        Self::with_caching(kernel, true)
    }

    /// An arena with interning optionally disabled (every request is
    /// emulated fresh) — the reference path for bit-identity tests.
    pub fn with_caching(kernel: &Kernel, caching: bool) -> Self {
        TraceArena {
            deps: TraceDeps::of(kernel),
            table: StaticTable::of(kernel),
            caching,
            global: BTreeMap::new(),
            block_local: BTreeMap::new(),
            block_local_id: None,
            expanded: BTreeMap::new(),
            #[cfg(debug_assertions)]
            bound: None,
            stats: InternStats::default(),
        }
    }

    /// The dependence classes the arena derived from the program.
    pub fn deps(&self) -> &TraceDeps {
        &self.deps
    }

    /// The static instructions every trace entry of the launch indexes.
    pub fn table(&self) -> &StaticTable {
        &self.table
    }

    /// The exact interning key of warp `warp_id` of block `ctx.block_id`.
    pub fn key(&self, kernel: &Kernel, ctx: &ExecCtx, warp_id: u32) -> TraceKey {
        let block_observed = self.deps.per_block || self.deps.per_thread;
        TraceKey {
            mask: initial_mask(kernel, warp_id),
            block: block_observed.then_some(ctx.block_id),
            warp: self.deps.per_thread.then_some(warp_id),
            phases: if block_observed {
                Vec::new()
            } else {
                self.deps.phases(ctx.block_id)
            },
        }
    }

    /// The trace of warp `warp_id` of block `ctx.block_id`, served from
    /// the arena when an identical warp was traced before.
    pub fn warp_entries(
        &mut self,
        kernel: &Kernel,
        ctx: &ExecCtx,
        warp_id: u32,
    ) -> Arc<[TraceEntry]> {
        #[cfg(debug_assertions)]
        {
            let b = (ctx.kernel_seed, ctx.launch_id, ctx.work_scale);
            debug_assert!(
                *self.bound.get_or_insert(b) == b,
                "TraceArena reused across launches"
            );
        }
        if !self.caching || self.deps.per_thread {
            self.stats.uncacheable += 1;
            return self.trace_fresh(kernel, ctx, warp_id);
        }
        if self.deps.per_block {
            // Block-varying: cache within the current block only.
            if self.block_local_id != Some(ctx.block_id) {
                self.block_local.clear();
                self.block_local_id = Some(ctx.block_id);
            }
            let mask = initial_mask(kernel, warp_id);
            if let Some(t) = self.block_local.get(&mask) {
                self.stats.hits += 1;
                self.stats.reused_warp_insts += t.len() as u64;
                return Arc::clone(t);
            }
            let t = self.trace_fresh(kernel, ctx, warp_id);
            self.stats.misses += 1;
            self.block_local.insert(mask, Arc::clone(&t));
            return t;
        }
        // Block-invariant: retained for the whole launch.
        let key = self.key(kernel, ctx, warp_id);
        if let Some(t) = self.global.get(&key) {
            self.stats.hits += 1;
            self.stats.reused_warp_insts += t.len() as u64;
            return Arc::clone(t);
        }
        let t = self.trace_fresh(kernel, ctx, warp_id);
        self.stats.misses += 1;
        self.global.insert(key, Arc::clone(&t));
        t
    }

    fn trace_fresh(&mut self, kernel: &Kernel, ctx: &ExecCtx, warp_id: u32) -> Arc<[TraceEntry]> {
        let t = trace_warp(kernel, &self.table, ctx, warp_id);
        self.stats.traced_warp_insts += t.len() as u64;
        t.into()
    }

    /// [`TraceArena::warp_entries`] with every entry expanded through the
    /// table, for the benchmark harness. A trace the arena shares is
    /// expanded once, so the expansions share as the entries do.
    #[doc(hidden)]
    pub fn warp_trace(&mut self, kernel: &Kernel, ctx: &ExecCtx, warp_id: u32) -> Arc<[TraceInst]> {
        let entries = self.warp_entries(kernel, ctx, warp_id);
        let addr = entries.as_ptr().addr();
        if let Some((_, t)) = self.expanded.get(&addr) {
            return Arc::clone(t);
        }
        let t: Arc<[TraceInst]> = entries.iter().map(|&e| self.table.expand(e)).collect();
        if Arc::strong_count(&entries) > 1 {
            self.expanded.insert(addr, (entries, Arc::clone(&t)));
        }
        t
    }

    /// Number of retained (block-invariant) entries.
    pub fn retained_entries(&self) -> usize {
        self.global.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbpoint_ir::{Dist, KernelBuilder, LaunchId, Op};

    fn ctx(block: u32) -> ExecCtx {
        ExecCtx {
            kernel_seed: 77,
            launch_id: LaunchId(0),
            block_id: block,
            num_blocks: 256,
            work_scale: 1.0,
        }
    }

    fn regular_kernel() -> Kernel {
        let mut b = KernelBuilder::new("reg", 77, 128);
        let body = b.block(&[
            Op::IAlu,
            Op::LdGlobal(AddrPattern::Coalesced {
                region: 0,
                stride: 4,
            }),
        ]);
        let n = b.loop_(TripCount::Const(6), body);
        b.finish(n)
    }

    fn per_block_kernel() -> Kernel {
        let mut b = KernelBuilder::new("blk", 77, 128);
        let site = b.fresh_site();
        let body = b.block(&[Op::IAlu]);
        let n = b.loop_(
            TripCount::PerBlock {
                base: 1,
                spread: 9,
                dist: Dist::Uniform,
                site,
            },
            body,
        );
        b.finish(n)
    }

    fn per_thread_kernel() -> Kernel {
        let mut b = KernelBuilder::new("thr", 77, 128);
        let site = b.fresh_site();
        let body = b.block(&[Op::IAlu]);
        let n = b.loop_(
            TripCount::PerThread {
                base: 1,
                spread: 9,
                dist: Dist::Uniform,
                site,
            },
            body,
        );
        b.finish(n)
    }

    fn phase_kernel() -> Kernel {
        let mut b = KernelBuilder::new("ph", 77, 64);
        let site = b.fresh_site();
        let body = b.block(&[Op::FAlu]);
        let n = b.loop_(
            TripCount::PerBlockPhase {
                base: 1,
                spread: 9,
                phase_len: 8,
                dist: Dist::Uniform,
                site,
            },
            body,
        );
        b.finish(n)
    }

    #[test]
    fn deps_classify_kernels() {
        assert_eq!(TraceDeps::of(&regular_kernel()), TraceDeps::default());
        assert!(TraceDeps::of(&per_block_kernel()).per_block);
        assert!(TraceDeps::of(&per_thread_kernel()).per_thread);
        assert_eq!(TraceDeps::of(&phase_kernel()).phase_lens, vec![8]);
    }

    #[test]
    fn interned_traces_match_fresh_everywhere() {
        for kernel in [
            regular_kernel(),
            per_block_kernel(),
            per_thread_kernel(),
            phase_kernel(),
        ] {
            let mut arena = TraceArena::new(&kernel);
            for block in 0..24 {
                for w in 0..kernel.warps_per_block() {
                    let interned = arena.warp_entries(&kernel, &ctx(block), w);
                    let fresh = trace_warp(&kernel, arena.table(), &ctx(block), w);
                    assert_eq!(&interned[..], &fresh[..], "{} b{block} w{w}", kernel.name);
                }
            }
        }
    }

    #[test]
    fn expanded_traces_decode_and_share_like_their_entries() {
        for kernel in [regular_kernel(), per_block_kernel(), per_thread_kernel()] {
            let mut arena = TraceArena::new(&kernel);
            let mut reference = TraceArena::new(&kernel);
            let mut last = None;
            for block in 0..3 {
                for w in 0..kernel.warps_per_block() {
                    let expanded = arena.warp_trace(&kernel, &ctx(block), w);
                    let entries = reference.warp_entries(&kernel, &ctx(block), w);
                    let table = reference.table();
                    let decoded: Vec<TraceInst> =
                        entries.iter().map(|&e| table.expand(e)).collect();
                    assert_eq!(&expanded[..], &decoded[..], "{} b{block} w{w}", kernel.name);
                    if let Some(prev) = last.replace(Arc::clone(&expanded)) {
                        let shared = match kernel.name.as_str() {
                            "reg" => true,
                            "blk" => w > 0,
                            _ => false,
                        };
                        assert_eq!(Arc::ptr_eq(&prev, &expanded), shared, "{}", kernel.name);
                    }
                }
            }
        }
    }

    #[test]
    fn regular_kernel_collapses_to_one_trace() {
        let kernel = regular_kernel(); // 128 threads = 4 full warps
        let mut arena = TraceArena::new(&kernel);
        for block in 0..50 {
            for w in 0..kernel.warps_per_block() {
                arena.warp_entries(&kernel, &ctx(block), w);
            }
        }
        assert_eq!(arena.stats.misses, 1);
        assert_eq!(arena.stats.hits, 199);
        assert_eq!(arena.stats.uncacheable, 0);
        assert_eq!(arena.retained_entries(), 1);
    }

    #[test]
    fn partial_warp_gets_its_own_entry() {
        let mut b = KernelBuilder::new("part", 77, 40); // warp 1 has 8 lanes
        let n = b.block(&[Op::IAlu]);
        let kernel = b.finish(n);
        let mut arena = TraceArena::new(&kernel);
        let full = arena.warp_entries(&kernel, &ctx(0), 0);
        let part = arena.warp_entries(&kernel, &ctx(0), 1);
        assert_ne!(&full[..], &part[..]);
        assert_eq!(arena.stats.misses, 2);
    }

    #[test]
    fn per_block_kernel_shares_within_a_block_only() {
        let kernel = per_block_kernel(); // 4 warps per block
        let mut arena = TraceArena::new(&kernel);
        for block in 0..10 {
            for w in 0..kernel.warps_per_block() {
                arena.warp_entries(&kernel, &ctx(block), w);
            }
        }
        // One miss per block, the other three warps hit.
        assert_eq!(arena.stats.misses, 10);
        assert_eq!(arena.stats.hits, 30);
        // Nothing retained across blocks.
        assert_eq!(arena.retained_entries(), 0);
    }

    #[test]
    fn per_thread_kernel_bypasses_the_cache() {
        let kernel = per_thread_kernel();
        let mut arena = TraceArena::new(&kernel);
        for w in 0..kernel.warps_per_block() {
            arena.warp_entries(&kernel, &ctx(0), w);
        }
        assert_eq!(arena.stats.uncacheable, 4);
        assert_eq!(arena.stats.hits + arena.stats.misses, 0);
    }

    #[test]
    fn phase_kernel_retains_one_entry_per_slice() {
        let kernel = phase_kernel(); // 2 warps, phase_len 8
        let mut arena = TraceArena::new(&kernel);
        for block in 0..32 {
            for w in 0..kernel.warps_per_block() {
                arena.warp_entries(&kernel, &ctx(block), w);
            }
        }
        // 32 blocks / 8 per slice = 4 slices; one shared trace each.
        assert_eq!(arena.retained_entries(), 4);
        assert_eq!(arena.stats.misses, 4);
        assert_eq!(arena.stats.hits, 60);
    }

    #[test]
    fn disabled_caching_is_all_bypass() {
        let kernel = regular_kernel();
        let mut arena = TraceArena::with_caching(&kernel, false);
        for w in 0..kernel.warps_per_block() {
            arena.warp_entries(&kernel, &ctx(0), w);
        }
        assert_eq!(arena.stats.uncacheable, 4);
        assert_eq!(arena.retained_entries(), 0);
    }

    #[test]
    fn keys_differ_when_observed_inputs_differ() {
        let kernel = per_thread_kernel();
        let arena = TraceArena::new(&kernel);
        let a = arena.key(&kernel, &ctx(1), 0);
        assert_ne!(a, arena.key(&kernel, &ctx(2), 0), "block observed");
        assert_ne!(a, arena.key(&kernel, &ctx(1), 1), "warp observed");

        let kernel = phase_kernel();
        let arena = TraceArena::new(&kernel);
        assert_eq!(
            arena.key(&kernel, &ctx(0), 0),
            arena.key(&kernel, &ctx(7), 0),
            "same phase slice"
        );
        assert_ne!(
            arena.key(&kernel, &ctx(0), 0),
            arena.key(&kernel, &ctx(8), 0),
            "next phase slice"
        );
    }
}
