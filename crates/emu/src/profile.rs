//! Hardware-independent profiling: the GPUOcelot role.
//!
//! Per thread block we keep exactly the counters the paper's two
//! samplers need (Sections III and IV-B1), one 24-byte [`TbStats`]:
//!
//! * `thread_insts` — kernel-launch-size feature, and the per-TB "thread
//!   block size" that classifies kernels as regular/irregular (Fig. 8);
//! * `warp_insts` — control-flow-divergence feature, and the denominator
//!   of the per-TB stall probability;
//! * `mem_requests` — memory-divergence feature, and the numerator of the
//!   stall probability `p ≈ mem_requests / warp_insts`.
//!
//! How a launch holds them depends on the kernel. Where a block's stats
//! are a function of its class ([`BlockClasses`]), the launch keeps one
//! `TbStats` per class, the blocks per class and a 2-byte class id per
//! block; otherwise one `TbStats` per block. Readers see one interface
//! either way ([`LaunchProfile::tb`], [`LaunchProfile::tbs`], the launch
//! totals), and every float derived from it is summed in block order.
//!
//! There is nothing else: no per-launch totals beyond the blocks' sums
//! and no launch BBV. The inter-launch features are Eq. 2's four, and the
//! Ideal-SimPoint baseline reads the simulator's per-unit BBVs.
//!
//! Profiling is one-time per kernel/input pair: every downstream artifact
//! (inter-launch clustering, epoch tables for any occupancy) derives from
//! these records without re-running the emulator. The profile lives in
//! the process that made it, which re-clusters it for every GPU
//! configuration; it is never written to a file or read back.

use crate::intern::TraceDeps;
use crate::walker::WarpWalk;
use std::collections::BTreeMap;
use std::ops::Range;
use tbpoint_ir::inst::{CoalescedLines, LINE_BYTES};
use tbpoint_ir::{ExecCtx, Kernel, KernelRun, LaunchSpec};
use tbpoint_stats::cov_of;

/// The per-TB feature statistics both samplers consume. The profile
/// keeps one per block (or per block class), and the timing simulator
/// reproduces the same counts at block retirement: they are hardware
/// independent, so a stream of `TbStats` from the live sampler is an
/// incremental, on-the-fly profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TbStats {
    /// Warp instructions executed.
    pub warp_insts: u64,
    /// Thread instructions executed (sum of active lanes).
    pub thread_insts: u64,
    /// Global-memory requests after intra-warp coalescing.
    pub mem_requests: u64,
}

impl TbStats {
    /// The paper's per-TB stall probability approximation:
    /// `mem_requests / warp_insts` (Eq. 5). Zero for an empty TB.
    pub fn stall_probability(&self) -> f64 {
        if self.warp_insts == 0 {
            0.0
        } else {
            self.mem_requests as f64 / self.warp_insts as f64
        }
    }
}

/// Profile of one kernel launch: per-TB statistics plus launch totals.
///
/// Blocks are read through [`LaunchProfile::tb`] and
/// [`LaunchProfile::tbs`]; how they are held is private. A launch
/// profiled by class ([`BlockClasses`]) keeps one [`TbStats`] per class
/// and a 2-byte class id per block; every other launch keeps one
/// `TbStats` per block.
#[derive(Debug, Clone)]
pub struct LaunchProfile {
    /// Which launch this is.
    pub spec: LaunchSpec,
    /// Per-thread-block statistics, in one of two forms.
    blocks: Blocks,
}

/// How a [`LaunchProfile`] holds its blocks' stats.
#[derive(Debug, Clone)]
enum Blocks {
    /// One record per block, by block id.
    PerBlock(Vec<TbStats>),
    /// One record per class, in order of first sight.
    Classes {
        /// Each class's stats.
        table: Vec<TbStats>,
        /// Blocks per class, parallel to `table`.
        counts: Vec<u64>,
        /// Each block's class (an index into `table`), by block id.
        ids: Vec<u16>,
    },
}

/// Blocks of a [`LaunchProfile`] in block order ([`LaunchProfile::tbs`]).
/// A class id outside the class table reads as an empty block:
/// `validate_launch_profile` rejects such a profile before it is
/// sampled against, and no reader panics on it before then.
#[derive(Debug, Clone)]
pub struct Tbs<'a>(TbsForm<'a>);

/// What a [`Tbs`] walks.
#[derive(Debug, Clone)]
enum TbsForm<'a> {
    /// Per-block records.
    PerBlock(std::slice::Iter<'a, TbStats>),
    /// The remaining blocks' class ids, looked up in the class table.
    Classes {
        table: &'a [TbStats],
        ids: std::slice::Iter<'a, u16>,
    },
}

/// `table[id]`, or an empty block for an id past the table.
#[inline]
fn class_stats(table: &[TbStats], id: u16) -> TbStats {
    table.get(usize::from(id)).copied().unwrap_or_default()
}

impl Iterator for Tbs<'_> {
    type Item = TbStats;

    #[inline]
    fn next(&mut self) -> Option<TbStats> {
        match &mut self.0 {
            TbsForm::PerBlock(it) => it.next().copied(),
            TbsForm::Classes { table, ids } => ids.next().map(|&id| class_stats(table, id)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            TbsForm::PerBlock(it) => it.size_hint(),
            TbsForm::Classes { ids, .. } => ids.size_hint(),
        }
    }

    /// One match, then a tight loop over the records or class ids (`sum`,
    /// `for_each` and `map(..).sum()` all fold).
    #[inline]
    fn fold<B, F: FnMut(B, TbStats) -> B>(self, init: B, mut f: F) -> B {
        match self.0 {
            TbsForm::PerBlock(it) => it.fold(init, |acc, t| f(acc, *t)),
            TbsForm::Classes { table, ids } => {
                ids.fold(init, |acc, &id| f(acc, class_stats(table, id)))
            }
        }
    }
}

impl ExactSizeIterator for Tbs<'_> {}

/// Two profiles are equal when they describe the same blocks, whichever
/// form holds them.
impl PartialEq for LaunchProfile {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.num_blocks() == other.num_blocks()
            && self.tbs().eq(other.tbs())
    }
}

/// The four inter-launch features of Eq. 2, *before* normalisation by the
/// per-feature averages (normalisation needs all launches, so it happens
/// in `tbpoint-core`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterFeatures {
    /// Kernel launch size: total thread instructions.
    pub thread_insts: f64,
    /// Control-flow divergence proxy: total warp instructions.
    pub warp_insts: f64,
    /// Memory divergence: total memory requests.
    pub mem_requests: f64,
    /// Thread-block variation: CoV of per-TB sizes.
    pub tb_size_cov: f64,
}

impl InterFeatures {
    /// As a clustering point (fixed dimension order).
    pub fn to_point(self) -> Vec<f64> {
        vec![
            self.thread_insts,
            self.warp_insts,
            self.mem_requests,
            self.tb_size_cov,
        ]
    }
}

impl LaunchProfile {
    /// A profile holding one record per block, by block id.
    pub fn per_block(spec: LaunchSpec, tbs: Vec<TbStats>) -> Self {
        LaunchProfile {
            spec,
            blocks: Blocks::PerBlock(tbs),
        }
    }

    /// Number of thread blocks the profile holds (for a sound profile,
    /// `spec.num_blocks`).
    pub fn num_blocks(&self) -> usize {
        match &self.blocks {
            Blocks::PerBlock(tbs) => tbs.len(),
            Blocks::Classes { ids, .. } => ids.len(),
        }
    }

    /// Block `i`'s stats, or `None` past the last block.
    pub fn tb(&self, i: usize) -> Option<TbStats> {
        match &self.blocks {
            Blocks::PerBlock(tbs) => tbs.get(i).copied(),
            Blocks::Classes { table, ids, .. } => ids.get(i).map(|&id| class_stats(table, id)),
        }
    }

    /// Every block's stats, in block order.
    pub fn tbs(&self) -> Tbs<'_> {
        self.tbs_in(0..self.num_blocks())
    }

    /// Blocks `range.start..range.end` in block order. Panics if the
    /// range runs past [`LaunchProfile::num_blocks`].
    pub fn tbs_in(&self, range: Range<usize>) -> Tbs<'_> {
        Tbs(match &self.blocks {
            Blocks::PerBlock(tbs) => TbsForm::PerBlock(tbs[range].iter()),
            Blocks::Classes { table, ids, .. } => TbsForm::Classes {
                table,
                ids: ids[range].iter(),
            },
        })
    }

    /// The number of block classes, or `None` when the profile holds one
    /// record per block.
    pub fn num_classes(&self) -> Option<usize> {
        match &self.blocks {
            Blocks::PerBlock(_) => None,
            Blocks::Classes { table, .. } => Some(table.len()),
        }
    }

    /// Heap bytes the profile holds: its block records, class ids and
    /// counts.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        match &self.blocks {
            Blocks::PerBlock(tbs) => tbs.capacity() * size_of::<TbStats>(),
            Blocks::Classes { table, counts, ids } => {
                table.capacity() * size_of::<TbStats>()
                    + counts.capacity() * size_of::<u64>()
                    + ids.capacity() * size_of::<u16>()
            }
        }
    }

    /// Whether the class ids can be trusted: each names a row of the class
    /// table, and each class's block count is the number of blocks naming
    /// it. Always `Ok` for a per-block profile. A profile read from a
    /// damaged file can fail this; [`profile_launch`]'s cannot.
    pub fn check_classes(&self) -> Result<(), String> {
        let Blocks::Classes { table, counts, ids } = &self.blocks else {
            return Ok(());
        };
        let mut seen = vec![0u64; table.len()];
        for (b, &id) in ids.iter().enumerate() {
            match seen.get_mut(usize::from(id)) {
                Some(n) => *n += 1,
                None => {
                    return Err(format!(
                        "block {b} names class {id}, the profile has {}",
                        table.len()
                    ))
                }
            }
        }
        if seen != *counts {
            return Err("class counts disagree with the blocks' class ids".to_string());
        }
        Ok(())
    }

    /// Edit the blocks as one record per block, by block id, converting a
    /// class-table profile to that form first (fault injection perturbs
    /// blocks one by one).
    pub fn edit_per_block(&mut self, f: impl FnOnce(&mut Vec<TbStats>)) {
        let mut tbs = match std::mem::replace(&mut self.blocks, Blocks::PerBlock(Vec::new())) {
            Blocks::PerBlock(tbs) => tbs,
            Blocks::Classes { table, ids, .. } => {
                ids.iter().map(|&id| class_stats(&table, id)).collect()
            }
        };
        f(&mut tbs);
        self.blocks = Blocks::PerBlock(tbs);
    }

    /// The class ids of a class-table profile, by block id, or `None` for
    /// a per-block profile. Editing them leaves the class counts as they
    /// were, which is how a damaged profile file looks (fault injection).
    pub fn class_ids_mut(&mut self) -> Option<&mut Vec<u16>> {
        match &mut self.blocks {
            Blocks::PerBlock(_) => None,
            Blocks::Classes { ids, .. } => Some(ids),
        }
    }

    /// `f`'s sum over the launch's blocks: per class times its count on a
    /// class-table profile, block by block otherwise. Integer sums, so the
    /// two agree exactly.
    fn total(&self, f: impl Fn(&TbStats) -> u64) -> u64 {
        match &self.blocks {
            Blocks::PerBlock(tbs) => tbs.iter().map(f).sum(),
            Blocks::Classes { table, counts, .. } => {
                table.iter().zip(counts).map(|(t, &n)| n * f(t)).sum()
            }
        }
    }

    /// Total thread instructions in the launch.
    pub fn thread_insts(&self) -> u64 {
        self.total(|t| t.thread_insts)
    }

    /// Total warp instructions in the launch.
    pub fn warp_insts(&self) -> u64 {
        self.total(|t| t.warp_insts)
    }

    /// Total memory requests in the launch.
    pub fn mem_requests(&self) -> u64 {
        self.total(|t| t.mem_requests)
    }

    /// CoV of thread-block sizes (the fourth feature of Eq. 2), summed in
    /// block order without collecting the sizes.
    pub fn tb_size_cov(&self) -> f64 {
        cov_of(|| self.tbs().map(|t| t.thread_insts as f64))
    }

    /// The raw (unnormalised) inter-launch feature tuple.
    pub fn inter_features(&self) -> InterFeatures {
        InterFeatures {
            thread_insts: self.thread_insts() as f64,
            warp_insts: self.warp_insts() as f64,
            mem_requests: self.mem_requests() as f64,
            tb_size_cov: self.tb_size_cov(),
        }
    }
}

/// Profile of a whole benchmark run (every launch).
#[derive(Debug, Clone, PartialEq)]
pub struct RunProfile {
    /// Kernel name (Table VI abbreviation).
    pub kernel_name: String,
    /// Per-launch profiles, in launch order.
    pub launches: Vec<LaunchProfile>,
}

impl RunProfile {
    /// Total warp instructions across every launch (denominator of the
    /// total-sample-size metric, Fig. 10).
    pub fn total_warp_insts(&self) -> u64 {
        self.launches.iter().map(|l| l.warp_insts()).sum()
    }

    /// Total thread instructions across every launch.
    pub fn total_thread_insts(&self) -> u64 {
        self.launches.iter().map(|l| l.thread_insts()).sum()
    }
}

/// Profile one thread block (single-threaded, streaming).
pub fn profile_tb(kernel: &Kernel, ctx: &ExecCtx) -> TbStats {
    let mut s = TbStats::default();
    let mut lines = CoalescedLines::default();
    for warp in 0..kernel.warps_per_block() {
        let gtid_base = ctx.block_id as u64 * kernel.threads_per_block as u64 + warp as u64 * 32;
        for ev in WarpWalk::new(kernel, ctx, warp) {
            s.warp_insts += 1;
            s.thread_insts += ev.mask.count_ones() as u64;
            // Exactly the global-memory ops carry an address pattern.
            if let Some(pat) = ev.inst.op.addr_pattern() {
                pat.coalesced_lines_into(
                    ctx,
                    gtid_base,
                    ev.mask,
                    ev.iter_key,
                    ev.inst.site,
                    &mut lines,
                );
                s.mem_requests += lines.len() as u64;
            }
        }
    }
    s
}

/// Why the blocks of `kernel` must each be profiled, or `None` when a
/// block's profile is a function of its class (see [`block_class`]).
fn per_block_reason(deps: &TraceDeps) -> Option<&'static str> {
    if deps.per_thread {
        Some("thread-varying control flow")
    } else if deps.per_block {
        Some("block-varying control flow")
    } else if deps.gather {
        Some("gather addresses")
    } else {
        None
    }
}

/// Writes into `key` everything [`profile_tb`] reads from `block_id`
/// when [`per_block_reason`] is `None`: the phase quotients its control
/// flow sees, then the residue that fixes how every warp's affine
/// addresses fall across cache lines (derivation in [`crate::intern`]'s
/// module docs). Blocks with equal keys have equal stats. Reusing `key`
/// keeps the class path free of per-block allocation.
fn block_class(deps: &TraceDeps, kernel: &Kernel, block_id: u32, key: &mut Vec<u64>) {
    key.clear();
    key.extend(deps.phase_lens.iter().map(|&pl| u64::from(block_id / pl)));
    key.push(block_id as u64 * kernel.threads_per_block as u64 % LINE_BYTES);
}

/// Block `block_id` of `spec`'s launch of `kernel`.
fn block_ctx(kernel: &Kernel, spec: &LaunchSpec, block_id: u32) -> ExecCtx {
    ExecCtx {
        kernel_seed: kernel.seed,
        launch_id: spec.launch_id,
        block_id,
        num_blocks: spec.num_blocks,
        work_scale: spec.work_scale,
    }
}

/// A launch's blocks as a function of their class: for a kernel with
/// block-invariant control flow and affine addresses, every block with
/// the same `block_class` key has the same profile, so one emulated
/// block per class answers for all of them. The one definition of that
/// fact: [`profile_launch`] stamps its class path from it, and the live
/// sampler reads skipped blocks' exact stats from it.
#[derive(Debug)]
pub struct BlockClasses<'k> {
    kernel: &'k Kernel,
    spec: LaunchSpec,
    deps: TraceDeps,
    /// The key of the block being looked up (reused, so lookups of
    /// known classes do not allocate).
    key: Vec<u64>,
    /// Slot in `classes` by class key.
    index: BTreeMap<Vec<u64>, usize>,
    /// Each class's stats, in order of first sight.
    classes: Vec<TbStats>,
}

impl<'k> BlockClasses<'k> {
    /// The classes of `spec`'s blocks, or `None` when `kernel`'s blocks
    /// must each be emulated (thread- or block-varying control flow, or
    /// gather addresses).
    pub fn new(kernel: &'k Kernel, spec: &LaunchSpec) -> Option<Self> {
        Self::or_reason(kernel, spec).ok()
    }

    /// [`BlockClasses::new`], saying why there are no classes.
    fn or_reason(kernel: &'k Kernel, spec: &LaunchSpec) -> Result<Self, &'static str> {
        let deps = TraceDeps::of(kernel);
        if let Some(reason) = per_block_reason(&deps) {
            return Err(reason);
        }
        Ok(BlockClasses {
            kernel,
            spec: *spec,
            deps,
            key: Vec::new(),
            index: BTreeMap::new(),
            classes: Vec::new(),
        })
    }

    /// The slot of `block`'s class, emulating the block if its class is
    /// new.
    fn slot(&mut self, block: u32) -> usize {
        block_class(&self.deps, self.kernel, block, &mut self.key);
        if let Some(&slot) = self.index.get(self.key.as_slice()) {
            return slot;
        }
        let ctx = block_ctx(self.kernel, &self.spec, block);
        self.classes.push(profile_tb(self.kernel, &ctx));
        self.index.insert(self.key.clone(), self.classes.len() - 1);
        self.classes.len() - 1
    }

    /// `block`'s profile, exactly as [`profile_tb`] would count it.
    pub fn stats(&mut self, block: u32) -> TbStats {
        let slot = self.slot(block);
        self.classes[slot]
    }
}

/// How many distinct block classes [`profile_launch`] emulates for this
/// launch, or why it emulates every block instead.
pub fn block_classes(kernel: &Kernel, spec: &LaunchSpec) -> Result<usize, &'static str> {
    let mut classes = BlockClasses::or_reason(kernel, spec)?;
    for b in 0..spec.num_blocks {
        classes.slot(b);
    }
    Ok(classes.classes.len())
}

/// Profile every thread block of a launch, serially. Output order is by
/// TB id.
///
/// A kernel with block-invariant control flow and affine addresses is
/// emulated once per block class ([`BlockClasses`]): the profile keeps
/// each class's stats once and each block's class id. Every other kernel
/// has each of its TBs emulated.
pub fn profile_launch(kernel: &Kernel, spec: &LaunchSpec) -> LaunchProfile {
    let blocks = match BlockClasses::new(kernel, spec) {
        Some(classes) => class_blocks(classes),
        None => Blocks::PerBlock(
            (0..spec.num_blocks)
                .map(|b| profile_tb(kernel, &block_ctx(kernel, spec, b)))
                .collect(),
        ),
    };
    LaunchProfile {
        spec: *spec,
        blocks,
    }
}

/// The class path of [`profile_launch`]: every block's class id, and each
/// class's stats and block count. A launch with more classes than a
/// 2-byte id can name (a phase length of a few blocks over a huge launch)
/// keeps one record per block instead.
fn class_blocks(mut classes: BlockClasses<'_>) -> Blocks {
    let n = classes.spec.num_blocks as usize;
    let mut ids: Vec<u16> = Vec::with_capacity(n);
    // Blocks per class, by slot.
    let mut counts: Vec<u64> = Vec::new();
    // Every block's stats, once a class id outgrows `u16`.
    let mut wide: Option<Vec<TbStats>> = None;
    for b in 0..classes.spec.num_blocks {
        let slot = classes.slot(b);
        if slot == counts.len() {
            counts.push(0);
        }
        counts[slot] += 1;
        match (&mut wide, u16::try_from(slot)) {
            (None, Ok(id)) => ids.push(id),
            (Some(tbs), _) => tbs.push(classes.classes[slot]),
            (None, Err(_)) => {
                let mut tbs = Vec::with_capacity(n);
                tbs.extend(ids.iter().map(|&id| classes.classes[usize::from(id)]));
                tbs.push(classes.classes[slot]);
                ids = Vec::new();
                wide = Some(tbs);
            }
        }
    }
    match wide {
        Some(tbs) => Blocks::PerBlock(tbs),
        None => Blocks::Classes {
            table: classes.classes,
            counts,
            ids,
        },
    }
}

/// Profile a whole benchmark run (all launches), serially.
/// `_threads` is ignored: it once fanned a launch's blocks out over
/// scoped threads and stays in the signature for the frozen `benchmark/`
/// harness. Launches go in parallel on the pool (`tbpoint inspect` maps
/// [`profile_launch`] over it).
pub fn profile_run(run: &KernelRun, _threads: usize) -> RunProfile {
    RunProfile {
        kernel_name: run.kernel.name.clone(),
        launches: run
            .launches
            .iter()
            .map(|spec| profile_launch(&run.kernel, spec))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbpoint_ir::{AddrPattern, Cond, Dist, KernelBuilder, LaunchId, Op, TripCount};

    fn launch(n_blocks: u32) -> LaunchSpec {
        LaunchSpec {
            launch_id: LaunchId(0),
            num_blocks: n_blocks,
            work_scale: 1.0,
        }
    }

    fn simple_kernel(tpb: u32) -> Kernel {
        let mut b = KernelBuilder::new("t", 5, tpb);
        let body = b.block(&[
            Op::IAlu,
            Op::LdGlobal(AddrPattern::Coalesced {
                region: 0,
                stride: 4,
            }),
        ]);
        let n = b.loop_(TripCount::Const(4), body);
        b.finish(n)
    }

    #[test]
    fn counts_straight_line_kernel() {
        let k = simple_kernel(64); // 2 warps
        let ctx = ExecCtx {
            kernel_seed: 5,
            launch_id: LaunchId(0),
            block_id: 0,
            num_blocks: 1,
            work_scale: 1.0,
        };
        let p = profile_tb(&k, &ctx);
        // 2 warps * 4 iterations * 2 insts = 16 warp insts.
        assert_eq!(p.warp_insts, 16);
        assert_eq!(p.thread_insts, 16 * 32);
        // 1 coalesced load per iteration per warp = 8 requests (32 lanes x
        // 4B = 1 line each).
        assert_eq!(p.mem_requests, 8);
        assert!((p.stall_probability() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn divergence_reduces_thread_insts_not_warp_insts() {
        let mut b = KernelBuilder::new("t", 5, 32);
        let t = b.block(&[Op::IAlu]);
        let n = b.if_(Cond::LaneLt(8), t, None);
        let k = b.finish(n);
        let ctx = ExecCtx {
            kernel_seed: 5,
            launch_id: LaunchId(0),
            block_id: 0,
            num_blocks: 1,
            work_scale: 1.0,
        };
        let p = profile_tb(&k, &ctx);
        assert_eq!(p.warp_insts, 1);
        assert_eq!(p.thread_insts, 8);
    }

    #[test]
    fn strided_loads_inflate_mem_requests() {
        let mut b = KernelBuilder::new("t", 5, 32);
        let n = b.block(&[Op::LdGlobal(AddrPattern::Strided {
            region: 0,
            stride: 128,
        })]);
        let k = b.finish(n);
        let ctx = ExecCtx {
            kernel_seed: 5,
            launch_id: LaunchId(0),
            block_id: 0,
            num_blocks: 1,
            work_scale: 1.0,
        };
        let p = profile_tb(&k, &ctx);
        assert_eq!(p.warp_insts, 1);
        assert_eq!(p.mem_requests, 32);
        assert_eq!(p.stall_probability(), 32.0);
    }

    #[test]
    fn launch_aggregates_sum_tbs() {
        let k = simple_kernel(64);
        let lp = profile_launch(&k, &launch(10));
        assert_eq!(lp.num_blocks(), 10);
        // 64 threads per block: first-thread ids at two line residues.
        assert_eq!(lp.num_classes(), Some(2));
        assert_eq!(lp.thread_insts(), 10 * 16 * 32);
        assert_eq!(lp.warp_insts(), 160);
        // Stamped class copies still add every block into the totals.
        assert_eq!(lp.mem_requests(), 80);
        let f = lp.inter_features();
        assert_eq!(f.thread_insts, (10 * 16 * 32) as f64);
        // Homogeneous TBs: CoV must be 0.
        assert_eq!(f.tb_size_cov, 0.0);
    }

    /// A class-table profile reads like the per-block profile it stands
    /// for, and turns into that per-block profile when edited block by
    /// block.
    #[test]
    fn class_table_reads_like_its_blocks() {
        let k = simple_kernel(96);
        let lp = profile_launch(&k, &launch(10));
        assert_eq!(lp.num_classes(), Some(4));
        let blocks: Vec<TbStats> = lp.tbs().collect();
        let per_block = LaunchProfile::per_block(lp.spec, blocks.clone());
        assert_eq!(lp, per_block);
        assert_eq!(per_block.num_classes(), None);
        assert_eq!(lp.tbs_in(3..7).collect::<Vec<_>>(), blocks[3..7]);
        assert_eq!(lp.tb(9), Some(blocks[9]));
        assert_eq!(lp.tb(10), None);
        assert_eq!(
            lp.tb_size_cov().to_bits(),
            per_block.tb_size_cov().to_bits()
        );
        assert!(lp.heap_bytes() < per_block.heap_bytes());

        let mut edited = lp.clone();
        edited.edit_per_block(|tbs| assert_eq!(*tbs, blocks));
        assert_eq!(edited.num_classes(), None);
        assert_eq!(edited, lp);
    }

    /// Damaged class ids read as empty blocks (no reader panics) and
    /// fail `check_classes`.
    #[test]
    fn damaged_class_ids_fail_the_check() {
        let k = simple_kernel(96);
        let lp = profile_launch(&k, &launch(10));
        assert_eq!(lp.check_classes(), Ok(()));

        let mut past = lp.clone();
        past.class_ids_mut().unwrap()[2] = 4;
        assert_eq!(past.tb(2), Some(TbStats::default()));
        assert!(past.tb_size_cov().is_finite());
        assert_eq!(
            past.check_classes(),
            Err("block 2 names class 4, the profile has 4".to_string())
        );

        let mut short = lp.clone();
        short.class_ids_mut().unwrap().pop();
        assert_eq!(short.num_blocks(), 9);
        assert!(short.check_classes().is_err());

        let mut moved = lp.clone();
        let ids = moved.class_ids_mut().unwrap();
        ids[1] = ids[0];
        assert!(moved.check_classes().is_err());
        assert!(LaunchProfile::per_block(lp.spec, vec![])
            .check_classes()
            .is_ok());
    }

    /// With more classes than a 2-byte id can name (every block its own
    /// phase), the profile keeps one record per block, equal to
    /// emulating each.
    #[test]
    fn too_many_classes_fall_back_to_per_block_records() {
        let mut b = KernelBuilder::new("t", 5, 32);
        let site = b.fresh_site();
        let body = b.block(&[Op::IAlu]);
        let trips = TripCount::PerBlockPhase {
            base: 1,
            spread: 4,
            phase_len: 1,
            dist: Dist::Uniform,
            site,
        };
        let n = b.loop_(trips, body);
        let k = b.finish(n);
        let spec = launch(70_000);
        assert_eq!(block_classes(&k, &spec), Ok(70_000));
        let lp = profile_launch(&k, &spec);
        assert_eq!(lp.num_classes(), None);
        let reference: Vec<TbStats> = (0..spec.num_blocks)
            .map(|b| profile_tb(&k, &block_ctx(&k, &spec, b)))
            .collect();
        assert_eq!(lp, LaunchProfile::per_block(spec, reference));
    }

    #[test]
    fn heterogeneous_blocks_have_nonzero_cov() {
        let mut b = KernelBuilder::new("t", 5, 32);
        let site = b.fresh_site();
        let body = b.block(&[Op::IAlu]);
        let n = b.loop_(
            TripCount::PerBlock {
                base: 1,
                spread: 50,
                dist: Dist::Uniform,
                site,
            },
            body,
        );
        let k = b.finish(n);
        let lp = profile_launch(&k, &launch(50));
        assert!(lp.tb_size_cov() > 0.1, "cov = {}", lp.tb_size_cov());
    }

    #[test]
    fn empty_tb_stall_probability_is_zero() {
        assert_eq!(TbStats::default().stall_probability(), 0.0);
    }

    #[test]
    fn run_profile_totals() {
        let k = simple_kernel(32);
        let run = KernelRun {
            kernel: k,
            launches: vec![
                LaunchSpec {
                    launch_id: LaunchId(0),
                    num_blocks: 2,
                    work_scale: 1.0,
                },
                LaunchSpec {
                    launch_id: LaunchId(1),
                    num_blocks: 3,
                    work_scale: 1.0,
                },
            ],
        };
        let rp = profile_run(&run, 1);
        assert_eq!(rp.launches.len(), 2);
        // 1 warp * 4 iters * 2 insts = 8 warp insts per TB; 5 TBs total.
        assert_eq!(rp.total_warp_insts(), 40);
    }

    #[test]
    fn work_scale_changes_launch_size() {
        let k = simple_kernel(32);
        let small = profile_launch(&k, &launch(4));
        let big = profile_launch(
            &k,
            &LaunchSpec {
                launch_id: LaunchId(0),
                num_blocks: 4,
                work_scale: 3.0,
            },
        );
        assert_eq!(big.warp_insts(), 3 * small.warp_insts());
    }
}
