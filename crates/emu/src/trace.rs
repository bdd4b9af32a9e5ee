//! Warp traces for the timing simulator.
//!
//! Macsim is trace-driven; so is our timing simulator. A warp's dynamic
//! instruction sequence reaches it as a [`WarpStream`]: a trace the
//! [`TraceArena`](crate::TraceArena) built once and shares between
//! identical warps, or, for a warp no other warp shares (thread-varying
//! control flow), the [`WarpWalk`] itself, pulled one instruction per
//! issue. Either is made when the warp's thread block is dispatched to an
//! SM and dropped when the block retires, so peak memory is bounded by
//! the *resident* warps, not the grid size, and a streamed warp costs
//! the walk's frame stack, not its instruction count. A trace entry is
//! a 12-byte [`TraceEntry`] `(inst, mask, iter_key)`: everything static
//! about the instruction (op, site, basic block) lives once per kernel in
//! a [`StaticTable`], indexed by `inst`, and per-lane addresses are
//! recomputed on demand from the deterministic IR patterns instead of
//! storing 32 addresses each.

use crate::walker::{WarpEvent, WarpWalk};
use std::iter::Peekable;
use std::sync::Arc;
use tbpoint_ir::{BasicBlockId, ExecCtx, Kernel, Node, Op};

/// One dynamic warp instruction in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Index of the static instruction in the kernel's [`StaticTable`].
    pub inst: u32,
    /// Active lane mask.
    pub mask: u32,
    /// Loop-iteration key for address generation.
    pub iter_key: u32,
}

const _: () = assert!(std::mem::size_of::<TraceEntry>() == 12);

/// What a [`TraceEntry`] leaves to the kernel's [`StaticTable`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticInst {
    /// Operation (including the address pattern for global accesses).
    pub op: Op,
    /// Static site id (address decorrelation).
    pub site: u32,
    /// Basic block id (BBV accounting during timing simulation).
    pub bb: u16,
}

/// A trace entry expanded through the [`StaticTable`]: what
/// [`WarpStream::next`] yields, and the layout the benchmark harness reads
/// through `TraceArena::warp_trace`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceInst {
    /// Operation (including the address pattern for global accesses).
    pub op: Op,
    /// Active lane mask.
    pub mask: u32,
    /// Loop-iteration key for address generation.
    pub iter_key: u32,
    /// Static site id (address decorrelation).
    pub site: u32,
    /// Basic block id (BBV accounting during timing simulation).
    pub bb: u16,
}

/// The full dynamic instruction sequence of one warp.
pub type WarpTrace = Vec<TraceEntry>;

/// Every static instruction of one kernel, grouped by basic block in id
/// order: instruction `pos` of block `bb` sits at
/// `block_start[bb] + pos`.
#[derive(Debug)]
pub struct StaticTable {
    insts: Arc<[StaticInst]>,
    block_start: Vec<u32>,
}

impl StaticTable {
    /// The table of `kernel`'s program tree.
    ///
    /// # Panics
    ///
    /// If two blocks share a basic-block id (`Kernel::validate` rejects
    /// such a kernel): an entry could then not say which of them it came
    /// from.
    pub fn of(kernel: &Kernel) -> Self {
        let mut blocks: Vec<Option<&[tbpoint_ir::Inst]>> = Vec::new();
        kernel.program.visit(&mut |node| {
            if let Node::Block { id, insts } = node {
                let i = usize::from(id.0);
                if blocks.len() <= i {
                    blocks.resize(i + 1, None);
                }
                if blocks[i].replace(insts.as_slice()).is_some() {
                    reject(kernel, *id);
                }
            }
        });
        let mut insts = Vec::new();
        let mut block_start = Vec::with_capacity(blocks.len());
        for (id, block) in blocks.iter().enumerate() {
            block_start.push(u32::try_from(insts.len()).unwrap_or(u32::MAX));
            let bb = u16::try_from(id).unwrap_or(u16::MAX);
            insts.extend(block.unwrap_or_default().iter().map(|i| StaticInst {
                op: i.op,
                site: i.site,
                bb,
            }));
        }
        StaticTable {
            insts: insts.into(),
            block_start,
        }
    }

    /// The index of instruction `pos` of basic block `bb`.
    #[inline]
    pub(crate) fn index(&self, bb: BasicBlockId, pos: u32) -> u32 {
        self.block_start[usize::from(bb.0)] + pos
    }

    /// The trace entry of walk event `ev`.
    #[inline]
    pub(crate) fn entry(&self, ev: WarpEvent<'_>) -> TraceEntry {
        TraceEntry {
            inst: self.index(ev.bb, ev.pos),
            mask: ev.mask,
            iter_key: ev.iter_key,
        }
    }

    /// The instructions, shared with every SM of a launch.
    pub fn insts(&self) -> &Arc<[StaticInst]> {
        &self.insts
    }

    /// `entry` with its static half looked up.
    pub(crate) fn expand(&self, entry: TraceEntry) -> TraceInst {
        expand(&self.insts, entry)
    }
}

/// `entry` with its static half looked up in `insts`.
#[inline]
fn expand(insts: &[StaticInst], entry: TraceEntry) -> TraceInst {
    let s = insts[entry.inst as usize];
    TraceInst {
        op: s.op,
        mask: entry.mask,
        iter_key: entry.iter_key,
        site: s.site,
        bb: s.bb,
    }
}

#[cold]
#[expect(
    clippy::panic,
    reason = "a trace of a kernel with duplicate block ids would decode to the wrong ops"
)]
fn reject(kernel: &Kernel, id: BasicBlockId) -> ! {
    panic!(
        "kernel {}: duplicate basic block id {}; warp traces need unique ids",
        kernel.name, id.0
    );
}

/// Materialise the trace of warp `warp_id` of block `ctx.block_id`;
/// `table` is `StaticTable::of(kernel)`.
pub fn trace_warp(kernel: &Kernel, table: &StaticTable, ctx: &ExecCtx, warp_id: u32) -> WarpTrace {
    WarpWalk::new(kernel, ctx, warp_id)
        .map(|ev| table.entry(ev))
        .collect()
}

/// One warp's instructions as the timing simulator reads them.
#[derive(Debug)]
pub enum WarpStream<'k> {
    /// A trace the arena shares, and the position of the next entry.
    Shared(Arc<[TraceEntry]>, usize),
    /// A walk no other warp shares, emulated as the warp issues. It
    /// looks one instruction ahead, so [`WarpStream::is_done`] turns true
    /// with the pull that takes the last one.
    Walk(Box<Peekable<WarpWalk<'k>>>),
}

impl WarpStream<'_> {
    /// The next instruction, its static half looked up in `insts` (the
    /// launch's [`StaticTable::insts`]); `None` once the stream is done.
    #[inline]
    pub fn next(&mut self, insts: &[StaticInst]) -> Option<TraceInst> {
        match self {
            WarpStream::Shared(trace, pc) => {
                let entry = *trace.get(*pc)?;
                *pc += 1;
                Some(expand(insts, entry))
            }
            WarpStream::Walk(walk) => walk.next().map(|ev| TraceInst {
                op: ev.inst.op,
                mask: ev.mask,
                iter_key: ev.iter_key,
                site: ev.inst.site,
                bb: ev.bb.0,
            }),
        }
    }

    /// True once every instruction has been pulled.
    #[inline]
    pub fn is_done(&mut self) -> bool {
        match self {
            WarpStream::Shared(trace, pc) => *pc >= trace.len(),
            WarpStream::Walk(walk) => walk.peek().is_none(),
        }
    }

    /// True for a stream that emulates as it goes.
    pub fn is_walk(&self) -> bool {
        matches!(self, WarpStream::Walk(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_tb;
    use tbpoint_ir::{AddrPattern, Dist, KernelBuilder, LaunchId, TripCount};

    fn ctx(block: u32) -> ExecCtx {
        ExecCtx {
            kernel_seed: 21,
            launch_id: LaunchId(1),
            block_id: block,
            num_blocks: 64,
            work_scale: 1.0,
        }
    }

    fn divergent_kernel() -> Kernel {
        let mut b = KernelBuilder::new("t", 21, 96);
        let site = b.fresh_site();
        let body = b.block(&[
            Op::IAlu,
            Op::LdGlobal(AddrPattern::Random {
                region: 0,
                bytes: 1 << 18,
            }),
        ]);
        let n = b.loop_(
            TripCount::PerThread {
                base: 1,
                spread: 7,
                dist: Dist::Uniform,
                site,
            },
            body,
        );
        b.finish(n)
    }

    fn trace(k: &Kernel, c: &ExecCtx, w: u32) -> WarpTrace {
        trace_warp(k, &StaticTable::of(k), c, w)
    }

    #[test]
    fn trace_matches_profile_counts() {
        // The trace and the streaming profile must agree instruction for
        // instruction — they are two sinks over the same walker.
        let k = divergent_kernel();
        let c = ctx(3);
        let profile = profile_tb(&k, &c);
        let mut warp_insts = 0u64;
        let mut thread_insts = 0u64;
        for w in 0..k.warps_per_block() {
            let t = trace(&k, &c, w);
            warp_insts += t.len() as u64;
            thread_insts += t.iter().map(|i| i.mask.count_ones() as u64).sum::<u64>();
        }
        assert_eq!(warp_insts, profile.warp_insts);
        assert_eq!(thread_insts, profile.thread_insts);
    }

    #[test]
    fn trace_is_deterministic() {
        let k = divergent_kernel();
        assert_eq!(trace(&k, &ctx(0), 1), trace(&k, &ctx(0), 1));
    }

    #[test]
    fn out_of_range_warp_gives_empty_trace() {
        let k = divergent_kernel(); // 96 threads = 3 warps
        assert!(trace(&k, &ctx(0), 3).is_empty());
    }

    #[test]
    fn trace_entries_carry_sites_and_bbs() {
        let k = divergent_kernel();
        let table = StaticTable::of(&k);
        let t = trace_warp(&k, &table, &ctx(0), 0);
        assert!(!t.is_empty());
        let decoded: Vec<TraceInst> = t.iter().map(|&e| table.expand(e)).collect();
        assert!(decoded.iter().all(|i| i.bb == 0));
        // The two instructions in the body alternate sites and ops.
        assert!(decoded.windows(2).all(|w| w[0].site != w[1].site));
        assert!(decoded.windows(2).all(|w| w[0].op != w[1].op));
    }

    #[test]
    fn table_groups_blocks_by_id() {
        let mut b = KernelBuilder::new("t", 1, 32);
        let first = b.block(&[Op::IAlu, Op::FAlu]);
        let second = b.block(&[Op::Sfu]);
        let program = b.seq(vec![second, first]);
        let k = b.finish(program);
        let table = StaticTable::of(&k);
        let ops: Vec<Op> = table.insts().iter().map(|s| s.op).collect();
        assert_eq!(ops, [Op::IAlu, Op::FAlu, Op::Sfu]);
        assert_eq!(table.index(BasicBlockId(0), 1), 1);
        assert_eq!(table.index(BasicBlockId(1), 0), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate basic block id 0")]
    fn duplicate_block_ids_are_rejected() {
        let mut b = KernelBuilder::new("dup", 1, 32);
        let block = b.block(&[Op::IAlu]);
        let twin = Node::Block {
            id: BasicBlockId(0),
            insts: vec![tbpoint_ir::Inst {
                op: Op::Sfu,
                site: 99,
            }],
        };
        let k = b.finish(Node::Seq(vec![block, twin]));
        StaticTable::of(&k);
    }
}
