//! The SIMT warp walker: executes one warp's structured program with an
//! active lane mask, one warp instruction per pull.
//!
//! [`WarpWalk`] is an iterator. The profiler folds it, [`crate::trace_warp`]
//! collects it, and the timing simulator pulls a thread-varying warp's
//! instructions from it as they issue, so all three see byte-identical
//! instruction streams — the property that makes profiling results
//! transferable to the timing simulator. Its state is a frame stack as
//! deep as the program tree plus the warp's draws, not the instructions
//! it has yet to yield.

use tbpoint_ir::{BasicBlockId, Cond, ExecCtx, Inst, Kernel, Node, TripCount, WARP_SIZE};

/// One dynamic warp instruction, as the walk yields it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarpEvent<'a> {
    /// The static instruction.
    pub inst: &'a Inst,
    /// Active lane mask (bit `l` = lane `l` executes).
    pub mask: u32,
    /// Basic block this instruction belongs to.
    pub bb: BasicBlockId,
    /// Position of the instruction within its basic block.
    pub pos: u32,
    /// Mixed key of the enclosing loop iteration indices; feeds address
    /// generation so different iterations touch different data.
    pub iter_key: u32,
}

/// The execution of warp `warp_id` of one thread block, yielding its
/// dynamic warp instructions in program order.
///
/// The initial active mask covers lanes whose thread id is within
/// `threads_per_block`; divergence then only ever narrows it, and sibling
/// paths of an `if` reconverge at the join point (structured control
/// flow — see the crate docs for why this is a faithful substitution).
#[derive(Debug)]
pub struct WarpWalk<'k> {
    ctx: ExecCtx,
    /// Global thread id of lane 0: unique across blocks of the launch.
    gtid_base: u64,
    draws: WarpDraws<'k>,
    /// The basic block being yielded.
    block: BlockRun<'k>,
    /// The enclosing nodes still to finish, innermost last.
    stack: Vec<Frame<'k>>,
}

/// The rest of one visit of a basic block.
#[derive(Debug)]
struct BlockRun<'k> {
    /// The instructions not yet yielded.
    insts: std::slice::Iter<'k, Inst>,
    id: BasicBlockId,
    /// Position of the next instruction within the block.
    pos: u32,
    mask: u32,
    iter_key: u32,
}

/// One enclosing node of a walk's position. Every frame carries the
/// active mask and iteration key its node runs under.
#[derive(Debug)]
enum Frame<'k> {
    /// The children of a `Seq` not yet entered (never none: the last
    /// child replaces the frame).
    Seq {
        rest: std::slice::Iter<'k, Node>,
        mask: u32,
        iter_key: u32,
    },
    /// An `If`'s `else` branch, entered once the `then` branch is done;
    /// `mask` is the lanes that did not take the branch.
    Else {
        node: &'k Node,
        mask: u32,
        iter_key: u32,
    },
    /// A loop whose iteration `iter` (0-based) is next.
    Loop {
        body: &'k Node,
        trips: Trips,
        iter: u32,
        mask: u32,
        iter_key: u32,
    },
}

/// A loop's trip counts.
#[derive(Debug, Clone, Copy)]
enum Trips {
    /// Every lane runs this many iterations.
    Uniform(u32),
    /// Per-lane counts: entry `i` of [`WarpDraws::trips`].
    PerLane(usize),
}

impl<'k> WarpWalk<'k> {
    /// The walk of warp `warp_id` of block `ctx.block_id` (empty for a
    /// warp entirely out of range).
    pub fn new(kernel: &'k Kernel, ctx: &ExecCtx, warp_id: u32) -> Self {
        let initial_mask = initial_mask(kernel, warp_id);
        let gtid_base = u64::from(ctx.block_id) * u64::from(kernel.threads_per_block)
            + u64::from(warp_id) * u64::from(WARP_SIZE);
        let draws = WarpDraws {
            initial_mask,
            taken: Vec::new(),
            trips: Vec::new(),
        };
        Self::from_node(&kernel.program, ctx, gtid_base, initial_mask, draws)
    }

    /// The walk of `node` at `mask`, drawing through `draws`.
    fn from_node(
        node: &'k Node,
        ctx: &ExecCtx,
        gtid_base: u64,
        mask: u32,
        draws: WarpDraws<'k>,
    ) -> Self {
        let mut walk = WarpWalk {
            ctx: *ctx,
            gtid_base,
            draws,
            block: BlockRun {
                insts: [].iter(),
                id: BasicBlockId(0),
                pos: 0,
                mask: 0,
                iter_key: 0,
            },
            stack: Vec::new(),
        };
        if !walk.enter(node, mask, 0) {
            walk.advance();
        }
        walk
    }

    /// Start running `node` at `mask`: a block becomes the current one,
    /// any other node pushes its frame. An `If` is resolved here: its
    /// `else` is pushed pending and its `then` entered in its place.
    /// Returns whether a block was entered.
    fn enter(&mut self, mut node: &'k Node, mut mask: u32, iter_key: u32) -> bool {
        loop {
            if mask == 0 {
                return false;
            }
            let frame = match node {
                Node::Block { id, insts } => {
                    self.block = BlockRun {
                        insts: insts.iter(),
                        id: *id,
                        pos: 0,
                        mask,
                        iter_key,
                    };
                    return true;
                }
                Node::Seq(nodes) => Frame::Seq {
                    rest: nodes.iter(),
                    mask,
                    iter_key,
                },
                Node::If { cond, then_, else_ } => {
                    let taken = if matches!(cond, Cond::ThreadProb { .. }) {
                        let (ctx, gtid_base, all) =
                            (&self.ctx, self.gtid_base, self.draws.initial_mask);
                        let i = drawn(&mut self.draws.taken, node, || {
                            cond.eval_mask(ctx, gtid_base, all)
                        });
                        mask & self.draws.taken[i].1
                    } else {
                        cond.eval_mask(&self.ctx, self.gtid_base, mask)
                    };
                    if let Some(e) = else_ {
                        self.stack.push(Frame::Else {
                            node: e,
                            mask: mask & !taken,
                            iter_key,
                        });
                    }
                    // Implicit reconvergence: the frame below continues
                    // with its own mask.
                    (node, mask) = (then_, taken);
                    continue;
                }
                Node::Loop { trips, body } => Frame::Loop {
                    body,
                    trips: self.loop_trips(node, trips, mask),
                    iter: 0,
                    mask,
                    iter_key,
                },
            };
            self.stack.push(frame);
            return false;
        }
    }

    /// The trip counts of loop `node` entered at `mask`.
    fn loop_trips(&mut self, node: &'k Node, trips: &TripCount, mask: u32) -> Trips {
        let mut counts = [0u32; WARP_SIZE as usize];
        if trips.is_warp_uniform() {
            return Trips::Uniform(trips.eval_lanes(&self.ctx, self.gtid_base, mask, &mut counts));
        }
        let (ctx, gtid_base, all) = (&self.ctx, self.gtid_base, self.draws.initial_mask);
        Trips::PerLane(drawn(&mut self.draws.trips, node, || {
            trips.eval_lanes(ctx, gtid_base, all, &mut counts);
            counts
        }))
    }

    /// Step the frames until a block is entered; false once the walk is
    /// over.
    fn advance(&mut self) -> bool {
        while let Some(frame) = self.stack.last_mut() {
            let (node, mask, iter_key) = match frame {
                Frame::Seq {
                    rest,
                    mask,
                    iter_key,
                } => {
                    let (mask, iter_key) = (*mask, *iter_key);
                    let next = rest.next();
                    if rest.len() == 0 {
                        self.stack.pop();
                    }
                    match next {
                        Some(node) => (node, mask, iter_key),
                        None => continue, // an empty `Seq`
                    }
                }
                &mut Frame::Else {
                    node,
                    mask,
                    iter_key,
                } => {
                    self.stack.pop();
                    (node, mask, iter_key)
                }
                Frame::Loop {
                    body,
                    trips,
                    iter,
                    mask,
                    iter_key,
                } => {
                    // SIMT loop divergence: the warp iterates until every
                    // active lane has exhausted its count, the mask
                    // shrinking as lanes finish.
                    let m = match *trips {
                        Trips::Uniform(n) => {
                            if *iter < n {
                                *mask
                            } else {
                                0
                            }
                        }
                        Trips::PerLane(i) => lanes_left(&self.draws.trips[i].1, *mask, *iter),
                    };
                    if m == 0 {
                        self.stack.pop();
                        continue;
                    }
                    *iter += 1;
                    // Mix this loop's iteration into the key; the constant
                    // is an odd multiplier so nested loops decorrelate.
                    (
                        *body,
                        m,
                        iter_key.wrapping_mul(0x9E37_79B9).wrapping_add(*iter),
                    )
                }
            };
            if self.enter(node, mask, iter_key) {
                return true;
            }
        }
        false
    }
}

impl<'k> Iterator for WarpWalk<'k> {
    type Item = WarpEvent<'k>;

    #[inline]
    fn next(&mut self) -> Option<WarpEvent<'k>> {
        loop {
            let b = &mut self.block;
            if let Some(inst) = b.insts.next() {
                let ev = WarpEvent {
                    inst,
                    mask: b.mask,
                    bb: b.id,
                    pos: b.pos,
                    iter_key: b.iter_key,
                };
                b.pos += 1;
                return Some(ev);
            }
            if !self.advance() {
                return None;
            }
        }
    }
}

/// The lanes of `mask` whose trip count exceeds `iter`.
fn lanes_left(counts: &[u32; WARP_SIZE as usize], mask: u32, iter: u32) -> u32 {
    let mut m = 0u32;
    for (lane, &count) in counts.iter().enumerate() {
        m |= u32::from(count > iter) << lane;
    }
    m & mask
}

/// Initial live-lane mask of `warp_id`: lanes whose thread id is within
/// `threads_per_block` (zero for a warp entirely out of range).
pub(crate) fn initial_mask(kernel: &Kernel, warp_id: u32) -> u32 {
    let first_thread = warp_id * WARP_SIZE;
    if first_thread >= kernel.threads_per_block {
        return 0;
    }
    let live = (kernel.threads_per_block - first_thread).min(WARP_SIZE);
    if live == 32 {
        u32::MAX
    } else {
        (1u32 << live) - 1
    }
}

/// What one warp's thread-varying nodes drew. `Cond::eval` and
/// `TripCount::eval` see `(ctx, thread, site)` but never the iteration
/// key, so a node inside a loop draws the same value for a lane on every
/// visit: each `ThreadProb` branch and `PerThread` loop is drawn once,
/// for the warp's initial mask (a superset of every later mask), and
/// revisits intersect that with the current mask. Draws are keyed by the
/// node's address, not its site id: two nodes may share a site and differ
/// in `p` or distribution. Both lists stay unallocated for a program
/// without thread-varying nodes, and grow one entry at a time: a
/// streamed warp keeps its draws while it is resident.
#[derive(Debug)]
struct WarpDraws<'k> {
    initial_mask: u32,
    /// Per `ThreadProb` `If` node: the lanes that take the branch.
    taken: Vec<(&'k Node, u32)>,
    /// Per `PerThread` `Loop` node: per-lane trip counts.
    trips: Vec<(&'k Node, [u32; WARP_SIZE as usize])>,
}

/// The index of `node`'s entry in `list`, made by `draw` on the first
/// visit.
fn drawn<'k, T>(list: &mut Vec<(&'k Node, T)>, node: &'k Node, draw: impl FnOnce() -> T) -> usize {
    if let Some(i) = list.iter().position(|&(n, _)| std::ptr::eq(n, node)) {
        return i;
    }
    list.reserve_exact(1);
    list.push((node, draw()));
    list.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbpoint_ir::{AddrPattern, Dist, KernelBuilder, LaunchId, Op, TripCount};
    use tbpoint_stats::SplitMix64;

    fn ctx(block: u32) -> ExecCtx {
        ExecCtx {
            kernel_seed: 3,
            launch_id: LaunchId(0),
            block_id: block,
            num_blocks: 64,
            work_scale: 1.0,
        }
    }

    fn collect(kernel: &Kernel, ctx: &ExecCtx, warp: u32) -> Vec<(u32, u16)> {
        WarpWalk::new(kernel, ctx, warp)
            .map(|ev| (ev.mask, ev.bb.0))
            .collect()
    }

    #[test]
    fn straight_line_full_mask() {
        let mut b = KernelBuilder::new("t", 1, 64);
        let n = b.block(&[Op::IAlu, Op::FAlu]);
        let k = b.finish(n);
        let evs = collect(&k, &ctx(0), 0);
        assert_eq!(evs.len(), 2);
        assert!(evs.iter().all(|&(m, _)| m == u32::MAX));
    }

    #[test]
    fn partial_last_warp_mask() {
        // 40 threads: warp 1 has only 8 live lanes.
        let mut b = KernelBuilder::new("t", 1, 40);
        let n = b.block(&[Op::IAlu]);
        let k = b.finish(n);
        let evs = collect(&k, &ctx(0), 1);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].0, 0xFF);
        // Warp 2 does not exist.
        assert!(collect(&k, &ctx(0), 2).is_empty());
    }

    #[test]
    fn const_loop_repeats_body() {
        let mut b = KernelBuilder::new("t", 1, 32);
        let body = b.block(&[Op::IAlu, Op::IAlu]);
        let n = b.loop_(TripCount::Const(5), body);
        let k = b.finish(n);
        let evs = collect(&k, &ctx(0), 0);
        assert_eq!(evs.len(), 10);
    }

    #[test]
    fn lane_lt_if_splits_mask() {
        let mut b = KernelBuilder::new("t", 1, 32);
        let t = b.block(&[Op::IAlu]);
        let e = b.block(&[Op::FAlu]);
        let n = b.if_(Cond::LaneLt(4), t, Some(e));
        let k = b.finish(n);
        let evs = collect(&k, &ctx(0), 0);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].0, 0b1111);
        assert_eq!(evs[1].0, !0b1111);
    }

    #[test]
    fn never_taken_branch_emits_nothing() {
        let mut b = KernelBuilder::new("t", 1, 32);
        let t = b.block(&[Op::IAlu]);
        let n = b.if_(Cond::Never, t, None);
        let k = b.finish(n);
        assert!(collect(&k, &ctx(0), 0).is_empty());
    }

    #[test]
    fn divergent_loop_shrinks_mask() {
        let mut b = KernelBuilder::new("t", 1, 32);
        let site = b.fresh_site();
        let body = b.block(&[Op::IAlu]);
        let n = b.loop_(
            TripCount::PerThread {
                base: 0,
                spread: 8,
                dist: Dist::Uniform,
                site,
            },
            body,
        );
        let k = b.finish(n);
        let evs = collect(&k, &ctx(0), 0);
        assert!(!evs.is_empty());
        // Masks must be non-increasing in popcount across iterations.
        let pops: Vec<u32> = evs.iter().map(|&(m, _)| m.count_ones()).collect();
        for w in pops.windows(2) {
            assert!(w[1] <= w[0], "mask grew inside a loop: {pops:?}");
        }
        // And the first iteration must not already be empty.
        assert!(pops[0] > 0);
    }

    #[test]
    fn iter_keys_distinguish_iterations() {
        let mut b = KernelBuilder::new("t", 1, 32);
        let body = b.block(&[Op::LdGlobal(AddrPattern::Coalesced {
            region: 0,
            stride: 4,
        })]);
        let n = b.loop_(TripCount::Const(3), body);
        let k = b.finish(n);
        let mut keys: Vec<u32> = WarpWalk::new(&k, &ctx(0), 0)
            .map(|ev| ev.iter_key)
            .collect();
        assert_eq!(keys.len(), 3);
        keys.dedup();
        assert_eq!(keys.len(), 3, "iteration keys must differ");
    }

    #[test]
    fn different_blocks_see_different_divergence() {
        let mut b = KernelBuilder::new("t", 1, 32);
        let site = b.fresh_site();
        let t = b.block(&[Op::IAlu]);
        let n = b.if_(Cond::ThreadProb { p: 0.5, site }, t, None);
        let k = b.finish(n);
        let m0 = collect(&k, &ctx(0), 0);
        let m1 = collect(&k, &ctx(1), 0);
        // Same program, different blocks: taken masks should differ
        // (probability of coincidence is 2^-32).
        assert_ne!(m0, m1);
    }

    /// The walker without the draw memo: `Cond::eval` / `TripCount::eval`
    /// per active lane at every visit of every node.
    fn reference_walk(
        node: &Node,
        ctx: &ExecCtx,
        gtid_base: u64,
        mask: u32,
        iter_key: u32,
        sink: &mut impl FnMut(WarpEvent<'_>),
    ) {
        if mask == 0 {
            return;
        }
        let lanes = (0..WARP_SIZE).filter(|lane| mask & (1 << lane) != 0);
        match node {
            Node::Block { id, insts } => {
                for (inst, pos) in insts.iter().zip(0..) {
                    sink(WarpEvent {
                        inst,
                        mask,
                        bb: *id,
                        pos,
                        iter_key,
                    });
                }
            }
            Node::Seq(nodes) => {
                for n in nodes {
                    reference_walk(n, ctx, gtid_base, mask, iter_key, sink);
                }
            }
            Node::If { cond, then_, else_ } => {
                let taken = lanes
                    .filter(|&lane| cond.eval(ctx, gtid_base + lane as u64, lane))
                    .fold(0u32, |m, lane| m | 1 << lane);
                reference_walk(then_, ctx, gtid_base, taken, iter_key, sink);
                if let Some(e) = else_ {
                    reference_walk(e, ctx, gtid_base, mask & !taken, iter_key, sink);
                }
            }
            Node::Loop { trips, body } => {
                let mut counts = [0u32; WARP_SIZE as usize];
                for lane in lanes {
                    counts[lane as usize] = trips.eval(ctx, gtid_base + lane as u64);
                }
                for iter in 0.. {
                    let m = (0..WARP_SIZE)
                        .filter(|&lane| counts[lane as usize] > iter)
                        .fold(0u32, |m, lane| m | 1 << lane);
                    let key = iter_key.wrapping_mul(0x9E37_79B9).wrapping_add(iter + 1);
                    reference_walk(body, ctx, gtid_base, m, key, sink);
                    if m == 0 {
                        break;
                    }
                }
            }
        }
    }

    fn random_dist(rng: &mut SplitMix64) -> Dist {
        match rng.next_index(3) {
            0 => Dist::Uniform,
            1 => Dist::PowerLaw { alpha: 2.0 },
            _ => Dist::Bimodal { p_heavy: 0.3 },
        }
    }

    /// The bfs shape with every trap for a draw memo: `ThreadProb`
    /// branches (nested in each other, with and without an else) inside
    /// `PerThread` loops inside a `PerBlockPhase` loop, so each
    /// thread-varying node is revisited under shrinking masks and fresh
    /// iteration keys — and pairs of distinct nodes that share one site id
    /// but differ in `p`, `spread` or distribution.
    fn bfs_shaped_kernel(rng: &mut SplitMix64, case: u64) -> Kernel {
        let tpb = [40, 96, 128, 200][rng.next_index(4) as usize];
        let mut b = KernelBuilder::new("memo", rng.next_index(1 << 20) + case, tpb);
        let gather = Op::LdGlobal(AddrPattern::Random {
            region: 1,
            bytes: [6 << 20, 8 << 20][rng.next_index(2) as usize],
        });
        let (cond_site, trip_site) = (b.fresh_site(), b.fresh_site());
        let thread_prob = |rng: &mut SplitMix64| Cond::ThreadProb {
            p: 0.15 + 0.7 * rng.next_f64(),
            site: cond_site,
        };
        let per_thread = |rng: &mut SplitMix64| TripCount::PerThread {
            base: rng.next_index(2) as u32,
            spread: rng.next_index(5) as u32,
            dist: random_dist(rng),
            site: trip_site,
        };

        let visit = b.block(&[Op::IAlu, gather]);
        let update = b.block(&[
            Op::IAlu,
            Op::StGlobal(AddrPattern::Coalesced {
                region: 2,
                stride: 4,
            }),
        ]);
        let skip = b.block(&[Op::FAlu]);
        let relax = b.block(&[gather, Op::FAlu]);
        // Same site, different p: a memo keyed by site confuses them.
        let inner = b.if_(thread_prob(rng), update, None);
        let nested = b.seq(vec![visit, inner]);
        let else_ = (rng.next_index(2) == 0).then_some(skip);
        let outer = b.if_(thread_prob(rng), nested, else_);
        let again = b.if_(thread_prob(rng), relax, None);
        // Same site, different spread/dist, nested: the inner loop is
        // revisited once per outer iteration with the outer's narrower mask.
        let edge_body = b.seq(vec![outer, again]);
        let edges = b.loop_(per_thread(rng), edge_body);
        let head = b.block(&[Op::IAlu]);
        let node_body = b.seq(vec![head, edges]);
        let nodes = b.loop_(per_thread(rng), node_body);
        let boundary_body = b.block(&[Op::IAlu]);
        let boundary = b.if_(Cond::LaneLt(rng.next_index(33) as u32), boundary_body, None);
        let phase_site = b.fresh_site();
        let phase_body = b.seq(vec![nodes, boundary]);
        let phases = b.loop_(
            TripCount::PerBlockPhase {
                base: 1 + rng.next_index(2) as u32,
                spread: rng.next_index(3) as u32,
                phase_len: 1 + rng.next_index(4) as u32,
                dist: Dist::Uniform,
                site: phase_site,
            },
            phase_body,
        );
        // A last thread-varying branch after the loops, at the full mask.
        let tail_body = b.block(&[Op::Sfu]);
        let tail = b.if_(thread_prob(rng), tail_body, None);
        let root = b.seq(vec![phases, tail]);
        b.finish(root)
    }

    /// Everything a sink can observe of an event.
    fn key(ev: WarpEvent<'_>) -> (u32, u32, u16, u32, u32) {
        (ev.inst.site, ev.mask, ev.bb.0, ev.pos, ev.iter_key)
    }

    /// Warp `warp`'s events from [`WarpWalk`] against [`reference_walk`];
    /// returns how many there were.
    fn check_warp(k: &Kernel, ctx: &ExecCtx, warp: u32) -> u64 {
        let got: Vec<_> = WarpWalk::new(k, ctx, warp).map(key).collect();
        let mask = initial_mask(k, warp);
        let gtid_base =
            ctx.block_id as u64 * k.threads_per_block as u64 + (warp * WARP_SIZE) as u64;
        let mut want = vec![];
        reference_walk(&k.program, ctx, gtid_base, mask, 0, &mut |ev| {
            want.push(key(ev))
        });
        assert_eq!(got, want, "{} warp {warp} {ctx:?}\n{k:#?}", k.name);
        want.len() as u64
    }

    /// Full event streams of [`WarpWalk`] against [`reference_walk`] on
    /// `kernels` seeded bfs-shaped kernels.
    fn memo_differential(seed: u64, kernels: u64) {
        let mut rng = SplitMix64::new(seed);
        let (mut warps, mut events) = (0u64, 0u64);
        for case in 0..kernels {
            let k = bfs_shaped_kernel(&mut rng, case);
            k.validate().unwrap();
            for _ in 0..4 {
                let ctx = ExecCtx {
                    kernel_seed: k.seed,
                    launch_id: LaunchId(rng.next_index(50) as u32),
                    block_id: rng.next_index(2000) as u32,
                    num_blocks: 2000,
                    work_scale: [1.0, 0.37, 2.5][rng.next_index(3) as usize],
                };
                for warp in 0..k.warps_per_block() {
                    events += check_warp(&k, &ctx, warp);
                    warps += 1;
                }
            }
        }
        println!(
            "walker differential: {kernels} kernels, {warps} warps, {events} events, 0 mismatches"
        );
    }

    /// Every warp of every block of every launch of the Tiny roster.
    #[test]
    fn walk_matches_the_per_visit_walk_on_the_tiny_roster() {
        let (mut warps, mut events) = (0u64, 0u64);
        for bench in tbpoint_workloads::all_benchmarks(tbpoint_workloads::Scale::Tiny) {
            let k = &bench.run.kernel;
            for spec in &bench.run.launches {
                for block_id in 0..spec.num_blocks {
                    let ctx = ExecCtx {
                        kernel_seed: k.seed,
                        launch_id: spec.launch_id,
                        block_id,
                        num_blocks: spec.num_blocks,
                        work_scale: spec.work_scale,
                    };
                    for warp in 0..k.warps_per_block() {
                        events += check_warp(k, &ctx, warp);
                        warps += 1;
                    }
                }
            }
        }
        assert!(warps > 0);
        println!("walker differential, Tiny roster: {warps} warps, {events} events, 0 mismatches");
    }

    /// Through the walk a node's mask only shrinks from visit to visit
    /// (loop masks shrink with the iteration, branch masks do not depend
    /// on it), so a memo drawn for the first visit's mask would pass the
    /// differential above. The contract is wider — a draw covers the
    /// warp's initial mask — and this pins it: one memo, a narrow walk,
    /// then a full one.
    #[test]
    fn draws_cover_the_initial_mask() {
        let mut rng = SplitMix64::new(0x3E30_0002);
        let k = bfs_shaped_kernel(&mut rng, 0);
        let c = ctx(3);
        let mut draws = WarpDraws {
            initial_mask: u32::MAX,
            taken: Vec::new(),
            trips: Vec::new(),
        };
        for mask in [0x0000_00F0, u32::MAX] {
            let mut walk = WarpWalk::from_node(&k.program, &c, 96, mask, draws);
            let got: Vec<_> = walk.by_ref().map(key).collect();
            draws = walk.draws;
            let mut want = vec![];
            reference_walk(&k.program, &c, 96, mask, 0, &mut |ev| want.push(key(ev)));
            assert_eq!(got, want, "mask {mask:#x}");
        }
    }

    #[test]
    fn memoised_walk_matches_the_per_visit_walk() {
        memo_differential(0x3E30_0001, 300);
    }

    #[test]
    #[ignore = "30k kernels; CI runs it in release (cargo test --release -p tbpoint-emu -- --ignored)"]
    fn memoised_walk_matches_the_per_visit_walk_large() {
        memo_differential(0x3E30_5EED_ABCD_EF01, 30_000);
    }

    #[test]
    fn walker_is_deterministic() {
        let mut b = KernelBuilder::new("t", 9, 64);
        let site = b.fresh_site();
        let body = b.block(&[
            Op::IAlu,
            Op::LdGlobal(AddrPattern::Random {
                region: 1,
                bytes: 1 << 16,
            }),
        ]);
        let n = b.loop_(
            TripCount::PerThread {
                base: 1,
                spread: 5,
                dist: Dist::Uniform,
                site,
            },
            body,
        );
        let k = b.finish(n);
        assert_eq!(collect(&k, &ctx(7), 1), collect(&k, &ctx(7), 1));
    }
}
