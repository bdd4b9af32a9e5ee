//! The SIMT warp walker: executes one warp's structured program with an
//! active lane mask, invoking a callback per warp instruction.
//!
//! Both the profiler and the tracer are thin sinks over this walker, so
//! they see byte-identical instruction streams — the property that makes
//! profiling results transferable to the timing simulator.

use tbpoint_ir::{Cond, ExecCtx, Inst, Kernel, Node, WARP_SIZE};

/// One dynamic warp instruction, as seen by a walker sink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarpEvent<'a> {
    /// The static instruction.
    pub inst: &'a Inst,
    /// Active lane mask (bit `l` = lane `l` executes).
    pub mask: u32,
    /// Basic block this instruction belongs to.
    pub bb: tbpoint_ir::BasicBlockId,
    /// Mixed key of the enclosing loop iteration indices; feeds address
    /// generation so different iterations touch different data.
    pub iter_key: u32,
}

/// Execute warp `warp_id` of thread block `ctx.block_id` and call `sink`
/// once per dynamic warp instruction (in program order).
///
/// The initial active mask covers lanes whose thread id is within
/// `threads_per_block`; divergence then only ever narrows it, and sibling
/// paths of an `if` reconverge at the join point (structured control
/// flow — see the crate docs for why this is a faithful substitution).
pub fn walk_warp(
    kernel: &Kernel,
    ctx: &ExecCtx,
    warp_id: u32,
    sink: &mut impl FnMut(WarpEvent<'_>),
) {
    let first_thread = warp_id * WARP_SIZE;
    if first_thread >= kernel.threads_per_block {
        return; // warp entirely out of range
    }
    let live_lanes = (kernel.threads_per_block - first_thread).min(WARP_SIZE);
    let initial_mask = if live_lanes == 32 {
        u32::MAX
    } else {
        (1u32 << live_lanes) - 1
    };
    // Global thread id of lane 0: unique across blocks of the launch.
    let gtid_base = ctx.block_id as u64 * kernel.threads_per_block as u64 + first_thread as u64;
    let mut draws = WarpDraws {
        initial_mask,
        taken: Vec::new(),
        trips: Vec::new(),
    };
    walk_node(
        &kernel.program,
        ctx,
        gtid_base,
        initial_mask,
        0,
        &mut draws,
        sink,
    );
}

/// What one warp's thread-varying nodes drew. `Cond::eval` and
/// `TripCount::eval` see `(ctx, thread, site)` but never the iteration
/// key, so a node inside a loop draws the same value for a lane on every
/// visit: each `ThreadProb` branch and `PerThread` loop is drawn once,
/// for the warp's initial mask (a superset of every later mask), and
/// revisits intersect that with the current mask. Draws are keyed by the
/// node's address, not its site id: two nodes may share a site and differ
/// in `p` or distribution. Both lists stay unallocated for a program
/// without thread-varying nodes.
struct WarpDraws {
    initial_mask: u32,
    /// Per `ThreadProb` `If` node: the lanes that take the branch.
    taken: Vec<(*const Node, u32)>,
    /// Per `PerThread` `Loop` node: per-lane trip counts and their maximum.
    trips: Vec<(*const Node, LaneTrips)>,
}

type LaneTrips = ([u32; WARP_SIZE as usize], u32);

/// `node`'s entry in `list`, made by `draw` on the first visit.
fn drawn_once<T: Copy>(
    list: &mut Vec<(*const Node, T)>,
    node: &Node,
    draw: impl FnOnce() -> T,
) -> T {
    if let Some(&(_, v)) = list.iter().find(|&&(n, _)| std::ptr::eq(n, node)) {
        return v;
    }
    let v = draw();
    list.push((node, v));
    v
}

fn walk_node(
    node: &Node,
    ctx: &ExecCtx,
    gtid_base: u64,
    mask: u32,
    iter_key: u32,
    draws: &mut WarpDraws,
    sink: &mut impl FnMut(WarpEvent<'_>),
) {
    if mask == 0 {
        return;
    }
    match node {
        Node::Block { id, insts } => {
            for inst in insts {
                sink(WarpEvent {
                    inst,
                    mask,
                    bb: *id,
                    iter_key,
                });
            }
        }
        Node::Seq(nodes) => {
            for n in nodes {
                walk_node(n, ctx, gtid_base, mask, iter_key, draws, sink);
            }
        }
        Node::If { cond, then_, else_ } => {
            let taken = if matches!(cond, Cond::ThreadProb { .. }) {
                let all = draws.initial_mask;
                mask & drawn_once(&mut draws.taken, node, || {
                    cond.eval_mask(ctx, gtid_base, all)
                })
            } else {
                cond.eval_mask(ctx, gtid_base, mask)
            };
            walk_node(then_, ctx, gtid_base, taken, iter_key, draws, sink);
            if let Some(e) = else_ {
                walk_node(e, ctx, gtid_base, mask & !taken, iter_key, draws, sink);
            }
            // Implicit reconvergence: callers continue with `mask`.
        }
        Node::Loop { trips, body } => {
            // Per-lane trip counts; the warp iterates until every active
            // lane has exhausted its count, with the mask shrinking as
            // lanes finish (SIMT loop divergence).
            let draw = |lanes: u32| {
                let mut counts = [0u32; WARP_SIZE as usize];
                let max = trips.eval_lanes(ctx, gtid_base, lanes, &mut counts);
                (counts, max)
            };
            let (counts, max_trips) = if trips.is_warp_uniform() {
                draw(mask)
            } else {
                let all = draws.initial_mask;
                drawn_once(&mut draws.trips, node, || draw(all))
            };
            for iter in 0..max_trips {
                let mut m = 0u32;
                for lane in 0..WARP_SIZE {
                    if mask & (1 << lane) != 0 && counts[lane as usize] > iter {
                        m |= 1 << lane;
                    }
                }
                if m == 0 {
                    break;
                }
                // Mix this loop's iteration into the key; the constant is
                // an odd multiplier so nested loops decorrelate.
                let key = iter_key.wrapping_mul(0x9E37_79B9).wrapping_add(iter + 1);
                walk_node(body, ctx, gtid_base, m, key, draws, sink);
            }
        }
    }
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
        let mut out = vec![];
        walk_warp(kernel, ctx, warp, &mut |ev| out.push((ev.mask, ev.bb.0)));
        out
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
        let mut keys = vec![];
        walk_warp(&k, &ctx(0), 0, &mut |ev| keys.push(ev.iter_key));
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
                for inst in insts {
                    sink(WarpEvent {
                        inst,
                        mask,
                        bb: *id,
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
    fn key(ev: WarpEvent<'_>) -> (u32, u32, u16, u32) {
        (ev.inst.site, ev.mask, ev.bb.0, ev.iter_key)
    }

    /// Full event streams of `walk_warp` against [`reference_walk`].
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
                    let mut got = vec![];
                    walk_warp(&k, &ctx, warp, &mut |ev| got.push(key(ev)));
                    let first = warp * WARP_SIZE;
                    let live = (k.threads_per_block - first).min(WARP_SIZE);
                    let mask = u32::MAX >> (WARP_SIZE - live);
                    let gtid_base = ctx.block_id as u64 * k.threads_per_block as u64 + first as u64;
                    let mut want = vec![];
                    reference_walk(&k.program, &ctx, gtid_base, mask, 0, &mut |ev| {
                        want.push(key(ev))
                    });
                    assert_eq!(got, want, "kernel {case} warp {warp} {ctx:?}\n{k:#?}");
                    warps += 1;
                    events += want.len() as u64;
                }
            }
        }
        println!("walker memo differential: {kernels} kernels, {warps} warps, {events} events, 0 mismatches");
    }

    /// Through `walk_warp` a node's mask only shrinks from visit to visit
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
            let (mut got, mut want) = (vec![], vec![]);
            walk_node(&k.program, &c, 96, mask, 0, &mut draws, &mut |ev| {
                got.push(key(ev))
            });
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
