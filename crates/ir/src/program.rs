//! Structured thread programs: the control-flow skeleton of a kernel.
//!
//! Real PTX has arbitrary CFGs; SIMT hardware handles divergence with a
//! reconvergence stack. We restrict programs to *structured* control flow
//! (sequences, `if`s, counted loops), which (a) every benchmark in the
//! paper's Table VI fits naturally, and (b) lets the emulator implement
//! divergence with simple mask intersection instead of IPDOM analysis.
//! DESIGN.md records this as part of the GPUOcelot substitution.

use crate::inst::Inst;
use crate::types::{LaunchId, WARP_SIZE};
use serde::{Deserialize, Serialize};
use tbpoint_stats::rng;

/// Everything a deterministic control-flow decision may depend on, short of
/// the thread id (passed separately at each evaluation site).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecCtx {
    /// Kernel-wide seed (decorrelates different benchmarks).
    pub kernel_seed: u64,
    /// The launch being executed.
    pub launch_id: LaunchId,
    /// The thread block being executed.
    pub block_id: u32,
    /// Grid size of the launch (blocks); lets trip counts depend on the
    /// block's *position* in the grid (phase-structured irregularity).
    pub num_blocks: u32,
    /// Per-launch work multiplier (frontier growth/shrink across launches).
    pub work_scale: f64,
}

impl ExecCtx {
    /// A nominal trip count scaled by `work_scale` (rounded, at least 0).
    fn scale_trips(&self, raw: u32) -> u32 {
        if (self.work_scale - 1.0).abs() < f64::EPSILON {
            raw
        } else {
            // Saturating cast: work_scale is a small positive factor, and
            // an overflowing trip count pegging at u32::MAX is the sane
            // outcome anyway.
            #[expect(clippy::cast_possible_truncation)]
            let scaled = (raw as f64 * self.work_scale).round().max(0.0) as u32;
            scaled
        }
    }

    /// Calls `f(lane, u)` for each lane of `mask` in the warp whose lane 0
    /// is thread `gtid_base`, `u` being the thread's uniform draw at `site`:
    /// `unit_f64(&[seed, launch, block, gtid, site])` with the three
    /// warp-invariant coordinates folded once.
    fn thread_draws(&self, gtid_base: u64, mask: u32, site: u32, mut f: impl FnMut(u32, f64)) {
        let (launch, block) = (self.launch_id.0 as u64, self.block_id as u64);
        let prefix = rng::hash_fold(rng::HASH_SEED, &[self.kernel_seed, launch, block]);
        let mut rest = mask;
        while rest != 0 {
            let lane = rest.trailing_zeros();
            rest &= rest - 1;
            let gtid = gtid_base.wrapping_add(lane as u64);
            let h = rng::hash_fold(prefix, &[gtid, site as u64]);
            f(lane, rng::unit_from_hash(h));
        }
    }
}

/// Distribution family for data-dependent trip counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Dist {
    /// Uniform over `[base, base + spread]`.
    Uniform,
    /// Discrete power-law-ish: most values near `base`, a heavy tail up to
    /// `base + spread`. `alpha` > 0 controls tail weight (larger = lighter
    /// tail). Models graph-degree distributions (bfs, sssp).
    PowerLaw {
        /// Tail exponent; larger means lighter tail.
        alpha: f64,
    },
    /// Two-point mixture: with probability `p_heavy`, the value is
    /// `base + spread` ("outlier" thread blocks — mst); otherwise `base`.
    Bimodal {
        /// Probability of drawing the heavy value.
        p_heavy: f64,
    },
}

impl Dist {
    /// Draw a value in `[base, base + spread]` from coordinates `coords`.
    pub fn sample(&self, base: u32, spread: u32, coords: &[u64]) -> u32 {
        if spread == 0 {
            return base;
        }
        self.at(base, spread, rng::unit_f64(coords))
    }

    /// The value in `[base, base + spread]` at uniform draw `u` in `[0, 1)`.
    fn at(&self, base: u32, spread: u32, u: f64) -> u32 {
        // u in [0, 1) keeps both products within [0, spread], so the
        // saturating f64->u32 casts cannot wrap.
        #[expect(clippy::cast_possible_truncation)]
        match *self {
            Dist::Uniform => base + (u * (spread as f64 + 1.0)) as u32,
            Dist::PowerLaw { alpha } => {
                // u^alpha concentrates mass near `base` and leaves a heavy
                // tail reaching `base + spread` — graph-degree shaped.
                base + (u.powf(alpha.max(1e-3)) * spread as f64).round() as u32
            }
            Dist::Bimodal { p_heavy } => {
                if u < p_heavy {
                    base + spread
                } else {
                    base
                }
            }
        }
    }
}

/// Where a quantity varies: per thread (divergent), per block (warp-uniform
/// within the launch), or fixed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TripCount {
    /// Same count for every thread in every block.
    Const(u32),
    /// Varies per thread block (all threads of a block agree — no
    /// divergence, but block-to-block size variation; this is what
    /// produces "irregular" kernels in Fig. 8).
    PerBlock {
        /// Minimum trips.
        base: u32,
        /// Maximum additional trips.
        spread: u32,
        /// Distribution of the additional trips.
        dist: Dist,
        /// Static site id (decorrelates multiple loops).
        site: u32,
    },
    /// Varies per thread — the source of intra-warp control-flow
    /// divergence.
    PerThread {
        /// Minimum trips.
        base: u32,
        /// Maximum additional trips.
        spread: u32,
        /// Distribution of the additional trips.
        dist: Dist,
        /// Static site id.
        site: u32,
    },
    /// Constant within contiguous `phase_len`-block *slices of the
    /// grid*, varying across slices. This is the phase-structured
    /// irregularity of real irregular kernels (Fig. 8's Type I scatter):
    /// thread blocks with nearby ids do similar work, but the workload
    /// shifts as the grid progresses — exactly the structure homogeneous
    /// regions exploit. (Pure per-block white noise would instead trip
    /// the variation factor in every epoch.) The slice length is in
    /// blocks, independent of grid size, so launches smaller than one
    /// slice are uniform.
    PerBlockPhase {
        /// Minimum trips.
        base: u32,
        /// Maximum additional trips.
        spread: u32,
        /// Blocks per contiguous phase slice.
        phase_len: u32,
        /// Distribution of the per-phase draw.
        dist: Dist,
        /// Static site id.
        site: u32,
    },
}

impl TripCount {
    /// Trip count for a specific thread. Scaled by `ctx.work_scale`
    /// (rounded, minimum of `base` and at least 0).
    pub fn eval(&self, ctx: &ExecCtx, thread_global: u64) -> u32 {
        let raw = match *self {
            TripCount::Const(n) => n,
            TripCount::PerBlock {
                base,
                spread,
                dist,
                site,
            } => dist.sample(
                base,
                spread,
                &[
                    ctx.kernel_seed,
                    ctx.launch_id.0 as u64,
                    ctx.block_id as u64,
                    site as u64,
                ],
            ),
            TripCount::PerThread {
                base,
                spread,
                dist,
                site,
            } => dist.sample(
                base,
                spread,
                &[
                    ctx.kernel_seed,
                    ctx.launch_id.0 as u64,
                    ctx.block_id as u64,
                    thread_global,
                    site as u64,
                ],
            ),
            TripCount::PerBlockPhase {
                base,
                spread,
                phase_len,
                dist,
                site,
            } => {
                // Deliberately independent of the launch id: the spatial
                // work distribution is a property of the *input data*
                // (graph communities, matrix bands, k-space density), so
                // launches over the same data see the same phases. This is
                // what lets inter-launch clustering merge equally-sized
                // launches of irregular kernels.
                let phase = (ctx.block_id / phase_len.max(1)) as u64;
                dist.sample(base, spread, &[ctx.kernel_seed, phase, site as u64])
            }
        };
        ctx.scale_trips(raw)
    }

    /// [`TripCount::eval`] for the lanes in `mask` of the warp whose lane
    /// 0 is thread `gtid_base`; returns the largest count among them (0
    /// for an empty mask). A count all lanes share is drawn once and
    /// written to all 32 entries; a `PerThread` count writes only the
    /// entries of lanes in `mask`.
    pub fn eval_lanes(
        &self,
        ctx: &ExecCtx,
        gtid_base: u64,
        mask: u32,
        counts: &mut [u32; WARP_SIZE as usize],
    ) -> u32 {
        match *self {
            TripCount::PerThread {
                base,
                spread,
                dist,
                site,
            } if spread > 0 => {
                let mut max = 0;
                ctx.thread_draws(gtid_base, mask, site, |lane, u| {
                    let c = ctx.scale_trips(dist.at(base, spread, u));
                    counts[lane as usize] = c;
                    max = max.max(c);
                });
                max
            }
            _ => {
                let c = self.eval(ctx, gtid_base);
                counts.fill(c);
                if mask == 0 {
                    0
                } else {
                    c
                }
            }
        }
    }

    /// True when all threads of a warp necessarily agree on the count.
    pub fn is_warp_uniform(&self) -> bool {
        !matches!(self, TripCount::PerThread { .. })
    }
}

/// Branch condition for `if` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Cond {
    /// Taken by every thread.
    Always,
    /// Taken by no thread.
    Never,
    /// Taken independently per thread with probability `p` (divergent).
    ThreadProb {
        /// Probability of taking the branch.
        p: f64,
        /// Static site id.
        site: u32,
    },
    /// All threads of a block agree; blocks decide independently with
    /// probability `p` (no divergence).
    BlockProb {
        /// Probability of taking the branch.
        p: f64,
        /// Static site id.
        site: u32,
    },
    /// Taken by lanes with `lane < k` (structured, deterministic
    /// divergence — boundary handling in stencil codes).
    LaneLt(
        /// Lane threshold.
        u32,
    ),
}

impl Cond {
    /// Does `thread_global` (with warp lane `lane`) take the branch?
    pub fn eval(&self, ctx: &ExecCtx, thread_global: u64, lane: u32) -> bool {
        match *self {
            Cond::Always => true,
            Cond::Never => false,
            Cond::ThreadProb { p, site } => {
                rng::unit_f64(&[
                    ctx.kernel_seed,
                    ctx.launch_id.0 as u64,
                    ctx.block_id as u64,
                    thread_global,
                    site as u64,
                ]) < p
            }
            Cond::BlockProb { p, site } => {
                rng::unit_f64(&[
                    ctx.kernel_seed,
                    ctx.launch_id.0 as u64,
                    ctx.block_id as u64,
                    site as u64,
                ]) < p
            }
            Cond::LaneLt(k) => lane < k,
        }
    }

    /// The lanes of `mask` that take the branch, in the warp whose lane 0
    /// is thread `gtid_base`: [`Cond::eval`] per lane, with warp-uniform
    /// conditions evaluated once (for `BlockProb` all lanes must agree by
    /// construction).
    pub fn eval_mask(&self, ctx: &ExecCtx, gtid_base: u64, mask: u32) -> u32 {
        match *self {
            Cond::ThreadProb { p, site } => {
                let mut taken = 0u32;
                ctx.thread_draws(gtid_base, mask, site, |lane, u| {
                    taken |= u32::from(u < p) << lane;
                });
                taken
            }
            Cond::LaneLt(k) => mask & 1u32.checked_shl(k).map_or(u32::MAX, |bit| bit - 1),
            Cond::Always | Cond::Never | Cond::BlockProb { .. } => {
                if self.eval(ctx, gtid_base, 0) {
                    mask
                } else {
                    0
                }
            }
        }
    }

    /// True when all threads of a warp necessarily agree.
    pub fn is_warp_uniform(&self) -> bool {
        matches!(self, Cond::Always | Cond::Never | Cond::BlockProb { .. })
    }
}

/// A node of the structured program tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// Straight-line code: one basic block.
    Block {
        /// BBV dimension this block contributes to.
        id: crate::types::BasicBlockId,
        /// The instructions.
        insts: Vec<Inst>,
    },
    /// Sequential composition.
    Seq(Vec<Node>),
    /// Two-way branch. Threads failing `cond` execute `else_` (if any).
    If {
        /// Branch condition.
        cond: Cond,
        /// Taken path.
        then_: Box<Node>,
        /// Not-taken path.
        else_: Option<Box<Node>>,
    },
    /// Counted loop; each thread runs `trips` iterations of `body`.
    Loop {
        /// Per-thread trip count.
        trips: TripCount,
        /// Loop body.
        body: Box<Node>,
    },
}

impl Node {
    /// Number of `Block` nodes in the subtree (= BBV dimensions it spans).
    pub fn count_blocks(&self) -> usize {
        match self {
            Node::Block { .. } => 1,
            Node::Seq(ns) => ns.iter().map(Node::count_blocks).sum(),
            Node::If { then_, else_, .. } => {
                then_.count_blocks() + else_.as_ref().map_or(0, |e| e.count_blocks())
            }
            Node::Loop { body, .. } => body.count_blocks(),
        }
    }

    /// Total static instruction count in the subtree.
    pub fn count_static_insts(&self) -> usize {
        match self {
            Node::Block { insts, .. } => insts.len(),
            Node::Seq(ns) => ns.iter().map(Node::count_static_insts).sum(),
            Node::If { then_, else_, .. } => {
                then_.count_static_insts() + else_.as_ref().map_or(0, |e| e.count_static_insts())
            }
            Node::Loop { body, .. } => body.count_static_insts(),
        }
    }

    /// True if the subtree contains a barrier.
    pub fn contains_barrier(&self) -> bool {
        match self {
            Node::Block { insts, .. } => insts
                .iter()
                .any(|i| matches!(i.op, crate::inst::Op::Barrier)),
            Node::Seq(ns) => ns.iter().any(Node::contains_barrier),
            Node::If { then_, else_, .. } => {
                then_.contains_barrier() || else_.as_ref().is_some_and(|e| e.contains_barrier())
            }
            Node::Loop { body, .. } => body.contains_barrier(),
        }
    }

    /// Visit every node in the subtree (pre-order).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Node)) {
        f(self);
        match self {
            Node::Block { .. } => {}
            Node::Seq(ns) => {
                for n in ns {
                    n.visit(f);
                }
            }
            Node::If { then_, else_, .. } => {
                then_.visit(f);
                if let Some(e) = else_ {
                    e.visit(f);
                }
            }
            Node::Loop { body, .. } => body.visit(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::tests::{random_ctx, random_gtid_base, random_mask};
    use crate::inst::Op;
    use crate::types::BasicBlockId;
    use tbpoint_stats::SplitMix64;

    fn ctx() -> ExecCtx {
        ExecCtx {
            kernel_seed: 11,
            launch_id: LaunchId(2),
            block_id: 5,
            num_blocks: 64,
            work_scale: 1.0,
        }
    }

    #[test]
    fn const_trip_count() {
        assert_eq!(TripCount::Const(7).eval(&ctx(), 0), 7);
        assert_eq!(TripCount::Const(7).eval(&ctx(), 999), 7);
        assert!(TripCount::Const(7).is_warp_uniform());
    }

    #[test]
    fn per_block_trips_agree_within_block() {
        let t = TripCount::PerBlock {
            base: 10,
            spread: 20,
            dist: Dist::Uniform,
            site: 1,
        };
        let a = t.eval(&ctx(), 0);
        let b = t.eval(&ctx(), 12345);
        assert_eq!(a, b, "PerBlock must not depend on the thread");
        assert!((10..=30).contains(&a));
        assert!(t.is_warp_uniform());
    }

    #[test]
    fn per_thread_trips_diverge() {
        let t = TripCount::PerThread {
            base: 0,
            spread: 100,
            dist: Dist::Uniform,
            site: 2,
        };
        let counts: Vec<u32> = (0..64).map(|tid| t.eval(&ctx(), tid)).collect();
        let all_same = counts.windows(2).all(|w| w[0] == w[1]);
        assert!(!all_same, "PerThread with spread should diverge");
        assert!(counts.iter().all(|&c| c <= 100));
        assert!(!t.is_warp_uniform());
    }

    #[test]
    fn work_scale_scales_trips() {
        let mut c = ctx();
        c.work_scale = 2.0;
        assert_eq!(TripCount::Const(7).eval(&c, 0), 14);
        c.work_scale = 0.5;
        assert_eq!(TripCount::Const(7).eval(&c, 0), 4); // rounds .5 away from zero
    }

    #[test]
    fn dist_bimodal_is_two_point() {
        let d = Dist::Bimodal { p_heavy: 0.25 };
        let mut heavy = 0;
        for i in 0..1000u64 {
            let v = d.sample(10, 90, &[i]);
            assert!(v == 10 || v == 100);
            if v == 100 {
                heavy += 1;
            }
        }
        assert!((150..=350).contains(&heavy), "heavy = {heavy}");
    }

    #[test]
    fn dist_power_law_skews_low() {
        let d = Dist::PowerLaw { alpha: 3.0 };
        let vals: Vec<u32> = (0..2000u64).map(|i| d.sample(0, 100, &[i, 7])).collect();
        let mean = vals.iter().sum::<u32>() as f64 / vals.len() as f64;
        assert!(mean < 40.0, "power law should skew low, mean = {mean}");
        assert!(vals.iter().any(|&v| v > 70), "tail should exist");
    }

    #[test]
    fn cond_eval_uniformity() {
        assert!(Cond::Always.eval(&ctx(), 0, 0));
        assert!(!Cond::Never.eval(&ctx(), 0, 0));
        assert!(Cond::LaneLt(4).eval(&ctx(), 100, 3));
        assert!(!Cond::LaneLt(4).eval(&ctx(), 100, 4));
        assert!(Cond::BlockProb { p: 0.5, site: 0 }.is_warp_uniform());
        assert!(!Cond::ThreadProb { p: 0.5, site: 0 }.is_warp_uniform());
        assert!(!Cond::LaneLt(4).is_warp_uniform());
    }

    #[test]
    fn thread_prob_rate_close_to_p() {
        let c = Cond::ThreadProb { p: 0.3, site: 9 };
        let taken = (0..10_000u64)
            .filter(|&t| c.eval(&ctx(), t, (t % 32) as u32))
            .count();
        assert!((2_700..=3_300).contains(&taken), "taken = {taken}");
    }

    fn random_dist(rng: &mut SplitMix64) -> Dist {
        match rng.next_index(3) {
            0 => Dist::Uniform,
            1 => Dist::PowerLaw {
                alpha: [0.0, 0.5, 2.0, 3.0][rng.next_index(4) as usize],
            },
            _ => Dist::Bimodal {
                p_heavy: rng.next_f64(),
            },
        }
    }

    /// `Cond::eval_mask` and `TripCount::eval_lanes` against the
    /// per-thread `eval` loops.
    fn warp_level_differential(seed: u64, cases: usize) {
        let mut rng = SplitMix64::new(seed);
        for case in 0..cases {
            let ctx = random_ctx(&mut rng);
            let gtid_base = random_gtid_base(&mut rng, 1);
            let mask = random_mask(&mut rng);
            let site = rng.next_index(64) as u32;
            let lanes = (0..WARP_SIZE).filter(|lane| mask & (1 << lane) != 0);

            let cond = match rng.next_index(5) {
                0 => Cond::Always,
                1 => Cond::Never,
                2 => Cond::BlockProb {
                    p: rng.next_f64(),
                    site,
                },
                3 => Cond::LaneLt(rng.next_index(40) as u32),
                _ => Cond::ThreadProb {
                    p: rng.next_f64(),
                    site,
                },
            };
            let taken = lanes
                .clone()
                .filter(|&lane| cond.eval(&ctx, gtid_base.wrapping_add(lane as u64), lane))
                .fold(0u32, |m, lane| m | 1 << lane);
            assert_eq!(
                cond.eval_mask(&ctx, gtid_base, mask),
                taken,
                "case {case}: {cond:?} {ctx:?} gtid_base {gtid_base} mask {mask:#034b}"
            );

            let (base, spread) = (rng.next_index(6) as u32, rng.next_index(40) as u32);
            let dist = random_dist(&mut rng);
            let trips = match rng.next_index(5) {
                0 => TripCount::Const(base),
                1 => TripCount::PerBlock {
                    base,
                    spread,
                    dist,
                    site,
                },
                2 => TripCount::PerBlockPhase {
                    base,
                    spread,
                    phase_len: rng.next_index(33) as u32,
                    dist,
                    site,
                },
                _ => TripCount::PerThread {
                    base,
                    spread,
                    dist,
                    site,
                },
            };
            let mut counts = [u32::MAX; WARP_SIZE as usize];
            let max = trips.eval_lanes(&ctx, gtid_base, mask, &mut counts);
            let mut want_max = 0;
            for lane in lanes {
                let want = trips.eval(&ctx, gtid_base.wrapping_add(lane as u64));
                assert_eq!(
                    counts[lane as usize], want,
                    "case {case}: lane {lane} of {trips:?} {ctx:?} gtid_base {gtid_base}"
                );
                want_max = want_max.max(want);
            }
            assert_eq!(max, want_max, "case {case}: {trips:?} mask {mask:#034b}");
        }
        println!("warp-level evaluators differential: {cases} cases, 0 mismatches");
    }

    #[test]
    fn warp_level_evaluators_match_the_lane_loops() {
        warp_level_differential(0x16A1_C0DE, 100_000);
    }

    #[test]
    #[ignore = "10M cases; CI runs it in release (cargo test --release -p tbpoint-ir -- --ignored)"]
    fn warp_level_evaluators_match_the_lane_loops_large() {
        warp_level_differential(0x16A1_5EED_9876_5432, 10_000_000);
    }

    #[test]
    fn node_counting() {
        let n = Node::Seq(vec![
            Node::Block {
                id: BasicBlockId(0),
                insts: vec![Inst {
                    op: Op::IAlu,
                    site: 0,
                }],
            },
            Node::Loop {
                trips: TripCount::Const(3),
                body: Box::new(Node::Block {
                    id: BasicBlockId(1),
                    insts: vec![
                        Inst {
                            op: Op::FAlu,
                            site: 1,
                        },
                        Inst {
                            op: Op::Barrier,
                            site: 2,
                        },
                    ],
                }),
            },
        ]);
        assert_eq!(n.count_blocks(), 2);
        assert_eq!(n.count_static_insts(), 3);
        assert!(n.contains_barrier());
        let mut visited = 0;
        n.visit(&mut |_| visited += 1);
        assert_eq!(visited, 4); // Seq, Block, Loop, Block
    }
}
