//! Instructions and memory-address patterns.
//!
//! The timing model needs to know three things about an instruction: its
//! functional-unit class (for latency), whether it touches memory (for the
//! stall-probability feature, Eq. 5 of the paper), and — for global memory —
//! which per-lane addresses it generates (for coalescing, which determines
//! *memory divergence*, one of the four inter-launch features, Eq. 2).

use crate::program::ExecCtx;
use crate::types::WARP_SIZE;
use serde::{Deserialize, Serialize};
use tbpoint_stats::rng;

/// Cache-line size in bytes (Fermi: 128 B, Table V of the paper).
pub const LINE_BYTES: u64 = 128;

/// Coarse latency class of an operation, consumed by the timing simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LatencyClass {
    /// Integer / single-precision ALU op.
    Alu,
    /// Special-function unit op (transcendentals) — longer pipeline.
    Sfu,
    /// Global/local memory access — variable latency, the paper's stall
    /// events ("M" in the Markov model).
    GlobalMem,
    /// Software-managed shared memory access — short fixed latency.
    SharedMem,
    /// Block-wide barrier.
    Barrier,
}

/// How a global-memory instruction computes its 32 per-lane addresses.
///
/// Patterns are *deterministic* functions of the executing context, so the
/// profiler and the timing simulator agree on every address.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AddrPattern {
    /// `addr(lane) = region_base + (global_tid * stride + iter * row) `
    /// with a small stride: consecutive lanes fall in the same 128-B lines.
    /// One or two memory requests per warp instruction.
    Coalesced {
        /// Memory-region id (distinct arrays live in distinct regions).
        region: u32,
        /// Per-thread element stride in bytes (4 or 8 for fully coalesced).
        stride: u32,
    },
    /// Large-stride accesses: every lane touches a different line.
    /// Generates up to 32 requests per warp instruction.
    Strided {
        /// Memory-region id.
        region: u32,
        /// Per-thread stride in bytes (>= 128 defeats coalescing).
        stride: u32,
    },
    /// Data-dependent gather (graph workloads): each lane addresses a
    /// pseudo-random line in the region — the worst case for coalescing
    /// and for cache locality.
    Random {
        /// Memory-region id.
        region: u32,
        /// Region size in bytes; addresses are drawn uniformly from it.
        bytes: u64,
    },
    /// All lanes read the same address (lookup tables, kernel arguments).
    /// Always exactly one request per warp instruction.
    Broadcast {
        /// Memory-region id.
        region: u32,
    },
}

impl AddrPattern {
    /// Byte address for `lane` of the warp whose first thread has global
    /// thread id `gtid_base`, at loop iteration `iter` of program site
    /// `site`. Addresses are computed modulo 2^64 (wrapping), so the
    /// function is total over every `u64` thread id.
    pub fn lane_addr(&self, ctx: &ExecCtx, gtid_base: u64, lane: u32, iter: u32, site: u32) -> u64 {
        let gtid = gtid_base.wrapping_add(lane as u64);
        // `iter` is a *mixed* iteration key (hash-like, full u32 range);
        // fold it into a bounded slab index so every pattern stays inside
        // its region (regions are `REGION_BYTES` apart) with a realistic
        // footprint: loop iterations address different slabs of the same
        // array, not an unbounded address space.
        let slab = (iter % 4096) as u64;
        // A region base has 34 zero low bits and a slab offset is below
        // 2^30, so only the thread offset can wrap.
        let thread_off = |stride: u32| gtid.wrapping_mul(stride as u64);
        match *self {
            AddrPattern::Coalesced { region, stride } => {
                // One 256 KiB slab per iteration (a row of a 2-D array).
                (region_base(region) + slab * (256 << 10)).wrapping_add(thread_off(stride))
            }
            AddrPattern::Strided { region, stride } => {
                (region_base(region) + slab * LINE_BYTES).wrapping_add(thread_off(stride))
            }
            AddrPattern::Random { region, bytes } => {
                let r = rng::hash_coords(&[
                    ctx.kernel_seed,
                    ctx.launch_id.0 as u64,
                    gtid,
                    iter as u64,
                    site as u64,
                ]);
                region_base(region).wrapping_add(r % bytes.max(LINE_BYTES))
            }
            AddrPattern::Broadcast { region } => region_base(region) + slab * LINE_BYTES,
        }
    }

    /// Number of distinct 128-byte lines touched by the active lanes —
    /// i.e. the number of memory requests this warp instruction issues
    /// after coalescing. This is the quantity the profiler counts for the
    /// *memory divergence* feature and the stall probability `p`.
    ///
    /// Lines come out in first-touching-lane order. For the three affine
    /// patterns `addr(lane) = C + (gtid_base + lane) * stride` with `C`
    /// line-aligned, so lines are non-decreasing in `lane`: duplicates
    /// are adjacent, and a full mask with `stride <= LINE_BYTES` touches
    /// every line of `first..=last`. Only `Random` (which hashes the
    /// thread id) needs an address per lane.
    pub fn coalesced_lines(
        &self,
        ctx: &ExecCtx,
        gtid_base: u64,
        active_mask: u32,
        iter: u32,
        site: u32,
    ) -> CoalescedLines {
        let mut lines = CoalescedLines::default();
        self.coalesced_lines_into(ctx, gtid_base, active_mask, iter, site, &mut lines);
        lines
    }

    /// [`AddrPattern::coalesced_lines`] written into `lines`, whose
    /// previous contents are dropped. The profiler and the simulator keep
    /// one buffer each and refill it per memory instruction, so the hot
    /// path neither zeroes nor copies the 32-line array.
    pub fn coalesced_lines_into(
        &self,
        ctx: &ExecCtx,
        gtid_base: u64,
        active_mask: u32,
        iter: u32,
        site: u32,
        lines: &mut CoalescedLines,
    ) {
        lines.len = 0;
        let stride = match *self {
            AddrPattern::Coalesced { stride, .. } | AddrPattern::Strided { stride, .. } => {
                stride as u64
            }
            AddrPattern::Broadcast { .. } => 0,
            AddrPattern::Random { region, bytes } => {
                return gather_lines(
                    ctx,
                    region,
                    bytes,
                    gtid_base,
                    active_mask,
                    iter,
                    site,
                    lines,
                )
            }
        };
        // `C`: the address thread 0 would touch.
        let base = self.lane_addr(ctx, 0, 0, iter, site);
        // Monotonicity needs the true (unwrapped) addresses: if the last
        // lane's fits in a u64, every lane's does.
        let last_fits = gtid_base
            .checked_add(WARP_SIZE as u64 - 1)
            .and_then(|gtid| gtid.checked_mul(stride))
            .and_then(|off| base.checked_add(off))
            .is_some();
        if !last_fits {
            return self.lines_by_lane(ctx, gtid_base, active_mask, iter, site, lines);
        }
        let line_of =
            |lane: u32| (base + (gtid_base + lane as u64) * stride) / LINE_BYTES * LINE_BYTES;
        if active_mask == u32::MAX && stride <= LINE_BYTES {
            let first = line_of(0);
            for i in 0..=(line_of(WARP_SIZE - 1) - first) / LINE_BYTES {
                lines.append(first + i * LINE_BYTES);
            }
        } else {
            let mut rest = active_mask;
            while rest != 0 {
                let line = line_of(rest.trailing_zeros());
                rest &= rest - 1;
                if lines.last() != Some(line) {
                    lines.append(line);
                }
            }
        }
    }

    /// One address per active lane, deduplicated against every line seen
    /// so far: the definition of coalescing. Serves affine inputs whose
    /// addresses wrap.
    fn lines_by_lane(
        &self,
        ctx: &ExecCtx,
        gtid_base: u64,
        active_mask: u32,
        iter: u32,
        site: u32,
        lines: &mut CoalescedLines,
    ) {
        let mut rest = active_mask;
        while rest != 0 {
            let addr = self.lane_addr(ctx, gtid_base, rest.trailing_zeros(), iter, site);
            rest &= rest - 1;
            lines.push(addr / LINE_BYTES * LINE_BYTES);
        }
    }
}

/// Bits in [`gather_lines`]'s filter of line indices.
const FILTER_BITS: u64 = 1024;

/// The lane loop for `Random { region, bytes }`: [`AddrPattern::lane_addr`]
/// per active lane with the hash's two warp-invariant coordinates
/// (seed, launch) folded once, and the reduction to the span done with a
/// mask when the span is a power of two (`r % 2^k == r & (2^k - 1)`).
///
/// Deduplication goes through a filter of line indices modulo
/// [`FILTER_BITS`]: a clear bit proves the line new, so the scan of the
/// lines already pushed runs only when a lane's bit is set — for a lane
/// repeating an earlier lane's line, or for two distinct lines a multiple
/// of `FILTER_BITS` lines apart.
// Eight arguments: the pattern's two fields, the warp's four
// coordinates and the output buffer; `coalesced_lines_into` is the one
// caller.
#[expect(clippy::too_many_arguments)]
fn gather_lines(
    ctx: &ExecCtx,
    region: u32,
    bytes: u64,
    gtid_base: u64,
    active_mask: u32,
    iter: u32,
    site: u32,
    lines: &mut CoalescedLines,
) {
    let prefix = rng::hash_fold(rng::HASH_SEED, &[ctx.kernel_seed, ctx.launch_id.0 as u64]);
    let base = region_base(region);
    let span = bytes.max(LINE_BYTES);
    let pow2_mask = span.is_power_of_two().then(|| span - 1);
    let mut seen = [0u64; (FILTER_BITS / 64) as usize];
    let mut rest = active_mask;
    while rest != 0 {
        let gtid = gtid_base.wrapping_add(rest.trailing_zeros() as u64);
        rest &= rest - 1;
        let r = rng::hash_fold(prefix, &[gtid, iter as u64, site as u64]);
        let off = pow2_mask.map_or_else(|| r % span, |m| r & m);
        let line = base.wrapping_add(off) / LINE_BYTES * LINE_BYTES;
        let key = line / LINE_BYTES % FILTER_BITS;
        let (word, bit) = (&mut seen[(key / 64) as usize], 1u64 << (key % 64));
        if *word & bit == 0 {
            *word |= bit;
            lines.append(line);
        } else {
            lines.push(line);
        }
    }
}

/// Small fixed-capacity set of distinct line addresses (max one per lane).
///
/// Avoids a `HashSet` allocation on the hottest path in both the profiler
/// and the simulator (per the perf-book guidance on allocation in hot
/// loops).
#[derive(Debug, Clone, Default)]
pub struct CoalescedLines {
    lines: [u64; WARP_SIZE as usize],
    len: u8,
}

impl CoalescedLines {
    /// Insert a line address if not already present.
    pub fn push(&mut self, line_addr: u64) {
        for i in 0..self.len as usize {
            if self.lines[i] == line_addr {
                return;
            }
        }
        self.append(line_addr);
    }

    /// Insert a line address the caller knows is not present yet.
    fn append(&mut self, line_addr: u64) {
        self.lines[self.len as usize] = line_addr;
        self.len += 1;
    }

    /// The most recently inserted line address.
    fn last(&self) -> Option<u64> {
        self.len.checked_sub(1).map(|i| self.lines[i as usize])
    }

    /// Number of distinct lines.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no active lane produced an address.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over the distinct line addresses.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.lines[..self.len as usize].iter().copied()
    }
}

/// A single static instruction in a kernel program.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Integer ALU operation.
    IAlu,
    /// Floating-point ALU operation.
    FAlu,
    /// Special-function-unit operation (rsqrt, sin, ...).
    Sfu,
    /// Global-memory load with the given address pattern.
    LdGlobal(AddrPattern),
    /// Global-memory store with the given address pattern.
    StGlobal(AddrPattern),
    /// Shared-memory load.
    LdShared,
    /// Shared-memory store.
    StShared,
    /// `__syncthreads()` — block-wide barrier.
    Barrier,
}

impl Op {
    /// Latency class for the timing model.
    pub fn latency_class(&self) -> LatencyClass {
        match self {
            Op::IAlu | Op::FAlu => LatencyClass::Alu,
            Op::Sfu => LatencyClass::Sfu,
            Op::LdGlobal(_) | Op::StGlobal(_) => LatencyClass::GlobalMem,
            Op::LdShared | Op::StShared => LatencyClass::SharedMem,
            Op::Barrier => LatencyClass::Barrier,
        }
    }

    /// True for global/local memory accesses — the paper's definition of a
    /// potential stall event when computing the stall probability `p`.
    pub fn is_global_mem(&self) -> bool {
        matches!(self, Op::LdGlobal(_) | Op::StGlobal(_))
    }

    /// The address pattern, if this is a global access.
    pub fn addr_pattern(&self) -> Option<&AddrPattern> {
        match self {
            Op::LdGlobal(p) | Op::StGlobal(p) => Some(p),
            _ => None,
        }
    }
}

/// An instruction instance inside a basic block.
///
/// `site` is a unique-within-kernel static id used to decorrelate the
/// pseudo-random address streams of different instructions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Inst {
    /// Operation kind.
    pub op: Op,
    /// Unique static site id (assigned by the kernel builder).
    pub site: u32,
}

/// Bytes between consecutive region bases (16 GiB): the largest span a
/// `Random` gather may cover.
pub const REGION_BYTES: u64 = 1 << 34;

/// Number of region ids whose base fits in a `u64` address.
pub const MAX_REGIONS: u32 = 1 << 30;

/// Base byte address of a memory region. Regions are [`REGION_BYTES`]
/// apart, so no two regions below [`MAX_REGIONS`] ever share a cache line
/// — [`crate::Kernel::validate`] rejects ids past that (the shift would
/// drop their high bits and alias them onto low regions) and gather spans
/// past `REGION_BYTES` (they would reach into the next region). The
/// roster's largest region id is 3 and its largest span 8 MiB.
pub fn region_base(region: u32) -> u64 {
    (region as u64) << 34
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::program::ExecCtx;
    use crate::types::LaunchId;
    use tbpoint_stats::SplitMix64;

    fn ctx() -> ExecCtx {
        ExecCtx {
            kernel_seed: 7,
            launch_id: LaunchId(0),
            block_id: 0,
            num_blocks: 64,
            work_scale: 1.0,
        }
    }

    #[test]
    fn coalesced_pattern_touches_few_lines() {
        let p = AddrPattern::Coalesced {
            region: 0,
            stride: 4,
        };
        let lines = p.coalesced_lines(&ctx(), 0, u32::MAX, 0, 0);
        // 32 lanes * 4 bytes = 128 bytes = exactly one line.
        assert_eq!(lines.len(), 1);
    }

    #[test]
    fn strided_pattern_defeats_coalescing() {
        let p = AddrPattern::Strided {
            region: 0,
            stride: 128,
        };
        let lines = p.coalesced_lines(&ctx(), 0, u32::MAX, 0, 0);
        assert_eq!(lines.len(), 32);
    }

    #[test]
    fn broadcast_is_single_request() {
        let p = AddrPattern::Broadcast { region: 1 };
        let lines = p.coalesced_lines(&ctx(), 0, u32::MAX, 0, 0);
        assert_eq!(lines.len(), 1);
    }

    #[test]
    fn random_pattern_is_deterministic() {
        let p = AddrPattern::Random {
            region: 2,
            bytes: 1 << 20,
        };
        let a = p.lane_addr(&ctx(), 64, 3, 1, 9);
        let b = p.lane_addr(&ctx(), 64, 3, 1, 9);
        assert_eq!(a, b);
        // Different site must decorrelate.
        let c = p.lane_addr(&ctx(), 64, 3, 1, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn inactive_lanes_generate_no_requests() {
        let p = AddrPattern::Strided {
            region: 0,
            stride: 128,
        };
        let lines = p.coalesced_lines(&ctx(), 0, 0b1111, 0, 0);
        assert_eq!(lines.len(), 4);
        let none = p.coalesced_lines(&ctx(), 0, 0, 0, 0);
        assert!(none.is_empty());
    }

    #[test]
    fn regions_do_not_overlap() {
        // Largest per-region offset we generate is well under 16 GiB.
        assert!(region_base(1) - region_base(0) >= (1 << 34));
        let p0 = AddrPattern::Coalesced {
            region: 0,
            stride: 8,
        };
        let p1 = AddrPattern::Coalesced {
            region: 1,
            stride: 8,
        };
        let a0 = p0.lane_addr(&ctx(), 1_000_000, 31, 100, 0);
        assert!(a0 < region_base(1));
        assert!(p1.lane_addr(&ctx(), 0, 0, 0, 0) >= region_base(1));
    }

    #[test]
    fn coalesced_lines_dedups() {
        let mut cl = CoalescedLines::default();
        cl.push(0);
        cl.push(128);
        cl.push(0);
        assert_eq!(cl.len(), 2);
        let v: Vec<u64> = cl.iter().collect();
        assert_eq!(v, vec![0, 128]);
    }

    /// Strides on both sides of every branch of the fast path: sub-line,
    /// non-divisors of the line size, the line size itself, just past it,
    /// and large enough that `gtid * stride` wraps for big thread ids.
    const STRIDES: [u32; 10] = [0, 1, 4, 8, 12, 100, 128, 132, 4096, u32::MAX];

    pub(crate) fn random_mask(rng: &mut SplitMix64) -> u32 {
        let bits = rng.next_u64() as u32;
        match rng.next_index(6) {
            0 => 0,
            1 => u32::MAX,
            2 => 1 << rng.next_index(32),
            // Sparse, dense, and a partial trailing warp.
            3 => bits & (rng.next_u64() as u32),
            4 => bits,
            _ => (1u32 << rng.next_index(32)) - 1,
        }
    }

    pub(crate) fn random_gtid_base(rng: &mut SplitMix64, stride: u32) -> u64 {
        match rng.next_index(5) {
            // Warp-aligned, as every real launch produces.
            0 => rng.next_index(1 << 30) * 32,
            // Not a multiple of 32 (threads_per_block = 40, 200, ...).
            1 => rng.next_index(1 << 35),
            // Straddling the first thread id whose offset wraps.
            2 => (u64::MAX / (stride as u64).max(1))
                .wrapping_sub(40)
                .wrapping_add(rng.next_index(80)),
            // Straddling u64::MAX itself (`gtid_base + lane` wraps).
            3 => u64::MAX - rng.next_index(64),
            _ => rng.next_u64(),
        }
    }

    /// Gather spans on both sides of the power-of-two reduction and of
    /// the `max(LINE_BYTES)` floor; 256 KiB, whose 2,048 lines share the
    /// filter's 1,024 bits in pairs, so two of a full warp's distinct
    /// lines share a bit in about one warp in five; the roster's 6 MiB (sssp)
    /// and 8 MiB (bfs); the largest span `validate` admits.
    const SPANS: [u64; 8] = [0, 1, 96, 128, 256 << 10, 6 << 20, 8 << 20, REGION_BYTES];

    pub(crate) fn random_ctx(rng: &mut SplitMix64) -> ExecCtx {
        ExecCtx {
            kernel_seed: rng.next_u64() >> rng.next_index(64),
            launch_id: LaunchId(rng.next_u64() as u32 >> rng.next_index(32)),
            block_id: rng.next_u64() as u32 >> rng.next_index(32),
            num_blocks: 64,
            work_scale: [1.0, 0.37, 2.5][rng.next_index(3) as usize],
        }
    }

    /// The definition of coalescing: `lane_addr` for every active lane in
    /// lane order, deduplicated against every line seen so far.
    fn lines_by_lane_addr(
        pattern: &AddrPattern,
        ctx: &ExecCtx,
        gtid_base: u64,
        mask: u32,
        iter: u32,
        site: u32,
    ) -> Vec<u64> {
        let mut lines = CoalescedLines::default();
        for lane in 0..WARP_SIZE {
            if mask & (1 << lane) != 0 {
                let addr = pattern.lane_addr(ctx, gtid_base, lane, iter, site);
                lines.push(addr / LINE_BYTES * LINE_BYTES);
            }
        }
        lines.iter().collect()
    }

    /// `coalesced_lines` against the per-thread definition, order-sensitive.
    fn differential(seed: u64, cases: usize) {
        let mut rng = SplitMix64::new(seed);
        for case in 0..cases {
            let stride = STRIDES[rng.next_index(STRIDES.len() as u64) as usize];
            // Regions past 2^30 shift bits out of `region_base`.
            let region = (rng.next_u64() >> rng.next_index(64)) as u32;
            let pattern = match rng.next_index(5) {
                0 => AddrPattern::Coalesced { region, stride },
                1 => AddrPattern::Strided { region, stride },
                2 => AddrPattern::Broadcast { region },
                3 => AddrPattern::Random {
                    region,
                    bytes: SPANS[rng.next_index(SPANS.len() as u64) as usize],
                },
                _ => AddrPattern::Random {
                    region,
                    bytes: rng.next_u64() >> rng.next_index(64),
                },
            };
            let ctx = random_ctx(&mut rng);
            let gtid_base = random_gtid_base(&mut rng, stride);
            let mask = random_mask(&mut rng);
            let (iter, site) = (rng.next_u64() as u32, rng.next_index(64) as u32);
            let fast = pattern.coalesced_lines(&ctx, gtid_base, mask, iter, site);
            let slow = lines_by_lane_addr(&pattern, &ctx, gtid_base, mask, iter, site);
            assert_eq!(
                fast.iter().collect::<Vec<_>>(),
                slow,
                "case {case}: {pattern:?} {ctx:?} gtid_base {gtid_base} mask {mask:#034b} iter {iter}"
            );
        }
        println!("coalesced_lines differential: {cases} cases, 0 mismatches");
    }

    #[test]
    fn coalesced_lines_match_the_lane_loop() {
        differential(0x14A1_C0A1, 200_000);
    }

    #[test]
    #[ignore = "20M cases; CI runs it in release (cargo test --release -p tbpoint-ir -- --ignored)"]
    fn coalesced_lines_match_the_lane_loop_large() {
        differential(0x0DD5_EED5_1234_5678, 20_000_000);
    }

    #[test]
    fn wrapping_thread_offsets_take_the_lane_loop() {
        // Lanes 0..15 sit below the wrap, lanes 16..31 above it, so lines
        // are not monotone in the lane and the range shortcut would be
        // wrong; the result must still be the lane loop's.
        let p = AddrPattern::Strided {
            region: 0,
            stride: 1 << 31,
        };
        let gtid_base = (1u64 << 33) - 16;
        let lines = p.coalesced_lines(&ctx(), gtid_base, u32::MAX, 0, 0);
        assert_eq!(lines.len(), 32);
        let v: Vec<u64> = lines.iter().collect();
        assert!(v[16] < v[15], "addresses wrapped between lanes 15 and 16");
    }

    #[test]
    fn latency_classes() {
        assert_eq!(Op::IAlu.latency_class(), LatencyClass::Alu);
        assert_eq!(Op::Sfu.latency_class(), LatencyClass::Sfu);
        assert_eq!(
            Op::LdGlobal(AddrPattern::Broadcast { region: 0 }).latency_class(),
            LatencyClass::GlobalMem
        );
        assert_eq!(Op::LdShared.latency_class(), LatencyClass::SharedMem);
        assert_eq!(Op::Barrier.latency_class(), LatencyClass::Barrier);
        assert!(Op::StGlobal(AddrPattern::Broadcast { region: 0 }).is_global_mem());
        assert!(!Op::LdShared.is_global_mem());
    }
}
