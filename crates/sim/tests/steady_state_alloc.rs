//! The steady-state simulation loop allocates nothing per instruction.
//!
//! A counting global allocator sees every allocation the code under test
//! makes, callees included: `pick_warp`, `try_issue_mem`, `issue_picked`,
//! the MSHR `issue_time` and the memory system's `load_obs` and `store`
//! (the recorder sees only events there: counters are emitted once per
//! launch). Counts are per thread, so tests running in parallel do
//! not see each other's allocations. The same allocator tracks live and
//! peak heap bytes, which bounds what a resident warp costs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tbpoint_emu::TraceArena;
use tbpoint_ir::{
    AddrPattern, Cond, ExecCtx, Kernel, KernelBuilder, LaunchId, LaunchSpec, Op, TripCount,
};
use tbpoint_sim::memory::MemorySystem;
use tbpoint_sim::{simulate_launch, GpuConfig, NullSampling};
use tbpoint_stats::SplitMix64;
use tbpoint_workloads::{benchmark_by_name, Scale};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed on this thread (wraps when a
    /// block allocated elsewhere is freed here).
    static LIVE: Cell<u64> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last [`peak_bytes`] reset.
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

// `try_with`: the allocator also runs while thread locals are torn down.
fn bump(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|live| {
        let now = live.get().wrapping_add(bytes as u64);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn release(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().wrapping_sub(bytes as u64)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only a thread-local `Cell`
// and never allocates. The provided `alloc_zeroed` and `realloc` go
// through `alloc`, so a growing `Vec` is counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        release(layout.size());
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// How far live heap bytes on this thread rise above their level at the
/// call while `f` runs, and `f`'s result.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    (PEAK.with(Cell::get) - start, out)
}

/// Three loads to one store over a 64 MiB footprint, spread across the
/// SMs: L1 and L2 hits and misses, DRAM row hits and misses, MSHR stalls.
fn drive(mem: &mut MemorySystem, rng: &mut SplitMix64, calls: usize, num_sms: usize) {
    for i in 0..calls {
        let sm = i % num_sms;
        let line = rng.next_index(1 << 19) * 128;
        let now = i as u64 / 4;
        if i % 4 == 3 {
            mem.store(sm, line, now);
        } else {
            mem.load(sm, line, now);
        }
    }
}

#[test]
fn memory_system_allocates_nothing_once_warm() {
    let cfg = GpuConfig::fermi();
    let num_sms = cfg.num_sms as usize;
    let mut mem = MemorySystem::new(&cfg);
    let mut rng = SplitMix64::new(25);
    drive(&mut mem, &mut rng, 100_000, num_sms);
    let n = allocations(|| drive(&mut mem, &mut rng, 1_000_000, num_sms));
    assert_eq!(n, 0, "1M warm load/store calls allocated {n} times");
}

/// A block-invariant kernel (every warp shares one interned trace) with
/// global loads and stores in a loop of `trips` iterations.
fn looped_kernel(trips: u32) -> Kernel {
    let mut b = KernelBuilder::new("alloc", 25, 128);
    let body = b.block(&[
        Op::IAlu,
        Op::LdGlobal(AddrPattern::Coalesced {
            region: 0,
            stride: 4,
        }),
        Op::FAlu,
        Op::StGlobal(AddrPattern::Coalesced {
            region: 1,
            stride: 4,
        }),
    ]);
    let program = b.loop_(TripCount::Const(trips), body);
    b.finish(program)
}

fn launch_allocations(trips: u32) -> u64 {
    let kernel = looped_kernel(trips);
    let spec = LaunchSpec {
        launch_id: LaunchId(0),
        num_blocks: 256,
        work_scale: 1.0,
    };
    let cfg = GpuConfig::fermi();
    allocations(|| {
        simulate_launch(&kernel, &spec, &cfg, &mut NullSampling, None);
    })
}

/// Sixteen times the instructions cost a handful of allocations (the one
/// interned trace grows by a few doublings), not one per instruction.
#[test]
fn launch_allocations_do_not_scale_with_trip_count() {
    let short = launch_allocations(30);
    let long = launch_allocations(480);
    assert!(
        long.abs_diff(short) <= 8,
        "trips 30: {short} allocations, trips 480: {long}"
    );
}

/// A thread-varying kernel (a `ThreadProb` branch around a `Const` loop of
/// `trips` iterations), so the interner hands every warp a walk to stream.
fn varying_kernel(trips: u32) -> Kernel {
    let mut b = KernelBuilder::new("footprint", 25, 128);
    let site = b.fresh_site();
    let body = b.block(&[
        Op::IAlu,
        Op::LdGlobal(AddrPattern::Coalesced {
            region: 0,
            stride: 4,
        }),
        Op::FAlu,
        Op::StGlobal(AddrPattern::Coalesced {
            region: 1,
            stride: 4,
        }),
    ]);
    let looped = b.loop_(TripCount::Const(trips), body);
    let program = b.if_(Cond::ThreadProb { p: 0.9, site }, looped, None);
    b.finish(program)
}

/// Peak live heap of simulating one full wave of [`varying_kernel`]: every
/// block is dispatched at cycle 0, so all warps are resident at once.
/// Returns the peak and the wave's warp instructions.
fn wave_peak(trips: u32) -> (u64, u64) {
    let kernel = varying_kernel(trips);
    let cfg = GpuConfig::fermi();
    let spec = LaunchSpec {
        launch_id: LaunchId(0),
        num_blocks: cfg.num_sms * cfg.sm_occupancy(&kernel),
        work_scale: 1.0,
    };
    let (peak, r) = peak_bytes(|| simulate_launch(&kernel, &spec, &cfg, &mut NullSampling, None));
    assert_eq!(r.simulated_tbs, spec.num_blocks);
    (peak, r.issued_warp_insts)
}

/// A streamed warp holds its walk, not its instructions: quadrupling the
/// trip count adds instructions to every resident warp, and the peak heap
/// of the wave moves by at most a few KiB whatever their number (a
/// materialised 12-byte entry each would add over a MiB here).
#[test]
fn resident_warps_cost_no_heap_per_instruction() {
    let (short_peak, short_insts) = wave_peak(40);
    let (long_peak, long_insts) = wave_peak(160);
    let added = long_insts - short_insts;
    assert!(added > 100_000, "only {added} added warp instructions");
    let grown = long_peak.saturating_sub(short_peak);
    assert!(
        grown <= 4096,
        "peak heap grew {grown} bytes ({short_peak} -> {long_peak}) for {added} added \
         resident warp instructions"
    );
}

/// What one streamed warp holds: for the first blocks of every dev-scale
/// bfs launch, the peak heap of a warp's stream from dispatch to its last
/// instruction (the boxed walk, its frame stack and its draws) stays
/// under 1 KiB, however many instructions it yields.
#[test]
fn a_streamed_bfs_warp_holds_under_a_kib() {
    let bench = benchmark_by_name("bfs", Scale::Dev).expect("bfs is on the roster");
    let kernel = &bench.run.kernel;
    let (mut worst, mut most_insts) = (0, 0);
    for spec in &bench.run.launches {
        let mut arena = TraceArena::new(kernel);
        let table = arena.table().insts().clone();
        for block_id in 0..spec.num_blocks.min(8) {
            let ctx = ExecCtx {
                kernel_seed: kernel.seed,
                launch_id: spec.launch_id,
                block_id,
                num_blocks: spec.num_blocks,
                work_scale: spec.work_scale,
            };
            for w in 0..kernel.warps_per_block() {
                let (peak, insts) = peak_bytes(|| {
                    let mut stream = arena.warp_stream(kernel, &ctx, w);
                    assert!(stream.is_walk(), "bfs warps are thread-varying");
                    let mut insts = 0u64;
                    while stream.next(&table).is_some() {
                        insts += 1;
                    }
                    insts
                });
                worst = worst.max(peak);
                most_insts = most_insts.max(insts);
            }
        }
    }
    assert!(
        most_insts > 100,
        "the longest warp has {most_insts} instructions"
    );
    assert!(
        worst < 1024,
        "a streamed bfs warp peaked at {worst} heap bytes (longest warp: {most_insts} instructions)"
    );
}
