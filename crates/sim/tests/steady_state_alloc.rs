//! The steady-state simulation loop allocates nothing per instruction.
//!
//! A counting global allocator sees every allocation the code under test
//! makes, callees included: `pick_warp`, `try_issue_mem`, `issue_picked`,
//! the MSHR `issue_time` and the memory system's `load_obs` /
//! `store_obs`. Counts are per thread, so tests running in parallel do
//! not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tbpoint_ir::{AddrPattern, Kernel, KernelBuilder, LaunchId, LaunchSpec, Op, TripCount};
use tbpoint_sim::memory::MemorySystem;
use tbpoint_sim::{simulate_launch, GpuConfig, NullSampling};
use tbpoint_stats::SplitMix64;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only a thread-local `Cell`
// and never allocates. The provided `alloc_zeroed` and `realloc` go
// through `alloc`, so a growing `Vec` is counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
