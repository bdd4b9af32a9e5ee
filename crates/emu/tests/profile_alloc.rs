//! The block-class profile path allocates per class, not per block, and
//! its result holds a 2-byte class id per block.
//!
//! A counting global allocator sees every allocation `profile_launch`
//! makes, callees included, and the bytes still held when it returns.
//! Counts are per thread, so tests running in parallel do not see each
//! other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tbpoint_emu::{block_classes, profile_launch};
use tbpoint_ir::{AddrPattern, Dist, Kernel, KernelBuilder, LaunchId, LaunchSpec, Op, TripCount};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    move_live(bytes as i64);
}

fn move_live(bytes: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
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
        move_live(-(layout.size() as i64));
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

/// A class-path kernel: a phase-sliced loop (one phase spans every
/// launch below) over coalesced loads and stores, with 96 threads per
/// block so first-thread ids fall at four residues modulo the line size.
fn class_kernel() -> Kernel {
    let mut b = KernelBuilder::new("alloc", 29, 96);
    let site = b.fresh_site();
    let body = b.block(&[
        Op::IAlu,
        Op::LdGlobal(AddrPattern::Coalesced {
            region: 0,
            stride: 4,
        }),
        Op::StGlobal(AddrPattern::Strided {
            region: 1,
            stride: 8,
        }),
    ]);
    let program = b.loop_(
        TripCount::PerBlockPhase {
            base: 2,
            spread: 3,
            phase_len: 1 << 20,
            dist: Dist::Uniform,
            site,
        },
        body,
    );
    b.finish(program)
}

fn spec(num_blocks: u32) -> LaunchSpec {
    LaunchSpec {
        launch_id: LaunchId(0),
        num_blocks,
        work_scale: 1.0,
    }
}

fn launch_allocations(kernel: &Kernel, num_blocks: u32) -> u64 {
    let spec = spec(num_blocks);
    assert_eq!(block_classes(kernel, &spec), Ok(4));
    allocations(|| {
        std::hint::black_box(profile_launch(kernel, &spec));
    })
}

/// Heap bytes the result of `profile_launch` holds, as the allocator saw
/// them; they must also be what the profile reports holding.
fn held_bytes(kernel: &Kernel, num_blocks: u32) -> i64 {
    let before = LIVE.with(Cell::get);
    let profile = std::hint::black_box(profile_launch(kernel, &spec(num_blocks)));
    let held = LIVE.with(Cell::get) - before;
    assert_eq!(profile.num_classes(), Some(4));
    assert_eq!(held, profile.heap_bytes() as i64, "{num_blocks} blocks");
    held
}

/// A hundred times the blocks cost the same handful of allocations (the
/// block roster is one of them), not one per block.
#[test]
fn class_path_allocations_do_not_scale_with_block_count() {
    let kernel = class_kernel();
    let small = launch_allocations(&kernel, 1_000);
    let large = launch_allocations(&kernel, 100_000);
    assert!(
        large.abs_diff(small) <= 8,
        "1,000 blocks: {small} allocations, 100,000 blocks: {large}"
    );
}

/// A class-path profile grows by one 2-byte class id per added block,
/// not by a 24-byte `TbStats` copy.
#[test]
fn class_path_profile_holds_two_bytes_per_block() {
    let kernel = class_kernel();
    let small = held_bytes(&kernel, 1_000);
    let large = held_bytes(&kernel, 100_000);
    let per_block = (large - small) as f64 / 99_000.0;
    assert!(
        per_block <= 2.0,
        "1,000 blocks hold {small} B, 100,000 blocks {large} B: {per_block:.2} B per block"
    );
}
