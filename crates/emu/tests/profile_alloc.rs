//! The block-class profile path allocates per class, not per block.
//!
//! A counting global allocator sees every allocation `profile_launch`
//! makes, callees included. Counts are per thread, so tests running in
//! parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tbpoint_emu::{block_classes, profile_launch};
use tbpoint_ir::{AddrPattern, Dist, Kernel, KernelBuilder, LaunchId, LaunchSpec, Op, TripCount};

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

fn launch_allocations(kernel: &Kernel, num_blocks: u32) -> u64 {
    let spec = LaunchSpec {
        launch_id: LaunchId(0),
        num_blocks,
        work_scale: 1.0,
    };
    assert_eq!(block_classes(kernel, &spec), Ok(4));
    allocations(|| {
        std::hint::black_box(profile_launch(kernel, &spec, 1));
    })
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
