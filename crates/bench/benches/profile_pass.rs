//! The one-time profiling pass and the coalescing step beneath it.
//!
//! `profile/*`: `profile_run` on two roster kernels that are profiled by
//! block class (lbm: one class; stream: 211 short launches, so the
//! per-launch fixed cost shows) and one that needs every block emulated
//! (bfs: thread-varying); `thread_varying` is bfs's largest launch alone
//! through `profile_launch`. `walker/*`: every warp of one block through
//! `walk_warp` with a counting sink — bfs (a `ThreadProb` branch inside a
//! `PerThread` loop inside a phase loop, so the per-warp draws are
//! revisited) and spmv (a `PerThread` loop inside a phase loop).
//! `coalesce/*`: `AddrPattern::coalesced_lines` per warp instruction, one
//! case per route through it — the contiguous range, the set-bit walk,
//! and the per-lane loop `Random` keeps.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tbpoint_emu::{profile_launch, profile_run, walk_warp};
use tbpoint_ir::{AddrPattern, ExecCtx, LaunchId};
use tbpoint_workloads::{benchmark_by_name, Scale};

fn bench_profile(c: &mut Criterion) {
    let mut g = c.benchmark_group("profile");
    g.sample_size(10);
    for (label, name, scale) in [
        ("lbm_full", "lbm", Scale::Full),
        ("stream_full", "stream", Scale::Full),
        ("bfs_dev", "bfs", Scale::Dev),
    ] {
        let bench = benchmark_by_name(name, scale).expect("roster kernel");
        g.bench_function(label, |b| {
            b.iter(|| black_box(profile_run(&bench.run, 1)));
        });
    }
    let bfs = benchmark_by_name("bfs", Scale::Dev)
        .expect("roster kernel")
        .run;
    let largest = bfs
        .launches
        .iter()
        .max_by_key(|l| l.num_blocks)
        .expect("bfs has launches");
    g.bench_function("thread_varying", |b| {
        b.iter(|| black_box(profile_launch(&bfs.kernel, largest, 1)));
    });
    g.finish();
}

fn bench_walker(c: &mut Criterion) {
    let mut g = c.benchmark_group("walker");
    for (label, name) in [("bfs_shape", "bfs"), ("spmv_shape", "spmv")] {
        let run = benchmark_by_name(name, Scale::Dev)
            .expect("roster kernel")
            .run;
        let spec = run.launches[0];
        let ctx = ExecCtx {
            kernel_seed: run.kernel.seed,
            launch_id: spec.launch_id,
            block_id: spec.num_blocks / 2,
            num_blocks: spec.num_blocks,
            work_scale: spec.work_scale,
        };
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut thread_insts = 0u64;
                for warp in 0..run.kernel.warps_per_block() {
                    walk_warp(&run.kernel, black_box(&ctx), warp, &mut |ev| {
                        thread_insts += u64::from(ev.mask.count_ones());
                    });
                }
                black_box(thread_insts)
            });
        });
    }
    g.finish();
}

fn bench_coalesce(c: &mut Criterion) {
    let mut g = c.benchmark_group("coalesce");
    let ctx = ExecCtx {
        kernel_seed: 7,
        launch_id: LaunchId(0),
        block_id: 0,
        num_blocks: 1024,
        work_scale: 1.0,
    };
    let coalesced = AddrPattern::Coalesced {
        region: 0,
        stride: 4,
    };
    let strided = AddrPattern::Strided {
        region: 1,
        stride: 4096,
    };
    let random = AddrPattern::Random {
        region: 2,
        bytes: 16 << 20,
    };
    for (label, pattern, mask) in [
        ("coalesced_full_mask", coalesced, u32::MAX),
        ("strided_full_mask", strided, u32::MAX),
        ("coalesced_sparse_mask", coalesced, 0x8421_0842),
        ("random", random, u32::MAX),
    ] {
        g.bench_function(label, |b| {
            // 1024 warps' worth per iteration, so the thread id varies.
            b.iter(|| {
                let mut lines = 0;
                for warp in 0..1024u64 {
                    lines += pattern
                        .coalesced_lines(&ctx, black_box(warp * 32), mask, 3, 9)
                        .len();
                }
                black_box(lines)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_profile, bench_walker, bench_coalesce);
criterion_main!(benches);
