//! The simulator's per-issue and per-access path, one layer at a time.
//!
//! `issue/*`: one SM at full warp occupancy (6 blocks x 8 warps), issued
//! until drained — the scheduler pick plus the issue body, with the
//! memory system behind it for the gather case. `cache/*`: `access_load`
//! on the L1 geometry (16 sets, shift and mask) with a streaming pattern
//! and on the L2 geometry (768 sets, one `div`) with random lines.
//! `dram/map_random`: `Dram::access` on random lines — the address map
//! (private) plus one bank update.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tbpoint_emu::TraceArena;
use tbpoint_ir::{AddrPattern, ExecCtx, Kernel, KernelBuilder, LaunchId, Op, TbId, TripCount};
use tbpoint_sim::cache::Cache;
use tbpoint_sim::dram::Dram;
use tbpoint_sim::memory::MemorySystem;
use tbpoint_sim::sm::SmCore;
use tbpoint_sim::{GpuConfig, SchedPolicy};
use tbpoint_stats::SplitMix64;

/// 256-thread blocks: six fit an SM, 48 resident warps.
fn kernel(name: &str, ops: &[Op], trips: u32) -> Kernel {
    let mut b = KernelBuilder::new(name, 3, 256);
    let body = b.block(ops);
    let n = b.loop_(TripCount::Const(trips), body);
    b.finish(n)
}

/// Fill one SM, then issue until it drains, jumping idle spans the way
/// the launch loop does. Returns the final cycle.
fn drain_one_sm(kernel: &Kernel, cfg: &GpuConfig) -> u64 {
    let occupancy = cfg.sm_occupancy(kernel);
    let mut sm = SmCore::new(0, occupancy, cfg);
    let mut arena = TraceArena::with_caching(kernel, true);
    let mut mem = MemorySystem::new(cfg);
    for block_id in 0..occupancy {
        let ctx = ExecCtx {
            kernel_seed: kernel.seed,
            launch_id: LaunchId(0),
            block_id,
            num_blocks: occupancy,
            work_scale: 1.0,
        };
        sm.dispatch(
            block_id as usize,
            kernel,
            ctx,
            TbId(block_id),
            0,
            0,
            &mut arena,
        );
    }
    let mut now = 0;
    while !sm.is_empty() {
        let issued = sm.try_issue(now, &mut mem).issued_bb.is_some();
        now = if issued {
            now + 1
        } else {
            sm.ready_hint().max(now + 1)
        };
    }
    now
}

fn bench_issue(c: &mut Criterion) {
    let mut g = c.benchmark_group("issue");
    g.sample_size(20);
    let alu = kernel("alu", &[Op::IAlu, Op::FAlu, Op::IAlu, Op::FAlu], 1000);
    let gather = kernel(
        "gather",
        &[
            Op::IAlu,
            Op::LdGlobal(AddrPattern::Random {
                region: 0,
                bytes: 16 << 20,
            }),
        ],
        100,
    );
    for (label, kernel, sched) in [
        ("alu_48warps_rr", &alu, SchedPolicy::RoundRobin),
        ("alu_48warps_gto", &alu, SchedPolicy::Gto),
        ("gather_48warps_rr", &gather, SchedPolicy::RoundRobin),
    ] {
        let cfg = GpuConfig {
            sched,
            ..GpuConfig::fermi()
        };
        assert_eq!(cfg.sm_occupancy(kernel) * kernel.warps_per_block(), 48);
        g.bench_function(label, |b| {
            b.iter(|| black_box(drain_one_sm(kernel, &cfg)));
        });
    }
    g.finish();
}

const ACCESSES: u64 = 1 << 20;

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.sample_size(20);
    let cfg = GpuConfig::fermi();
    g.bench_function("l1_16sets_stream", |b| {
        let mut cache = Cache::new(cfg.l1);
        b.iter(|| {
            // Four touches per 128-byte line, as a coalesced stream does.
            let hits = (0..ACCESSES).filter(|i| cache.access_load(black_box(i * 32)));
            black_box(hits.count())
        });
    });
    let mut rng = SplitMix64::new(0x12);
    // 4 MiB of lines over a 768 KiB cache.
    let lines: Vec<u64> = (0..ACCESSES)
        .map(|_| rng.next_index(1 << 15) * 128)
        .collect();
    g.bench_function("l2_768sets_random", |b| {
        let mut cache = Cache::new(cfg.l2);
        b.iter(|| black_box(lines.iter().filter(|&&a| cache.access_load(a)).count()));
    });
    g.finish();
}

fn bench_dram(c: &mut Criterion) {
    let mut g = c.benchmark_group("dram");
    g.sample_size(20);
    let mut rng = SplitMix64::new(0x34);
    let lines: Vec<u64> = (0..ACCESSES)
        .map(|_| rng.next_index(1 << 28) * 128)
        .collect();
    g.bench_function("map_random", |b| {
        let mut dram = Dram::new(&GpuConfig::fermi());
        b.iter(|| {
            let done = lines.iter().map(|&a| dram.access(a, 0)).max();
            black_box(done)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_issue, bench_cache, bench_dram);
criterion_main!(benches);
