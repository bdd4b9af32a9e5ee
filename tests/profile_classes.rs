//! `profile_launch` against its reference, `profile_tb` on every block.
//!
//! A kernel with block-invariant control flow and affine addresses is
//! profiled once per block class (see DESIGN.md, "Profiling by block
//! class"); the result must equal emulating every block, whichever
//! route a kernel takes. Two populations:
//!
//! 1. seeded random kernels, three in four drawn from the class-eligible
//!    subset (phase-sliced trips, partial trailing warps, thread counts
//!    that leave first-thread ids off line boundaries, mixed strides),
//!    the rest unrestricted so the per-block route stays covered;
//! 2. every launch of every roster kernel.
//!
//! On the roster, three sources of a block's stats must agree on every
//! block of every launch: [`BlockClasses::stats`] (which the live sampler
//! charges skipped blocks from), the profile, and the timing simulator's
//! retire stream (which the live sampler clusters). And every way of
//! reading a profile (block by block, in epoch-sized runs, launch totals,
//! the size CoV) must give what `profile_tb`'s records give, whether the
//! profile holds a class table or a record per block.
//!
//! The quick variants run in the workspace suite; the `#[ignore]`d ones
//! are CI's release-mode step.

mod common;

use common::{random_kernel, Gen};
use tbpoint::emu::profile::profile_tb;
use tbpoint::emu::{
    block_classes, profile_launch, profile_run, BlockClasses, LaunchProfile, TbStats,
};
use tbpoint::ir::{ExecCtx, Kernel, LaunchId, LaunchSpec, TbId};
use tbpoint::sim::{simulate_launch_perf, DispatchDecision, GpuConfig, SamplingHook};
use tbpoint::stats::cov;
use tbpoint::workloads::{all_benchmarks, Scale};

/// Every block through `profile_tb`: what `profile_launch` must equal.
fn per_block_reference(kernel: &Kernel, spec: &LaunchSpec) -> LaunchProfile {
    let tbs = (0..spec.num_blocks)
        .map(|block_id| {
            let ctx = ExecCtx {
                kernel_seed: kernel.seed,
                launch_id: spec.launch_id,
                block_id,
                num_blocks: spec.num_blocks,
                work_scale: spec.work_scale,
            };
            profile_tb(kernel, &ctx)
        })
        .collect();
    LaunchProfile::per_block(*spec, tbs)
}

/// Returns (blocks compared, blocks whose profile was a stamped copy).
fn random_kernels_match(test_seed: u64, cases: u64, max_blocks: u32) -> (u64, u64) {
    let (mut blocks, mut shared) = (0u64, 0u64);
    for case in 0..cases {
        let mut g = Gen::new(test_seed, case);
        let block_invariant = case % 4 != 0;
        let kernel = random_kernel(&mut g, case, block_invariant);
        let spec = LaunchSpec {
            launch_id: LaunchId(g.u32(0, 5)),
            num_blocks: g.u32(1, max_blocks),
            work_scale: [1.0, 0.5, 2.0][g.usize(0, 3)],
        };
        let classes = block_classes(&kernel, &spec);
        if block_invariant {
            let classes = classes.expect("a block-invariant draw must take the class path");
            shared += u64::from(spec.num_blocks) - classes as u64;
        }
        let reference = per_block_reference(&kernel, &spec);
        assert_eq!(
            profile_launch(&kernel, &spec),
            reference,
            "case {case} ({classes:?} classes): {kernel:?}"
        );
        blocks += u64::from(spec.num_blocks);
    }
    (blocks, shared)
}

#[test]
fn random_kernels_profile_like_profile_tb() {
    let (blocks, shared) = random_kernels_match(0x14C1, 200, 100);
    println!("200 cases, {blocks} blocks, {shared} stamped from a class: 0 mismatches");
    // The test is vacuous unless a good share of blocks really were copies
    // (a quarter of the cases are per-block draws and share nothing).
    assert!(shared * 3 > blocks, "{shared} of {blocks} blocks shared");
}

#[test]
#[ignore = "5,000 larger cases; CI runs it in release (cargo test --release --test profile_classes -- --ignored)"]
fn random_kernels_profile_like_profile_tb_large() {
    let (blocks, shared) = random_kernels_match(0x14C2, 5_000, 600);
    println!("5000 cases, {blocks} blocks, {shared} stamped from a class: 0 mismatches");
}

fn roster_matches(scale: Scale) {
    let mut launches = 0;
    for bench in all_benchmarks(scale) {
        let kernel = &bench.run.kernel;
        let reference: Vec<LaunchProfile> = bench
            .run
            .launches
            .iter()
            .map(|spec| per_block_reference(kernel, spec))
            .collect();
        let run = profile_run(&bench.run, 1);
        assert_eq!(run.kernel_name, kernel.name);
        assert!(
            run.launches == reference,
            "{} at {scale:?}: profile_run differs from profile_tb",
            bench.name
        );
        launches += reference.len();
    }
    println!("{scale:?}: 12 kernels, {launches} launches: 0 mismatches");
}

#[test]
fn roster_profiles_like_profile_tb_tiny() {
    roster_matches(Scale::Tiny);
}

#[test]
#[ignore = "dev-scale roster; CI runs it in release (cargo test --release --test profile_classes -- --ignored)"]
fn roster_profiles_like_profile_tb_dev() {
    roster_matches(Scale::Dev);
}

/// Every accessor of `profile_launch`'s result against `profile_tb`'s
/// records, on every block of every roster launch. Returns the blocks read
/// through a class table.
fn roster_accessors_match(scale: Scale) -> u64 {
    let gpu = GpuConfig::fermi();
    let mut class_blocks = 0u64;
    for bench in all_benchmarks(scale) {
        let kernel = &bench.run.kernel;
        let occupancy = gpu.system_occupancy(kernel) as usize;
        for spec in &bench.run.launches {
            let at = format!("{} launch {} at {scale:?}", bench.name, spec.launch_id.0);
            let profile = profile_launch(kernel, spec);
            let records: Vec<TbStats> = per_block_reference(kernel, spec).tbs().collect();
            let n = records.len();
            assert_eq!(n, spec.num_blocks as usize, "{at}");
            assert_eq!(profile.num_blocks(), n, "{at}");
            match block_classes(kernel, spec) {
                Ok(classes) => {
                    assert_eq!(profile.num_classes(), Some(classes), "{at}");
                    class_blocks += n as u64;
                }
                Err(_) => assert_eq!(profile.num_classes(), None, "{at}"),
            }
            assert_eq!(profile.check_classes(), Ok(()), "{at}");
            for (b, record) in records.iter().enumerate() {
                assert_eq!(profile.tb(b), Some(*record), "{at}, tb {b}");
            }
            assert_eq!(profile.tb(n), None, "{at}");
            assert!(profile.tbs().eq(records.iter().copied()), "{at}");
            for start in (0..n).step_by(occupancy) {
                let end = (start + occupancy).min(n);
                let run: Vec<TbStats> = profile.tbs_in(start..end).collect();
                assert_eq!(run, records[start..end], "{at}, tbs {start}..{end}");
            }
            let sum = |f: fn(&TbStats) -> u64| records.iter().map(f).sum::<u64>();
            assert_eq!(profile.thread_insts(), sum(|t| t.thread_insts), "{at}");
            assert_eq!(profile.warp_insts(), sum(|t| t.warp_insts), "{at}");
            assert_eq!(profile.mem_requests(), sum(|t| t.mem_requests), "{at}");
            let sizes: Vec<f64> = records.iter().map(|t| t.thread_insts as f64).collect();
            assert_eq!(
                profile.tb_size_cov().to_bits(),
                cov(&sizes).to_bits(),
                "{at}"
            );
        }
    }
    println!("{scale:?}: every accessor agrees, {class_blocks} blocks read through class tables");
    class_blocks
}

#[test]
fn profile_accessors_match_profile_tb_tiny() {
    assert!(roster_accessors_match(Scale::Tiny) > 0);
}

#[test]
#[ignore = "dev-scale roster; CI runs it in release (cargo test --release --test profile_classes -- --ignored)"]
fn profile_accessors_match_profile_tb_dev() {
    roster_accessors_match(Scale::Dev);
}

/// The class path is chosen from the kernel alone: which roster kernels
/// take it is part of the performance claim (EXPERIMENTS.md, "Profile
/// pass cost"), so a kernel silently changing sides should fail here.
#[test]
fn roster_split_between_the_two_paths() {
    let mut by_class: Vec<&str> = all_benchmarks(Scale::Tiny)
        .iter()
        .filter(|b| block_classes(&b.run.kernel, &b.run.launches[0]).is_ok())
        .map(|b| b.name)
        .collect();
    by_class.sort_unstable();
    assert_eq!(
        by_class,
        ["black", "cfd", "conv", "hotspot", "kmeans", "lbm", "stream"]
    );
}

/// Every retire-streamed [`TbStats`], by block.
struct RetireStream {
    stats: Vec<Option<TbStats>>,
}

impl SamplingHook for RetireStream {
    fn on_dispatch(&mut self, _tb: TbId, _cycle: u64, _issued: u64) -> DispatchDecision {
        DispatchDecision::Simulate
    }

    fn on_retire(&mut self, tb: TbId, _cycle: u64, _issued: u64, stats: TbStats) {
        let slot = &mut self.stats[tb.0 as usize];
        assert!(slot.is_none(), "tb {} retired twice", tb.0);
        *slot = Some(stats);
    }
}

/// `BlockClasses` = profile = retire stream on every block of every
/// roster launch. Classes are asked in reverse block order, so a class
/// is first emulated from some block other than its lowest. Returns
/// (launches, blocks answered from classes).
fn roster_streams_match(scale: Scale) -> (usize, u64) {
    let gpu = GpuConfig::fermi();
    let (mut launches, mut class_blocks) = (0, 0u64);
    for bench in all_benchmarks(scale) {
        let kernel = &bench.run.kernel;
        for spec in &bench.run.launches {
            let at = format!("{} launch {} at {scale:?}", bench.name, spec.launch_id.0);
            let profile = profile_launch(kernel, spec);
            if let Some(mut classes) = BlockClasses::new(kernel, spec) {
                for b in (0..spec.num_blocks).rev() {
                    assert_eq!(
                        Some(classes.stats(b)),
                        profile.tb(b as usize),
                        "{at}, tb {b}"
                    );
                }
                class_blocks += u64::from(spec.num_blocks);
            }
            let mut hook = RetireStream {
                stats: vec![None; spec.num_blocks as usize],
            };
            let (r, perf) = simulate_launch_perf(kernel, spec, &gpu, &mut hook, None, 1);
            assert_eq!(perf.stat_retires, u64::from(spec.num_blocks), "{at}");
            assert_eq!(perf.hook_skips, 0, "{at}");
            for (b, (streamed, profiled)) in hook.stats.iter().zip(profile.tbs()).enumerate() {
                assert_eq!(*streamed, Some(profiled), "{at}, tb {b}");
            }
            assert_eq!(r.issued_warp_insts, profile.warp_insts(), "{at}");
            launches += 1;
        }
    }
    println!("{scale:?}: {launches} launches, {class_blocks} blocks from classes: 0 mismatches");
    (launches, class_blocks)
}

#[test]
fn retire_streamed_stats_match_the_profiler() {
    let (launches, class_blocks) = roster_streams_match(Scale::Tiny);
    assert!(launches > 12 && class_blocks > 0);
}

#[test]
#[ignore = "dev-scale roster; CI runs it in release (cargo test --release --test profile_classes -- --ignored)"]
fn retire_streamed_stats_match_the_profiler_dev() {
    roster_streams_match(Scale::Dev);
}
