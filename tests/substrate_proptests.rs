//! Property-style tests over the simulator substrate: cache, DRAM,
//! occupancy, the SIMT walker and the synthetic workload builder.
//!
//! Inputs come from seeded deterministic generators (see `common::Gen`)
//! rather than `proptest`, which is unavailable in the offline build
//! environment; each case reproduces exactly from its loop index.

mod common;

use common::Gen;
use tbpoint::emu::{profile_launch, trace_warp, StaticTable};
use tbpoint::ir::ExecCtx;
use tbpoint::sim::cache::Cache;
use tbpoint::sim::{simulate_launch, CacheConfig, GpuConfig, NullSampling};
use tbpoint::workloads::{PhaseSpec, SyntheticSpec};

const CASES: u64 = 24;

fn small_spec(g: &mut Gen) -> SyntheticSpec {
    let phases = if g.usize(0, 2) == 0 {
        PhaseSpec::None
    } else {
        PhaseSpec::Phased {
            phase_len: g.u32(4, 32),
            max_mult: g.u32(2, 5),
        }
    };
    SyntheticSpec {
        name: "prop".into(),
        seed: g.any_u64(),
        threads_per_block: 64,
        launches: g.u32(1, 4),
        blocks_per_launch: g.u32(8, 48),
        // Guarantee at least one instruction per iteration.
        iterations: g.u32(1, 8),
        alu_per_iter: g.u32(0, 4).max(1),
        loads_per_iter: g.u32(0, 3),
        gather_fraction: g.f64(0.0, 1.0),
        divergence_spread: g.u32(0, 8),
        phases,
        branch_prob: g.f64(0.0, 0.6),
    }
}

/// Any synthetic workload validates, profiles and conserves the walker
/// identities: thread insts <= 32 * warp insts, and the trace agrees with
/// the profile exactly.
#[test]
fn synthetic_workloads_conserve_instruction_identities() {
    for case in 0..CASES {
        let mut g = Gen::new(0x11, case);
        let spec = small_spec(&mut g);
        let run = spec.build();
        run.kernel.validate().unwrap();
        let launch = &run.launches[0];
        let profile = profile_launch(&run.kernel, launch, 1);
        let table = StaticTable::of(&run.kernel);
        let mut trace_warp_insts = 0u64;
        let mut trace_thread_insts = 0u64;
        for tb in 0..launch.num_blocks {
            let ctx = ExecCtx {
                kernel_seed: run.kernel.seed,
                launch_id: launch.launch_id,
                block_id: tb,
                num_blocks: launch.num_blocks,
                work_scale: launch.work_scale,
            };
            for w in 0..run.kernel.warps_per_block() {
                let t = trace_warp(&run.kernel, &table, &ctx, w);
                trace_warp_insts += t.len() as u64;
                trace_thread_insts += t
                    .iter()
                    .map(|i| u64::from(i.mask.count_ones()))
                    .sum::<u64>();
            }
        }
        let p_warp: u64 = profile.tbs.iter().map(|t| t.warp_insts).sum();
        let p_thread: u64 = profile.tbs.iter().map(|t| t.thread_insts).sum();
        assert_eq!(trace_warp_insts, p_warp);
        assert_eq!(trace_thread_insts, p_thread);
        assert!(p_thread <= p_warp * 32);
    }
}

/// The timing simulator issues exactly the profiled instruction count for
/// any synthetic workload (trace-driven conservation end to end).
#[test]
fn simulation_issues_exactly_the_profiled_instructions() {
    for case in 0..CASES {
        let mut g = Gen::new(0x12, case);
        let spec = small_spec(&mut g);
        let run = spec.build();
        let launch = &run.launches[0];
        let profile = profile_launch(&run.kernel, launch, 1);
        let expected: u64 = profile.tbs.iter().map(|t| t.warp_insts).sum();
        let r = simulate_launch(
            &run.kernel,
            launch,
            &GpuConfig::fermi(),
            &mut NullSampling,
            None,
        );
        assert_eq!(r.issued_warp_insts, expected);
        // Per-SM stats agree with the aggregate counters.
        let sm_total: u64 = r.sm_stats.iter().map(|s| s.issued_warp_insts).sum();
        assert_eq!(sm_total, expected);
        let mix_total: u64 = r.sm_stats.iter().map(|s| s.mix.total()).sum();
        assert_eq!(mix_total, expected);
    }
}

/// Cache: a just-accessed line hits while it stays within the set's
/// associativity, and the hit/miss counters always sum to the access
/// count.
#[test]
fn cache_hit_semantics() {
    for case in 0..CASES {
        let mut g = Gen::new(0x13, case);
        let n_addrs = g.usize(1, 200);
        let addrs: Vec<u64> = (0..n_addrs).map(|_| g.u64(0, 1 << 20)).collect();
        let assoc = g.u32(1, 8);
        let cfg = CacheConfig {
            size_bytes: 128 * 64 * u64::from(assoc),
            line_bytes: 128,
            assoc,
        };
        let mut c = Cache::new(cfg);
        let mut accesses = 0u64;
        for &a in &addrs {
            c.access_load(a);
            accesses += 1;
            // Immediate re-access of the same line must hit (MRU).
            assert!(c.access_load(a), "line just loaded must hit");
            accesses += 1;
        }
        let (h, m) = c.stats();
        assert_eq!(h + m, accesses);
        assert!(h >= addrs.len() as u64, "at least the re-accesses hit");
    }
}

/// Kernel serde round-trips for arbitrary synthetic kernels: one decode
/// re-encodes to the identical JSON (floats may differ in the final ulp
/// on the *first* parse, so byte-stability after one trip is the correct
/// invariant), and the decoded kernel behaves identically (same profile).
#[test]
fn kernel_serde_roundtrip() {
    for case in 0..CASES {
        let mut g = Gen::new(0x14, case);
        let spec = small_spec(&mut g);
        let run = spec.build();
        let json = serde_json::to_string(&run).unwrap();
        let back: tbpoint::ir::KernelRun = serde_json::from_str(&json).unwrap();
        let json2 = serde_json::to_string(&back).unwrap();
        let back2: tbpoint::ir::KernelRun = serde_json::from_str(&json2).unwrap();
        assert_eq!(&back, &back2);
        assert_eq!(json2, serde_json::to_string(&back2).unwrap());
        back.kernel.validate().unwrap();
        // Behavioural equivalence of the decoded kernel.
        let a = profile_launch(&run.kernel, &run.launches[0], 1);
        let b = profile_launch(&back.kernel, &back.launches[0], 1);
        assert_eq!(a.warp_insts(), b.warp_insts());
        assert_eq!(a.mem_requests(), b.mem_requests());
    }
}

/// Occupancy is monotone in warp slots and never zero.
#[test]
fn occupancy_monotone_in_warps() {
    for case in 0..CASES {
        let mut g = Gen::new(0x15, case);
        let spec = small_spec(&mut g);
        let w1 = g.u32(8, 32);
        let extra = g.u32(1, 32);
        let run = spec.build();
        let small = GpuConfig::with_occupancy(w1, 14);
        let big = GpuConfig::with_occupancy(w1 + extra, 14);
        let o_small = small.sm_occupancy(&run.kernel);
        let o_big = big.sm_occupancy(&run.kernel);
        assert!(o_small >= 1);
        assert!(o_big >= o_small);
    }
}
