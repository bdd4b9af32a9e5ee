//! Bit-identity suite for the sharded parallel simulator.
//!
//! `SimOptions::jobs > 1` routes `simulate_launch` through
//! `crates/sim/src/parallel.rs`: SMs sharded across worker threads,
//! advanced in bounded cycle windows, with all cross-SM coupling (MSHRs,
//! L2, DRAM, dispatch, retirement) applied at the window barriers in a
//! canonical order. That design claims the parallel result is a pure
//! function of the input — independent of thread count and OS
//! scheduling — and *equal to the serial result*. This suite pins the
//! claim from four angles:
//!
//! 1. **Workload equality**: Table-VI workloads at Tiny scale simulate
//!    to byte-identical serialised results under serial and parallel
//!    modes (the golden suite additionally cross-checks parallel modes
//!    against the committed pre-optimisation goldens).
//! 2. **Seeded property**: random kernels that mix every address
//!    pattern, trip-count class, and branch class — heavy on the shared
//!    memory path, the part parallelism actually reorders — match
//!    serial for every `jobs` x `SimOptions` combination.
//! 3. **Observability totals**: counter totals and gauge summaries from
//!    a `CollectingRecorder` match serial exactly (event *order* within
//!    a cycle and `IdleJump` granularity may differ by design; totals
//!    may not).
//! 4. **Clamping**: `jobs == 0` and `jobs > num_sms` degrade to the
//!    nearest valid configuration rather than misbehaving.

mod common;

use common::{simulate_opts, Gen};
use tbpoint::ir::{
    AddrPattern, Cond, Dist, Kernel, KernelBuilder, LaunchId, LaunchSpec, Op, TripCount,
};
use tbpoint::obs::CollectingRecorder;
use tbpoint::sim::{simulate_launch, simulate_launch_with, GpuConfig, NullSampling, SimOptions};
use tbpoint::workloads::{all_benchmarks, Scale};

fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("sim results serialise")
}

/// Every `SimOptions` mode the serial simulator supports, at `jobs`.
fn modes(jobs: usize) -> [SimOptions; 4] {
    [true, false]
        .into_iter()
        .flat_map(|intern| {
            [true, false].map(|horizon| SimOptions {
                intern_traces: intern,
                event_horizon: horizon,
                jobs,
            })
        })
        .collect::<Vec<_>>()
        .try_into()
        .expect("2x2 option grid")
}

/// Layer 1: real workloads. Each Tiny benchmark's first launch is
/// simulated serially and under `jobs in {2, 8}` in both the default
/// (interned + event horizon) and fully de-optimised (fresh traces,
/// cycle-stepped) modes; results must serialise identically. The golden
/// suite covers more launches per workload; this one covers more of the
/// jobs axis.
#[test]
fn parallel_matches_serial_on_tiny_workloads() {
    let cfg = GpuConfig::fermi();
    let opt_modes = [(true, true), (false, false)];
    for bench in all_benchmarks(Scale::Tiny) {
        let spec = &bench.run.launches[0];
        for (intern_traces, event_horizon) in opt_modes {
            let serial = simulate_opts(
                &bench.run.kernel,
                spec,
                &cfg,
                SimOptions {
                    intern_traces,
                    event_horizon,
                    jobs: 1,
                },
            );
            let serial_json = to_json(&serial);
            for jobs in [2usize, 8] {
                let par = simulate_opts(
                    &bench.run.kernel,
                    spec,
                    &cfg,
                    SimOptions {
                        intern_traces,
                        event_horizon,
                        jobs,
                    },
                );
                assert_eq!(
                    serial_json,
                    to_json(&par),
                    "{}: jobs={jobs} intern={intern_traces} horizon={event_horizon} \
                     diverges from serial",
                    bench.name
                );
            }
        }
    }
}

/// A random kernel biased toward the shared memory path: global loads
/// and stores in every address pattern, mixed with ALU/SFU work,
/// shared-memory traffic, barriers, and divergent control flow — the
/// instruction mix most likely to expose a window-protocol ordering bug.
fn random_mem_kernel(g: &mut Gen, case: u64) -> Kernel {
    let tpb = g.u32(16, 160);
    let mut b = KernelBuilder::new(&format!("par{case}"), g.u64(1, 1 << 20), tpb);
    let mut nodes = Vec::new();
    for _ in 0..g.usize(2, 5) {
        let region = g.u32(0, 4);
        let pattern = match g.u32(0, 4) {
            0 => AddrPattern::Coalesced { region, stride: 4 },
            1 => AddrPattern::Strided {
                region,
                stride: 128 + g.u32(0, 3) * 64,
            },
            2 => AddrPattern::Random {
                region,
                bytes: 1 << g.u32(12, 18),
            },
            _ => AddrPattern::Broadcast { region },
        };
        let mut ops = vec![Op::LdGlobal(pattern), Op::IAlu, Op::FAlu];
        match g.u32(0, 4) {
            0 => ops.push(Op::StGlobal(pattern)),
            1 => {
                ops.push(Op::LdShared);
                ops.push(Op::StShared);
            }
            2 => ops.push(Op::Sfu),
            _ => ops.push(Op::Barrier),
        }
        let body = b.block(&ops);
        let site = b.fresh_site();
        let trips = match g.u32(0, 3) {
            0 => TripCount::Const(g.u32(1, 5)),
            1 => TripCount::PerBlock {
                base: g.u32(1, 4),
                spread: g.u32(0, 6),
                dist: Dist::Uniform,
                site,
            },
            _ => TripCount::PerThread {
                base: g.u32(1, 4),
                spread: g.u32(0, 6),
                dist: Dist::Uniform,
                site,
            },
        };
        let looped = b.loop_(trips, body);
        match g.u32(0, 3) {
            0 => nodes.push(looped),
            1 => {
                let cond = Cond::ThreadProb {
                    p: g.f64(0.2, 0.9),
                    site: b.fresh_site(),
                };
                nodes.push(b.if_(cond, looped, None));
            }
            _ => {
                let cond = Cond::LaneLt(g.u32(1, 32));
                nodes.push(b.if_(cond, looped, None));
            }
        }
    }
    let root = b.seq(nodes);
    b.finish(root)
}

/// Layer 2: seeded property. Random memory-heavy kernels match serial
/// under every `jobs x SimOptions` combination.
#[test]
fn parallel_matches_serial_on_seeded_memory_kernels() {
    const CASES: u64 = 10;
    let cfg = GpuConfig::fermi();
    for case in 0..CASES {
        let mut g = Gen::new(0x5a7, case);
        let kernel = random_mem_kernel(&mut g, case);
        let spec = LaunchSpec {
            launch_id: LaunchId(0),
            num_blocks: g.u32(8, 64),
            work_scale: 1.0,
        };
        for opts in modes(1) {
            let serial = simulate_opts(&kernel, &spec, &cfg, opts);
            let serial_json = to_json(&serial);
            for jobs in [2usize, 3, 8] {
                let par = simulate_opts(&kernel, &spec, &cfg, SimOptions { jobs, ..opts });
                assert_eq!(
                    serial_json,
                    to_json(&par),
                    "case {case}: jobs={jobs} opts={opts:?} diverges from serial"
                );
            }
        }
    }
}

/// Layer 3: observability totals. The parallel simulator's shard
/// recorders merge back into the caller's recorder; counter totals and
/// gauge summaries must equal serial's exactly. (Event order within a
/// cycle and idle-jump granularity are allowed to differ — windows cut
/// machine-wide idle spans where serial jumps them whole — so events
/// are compared only on their deterministic per-cycle retirement
/// stream.)
#[test]
fn parallel_observability_totals_match_serial() {
    let cfg = GpuConfig::fermi();
    let bench = &all_benchmarks(Scale::Tiny)[0];
    let spec = &bench.run.launches[0];
    let collect = |jobs: usize| {
        let rec = CollectingRecorder::new();
        simulate_launch_with(
            &bench.run.kernel,
            spec,
            &cfg,
            &mut NullSampling,
            None,
            SimOptions {
                jobs,
                ..SimOptions::default()
            },
            &rec,
        );
        rec.finish()
    };
    let serial = collect(1);
    let par = collect(3);
    assert_eq!(serial.counters, par.counters, "counter totals diverge");
    assert_eq!(serial.gauges, par.gauges, "gauge summaries diverge");
    let retires = |bundle: &tbpoint::obs::TraceBundle| {
        bundle
            .events
            .iter()
            .filter(|e| matches!(e.kind, tbpoint::obs::EventKind::TbRetired { .. }))
            .map(|e| (e.cycle, e.kind))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        retires(&serial),
        retires(&par),
        "retirement streams diverge"
    );
}

/// Layer 5 (`--features shadow-check`): the runtime phase sanitizer
/// accepts every Tiny workload and a seeded batch of memory-heavy random
/// kernels at `jobs in {1, 2, 4}` — every shared-path access is tagged
/// with the current window phase and `debug_assert`ed to not come from a
/// shard — while results stay bit-identical to serial. The final
/// assertion proves the sanitizer actually ran on this thread (barrier
/// replay happens on the coordinator, which is the test thread).
#[cfg(feature = "shadow-check")]
#[test]
fn shadow_checker_accepts_tiny_workloads_and_seeded_kernels() {
    use tbpoint::sim::shadow;
    let cfg = GpuConfig::fermi();
    let before = shadow::checks_on_this_thread();
    for bench in all_benchmarks(Scale::Tiny) {
        let spec = &bench.run.launches[0];
        let serial = simulate_launch(&bench.run.kernel, spec, &cfg, &mut NullSampling, None);
        let serial_json = to_json(&serial);
        for jobs in [1usize, 2, 4] {
            let par = simulate_opts(
                &bench.run.kernel,
                spec,
                &cfg,
                SimOptions {
                    jobs,
                    ..SimOptions::default()
                },
            );
            assert_eq!(
                serial_json,
                to_json(&par),
                "{}: jobs={jobs} diverges under shadow-check",
                bench.name
            );
        }
    }
    for case in 0..4u64 {
        let mut g = Gen::new(0xfade, case);
        let kernel = random_mem_kernel(&mut g, case);
        let spec = LaunchSpec {
            launch_id: LaunchId(0),
            num_blocks: g.u32(8, 48),
            work_scale: 1.0,
        };
        let serial = simulate_launch(&kernel, &spec, &cfg, &mut NullSampling, None);
        let serial_json = to_json(&serial);
        for jobs in [1usize, 2, 4] {
            let par = simulate_opts(
                &kernel,
                &spec,
                &cfg,
                SimOptions {
                    jobs,
                    ..SimOptions::default()
                },
            );
            assert_eq!(
                serial_json,
                to_json(&par),
                "case {case}: jobs={jobs} diverges under shadow-check"
            );
        }
    }
    assert!(
        shadow::checks_on_this_thread() > before,
        "sanitizer never ran; shared-path accesses were not phase-checked"
    );
}

/// Layer 4: out-of-range `jobs` values clamp instead of misbehaving —
/// `0` falls back to serial, and more jobs than SMs behaves like
/// one-SM-per-shard.
#[test]
fn out_of_range_jobs_clamp_to_valid_range() {
    let cfg = GpuConfig::fermi();
    let bench = &all_benchmarks(Scale::Tiny)[0];
    let spec = &bench.run.launches[0];
    let run = |jobs: usize| {
        to_json(&simulate_opts(
            &bench.run.kernel,
            spec,
            &cfg,
            SimOptions {
                jobs,
                ..SimOptions::default()
            },
        ))
    };
    let serial = to_json(&simulate_launch(
        &bench.run.kernel,
        spec,
        &cfg,
        &mut NullSampling,
        None,
    ));
    assert_eq!(serial, run(0), "jobs=0 must alias the serial path");
    assert_eq!(serial, run(1), "jobs=1 must alias the serial path");
    assert_eq!(serial, run(64), "jobs > num_sms must clamp to num_sms");
}
