//! Quickstart: define a kernel, profile it once, then simulate it with
//! and without TBPoint sampling and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tbpoint::ir::{AddrPattern, KernelBuilder, KernelRun, LaunchId, LaunchSpec, Op, TripCount};
use tbpoint::prelude::*;
use tbpoint::sim::NullSampling;

fn main() -> Result<(), TbError> {
    // 1. Describe a kernel with the builder: a simple streaming kernel,
    //    30 loop iterations of ALU work plus one coalesced load.
    let mut b = KernelBuilder::new("quickstart", 42, 128);
    let body = b.block(&[
        Op::IAlu,
        Op::FAlu,
        Op::LdGlobal(AddrPattern::Coalesced {
            region: 0,
            stride: 4,
        }),
    ]);
    let program = b.loop_(TripCount::Const(30), body);
    let kernel = b.finish(program);
    kernel.validate().expect("kernel is well-formed");

    // 2. Give it eight identical launches of 2,000 thread blocks — the
    //    pattern of an iterative solver.
    let run = KernelRun {
        kernel,
        launches: (0..8)
            .map(|i| LaunchSpec {
                launch_id: LaunchId(i),
                num_blocks: 2000,
                work_scale: 1.0,
            })
            .collect(),
    };

    let gpu = GpuConfig::fermi(); // the paper's Table V machine

    // 3. One-time, hardware-independent profiling (the GPUOcelot step).
    let profile = profile_run(&run, 4);
    println!(
        "profiled {} launches, {} thread blocks, {} warp instructions",
        profile.launches.len(),
        run.total_blocks(),
        profile.total_warp_insts()
    );

    // 4. Reference: the full cycle-level simulation.
    let t0 = std::time::Instant::now();
    let full = simulate_run(&run, &gpu, &mut NullSampling, None);
    let t_full = t0.elapsed();
    println!(
        "full simulation: IPC {:.3} over {} cycles  ({:?})",
        full.overall_ipc(),
        full.total_cycles(),
        t_full
    );

    // 5. TBPoint: inter-launch + intra-launch sampling with the paper's
    //    thresholds (sigma_inter = 0.1, sigma_intra = 0.2, VF = 0.3).
    let t1 = std::time::Instant::now();
    let tbp = run_tbpoint(
        &run,
        Some(&profile),
        &TbpointConfig::default(),
        &gpu,
        ExecPlan::serial(),
    )?;
    let t_tbp = t1.elapsed();
    println!(
        "TBPoint:         IPC {:.3} predicted  ({:?})",
        tbp.predicted_ipc, t_tbp
    );
    println!(
        "sampling error {:.2}%  |  sample size {:.1}%  |  simulated {}/{} launches",
        tbp.error_vs(full.overall_ipc()),
        tbp.sample_size() * 100.0,
        tbp.num_simulated_launches,
        tbp.num_launches
    );
    println!(
        "savings: {} warp insts skipped by inter-launch, {} by intra-launch sampling",
        tbp.breakdown.inter_skipped_warp_insts, tbp.breakdown.intra_skipped_warp_insts
    );
    Ok(())
}
