//! One-time profiling in action (Section V-C / Figs. 12-13): profile a
//! kernel once, then retarget TBPoint at hardware configurations with
//! different system occupancies — only the cheap clustering and the
//! sampled simulation rerun.
//!
//! ```text
//! cargo run --release --example hw_sensitivity
//! ```

use tbpoint::prelude::*;
use tbpoint::sim::NullSampling;
use tbpoint::workloads::{benchmark_by_name, Scale};

fn main() -> Result<(), TbError> {
    let bench = benchmark_by_name("spmv", Scale::Dev).expect("spmv is in the roster");

    // Profile exactly once. This is the expensive, hardware-INDEPENDENT
    // step — note it takes no GpuConfig argument at all.
    let t0 = std::time::Instant::now();
    let profile = profile_run(&bench.run, 4);
    println!("one-time profile of spmv: {:?}", t0.elapsed());
    println!();
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10}",
        "config", "occupancy", "full IPC", "err %", "sample %"
    );

    // Retarget: warps per SM (W) and SM count (S) change the epoch size
    // (= system occupancy), so homogeneous regions are re-identified from
    // the SAME profile; the paper's Figs. 12-13 sweep.
    for (w, s) in [
        (16u32, 8u32),
        (32, 8),
        (16, 14),
        (32, 14),
        (48, 14),
        (48, 28),
    ] {
        let gpu = GpuConfig::with_occupancy(w, s);
        let full = simulate_run(&bench.run, &gpu, &mut NullSampling, None);
        let tbp = run_tbpoint(
            &bench.run,
            Some(&profile),
            &TbpointConfig::default(),
            &gpu,
            ExecPlan::serial(),
        )?;
        println!(
            "{:>8} {:>10} {:>10.3} {:>10.2} {:>10.1}",
            format!("W{w}S{s}"),
            gpu.system_occupancy(&bench.run.kernel),
            full.overall_ipc(),
            tbp.error_vs(full.overall_ipc()),
            tbp.sample_size() * 100.0
        );
    }
    println!();
    println!("(The profile was reused verbatim across all six configurations —");
    println!(" hardware independence + one-time profiling, the Table II claims.)");
    Ok(())
}
