//! Bring your own workload: describe a kernel with [`SyntheticSpec`]
//! knobs instead of hand-building a program tree, then watch the
//! intra-launch sampler work through it event by event via a
//! [`CollectingRecorder`].
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use tbpoint::core::intra::{build_epochs, identify_regions, IntraConfig};
use tbpoint::prelude::*;
use tbpoint::sim::NullSampling;
use tbpoint::workloads::{PhaseSpec, SyntheticSpec};

fn main() -> Result<(), TbError> {
    // A memory-divergent, phase-structured workload: three grid phases
    // with up to 3x work, half the loads as random gathers, mild branch
    // divergence.
    let spec = SyntheticSpec {
        name: "custom".into(),
        seed: 2024,
        threads_per_block: 128,
        launches: 1,
        blocks_per_launch: 2048,
        iterations: 12,
        alu_per_iter: 2,
        loads_per_iter: 2,
        gather_fraction: 0.5,
        divergence_spread: 6,
        phases: PhaseSpec::Phased {
            phase_len: 672,
            max_mult: 3,
        },
        branch_prob: 0.2,
    };
    let run = spec.build();
    let gpu = GpuConfig::fermi();
    let launch = &run.launches[0];

    // Characterise it.
    let profile = profile_launch(&run.kernel, launch);
    let warp_insts = profile.warp_insts() as f64;
    println!(
        "workload: {} TBs, {} warp insts, SIMD efficiency {:.1}%, {:.2} requests/warp inst",
        launch.num_blocks,
        profile.warp_insts(),
        profile.thread_insts() as f64 / (warp_insts * 32.0) * 100.0,
        profile.mem_requests() as f64 / warp_insts
    );

    // Identify homogeneous regions.
    let occupancy = gpu.system_occupancy(&run.kernel);
    let epochs = build_epochs(&profile, occupancy);
    let table = identify_regions(&epochs, &IntraConfig::default());
    println!(
        "epochs of {occupancy} TBs: {} total, {} regions identified",
        epochs.len(),
        table.regions.len()
    );

    // Reference run.
    let full = simulate_launch(&run.kernel, launch, &gpu, &mut NullSampling, None);

    // Sampled run with a recorder attached.
    let rec = CollectingRecorder::new();
    let mut sampler = RegionSampler::new(&TbpointConfig::default(), &table, &profile, &rec)?;
    let sampled = simulate_launch(&run.kernel, launch, &gpu, &mut sampler, None);
    let out = sampler.outcome();

    println!("\nsampler event log (condensed):");
    let mut skipped_in_row = 0u32;
    for ev in rec.events() {
        match ev.kind {
            EventKind::BlockSkipped { .. } => skipped_in_row += 1,
            other => {
                if skipped_in_row > 0 {
                    println!("  ... {skipped_in_row} blocks skipped");
                    skipped_in_row = 0;
                }
                let cycle = ev.cycle;
                match other {
                    EventKind::RegionEntered { region } => {
                        println!("  cycle {cycle:>9}: entered region {region}")
                    }
                    EventKind::RegionExited => {
                        println!("  cycle {cycle:>9}: exited region")
                    }
                    EventKind::UnitClosed { ipc } => {
                        println!("  cycle {cycle:>9}: sampling unit closed, IPC {ipc:.3}")
                    }
                    EventKind::FastForwardStarted { region, ipc } => {
                        println!("  cycle {cycle:>9}: FAST-FORWARD region {region} at IPC {ipc:.3}")
                    }
                    _ => {}
                }
            }
        }
    }
    if skipped_in_row > 0 {
        println!("  ... {skipped_in_row} blocks skipped");
    }

    let predicted_cycles = sampled.cycles as f64 + out.predicted_skipped_cycles;
    let total = (sampled.issued_warp_insts + out.skipped_warp_insts) as f64;
    let predicted_ipc = total / predicted_cycles;
    println!(
        "\nfull IPC {:.4} | predicted {:.4} | error {:.2}% | sample size {:.1}%",
        full.ipc(),
        predicted_ipc,
        ((predicted_ipc - full.ipc()) / full.ipc()).abs() * 100.0,
        sampled.issued_warp_insts as f64 / total * 100.0
    );
    Ok(())
}
