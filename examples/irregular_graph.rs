//! Inside intra-launch sampling on an irregular graph workload.
//!
//! Uses the roster's bfs benchmark (13 frontier-shaped launches,
//! power-law degrees, phase-structured density) and walks through what
//! TBPoint actually computes: inter-launch clusters, epochs, the
//! homogeneous region table, and the fast-forward accounting of one
//! sampled launch.
//!
//! ```text
//! cargo run --release --example irregular_graph   # ~1 minute: simulates a
//!                                                 # full-scale bfs launch twice
//! ```

use tbpoint::core::inter::{inter_launch_sample_at, InterConfig};
use tbpoint::core::intra::{build_epochs, identify_regions, IntraConfig};
use tbpoint::core::sampling::RegionSampler;
use tbpoint::core::TbpointConfig;
use tbpoint::emu::profile_run;
use tbpoint::obs::NullRecorder;
use tbpoint::sim::{simulate_launch, GpuConfig, NullSampling};
use tbpoint::workloads::{benchmark_by_name, Scale};

fn main() {
    // Full scale: launches are big enough for fast-forwarding to engage
    // (at Scale::Dev the grids shrink below the warming cost and the
    // sampler correctly refuses to skip anything).
    let bench = benchmark_by_name("bfs", Scale::Full).expect("bfs is in the roster");
    let gpu = GpuConfig::fermi();

    // One-time profile.
    let profile = profile_run(&bench.run, 4);

    // Inter-launch sampling: which launches are homogeneous? Clustering
    // counts size up to one machine-wide wave and divides the three
    // extensive features by their mean; the TB-size CoV enters as is.
    // Printed here are the raw Eq. 2 features.
    let occupancy = gpu.system_occupancy(&bench.run.kernel);
    let inter = inter_launch_sample_at(&profile, &InterConfig::default(), occupancy);
    println!(
        "bfs: {} launches -> {} clusters (simulate one per cluster)",
        bench.run.num_launches(),
        inter.num_simulated()
    );
    for (i, (lp, &c)) in profile
        .launches
        .iter()
        .zip(&inter.clustering.assignments)
        .enumerate()
    {
        let f = lp.inter_features();
        println!(
            "  launch {i:>2}: {:>4} blocks  thread insts {:>10}  warp insts {:>8}  mem reqs {:>8}  tb cov {:>6.3}  -> cluster {c}{}",
            lp.num_blocks(),
            f.thread_insts,
            f.warp_insts,
            f.mem_requests,
            f.tb_size_cov,
            if inter.representatives[c] == i { "  [simulation point]" } else { "" }
        );
    }

    // Intra-launch sampling on the biggest representative.
    let rep = *inter
        .representatives
        .iter()
        .max_by_key(|&&r| profile.launches[r].num_blocks())
        .unwrap();
    let launch_profile = &profile.launches[rep];
    let epochs = build_epochs(launch_profile, occupancy);
    let table = identify_regions(&epochs, &IntraConfig::default());
    println!();
    println!(
        "launch {rep}: {} thread blocks, epoch size = system occupancy = {occupancy}, {} epochs",
        launch_profile.num_blocks(),
        epochs.len()
    );
    println!("homogeneous region table (Table III):");
    for r in &table.regions {
        println!(
            "  region {:>2}: TB {:>5} .. {:>5}  ({} thread blocks)",
            r.region_id,
            r.start_tb,
            r.end_tb - 1,
            r.end_tb - r.start_tb
        );
    }

    // Simulate the launch with homogeneous-region sampling.
    let spec = &bench.run.launches[rep];
    let full = simulate_launch(&bench.run.kernel, spec, &gpu, &mut NullSampling, None);
    let mut sampler = RegionSampler::new(
        &TbpointConfig::default(),
        &table,
        launch_profile,
        &NullRecorder,
    )
    .expect("paper defaults are valid");
    let sampled = simulate_launch(&bench.run.kernel, spec, &gpu, &mut sampler, None);
    let out = sampler.outcome();

    let predicted_cycles = sampled.cycles as f64 + out.predicted_skipped_cycles;
    let total_insts = (sampled.issued_warp_insts + out.skipped_warp_insts) as f64;
    let predicted_ipc = total_insts / predicted_cycles;
    println!();
    println!("sampling one launch:");
    println!(
        "  full:     IPC {:.4}  ({} warp insts simulated)",
        full.ipc(),
        full.issued_warp_insts
    );
    println!(
        "  sampled:  IPC {predicted_ipc:.4}  ({} simulated + {} skipped, {} TBs fast-forwarded)",
        sampled.issued_warp_insts, out.skipped_warp_insts, out.skipped_tbs
    );
    println!(
        "  error {:.2}%  |  launch sample size {:.1}%  |  {} sampling units, {} region entries",
        ((predicted_ipc - full.ipc()) / full.ipc()).abs() * 100.0,
        sampled.issued_warp_insts as f64 / total_insts * 100.0,
        out.units_observed,
        out.regions_entered
    );
}
