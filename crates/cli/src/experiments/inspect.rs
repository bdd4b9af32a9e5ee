//! `tbpoint inspect <bench>` — a characterisation report for one
//! benchmark: the kernel program, static/profile summaries, occupancy,
//! and the timing simulator's per-SM statistics. The nvprof-style view
//! an architect reads before deciding how to sample.

use crate::output;
use tbpoint_core::inter::{inter_launch_sample, InterConfig};
use tbpoint_core::intra::{build_epochs, identify_regions, IntraConfig};
use tbpoint_emu::{block_classes, profile_run, TraceDeps};
use tbpoint_ir::render_program;
use tbpoint_sim::{simulate_launch, GpuConfig, NullSampling};
use tbpoint_workloads::{benchmark_by_name, Scale};

/// Produce the report (None if the benchmark name is unknown).
pub fn inspect(name: &str, scale: Scale, threads: usize) -> Option<String> {
    let bench = benchmark_by_name(name, scale)?;
    let gpu = GpuConfig::fermi();
    let kernel = &bench.run.kernel;
    let mut out = String::new();

    out.push_str(&format!(
        "== {} ({:?}, {:?}) ==\n\n",
        bench.name, bench.suite, bench.kind
    ));
    out.push_str(&format!(
        "kernel: {} threads/block ({} warps), {} regs/thread, {} B smem, {} basic blocks\n",
        kernel.threads_per_block,
        kernel.warps_per_block(),
        kernel.regs_per_thread,
        kernel.smem_per_block,
        kernel.num_basic_blocks
    ));
    out.push_str(&format!(
        "occupancy (Fermi): {} blocks/SM, epoch size {}\n",
        gpu.sm_occupancy(kernel),
        gpu.system_occupancy(kernel)
    ));
    out.push_str(&format!(
        "launches: {} totalling {} thread blocks\n\n",
        bench.run.num_launches(),
        bench.run.total_blocks()
    ));
    out.push_str("program:\n");
    out.push_str(&render_program(&kernel.program));

    // Profile summary.
    let profile = profile_run(&bench.run, threads);
    let total_w = profile.total_warp_insts();
    let total_t = profile.total_thread_insts();
    let total_m: u64 = profile.launches.iter().map(|l| l.mem_requests()).sum();
    out.push_str(&format!(
        "\nprofile: {} warp insts, {} thread insts (SIMD eff {:.1}%), {} mem requests (p = {:.3})\n",
        total_w,
        total_t,
        total_t as f64 / (total_w as f64 * 32.0) * 100.0,
        total_m,
        total_m as f64 / total_w as f64
    ));

    // What the profile pass cost: the kernel's dependence classes and,
    // for the biggest launch, how many blocks were actually emulated.
    let (li, lp) = profile
        .launches
        .iter()
        .enumerate()
        .max_by_key(|(_, l)| l.tbs.len())
        .expect("at least one launch");
    let deps = TraceDeps::of(kernel);
    let yes_no = |b: bool| if b { "yes" } else { "no" };
    out.push_str(&format!(
        "profile pass: per_thread {}, per_block {}, phase lengths {:?}, gather {}; launch {li}: {}\n",
        yes_no(deps.per_thread),
        yes_no(deps.per_block),
        deps.phase_lens,
        yes_no(deps.gather),
        match block_classes(kernel, &lp.spec) {
            Ok(classes) => format!("{} blocks -> {classes} block class(es)", lp.tbs.len()),
            Err(reason) => format!("{} blocks on the per-block path ({reason})", lp.tbs.len()),
        }
    ));

    // Inter-launch view.
    let inter = inter_launch_sample(&profile, &InterConfig::default());
    out.push_str(&format!(
        "inter-launch: {} clusters over {} launches\n",
        inter.num_simulated(),
        bench.run.num_launches()
    ));

    // Intra-launch view of the biggest launch.
    let epochs = build_epochs(lp, gpu.system_occupancy(kernel));
    let table = identify_regions(&epochs, &IntraConfig::default());
    let isolated = epochs.iter().filter(|e| e.variation_factor > 0.3).count();
    out.push_str(&format!(
        "intra-launch (launch {li}): {} epochs, {} isolated by VF, {} regions covering {} TBs\n",
        epochs.len(),
        isolated,
        table.regions.len(),
        table.covered_tbs()
    ));

    // Timing simulation of that launch.
    let r = simulate_launch(
        kernel,
        &bench.run.launches[li],
        &gpu,
        &mut NullSampling,
        None,
    );
    out.push_str(&format!(
        "\ntiming (launch {li}): IPC {:.3} over {} cycles\n",
        r.ipc(),
        r.cycles
    ));
    out.push_str(&format!(
        "memory: L1 {:.1}%  L2 {:.1}%  row-buffer {:.1}%  avg DRAM wait {:.0} cyc\n",
        r.l1_hit_rate * 100.0,
        r.l2_hit_rate * 100.0,
        r.dram_row_hit_rate * 100.0,
        r.dram_avg_wait
    ));
    let mut mix = tbpoint_sim::InstMix::default();
    for s in &r.sm_stats {
        mix.merge(&s.mix);
    }
    out.push_str(&format!(
        "mix: alu {} sfu {} gmem {} smem {} bar {}  (gmem fraction {:.1}%)\n",
        mix.alu,
        mix.sfu,
        mix.global_mem,
        mix.shared_mem,
        mix.barrier,
        mix.global_mem_fraction() * 100.0
    ));
    let rows: Vec<Vec<String>> = r
        .sm_stats
        .iter()
        .enumerate()
        .map(|(i, s)| {
            vec![
                format!("SM{i}"),
                s.issued_warp_insts.to_string(),
                output::fmt(s.ipc(), 3),
                output::pct(s.stall_fraction()),
                output::pct(s.simd_efficiency()),
                s.blocks_retired.to_string(),
            ]
        })
        .collect();
    out.push_str("\nper-SM statistics:\n");
    out.push_str(&output::render_table(
        &["sm", "insts", "ipc", "stall", "simd eff", "blocks"],
        &rows,
    ));
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inspect_produces_full_report() {
        let s = inspect("hotspot", Scale::Tiny, 2).expect("hotspot exists");
        assert!(s.contains("== hotspot"));
        assert!(s.contains("bar.sync"), "program listing missing:\n{s}");
        assert!(s.contains("per-SM statistics"));
        assert!(s.contains("SM13"), "all 14 SMs should report");
        assert!(s.contains("regions covering"));
        assert!(s.contains("gather no; launch 0: 28 blocks -> 1 block class(es)"));
    }

    #[test]
    fn inspect_names_the_reason_for_the_per_block_path() {
        let s = inspect("bfs", Scale::Tiny, 1).expect("bfs exists");
        assert!(
            s.contains("on the per-block path (thread-varying control flow)"),
            "{s}"
        );
    }

    #[test]
    fn inspect_unknown_benchmark_is_none() {
        assert!(inspect("nope", Scale::Tiny, 1).is_none());
    }
}
