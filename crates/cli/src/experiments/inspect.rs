//! `tbpoint inspect <bench>` — a characterisation report for one
//! benchmark: the kernel program, static/profile summaries, occupancy,
//! what the live sampler does with the largest launch, and the timing
//! simulator's per-SM statistics. The nvprof-style view an architect
//! reads before deciding how to sample.

use crate::output;
use tbpoint_core::inter::{inter_launch_sample_at, InterConfig};
use tbpoint_core::intra::{build_epochs, identify_regions, IntraConfig};
use tbpoint_core::{LiveSampler, TbpointConfig};
use tbpoint_emu::{block_classes, profile_launch, BlockClasses, RunProfile, TraceDeps};
use tbpoint_ir::render_program;
use tbpoint_pool::map_indexed;
use tbpoint_sim::{simulate_launch, GpuConfig, NullSampling};
use tbpoint_workloads::{benchmark_by_name, Scale};

/// Produce the report (None if the benchmark name is unknown). The
/// launches are profiled on the pool, one unit each, over `workers`
/// workers (the report is identical at any count).
pub fn inspect(name: &str, scale: Scale, workers: usize) -> Option<String> {
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
    let launches = &bench.run.launches;
    let profile = RunProfile {
        kernel_name: kernel.name.clone(),
        launches: map_indexed(workers, launches.len(), |i| {
            profile_launch(kernel, &launches[i])
        }),
    };
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
        .max_by_key(|(_, l)| l.num_blocks())
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
            Ok(classes) => format!("{} blocks -> {classes} block class(es)", lp.num_blocks()),
            Err(reason) => format!("{} blocks on the per-block path ({reason})", lp.num_blocks()),
        }
    ));
    out.push_str(&format!(
        "launch profile (launch {li}): {}, {} bytes held\n",
        match lp.num_classes() {
            Some(classes) => format!("class table of {classes} class(es) and a class id per block"),
            None => "one record per block".to_string(),
        },
        lp.heap_bytes()
    ));

    // Inter-launch view: the clusters a two-phase run simulates, one
    // representative each.
    let inter = inter_launch_sample_at(
        &profile,
        &InterConfig::default(),
        gpu.system_occupancy(kernel),
    );
    out.push_str(&format!(
        "inter-launch: {} clusters over {} launches (members -> representative)\n",
        inter.num_simulated(),
        bench.run.num_launches()
    ));
    for (c, &rep) in inter.representatives.iter().enumerate() {
        out.push_str(&format!(
            "  {} -> {rep}\n",
            launch_ranges(&inter.clustering.members(c))
        ));
    }

    // Intra-launch view of the biggest launch.
    let epochs = build_epochs(lp, gpu.system_occupancy(kernel));
    let intra = IntraConfig::default();
    let table = identify_regions(&epochs, &intra);
    let isolated = epochs
        .iter()
        .filter(|e| e.variation_factor > intra.variation_factor)
        .count();
    out.push_str(&format!(
        "intra-launch (launch {li}): {} epochs, {} isolated by VF, {} regions covering {} TBs\n",
        epochs.len(),
        isolated,
        table.regions.len(),
        table.covered_tbs()
    ));

    // What the live sampler does with that launch: one single-pass
    // simulation, reporting the diagnostics a sampled run keeps to itself.
    let spec = &bench.run.launches[li];
    let occupancy = gpu.system_occupancy(kernel);
    let classes = BlockClasses::new(kernel, spec);
    let rec = tbpoint_obs::NullRecorder;
    let mut live = LiveSampler::new(
        &TbpointConfig::default(),
        spec.num_blocks,
        occupancy,
        classes,
        &rec,
    )
    .expect("the default config is valid");
    let lr = simulate_launch(kernel, spec, &gpu, &mut live, None);
    let (o, lo) = (live.outcome(), live.live_outcome());
    let launch_insts = lr.issued_warp_insts + o.skipped_warp_insts;
    out.push_str(&format!(
        "live (launch {li}): {} epochs in {} clusters, {} guard blocks, {} destabilisations, \
         {} of {} blocks skipped, sample {:.1}%\n",
        lo.epochs_classified,
        lo.clusters_discovered,
        lo.guard_tbs,
        lo.destabilisations,
        o.skipped_tbs,
        spec.num_blocks,
        lr.issued_warp_insts as f64 / launch_insts.max(1) as f64 * 100.0
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

/// Ascending launch indices as comma-separated runs: `0-3, 5, 7-8`.
fn launch_ranges(members: &[usize]) -> String {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for &m in members {
        match runs.last_mut() {
            Some((_, end)) if *end + 1 == m => *end = m,
            _ => runs.push((m, m)),
        }
    }
    runs.iter()
        .map(|&(a, b)| {
            if a == b {
                a.to_string()
            } else {
                format!("{a}-{b}")
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
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

    /// The line after `prefix`, without it.
    fn line_after<'s>(s: &'s str, prefix: &str) -> &'s str {
        s.lines()
            .find_map(|l| l.strip_prefix(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{s}"))
    }

    /// A class-path kernel holds a class table and its live sampler runs
    /// no guard blocks; a per-block kernel holds a record per block.
    #[test]
    fn inspect_reports_the_profile_form_and_the_live_outcome() {
        let s = inspect("hotspot", Scale::Tiny, 1).expect("hotspot exists");
        let form = line_after(&s, "launch profile (launch 0): ");
        assert!(form.starts_with("class table of 1 class(es)"), "{form}");
        let live = line_after(&s, "live (launch 0): ");
        assert!(live.contains(", 0 guard blocks,"), "{live}");
        assert!(live.contains(" of 28 blocks skipped, sample "), "{live}");

        let s = inspect("bfs", Scale::Tiny, 1).expect("bfs exists");
        let li = line_after(&s, "intra-launch (launch ")
            .split(')')
            .next()
            .expect("a launch index");
        let form = line_after(&s, &format!("launch profile (launch {li}): "));
        assert!(form.starts_with("one record per block, "), "{form}");
        let live = line_after(&s, &format!("live (launch {li}): "));
        assert!(
            live.contains(" clusters, ") && live.ends_with('%'),
            "{live}"
        );
    }

    /// Every launch appears in exactly one cluster line, and each line
    /// names a representative among its members.
    #[test]
    fn inspect_lists_the_simulated_clusters() {
        assert_eq!(launch_ranges(&[0, 1, 2, 3, 5, 7, 8]), "0-3, 5, 7-8");
        let s = inspect("stream", Scale::Tiny, 1).expect("stream exists");
        let head = line_after(&s, "inter-launch: ");
        assert!(
            head.ends_with(" launches (members -> representative)"),
            "{head}"
        );
        let clusters: Vec<&str> = s
            .lines()
            .skip_while(|l| !l.starts_with("inter-launch: "))
            .skip(1)
            .take_while(|l| l.starts_with("  "))
            .collect();
        let words: Vec<&str> = head.split(' ').collect();
        let (n, launches): (usize, usize) = (words[0].parse().unwrap(), words[3].parse().unwrap());
        assert_eq!(clusters.len(), n, "{s}");
        let mut seen = Vec::new();
        for line in clusters {
            let (members, rep) = line.trim().split_once(" -> ").expect("an arrow");
            let rep: usize = rep.parse().expect("a launch index");
            let members: Vec<usize> = members
                .split(", ")
                .flat_map(|run| {
                    let (a, b) = run.split_once('-').unwrap_or((run, run));
                    a.parse::<usize>().unwrap()..=b.parse().unwrap()
                })
                .collect();
            assert!(members.contains(&rep), "{line}");
            seen.extend(members);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..launches).collect::<Vec<_>>(), "{s}");
    }

    #[test]
    fn inspect_unknown_benchmark_is_none() {
        assert!(inspect("nope", Scale::Tiny, 1).is_none());
    }
}
