//! The core evaluation (Figs. 9, 10 and 11): for every Table-VI
//! benchmark, compare Full / Random / Ideal-SimPoint / TBPoint on
//! predicted overall IPC, sampling error and total sample size, plus the
//! inter/intra savings breakdown.
//!
//! One expensive pass produces everything: the full timing simulation
//! (which also yields the baselines' sampling units) and the TBPoint
//! pipeline. Benchmarks are the units of the resumable sweep — they
//! are completely independent, so results are bit-identical at every
//! worker count. The worker count never enters the serialized
//! [`EvalConfig`]: artifacts must not change bytes when only the worker
//! count changes.

use super::tbpoint_unit;
use crate::output::{self, TraceEntry};
use serde::{Deserialize, Serialize};
use tbpoint_baselines::{
    collect_units, ideal_simpoint, random_sampling, systematic_sampling, unit_size,
};
use tbpoint_core::predict::TbpointConfig;
use tbpoint_core::TbError;
use tbpoint_emu::profile_run;
use tbpoint_sim::GpuConfig;
use tbpoint_stats::geometric_mean;
use tbpoint_workloads::{Benchmark, KernelKind, Scale};

/// Evaluation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Workload scale.
    pub scale: Scale,
    /// TBPoint thresholds (paper defaults).
    pub tbpoint: TbpointConfig,
}

impl EvalConfig {
    /// Paper-faithful defaults at the given scale.
    pub fn new(scale: Scale) -> Self {
        EvalConfig {
            scale,
            tbpoint: TbpointConfig::default(),
        }
    }
}

/// Per-approach prediction summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApproachEval {
    /// Predicted overall IPC.
    pub predicted_ipc: f64,
    /// Absolute sampling error vs. Full, in percent.
    pub error_pct: f64,
    /// Total sample size as a fraction of warp instructions.
    pub sample_size: f64,
}

/// Everything measured for one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEval {
    /// Benchmark abbreviation.
    pub name: String,
    /// Regular or irregular.
    pub kind: KernelKind,
    /// Full-simulation overall IPC (the reference).
    pub full_ipc: f64,
    /// Total warp instructions.
    pub total_warp_insts: u64,
    /// Full-simulation cycles.
    pub full_cycles: u64,
    /// Random sampling.
    pub random: ApproachEval,
    /// Systematic (periodic) sampling — the Related-Work alternative.
    pub systematic: ApproachEval,
    /// Ideal-SimPoint.
    pub ideal_simpoint: ApproachEval,
    /// TBPoint.
    pub tbpoint: ApproachEval,
    /// Fraction of TBPoint's skipped instructions attributable to
    /// inter-launch sampling (Fig. 11).
    pub inter_fraction: f64,
    /// Launches simulated / total (diagnostics).
    pub launches_simulated: usize,
    /// Total launches.
    pub launches_total: usize,
    /// Sampling units collected.
    pub num_units: usize,
}

/// The whole evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalResult {
    /// Configuration used.
    pub config: EvalConfig,
    /// Per-benchmark results, Table VI order.
    pub benches: Vec<BenchEval>,
}

impl EvalResult {
    /// Floor for per-benchmark errors entering the geometric mean: a
    /// benchmark predicted essentially exactly (error ~ 0%) should read
    /// as "0.05%", not drag the geomean to zero.
    pub const ERROR_FLOOR_PCT: f64 = 0.05;

    /// Geometric-mean error of an approach across benchmarks, percent.
    pub fn geomean_error(&self, f: impl Fn(&BenchEval) -> &ApproachEval) -> f64 {
        geometric_mean(
            &self
                .benches
                .iter()
                .map(|b| f(b).error_pct.max(Self::ERROR_FLOOR_PCT))
                .collect::<Vec<_>>(),
        )
    }

    /// Geometric-mean sample size of an approach across benchmarks.
    pub fn geomean_sample(&self, f: impl Fn(&BenchEval) -> &ApproachEval) -> f64 {
        geometric_mean(
            &self
                .benches
                .iter()
                .map(|b| f(b).sample_size)
                .collect::<Vec<_>>(),
        )
    }
}

/// Evaluate one benchmark — the resumable sweep's unit of work. With
/// `trace`, the TBPoint pipeline's launches are recorded and come back
/// labelled with the benchmark name (otherwise the trace list is
/// empty); recording never changes the [`BenchEval`]. Errors (an
/// invalid config, a `cycle_budget` overrun) surface as [`TbError`]
/// instead of a panic so the sweep runner can keep its finished units.
pub fn eval_bench(
    bench: &Benchmark,
    cfg: &EvalConfig,
    gpu: &GpuConfig,
    trace: bool,
) -> Result<(BenchEval, Vec<TraceEntry>), TbError> {
    // One-time hardware-independent profile (the GPUOcelot step). Live
    // mode never consumes it — the online detector learns everything
    // from the retire stream — but the baseline approaches and the
    // unit-size choice need the instruction totals.
    let profile = profile_run(&bench.run, 1);
    let total_insts = profile.total_warp_insts();

    // Full simulation + sampling units for the baselines.
    let (units, full_ipc) = collect_units(&bench.run, gpu, unit_size(total_insts));

    // Full cycles derive from the recorded units plus IPC identity.
    let full_cycles = (total_insts as f64 / full_ipc).round() as u64;

    let rnd = random_sampling(&units);
    let sys = systematic_sampling(&units);
    let ideal = ideal_simpoint(&units);
    let (tbp, traces) = tbpoint_unit(
        &bench.run,
        Some(&profile),
        &cfg.tbpoint,
        gpu,
        trace.then_some(bench.name),
    )?;

    let b = BenchEval {
        name: bench.name.to_string(),
        kind: bench.kind,
        full_ipc,
        total_warp_insts: total_insts,
        full_cycles,
        random: ApproachEval {
            predicted_ipc: rnd.predicted_ipc,
            error_pct: rnd.error_vs(full_ipc),
            sample_size: rnd.sample_size,
        },
        systematic: ApproachEval {
            predicted_ipc: sys.predicted_ipc,
            error_pct: sys.error_vs(full_ipc),
            sample_size: sys.sample_size,
        },
        ideal_simpoint: ApproachEval {
            predicted_ipc: ideal.predicted_ipc,
            error_pct: ideal.error_vs(full_ipc),
            sample_size: ideal.sample_size,
        },
        tbpoint: ApproachEval {
            predicted_ipc: tbp.predicted_ipc,
            error_pct: tbp.error_vs(full_ipc),
            sample_size: tbp.sample_size(),
        },
        inter_fraction: tbp.breakdown.inter_fraction(),
        launches_simulated: tbp.num_simulated_launches,
        launches_total: tbp.num_launches,
        num_units: units.len(),
    };
    Ok((b, traces))
}

/// Fig. 9: overall IPCs and sampling errors.
pub fn render_fig9(r: &EvalResult) -> String {
    let rows: Vec<Vec<String>> = r
        .benches
        .iter()
        .map(|b| {
            vec![
                b.name.clone(),
                format!("{:?}", b.kind),
                output::fmt(b.full_ipc, 3),
                output::fmt(b.random.predicted_ipc, 3),
                output::fmt(b.systematic.predicted_ipc, 3),
                output::fmt(b.ideal_simpoint.predicted_ipc, 3),
                output::fmt(b.tbpoint.predicted_ipc, 3),
                output::fmt(b.random.error_pct, 2),
                output::fmt(b.systematic.error_pct, 2),
                output::fmt(b.ideal_simpoint.error_pct, 2),
                output::fmt(b.tbpoint.error_pct, 2),
            ]
        })
        .collect();
    let mut s = output::render_table(
        &[
            "bench", "kind", "full", "random", "system", "ideal", "tbpoint", "err_rnd%",
            "err_sys%", "err_isp%", "err_tbp%",
        ],
        &rows,
    );
    s.push_str(&format!(
        "geomean error: random {:.2}%  systematic {:.2}%  ideal-simpoint {:.2}%  tbpoint {:.2}%\n",
        r.geomean_error(|b| &b.random),
        r.geomean_error(|b| &b.systematic),
        r.geomean_error(|b| &b.ideal_simpoint),
        r.geomean_error(|b| &b.tbpoint),
    ));
    s
}

/// Fig. 10: total sample sizes.
pub fn render_fig10(r: &EvalResult) -> String {
    let rows: Vec<Vec<String>> = r
        .benches
        .iter()
        .map(|b| {
            vec![
                b.name.clone(),
                format!("{:?}", b.kind),
                output::pct(b.random.sample_size),
                output::pct(b.systematic.sample_size),
                output::pct(b.ideal_simpoint.sample_size),
                output::pct(b.tbpoint.sample_size),
            ]
        })
        .collect();
    let mut s = output::render_table(
        &[
            "bench",
            "kind",
            "random",
            "systematic",
            "ideal-simpoint",
            "tbpoint",
        ],
        &rows,
    );
    s.push_str(&format!(
        "geomean sample size: random {}  systematic {}  ideal-simpoint {}  tbpoint {}\n",
        output::pct(r.geomean_sample(|b| &b.random)),
        output::pct(r.geomean_sample(|b| &b.systematic)),
        output::pct(r.geomean_sample(|b| &b.ideal_simpoint)),
        output::pct(r.geomean_sample(|b| &b.tbpoint)),
    ));
    s
}

/// Fig. 11: relative skipped-instruction breakdown.
pub fn render_fig11(r: &EvalResult) -> String {
    let rows: Vec<Vec<String>> = r
        .benches
        .iter()
        .map(|b| {
            vec![
                b.name.clone(),
                output::pct(b.inter_fraction),
                output::pct(1.0 - b.inter_fraction),
                format!("{}/{}", b.launches_simulated, b.launches_total),
            ]
        })
        .collect();
    output::render_table(
        &[
            "bench",
            "inter-launch",
            "intra-launch",
            "launches sim/total",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbpoint_workloads::all_benchmarks;

    #[test]
    fn eval_tiny_scale_shapes_hold() {
        // The headline qualitative claims, checked at tiny scale so the
        // test stays fast. Absolute numbers differ from the paper; the
        // orderings must not.
        let cfg = EvalConfig::new(Scale::Tiny);
        let gpu = GpuConfig::fermi();
        let roster = all_benchmarks(Scale::Tiny);
        let workers = super::super::default_threads();
        let benches = tbpoint_pool::run_indexed(workers, roster.len(), |i| {
            eval_bench(&roster[i], &cfg, &gpu, false).map(|(b, _)| b)
        })
        .expect("default config evaluates cleanly");
        let r = EvalResult {
            config: cfg,
            benches,
        };
        assert_eq!(r.benches.len(), 12);
        for b in &r.benches {
            assert!(b.full_ipc > 0.0, "{}: zero full IPC", b.name);
            assert!(b.tbpoint.sample_size > 0.0 && b.tbpoint.sample_size <= 1.0);
        }
        // TBPoint must beat Random on error geomean.
        let g_rnd = r.geomean_error(|b| &b.random);
        let g_tbp = r.geomean_error(|b| &b.tbpoint);
        assert!(
            g_tbp < g_rnd,
            "TBPoint geomean error {g_tbp:.2}% should beat random {g_rnd:.2}%"
        );
        // Rendering works.
        assert!(render_fig9(&r).contains("geomean"));
        assert!(render_fig10(&r).contains("tbpoint"));
        assert!(render_fig11(&r).contains("inter-launch"));
    }
}
