//! Quality ablations of the design choices DESIGN.md calls out: how do
//! sampling error and sample size move when a TBPoint design parameter
//! departs from the paper's value? (The runtime cost of the same
//! variants is measured by the Criterion benches in `crates/bench`.)

use crate::output::{self, TraceEntry};
use serde::{Deserialize, Serialize};
use tbpoint_core::inter::{InterAlgo, InterConfig};
use tbpoint_core::intra::IntraConfig;
use tbpoint_core::predict::{run_tbpoint, run_tbpoint_traced, SamplingMode, TbpointConfig};
use tbpoint_emu::profile_run;
use tbpoint_pool::{map_indexed, ExecPlan};
use tbpoint_sim::{simulate_run, GpuConfig, NullSampling};
use tbpoint_stats::geometric_mean;
use tbpoint_workloads::{all_benchmarks, Scale};

/// One ablation point: a parameter setting and its aggregate outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationPoint {
    /// Which knob.
    pub knob: String,
    /// The value tried (paper value marked with `*`).
    pub value: String,
    /// Geomean sampling error across the roster, percent.
    pub geomean_error_pct: f64,
    /// Geomean sample size across the roster.
    pub geomean_sample: f64,
}

/// The full ablation study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationResult {
    /// All points, knob-major.
    pub points: Vec<AblationPoint>,
}

impl AblationResult {
    /// Render as a table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.knob.clone(),
                    p.value.clone(),
                    output::fmt(p.geomean_error_pct, 2),
                    output::pct(p.geomean_sample),
                ]
            })
            .collect();
        output::render_table(&["knob", "value", "geomean err%", "geomean sample"], &rows)
    }
}

/// Evaluate one TBPoint configuration across the whole roster and return
/// (geomean error, geomean sample size). Benchmarks fan out across
/// `plan.pool_workers`; the geomeans fold per-benchmark numbers in
/// roster order, so the score is identical at any worker count.
fn score(cfg: &TbpointConfig, scale: Scale, plan: ExecPlan) -> (f64, f64) {
    let gpu = GpuConfig::fermi();
    let benches = all_benchmarks(scale);
    let unit_plan = plan.unit();
    let scored = map_indexed(plan.pool_workers, benches.len(), |i| {
        let bench = &benches[i];
        let full = simulate_run(&bench.run, &gpu, &mut NullSampling, None);
        // Every swept value is a valid setting and the profile matches
        // the run, so failure is unreachable.
        let profile = cfg.mode.needs_profile().then(|| profile_run(&bench.run, 1));
        let tbp = run_tbpoint(&bench.run, profile.as_ref(), cfg, &gpu, unit_plan)
            .expect("TBPoint pipeline rejected");
        (
            tbp.error_vs(full.overall_ipc()).max(0.05),
            tbp.sample_size(),
        )
    });
    let errors: Vec<f64> = scored.iter().map(|&(e, _)| e).collect();
    let samples: Vec<f64> = scored.iter().map(|&(_, s)| s).collect();
    (geometric_mean(&errors), geometric_mean(&samples))
}

/// [`ablate`] with observability traces (the `--trace-out` path). The
/// sweep itself is unchanged; the traces come from one extra pass of the
/// paper-default configuration over the roster (tracing every swept
/// point would multiply the trace volume by the number of knob values
/// without showing anything new — the events of interest are the
/// sampler's transitions, which the default pass already exercises).
pub fn ablate_traced(
    scale: Scale,
    plan: ExecPlan,
    mode: SamplingMode,
) -> (AblationResult, Vec<TraceEntry>) {
    let result = ablate(scale, plan, mode);
    let gpu = GpuConfig::fermi();
    let cfg = TbpointConfig {
        mode,
        ..TbpointConfig::default()
    };
    let mut entries = Vec::new();
    for bench in all_benchmarks(scale) {
        let profile = mode.needs_profile().then(|| profile_run(&bench.run, 1));
        let (_, traces) = run_tbpoint_traced(&bench.run, profile.as_ref(), &cfg, &gpu, plan)
            .expect("TBPoint pipeline rejected");
        entries.extend(traces.into_iter().map(|t| TraceEntry {
            label: format!("default/{}", bench.name),
            launch: t.launch,
            trace: t.trace,
        }));
    }
    (result, entries)
}

/// Run every ablation sweep at the given scale. Each swept point scores
/// the roster on the pool described by `plan`; `mode` selects two-phase
/// or live sampling for every point, so a live ablation shows how the
/// same knobs move the online detector.
pub fn ablate(scale: Scale, plan: ExecPlan, mode: SamplingMode) -> AblationResult {
    let mut points = vec![];
    let base = TbpointConfig {
        mode,
        ..TbpointConfig::default()
    };

    // 1. Inter-launch distance threshold sigma (paper: 0.1).
    for sigma in [0.02, 0.05, 0.1, 0.2, 0.5] {
        let cfg = TbpointConfig {
            inter: InterConfig {
                sigma,
                ..base.inter
            },
            ..base
        };
        let (e, s) = score(&cfg, scale, plan);
        points.push(AblationPoint {
            knob: "inter_sigma".into(),
            value: format!("{sigma}{}", if sigma == 0.1 { "*" } else { "" }),
            geomean_error_pct: e,
            geomean_sample: s,
        });
    }

    // 2. Intra-launch (epoch) distance threshold sigma (paper: 0.2).
    for sigma in [0.05, 0.1, 0.2, 0.4] {
        let cfg = TbpointConfig {
            intra: IntraConfig {
                sigma,
                ..base.intra
            },
            ..base
        };
        let (e, s) = score(&cfg, scale, plan);
        points.push(AblationPoint {
            knob: "intra_sigma".into(),
            value: format!("{sigma}{}", if sigma == 0.2 { "*" } else { "" }),
            geomean_error_pct: e,
            geomean_sample: s,
        });
    }

    // 3. Variation-factor threshold (paper: 0.3).
    for vf in [0.1, 0.3, 0.6, 1.0] {
        let cfg = TbpointConfig {
            intra: IntraConfig {
                variation_factor: vf,
                ..base.intra
            },
            ..base
        };
        let (e, s) = score(&cfg, scale, plan);
        points.push(AblationPoint {
            knob: "variation_factor".into(),
            value: format!("{vf}{}", if vf == 0.3 { "*" } else { "" }),
            geomean_error_pct: e,
            geomean_sample: s,
        });
    }

    // 4. Warming threshold (paper: 10%).
    for wt in [0.02, 0.05, 0.10, 0.20, 0.30] {
        let cfg = TbpointConfig {
            warming_threshold: wt,
            ..base
        };
        let (e, s) = score(&cfg, scale, plan);
        points.push(AblationPoint {
            knob: "warming_threshold".into(),
            value: format!("{wt}{}", if wt == 0.10 { "*" } else { "" }),
            geomean_error_pct: e,
            geomean_sample: s,
        });
    }

    // 5. Footnote-2 extension: BBV appended to the inter features.
    for (label, use_bbv) in [("off*", false), ("on", true)] {
        let cfg = TbpointConfig {
            inter: InterConfig {
                use_bbv,
                ..base.inter
            },
            ..base
        };
        let (e, s) = score(&cfg, scale, plan);
        points.push(AblationPoint {
            knob: "inter_bbv_extension".into(),
            value: label.into(),
            geomean_error_pct: e,
            geomean_sample: s,
        });
    }

    // 6. Inter clustering algorithm (paper: hierarchical).
    for (label, algo) in [
        ("hierarchical*", InterAlgo::Hierarchical),
        ("kmeans_bic", InterAlgo::KMeansBic { max_k: 15 }),
    ] {
        let cfg = TbpointConfig {
            inter: InterConfig { algo, ..base.inter },
            ..base
        };
        let (e, s) = score(&cfg, scale, plan);
        points.push(AblationPoint {
            knob: "inter_algo".into(),
            value: label.into(),
            geomean_error_pct: e,
            geomean_sample: s,
        });
    }

    AblationResult { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_runs_on_tiny_scale() {
        // A smoke test of the scoring helper on one config (full sweeps
        // are exercised via the CLI / recorded in EXPERIMENTS.md).
        let (e, s) = score(&TbpointConfig::default(), Scale::Tiny, ExecPlan::serial());
        assert!(e.is_finite() && e > 0.0);
        assert!(s > 0.0 && s <= 1.0);

        // The score folds per-benchmark geomeans in roster order, so it
        // is invariant to the worker count.
        let plan = ExecPlan { pool_workers: 3 };
        let (e3, s3) = score(&TbpointConfig::default(), Scale::Tiny, plan);
        assert_eq!(e, e3);
        assert_eq!(s, s3);
    }
}
