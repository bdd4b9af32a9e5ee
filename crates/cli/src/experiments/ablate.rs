//! Quality ablations of the design choices DESIGN.md calls out: how do
//! sampling error and sample size move when a TBPoint design parameter
//! departs from the paper's value?

use super::tbpoint_unit;
use crate::output::{self, TraceEntry};
use serde::{Deserialize, Serialize};
use tbpoint_core::inter::InterConfig;
use tbpoint_core::intra::IntraConfig;
use tbpoint_core::predict::{SamplingMode, TbpointConfig};
use tbpoint_core::TbError;
use tbpoint_emu::{profile_run, RunProfile};
use tbpoint_pool::{map_indexed, run_indexed, ExecPlan};
use tbpoint_sim::{simulate_run, GpuConfig, NullSampling};
use tbpoint_stats::geometric_mean;
use tbpoint_workloads::{all_benchmarks, Benchmark, Scale};

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

/// What every ablation point scores one roster benchmark against: the
/// benchmark, its full-simulation IPC and, in two-phase mode, its
/// profile. All are pure in (benchmark, scale, GPU config, mode), so a
/// study computes them once, not once per point.
type Reference = (Benchmark, f64, Option<RunProfile>);

/// The roster's references on the Fermi baseline, one pool job per
/// benchmark; a profile is taken only when `mode` samples against one.
fn references(scale: Scale, plan: ExecPlan, mode: SamplingMode) -> Vec<Reference> {
    let gpu = GpuConfig::fermi();
    let benches = all_benchmarks(scale);
    let computed = map_indexed(plan.pool_workers, benches.len(), |i| {
        let run = &benches[i].run;
        let full_ipc = simulate_run(run, &gpu, &mut NullSampling, None).overall_ipc();
        (full_ipc, mode.needs_profile().then(|| profile_run(run, 1)))
    });
    benches
        .into_iter()
        .zip(computed)
        .map(|(bench, (ipc, profile))| (bench, ipc, profile))
        .collect()
}

/// Evaluate one TBPoint configuration across the roster's references and
/// return (geomean error, geomean sample size) plus, with `trace`, every
/// benchmark's traces labelled `default/<bench>`. Benchmarks fan out
/// across `plan.pool_workers`; the geomeans fold per-benchmark numbers
/// and the traces concatenate in roster order, so both are identical at
/// any worker count. The lowest-indexed failing benchmark's error (a
/// `cycle_budget` overrun) aborts the score.
fn score(
    cfg: &TbpointConfig,
    refs: &[Reference],
    plan: ExecPlan,
    trace: bool,
) -> Result<(f64, f64, Vec<TraceEntry>), TbError> {
    let gpu = GpuConfig::fermi();
    let scored = run_indexed(plan.pool_workers, refs.len(), |i| {
        let (bench, full_ipc, profile) = &refs[i];
        let label = trace.then(|| format!("default/{}", bench.name));
        let (tbp, traces) =
            tbpoint_unit(&bench.run, profile.as_ref(), cfg, &gpu, label.as_deref())?;
        let error = tbp.error_vs(*full_ipc).max(0.05);
        Ok((error, tbp.sample_size(), traces))
    })
    .map_err(|(_, e)| e)?;
    let errors: Vec<f64> = scored.iter().map(|s| s.0).collect();
    let samples: Vec<f64> = scored.iter().map(|s| s.1).collect();
    let traces = scored.into_iter().flat_map(|s| s.2).collect();
    Ok((geometric_mean(&errors), geometric_mean(&samples), traces))
}

/// Run every ablation sweep at the given scale. Each swept point scores
/// the roster on the pool described by `plan`, departing from `base` in
/// one knob; `base.mode` selects two-phase or live sampling for every
/// point (so a live ablation shows how the same knobs move the online
/// detector) and `base.cycle_budget` arms the per-launch watchdog.
///
/// The references (full-simulation IPC, and profiles in two-phase mode)
/// are computed once, before the first point. Each distinct config is
/// scored once: the paper-value row of every knob is `base` itself, so
/// those rows copy the first one's score.
///
/// With `trace`, the traces of the paper-default point are returned
/// beside the result (the `--trace-out` path). They are recorded while
/// that point is scored — the first `inter_sigma = 0.1*` row is exactly
/// `base` — so tracing adds no pass over the roster. Tracing every
/// swept point would multiply the trace volume by the number of knob
/// values without showing anything new: the events of interest are the
/// sampler's transitions, which the default point already exercises.
///
/// # Errors
///
/// The first point whose roster fails to score (a `cycle_budget`
/// overrun) aborts the study with its [`TbError`].
pub fn ablate(
    scale: Scale,
    plan: ExecPlan,
    base: &TbpointConfig,
    trace: bool,
) -> Result<(AblationResult, Vec<TraceEntry>), TbError> {
    let refs = references(scale, plan, base.mode);
    let mut points = vec![];
    let mut traces = vec![];
    let mut scored: Vec<(TbpointConfig, f64, f64)> = vec![];
    let mut point = |knob: &str, value: String, cfg: TbpointConfig, record: bool| {
        let hit = scored.iter().find(|&&(c, _, _)| !record && c == cfg);
        let (e, s) = match hit {
            Some(&(_, e, s)) => (e, s),
            None => {
                let (e, s, t) = score(&cfg, &refs, plan, record)?;
                traces.extend(t);
                scored.push((cfg, e, s));
                (e, s)
            }
        };
        points.push(AblationPoint {
            knob: knob.into(),
            value,
            geomean_error_pct: e,
            geomean_sample: s,
        });
        Ok::<_, TbError>(())
    };

    // 1. Inter-launch distance threshold sigma (paper: 0.1).
    for sigma in [0.02, 0.05, 0.1, 0.2, 0.5] {
        let paper = sigma == 0.1;
        let cfg = TbpointConfig {
            inter: InterConfig { sigma },
            ..*base
        };
        let value = format!("{sigma}{}", if paper { "*" } else { "" });
        point("inter_sigma", value, cfg, trace && paper)?;
    }

    // 2. Intra-launch (epoch) distance threshold sigma (paper: 0.2).
    for sigma in [0.05, 0.1, 0.2, 0.4] {
        let cfg = TbpointConfig {
            intra: IntraConfig {
                sigma,
                ..base.intra
            },
            ..*base
        };
        let value = format!("{sigma}{}", if sigma == 0.2 { "*" } else { "" });
        point("intra_sigma", value, cfg, false)?;
    }

    // 3. Variation-factor threshold (paper: 0.3).
    for vf in [0.1, 0.3, 0.6, 1.0] {
        let cfg = TbpointConfig {
            intra: IntraConfig {
                variation_factor: vf,
                ..base.intra
            },
            ..*base
        };
        let value = format!("{vf}{}", if vf == 0.3 { "*" } else { "" });
        point("variation_factor", value, cfg, false)?;
    }

    // 4. Warming threshold (paper: 10%).
    for wt in [0.02, 0.05, 0.10, 0.20, 0.30] {
        let cfg = TbpointConfig {
            warming_threshold: wt,
            ..*base
        };
        let value = format!("{wt}{}", if wt == 0.10 { "*" } else { "" });
        point("warming_threshold", value, cfg, false)?;
    }

    Ok((AblationResult { points }, traces))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_runs_on_tiny_scale() {
        // A smoke test of the scoring helper on one config (full sweeps
        // are exercised via the CLI / recorded in EXPERIMENTS.md).
        let cfg = TbpointConfig::default();
        let serial = ExecPlan::serial();
        let refs = references(Scale::Tiny, serial, cfg.mode);
        let (e, s, traces) = score(&cfg, &refs, serial, false).unwrap();
        assert!(e.is_finite() && e > 0.0);
        assert!(s > 0.0 && s <= 1.0);
        assert!(traces.is_empty());

        // The references and the score fold per-benchmark numbers in
        // roster order, so both are invariant to the worker count.
        let plan = ExecPlan { pool_workers: 3 };
        let refs3 = references(Scale::Tiny, plan, cfg.mode);
        let (e3, s3, _) = score(&cfg, &refs3, plan, false).unwrap();
        assert_eq!(e, e3);
        assert_eq!(s, s3);
    }

    #[test]
    fn ablate_sweeps_four_knobs_with_one_paper_row_each() {
        let (r, traces) = ablate(
            Scale::Tiny,
            ExecPlan::serial(),
            &TbpointConfig::default(),
            false,
        )
        .unwrap();
        assert!(traces.is_empty());
        let mut knobs: Vec<(&str, usize)> = Vec::new();
        for p in &r.points {
            let starred = usize::from(p.value.ends_with('*'));
            match knobs.last_mut() {
                Some((k, n)) if *k == p.knob => *n += starred,
                _ => knobs.push((&p.knob, starred)),
            }
        }
        assert_eq!(
            knobs,
            [
                ("inter_sigma", 1),
                ("intra_sigma", 1),
                ("variation_factor", 1),
                ("warming_threshold", 1)
            ]
        );
    }

    #[test]
    fn cycle_budget_overrun_is_an_error_not_a_panic() {
        let base = TbpointConfig {
            cycle_budget: Some(1),
            ..TbpointConfig::default()
        };
        let r = ablate(Scale::Tiny, ExecPlan::serial(), &base, false);
        assert!(
            matches!(r, Err(TbError::BudgetExceeded { .. })),
            "expected BudgetExceeded, got {r:?}"
        );
    }
}
