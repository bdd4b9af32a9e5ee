//! The end-to-end TBPoint pipeline and IPC prediction (Table IV).
//!
//! One pipeline, two sampling modes ([`TbpointConfig::mode`]):
//!
//! 1. inter-launch clustering picks one representative launch per cluster
//!    (Eq. 2 features of a one-time profile in two-phase mode, launch
//!    specs in live mode);
//! 2. each representative is simulated under homogeneous-region sampling
//!    (its own intra-launch fast-forwarding — regions read from the
//!    profile, or detected online);
//! 3. a representative's predicted launch time is `simulated cycles +
//!    skipped insts / unit IPC`; a non-representative's is
//!    `its insts / representative's predicted IPC`;
//! 4. the overall IPC prediction is `total insts / total predicted
//!    cycles`, compared against the Full simulation for the Fig. 9
//!    sampling error.
//!
//! The same accounting yields the Fig. 10 *total sample size* (simulated
//! insts / total insts) and the Fig. 11 breakdown of skipped instructions
//! between the two techniques. Inter- and intra-launch sampling are
//! orthogonal (the paper's Table IV note).
//!
//! [`run_tbpoint`] validates its configuration, reads `cfg.mode` and
//! returns `Result<TbpointResult, TbError>`; [`run_tbpoint_traced`]
//! additionally captures a per-simulated-launch [`TraceBundle`] of
//! observability events without perturbing the result.

use crate::error::{invalid, TbError};
use crate::inter::{inter_launch_sample_trusted, InterConfig, InterResult};
use crate::intra::{build_epochs, identify_regions, IntraConfig};
use crate::sampling::live::LiveSampler;
use crate::sampling::{IntraOutcome, RegionSampler, WARMING_WINDOW};
use serde::{Deserialize, Serialize};
use tbpoint_cluster::Clustering;
use tbpoint_emu::BlockClasses;
use tbpoint_emu::RunProfile;
use tbpoint_emu::{InterFeatures, LaunchProfile};
use tbpoint_ir::KernelRun;
use tbpoint_ir::LaunchSpec;
use tbpoint_obs::{
    CollectingRecorder, DegradeReason, EventKind, NullRecorder, Recorder, Span, TraceBundle,
};
use tbpoint_pool::{run_indexed, ExecPlan};
use tbpoint_sim::{
    simulate_launch_with, CycleBudgetHook, GpuConfig, LaunchSimResult, NullSampling, SamplingHook,
    SimOptions,
};

/// Which pipeline produces the prediction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplingMode {
    /// The paper's two-phase pipeline: profile every launch first, then
    /// sample the timing simulation against the profile.
    #[default]
    TwoPhase,
    /// Live single-pass sampling: no profiling pass; epochs and clusters
    /// are detected online from the simulator's retire-time feature
    /// stream (see [`crate::sampling::live::LiveSampler`]).
    Live,
}

impl SamplingMode {
    /// Whether [`run_tbpoint`] samples against a profile in this mode.
    /// Callers use it to skip the profiling pass live mode exists to
    /// avoid.
    pub fn needs_profile(self) -> bool {
        self == SamplingMode::TwoPhase
    }
}

/// Full TBPoint configuration (paper defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TbpointConfig {
    /// Inter-launch clustering (σ = 0.1).
    pub inter: InterConfig,
    /// Intra-launch clustering (σ = 0.2, VF = 0.3).
    pub intra: IntraConfig,
    /// Warming convergence threshold (10%).
    pub warming_threshold: f64,
    /// Bound on warming units per region before the sampler abandons the
    /// region and degrades to detailed simulation (`None` = warm
    /// indefinitely, the paper's behaviour). Must be at least
    /// [`crate::sampling::WARMING_WINDOW`] when set.
    pub warming_budget: Option<u32>,
    /// Per-launch simulated-cycle watchdog: a representative still
    /// dispatching blocks past this many cycles is drained and reported
    /// as [`TbError::BudgetExceeded`] (`None` = no watchdog).
    pub cycle_budget: Option<u64>,
    /// Which sampling mode [`run_tbpoint`] runs
    /// ([`SamplingMode::TwoPhase`] by default).
    pub mode: SamplingMode,
}

impl Default for TbpointConfig {
    fn default() -> Self {
        TbpointConfig {
            inter: InterConfig::default(),
            intra: IntraConfig::default(),
            warming_threshold: 0.10,
            warming_budget: None,
            cycle_budget: None,
            mode: SamplingMode::TwoPhase,
        }
    }
}

impl TbpointConfig {
    /// Check every field the pipeline depends on, naming the first
    /// offender — the one place each range check lives. Called by
    /// [`run_tbpoint`] and by the sampler constructors; call it yourself
    /// to validate user input early.
    ///
    /// # Errors
    ///
    /// [`TbError::InvalidConfig`] when a clustering σ is non-finite or
    /// non-positive, the variation factor is negative, the warming
    /// threshold is non-finite or non-positive, the warming budget is
    /// below [`crate::sampling::WARMING_WINDOW`], or the cycle budget is
    /// zero. Parallelism lives outside this
    /// config — see [`tbpoint_pool::ExecPlan`] — because results are
    /// bit-identical at any worker count, so the
    /// worker count is an execution concern, not a result-affecting one.
    pub fn validate(&self) -> Result<(), TbError> {
        self.inter.validate()?;
        self.intra.validate()?;
        if !self.warming_threshold.is_finite() || self.warming_threshold <= 0.0 {
            return Err(invalid(
                "warming_threshold",
                format!(
                    "must be finite and positive (got {})",
                    self.warming_threshold
                ),
            ));
        }
        if let Some(budget) = self.warming_budget {
            if (budget as usize) < WARMING_WINDOW {
                return Err(invalid(
                    "warming_budget",
                    format!("must allow at least {WARMING_WINDOW} warming units (got {budget})"),
                ));
            }
        }
        if self.cycle_budget == Some(0) {
            return Err(invalid("cycle_budget", "must be at least 1 cycle (got 0)"));
        }
        Ok(())
    }
}

/// Where the instruction savings came from (Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SavingsBreakdown {
    /// Warp instructions skipped because their whole launch was predicted
    /// from a cluster representative.
    pub inter_skipped_warp_insts: u64,
    /// Warp instructions skipped by fast-forwarding inside simulated
    /// launches.
    pub intra_skipped_warp_insts: u64,
}

impl SavingsBreakdown {
    /// Total skipped instructions.
    pub fn total_skipped(&self) -> u64 {
        self.inter_skipped_warp_insts + self.intra_skipped_warp_insts
    }

    /// Fraction of the savings attributable to inter-launch sampling
    /// (the Fig. 11 stacked-bar split). Zero when nothing was skipped.
    pub fn inter_fraction(&self) -> f64 {
        let t = self.total_skipped();
        if t == 0 {
            0.0
        } else {
            self.inter_skipped_warp_insts as f64 / t as f64
        }
    }
}

/// Everything TBPoint produces for one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TbpointResult {
    /// Benchmark name.
    pub kernel_name: String,
    /// Predicted overall IPC.
    pub predicted_ipc: f64,
    /// Warp instructions actually simulated.
    pub simulated_warp_insts: u64,
    /// Total warp instructions in the workload.
    pub total_warp_insts: u64,
    /// Predicted total cycles.
    pub predicted_total_cycles: f64,
    /// Savings attribution (Fig. 11).
    pub breakdown: SavingsBreakdown,
    /// Launches simulated / total.
    pub num_simulated_launches: usize,
    /// Total launches.
    pub num_launches: usize,
    /// Per-launch predicted cycles (launch order).
    pub per_launch_predicted_cycles: Vec<f64>,
    /// The inter-launch clustering (diagnostics).
    pub inter_clustering: Clustering,
    /// Simulated launches that fell back to detailed simulation —
    /// because their profile failed validation or a region's warming
    /// budget ran out. Each fallback also emits a `DegradedMode` event.
    pub degraded_launches: usize,
}

impl TbpointResult {
    /// Total sample size (Fig. 10): simulated / total warp instructions.
    pub fn sample_size(&self) -> f64 {
        if self.total_warp_insts == 0 {
            0.0
        } else {
            self.simulated_warp_insts as f64 / self.total_warp_insts as f64
        }
    }

    /// Absolute sampling error in percent against a reference IPC.
    pub fn error_vs(&self, full_ipc: f64) -> f64 {
        tbpoint_stats::abs_pct_error(self.predicted_ipc, full_ipc)
    }

    /// Fraction of simulated launches that degraded to detailed
    /// simulation (0.0 = everything sampled as planned, 1.0 = every
    /// simulated launch fell back). Zero when nothing was simulated.
    pub fn degradation_ratio(&self) -> f64 {
        if self.num_simulated_launches == 0 {
            0.0
        } else {
            self.degraded_launches as f64 / self.num_simulated_launches as f64
        }
    }
}

/// The observability trace of one simulated representative launch,
/// returned by [`run_tbpoint_traced`].
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchTrace {
    /// Index of the launch within the run.
    pub launch: usize,
    /// Events and counters recorded while simulating it.
    pub trace: TraceBundle,
}

/// What simulating one representative produced.
#[derive(Debug, Clone, Copy)]
struct RepSim {
    issued: u64,
    skipped_insts: u64,
    /// The launch's warp instructions: the profile's count when the
    /// profile is trusted, otherwise issued plus the sampler's skipped.
    launch_insts: u64,
    sim_cycles: u64,
    predicted_cycles: f64,
    predicted_ipc: f64,
    degraded: bool,
}

/// Live inter-launch grouping: with no profile (and therefore no Eq. 2
/// feature vectors), launches are grouped by their *specs*. Launches
/// with equal `(num_blocks, work_scale)` run the same program over the
/// same grid, but `launch_id` seeds every per-block/per-thread trip
/// count and branch draw, so they do equal work *in distribution* only —
/// one representative per spec class is an approximation (exact for
/// kernels without such draws), and one of the places live mode's extra
/// error on data-dependent kernels comes from. The first launch of each
/// class is its representative.
fn spec_classes(run: &KernelRun) -> InterResult {
    let mut keys: Vec<(u32, u64)> = Vec::new();
    let mut assignments = Vec::with_capacity(run.launches.len());
    let mut representatives = Vec::new();
    for (i, spec) in run.launches.iter().enumerate() {
        let key = (spec.num_blocks, spec.work_scale.to_bits());
        match keys.iter().position(|k| *k == key) {
            Some(c) => assignments.push(c),
            None => {
                assignments.push(keys.len());
                representatives.push(i);
                keys.push(key);
            }
        }
    }
    InterResult {
        clustering: Clustering::from_assignments(&assignments),
        representatives,
    }
}

/// Sanity-check one launch's profile, and `f`, its inter-launch
/// features, before trusting them for clustering, instruction counts or
/// fast-forwarding: the block roster must match the launch spec, a
/// class-table profile's class ids must name its classes, and the
/// features must be finite numbers. A failure here means the profile is
/// truncated, padded or numerically corrupt.
fn validate_launch_profile(
    spec: &LaunchSpec,
    lp: &LaunchProfile,
    f: &InterFeatures,
) -> Result<(), String> {
    if lp.num_blocks() != spec.num_blocks as usize {
        return Err(format!(
            "profile has {} thread blocks, launch declares {}",
            lp.num_blocks(),
            spec.num_blocks
        ));
    }
    lp.check_classes()?;
    if !(f.thread_insts.is_finite()
        && f.warp_insts.is_finite()
        && f.mem_requests.is_finite()
        && f.tb_size_cov.is_finite())
    {
        return Err("inter-launch features are not finite".to_string());
    }
    Ok(())
}

/// What every representative's simulation shares, fixed per run.
struct Pipeline<'a> {
    run: &'a KernelRun,
    /// The profile two-phase mode samples against; `None` in live mode.
    profile: Option<&'a RunProfile>,
    /// Per launch, whether its profile passed [`validate_launch_profile`]
    /// (two-phase mode only; empty in live mode).
    trusted: Vec<bool>,
    cfg: &'a TbpointConfig,
    gpu: &'a GpuConfig,
    occupancy: u32,
}

impl Pipeline<'_> {
    /// Run one launch simulation under the optional cycle-budget watchdog.
    fn simulate_guarded<R: Recorder>(
        &self,
        rep: usize,
        hook: &mut dyn SamplingHook,
        rec: &R,
    ) -> Result<LaunchSimResult, TbError> {
        let mut guard = None;
        let hook: &mut dyn SamplingHook = match self.cfg.cycle_budget {
            Some(budget) => guard.insert(CycleBudgetHook::new(hook, budget)),
            None => hook,
        };
        let opts = SimOptions::default();
        let spec = &self.run.launches[rep];
        let (r, _) = simulate_launch_with(&self.run.kernel, spec, self.gpu, hook, None, opts, rec);
        match self.cfg.cycle_budget {
            Some(budget_cycles) if guard.is_some_and(|g| g.exceeded()) => {
                Err(TbError::BudgetExceeded {
                    launch: rep,
                    budget_cycles,
                })
            }
            _ => Ok(r),
        }
    }

    /// Step 2 for one representative: simulate it with intra-launch
    /// sampling, reporting into `rec`. Monomorphised over the recorder,
    /// so the untraced pipeline keeps its zero-instrumentation fast path.
    ///
    /// Degradation ladder: a launch whose profile failed validation in
    /// [`drive`] represents itself and is simulated in full, its IPC
    /// taken from the simulator (the profile's instruction counts are
    /// untrustworthy); a region whose warming budget runs out falls back
    /// to detailed simulation inside the sampler. Both paths emit `DegradedMode` and
    /// mark the rep degraded. A launch that overruns `cfg.cycle_budget`
    /// is the one unrecoverable case: its numbers are garbage, so it
    /// surfaces as [`TbError::BudgetExceeded`].
    fn simulate<R: Recorder>(&self, rep: usize, rec: &R) -> Result<RepSim, TbError> {
        let spec = &self.run.launches[rep];
        let launch_profile = self.profile.map(|p| &p.launches[rep]);
        let profile_ok = launch_profile.is_none() || self.trusted[rep];
        if !profile_ok {
            rec.record(
                0,
                EventKind::DegradedMode {
                    reason: DegradeReason::ProfileInvalid,
                },
            );
        }

        let (r, o) = if !profile_ok {
            // Detailed simulation: the profile cannot be trusted.
            let r = self.simulate_guarded(rep, &mut NullSampling, rec)?;
            (r, IntraOutcome::default())
        } else if let Some(lp) = launch_profile {
            let epochs = build_epochs(lp, self.occupancy);
            let table = identify_regions(&epochs, &self.cfg.intra);
            let mut sampler = RegionSampler::new(self.cfg, &table, lp, rec)?;
            let r = self.simulate_guarded(rep, &mut sampler, rec)?;
            (r, sampler.outcome())
        } else {
            let classes = BlockClasses::new(&self.run.kernel, spec);
            let mut sampler =
                LiveSampler::new(self.cfg, spec.num_blocks, self.occupancy, classes, rec)?;
            let r = self.simulate_guarded(rep, &mut sampler, rec)?;
            (r, sampler.outcome())
        };

        // The one thing the modes disagree on: a trusted profile knows
        // the launch's instruction total; without one it is what the
        // simulator issued plus what the sampler estimates it skipped.
        let launch_insts = match launch_profile {
            Some(lp) if profile_ok => lp.warp_insts(),
            _ => r.issued_warp_insts + o.skipped_warp_insts,
        };
        let predicted_cycles = r.cycles as f64 + o.predicted_skipped_cycles;
        let predicted_ipc = if predicted_cycles > 0.0 {
            launch_insts as f64 / predicted_cycles
        } else {
            0.0
        };
        Ok(RepSim {
            issued: r.issued_warp_insts,
            skipped_insts: o.skipped_warp_insts,
            launch_insts,
            sim_cycles: r.cycles,
            predicted_cycles,
            predicted_ipc,
            degraded: !profile_ok || o.degraded_regions > 0,
        })
    }
}

/// Steps 3-4: extend representatives to their clusters and aggregate.
///
/// A representative is charged its own [`RepSim::launch_insts`]; other
/// launches' totals come from the profile when there is one (a launch
/// whose profile failed validation is always a representative). In live
/// mode a non-representative launch is charged its class representative's
/// total (issued + estimated skipped) — an *estimate*, since same-spec
/// launches do equal work in distribution only (see [`spec_classes`]).
fn aggregate(
    run: &KernelRun,
    profile: Option<&RunProfile>,
    inter: InterResult,
    rep_results: &[RepSim],
) -> TbpointResult {
    let n_launches = run.launches.len();
    // rep_outcome[launch] = (predicted_cycles, predicted_ipc, launch insts).
    let mut rep_outcome: Vec<Option<(f64, f64, u64)>> = vec![None; n_launches];
    let mut simulated_warp_insts = 0u64;
    let mut intra_skipped = 0u64;
    let mut degraded_launches = 0usize;
    for (&rep, r) in inter.representatives.iter().zip(rep_results) {
        simulated_warp_insts += r.issued;
        intra_skipped += r.skipped_insts;
        if r.degraded {
            degraded_launches += 1;
        }
        rep_outcome[rep] = Some((r.predicted_cycles, r.predicted_ipc, r.launch_insts));
    }

    let mut per_launch_predicted_cycles = Vec::with_capacity(n_launches);
    let mut inter_skipped = 0u64;
    let mut total_insts = 0u64;
    for i in 0..n_launches {
        let rep = inter.representatives[inter.clustering.assignments[i]];
        // Filled for every representative by the loop above; the
        // fallback only guards an impossible index.
        let (rep_cycles, rep_ipc, rep_insts) = rep_outcome[rep].unwrap_or((0.0, 0.0, 0));
        let launch_insts = match profile {
            Some(p) if i != rep => p.launches[i].warp_insts(),
            _ => rep_insts,
        };
        total_insts += launch_insts;
        if i == rep {
            per_launch_predicted_cycles.push(rep_cycles);
        } else {
            inter_skipped += launch_insts;
            let cycles = if rep_ipc > 0.0 {
                launch_insts as f64 / rep_ipc
            } else {
                rep_cycles
            };
            per_launch_predicted_cycles.push(cycles);
        }
    }
    let predicted_total_cycles: f64 = per_launch_predicted_cycles.iter().sum();
    let predicted_ipc = if predicted_total_cycles > 0.0 {
        total_insts as f64 / predicted_total_cycles
    } else {
        0.0
    };

    TbpointResult {
        kernel_name: run.kernel.name.clone(),
        predicted_ipc,
        simulated_warp_insts,
        total_warp_insts: total_insts,
        predicted_total_cycles,
        breakdown: SavingsBreakdown {
            inter_skipped_warp_insts: inter_skipped,
            intra_skipped_warp_insts: intra_skipped,
        },
        num_simulated_launches: inter.representatives.len(),
        num_launches: n_launches,
        per_launch_predicted_cycles,
        inter_clustering: inter.clustering,
        degraded_launches,
    }
}

/// The pipeline, once: validate the config and every launch's profile,
/// pick the launches to simulate (step 1; a launch whose profile fails
/// validation is left out of clustering and represents itself),
/// run `rep_job` for each representative on the pool (step 2; whole
/// launches are the unit of scheduling, results land in
/// per-representative slots in canonical order), aggregate (steps 3-4).
/// `rep_job` returns the representative's numbers plus whatever the
/// caller wants back per representative (nothing, or its trace).
fn drive<T: Send>(
    run: &KernelRun,
    profile: Option<&RunProfile>,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    plan: ExecPlan,
    rep_job: impl Fn(&Pipeline<'_>, usize) -> Result<(RepSim, T), TbError> + Sync,
) -> Result<(TbpointResult, Vec<T>), TbError> {
    cfg.validate()?;
    let n_launches = run.launches.len();
    let profile = match cfg.mode {
        SamplingMode::TwoPhase => {
            let p = profile.ok_or_else(|| {
                invalid(
                    "profile",
                    "SamplingMode::TwoPhase samples against the run's profile (got None)",
                )
            })?;
            if n_launches != p.launches.len() {
                return Err(TbError::ProfileMismatch {
                    run_launches: n_launches,
                    profile_launches: p.launches.len(),
                });
            }
            Some(p)
        }
        SamplingMode::Live => None,
    };
    let occupancy = gpu.system_occupancy(&run.kernel);
    let (inter, trusted) = if let Some(p) = profile {
        let features: Vec<InterFeatures> = p
            .launches
            .iter()
            .map(LaunchProfile::inter_features)
            .collect();
        let trusted: Vec<bool> = (run.launches.iter().zip(&p.launches).zip(&features))
            .map(|((spec, lp), f)| validate_launch_profile(spec, lp, f).is_ok())
            .collect();
        let inter = inter_launch_sample_trusted(p, &features, &trusted, &cfg.inter, occupancy);
        (inter, trusted)
    } else {
        (spec_classes(run), Vec::new())
    };

    let pipeline = Pipeline {
        run,
        profile,
        trusted,
        cfg,
        gpu,
        occupancy,
    };
    let reps = &inter.representatives;
    let (rep_results, extras): (Vec<RepSim>, Vec<T>) =
        run_indexed(plan.pool_workers, reps.len(), |i| {
            rep_job(&pipeline, reps[i])
        })
        .map_err(|(_, e)| e)?
        .into_iter()
        .unzip();
    Ok((aggregate(run, profile, inter, &rep_results), extras))
}

/// Run the TBPoint pipeline for one benchmark in the mode `cfg.mode`
/// selects.
///
/// [`SamplingMode::TwoPhase`] needs `profile`, the one-time profile of
/// `run` (from [`tbpoint_emu::profile_run`]); changing `gpu` only re-runs
/// clustering and simulation, never profiling. [`SamplingMode::Live`]
/// has no profiling pass — epoch detection, clustering and
/// fast-forwarding all happen online inside the one timing simulation
/// (see [`crate::sampling::live`]) — and ignores a supplied profile. The
/// live result has the same shape, but `total_warp_insts` (and
/// everything derived from it) is an *estimate*: a representative's
/// skipped blocks are charged exactly when the launch has block classes
/// ([`tbpoint_emu::BlockClasses`]), the cluster running mean otherwise.
///
/// Representatives fan out across `plan.pool_workers` threads of the
/// deterministic job pool; the [`TbpointResult`] is bit-identical to
/// [`ExecPlan::serial`] at every worker count (the golden determinism
/// suite asserts this).
///
/// # Errors
///
/// [`TbError::InvalidConfig`] when [`TbpointConfig::validate`] rejects
/// `cfg`, or names `profile` when two-phase mode got none;
/// [`TbError::ProfileMismatch`] when the profile's launch count differs
/// from the run's; [`TbError::BudgetExceeded`] when a representative
/// overruns `cfg.cycle_budget`. A failing representative reports the
/// error with the lowest recorded representative index.
pub fn run_tbpoint(
    run: &KernelRun,
    profile: Option<&RunProfile>,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    plan: ExecPlan,
) -> Result<TbpointResult, TbError> {
    let untraced = |p: &Pipeline<'_>, rep| Ok((p.simulate(rep, &NullRecorder)?, ()));
    Ok(drive(run, profile, cfg, gpu, plan, untraced)?.0)
}

/// [`run_tbpoint`] with per-launch observability traces.
///
/// Each simulated representative records into its own
/// [`CollectingRecorder`], created inside its pool job (the recorder is
/// `Send` but not `Sync`, so recorders are never shared across workers)
/// and wrapped in a [`Span::SimulateLaunch`] span; traces are returned
/// in representative order. Recording is observation-only: the
/// [`TbpointResult`] is bit-identical to [`run_tbpoint`]'s, and both the
/// result and the traces are bit-identical to the serial run at every
/// `pool_workers` count.
///
/// # Errors
///
/// Exactly as [`run_tbpoint`].
pub fn run_tbpoint_traced(
    run: &KernelRun,
    profile: Option<&RunProfile>,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    plan: ExecPlan,
) -> Result<(TbpointResult, Vec<LaunchTrace>), TbError> {
    drive(run, profile, cfg, gpu, plan, |p, rep| {
        let rec = CollectingRecorder::new();
        let span = Span::SimulateLaunch {
            launch: run.launches[rep].launch_id.0,
        };
        rec.record(0, EventKind::SpanStart { span });
        let r = p.simulate(rep, &rec)?;
        rec.record(r.sim_cycles, EventKind::SpanEnd { span });
        let trace = rec.finish();
        Ok((r, LaunchTrace { launch: rep, trace }))
    })
}

// The pre-merge two-phase entry point (ignores `cfg.mode`), kept because
// the frozen harness under `benchmark/` — its only caller — imports it.
#[doc(hidden)]
pub fn run_tbpoint_plan(
    run: &KernelRun,
    profile: &RunProfile,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    plan: ExecPlan,
) -> Result<TbpointResult, TbError> {
    run_tbpoint(
        run,
        Some(profile),
        &TbpointConfig {
            mode: SamplingMode::TwoPhase,
            ..*cfg
        },
        gpu,
        plan,
    )
}

// As `run_tbpoint_plan`, traced; `benchmark/` is its only caller.
#[doc(hidden)]
pub fn run_tbpoint_traced_plan(
    run: &KernelRun,
    profile: &RunProfile,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    plan: ExecPlan,
) -> Result<(TbpointResult, Vec<LaunchTrace>), TbError> {
    run_tbpoint_traced(
        run,
        Some(profile),
        &TbpointConfig {
            mode: SamplingMode::TwoPhase,
            ..*cfg
        },
        gpu,
        plan,
    )
}

// The pre-merge live entry point (ignores `cfg.mode`); `benchmark/` is
// its only caller.
#[doc(hidden)]
pub fn run_tbpoint_live_plan(
    run: &KernelRun,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    plan: ExecPlan,
) -> Result<TbpointResult, TbError> {
    run_tbpoint(
        run,
        None,
        &TbpointConfig {
            mode: SamplingMode::Live,
            ..*cfg
        },
        gpu,
        plan,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbpoint_emu::profile_run;
    use tbpoint_ir::{AddrPattern, KernelBuilder, KernelRun, LaunchId, LaunchSpec, Op, TripCount};
    use tbpoint_sim::{simulate_launch, simulate_run, NullSampling};

    fn live_defaults() -> TbpointConfig {
        TbpointConfig {
            mode: SamplingMode::Live,
            ..Default::default()
        }
    }

    fn homogeneous_run(n_launches: u32, blocks_per_launch: u32) -> KernelRun {
        sized_run(&vec![blocks_per_launch; n_launches as usize])
    }

    /// A homogeneous kernel with one launch per entry of `blocks`. Sizes
    /// under one wave differ in every extensive inter-launch feature and
    /// in their specs, so such launches are representatives of their own
    /// in either mode and the pool has several to schedule.
    fn sized_run(blocks: &[u32]) -> KernelRun {
        let mut b = KernelBuilder::new("homog", 31, 128);
        let body = b.block(&[
            Op::IAlu,
            Op::FAlu,
            Op::LdGlobal(AddrPattern::Coalesced {
                region: 0,
                stride: 4,
            }),
        ]);
        let n = b.loop_(TripCount::Const(30), body);
        let kernel = b.finish(n);
        KernelRun {
            kernel,
            launches: (0u32..)
                .zip(blocks)
                .map(|(i, &num_blocks)| LaunchSpec {
                    launch_id: LaunchId(i),
                    num_blocks,
                    work_scale: 1.0,
                })
                .collect(),
        }
    }

    #[test]
    fn tbpoint_on_homogeneous_run_is_accurate_and_cheap() {
        let run = homogeneous_run(6, 1800);
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 2);
        let full = simulate_run(&run, &gpu, &mut NullSampling, None);

        let result = run_tbpoint(
            &run,
            Some(&profile),
            &TbpointConfig::default(),
            &gpu,
            ExecPlan::serial(),
        )
        .unwrap();
        assert_eq!(
            result.num_simulated_launches, 1,
            "6 identical launches -> 1 simulated"
        );
        let err = result.error_vs(full.overall_ipc());
        assert!(err < 10.0, "error {err:.2}% too high");
        assert!(
            result.sample_size() < 0.25,
            "sample size {:.3} should be small",
            result.sample_size()
        );
        // Savings from both techniques.
        assert!(result.breakdown.inter_skipped_warp_insts > 0);
        assert!(result.breakdown.intra_skipped_warp_insts > 0);
        // Conservation: simulated + skipped = total.
        assert_eq!(
            result.simulated_warp_insts + result.breakdown.total_skipped(),
            result.total_warp_insts
        );
    }

    #[test]
    fn breakdown_fraction_math() {
        let b = SavingsBreakdown {
            inter_skipped_warp_insts: 30,
            intra_skipped_warp_insts: 10,
        };
        assert!((b.inter_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(SavingsBreakdown::default().inter_fraction(), 0.0);
    }

    #[test]
    fn mismatched_profile_is_an_error_not_a_panic() {
        let run = homogeneous_run(3, 10);
        let short_run = homogeneous_run(2, 10);
        let profile = profile_run(&short_run, 1);
        let gpu = GpuConfig::fermi();
        let cfg = TbpointConfig::default();
        let err = run_tbpoint(&run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap_err();
        assert_eq!(
            err,
            TbError::ProfileMismatch {
                run_launches: 3,
                profile_launches: 2
            }
        );
    }

    #[test]
    fn nonsense_config_is_rejected_up_front() {
        let run = homogeneous_run(2, 10);
        let profile = profile_run(&run, 1);
        let gpu = GpuConfig::fermi();

        let bad_threshold = TbpointConfig {
            warming_threshold: -0.1,
            ..Default::default()
        };
        let err = run_tbpoint(
            &run,
            Some(&profile),
            &bad_threshold,
            &gpu,
            ExecPlan::serial(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            TbError::InvalidConfig {
                field: "warming_threshold",
                ..
            }
        ));

        let bad_sigma = TbpointConfig {
            inter: InterConfig { sigma: f64::NAN },
            ..Default::default()
        };
        let err = bad_sigma.validate().unwrap_err();
        assert!(matches!(
            err,
            TbError::InvalidConfig {
                field: "inter.sigma",
                ..
            }
        ));

        let bad_intra_sigma = TbpointConfig {
            intra: IntraConfig {
                sigma: f64::NAN,
                ..Default::default()
            },
            ..Default::default()
        };
        match bad_intra_sigma.validate().unwrap_err() {
            TbError::InvalidConfig { field, .. } => assert_eq!(field, "intra.sigma"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn two_phase_without_a_profile_is_an_error_not_a_panic() {
        let run = homogeneous_run(2, 10);
        let cfg = TbpointConfig::default();
        let err = run_tbpoint(&run, None, &cfg, &GpuConfig::fermi(), ExecPlan::serial());
        assert!(matches!(
            err,
            Err(TbError::InvalidConfig {
                field: "profile",
                ..
            })
        ));
    }

    #[test]
    fn invalid_profile_degrades_to_detailed_simulation() {
        let run = homogeneous_run(3, 200);
        let gpu = GpuConfig::fermi();
        let mut profile = profile_run(&run, 2);
        // Truncate every launch's block roster: validation must fail and
        // the pipeline must fall back to full detailed simulation of every
        // launch (clean, the three share one cluster) instead of indexing
        // out of bounds or trusting a member's damaged counts.
        for lp in &mut profile.launches {
            lp.edit_per_block(|tbs| {
                tbs.pop();
            });
        }
        let full = simulate_run(&run, &gpu, &mut NullSampling, None);
        let result = run_tbpoint(
            &run,
            Some(&profile),
            &TbpointConfig::default(),
            &gpu,
            ExecPlan::serial(),
        )
        .unwrap();
        assert_eq!(result.num_simulated_launches, result.num_launches);
        assert_eq!(result.degraded_launches, result.num_simulated_launches);
        assert_eq!(result.degradation_ratio(), 1.0);
        // Degraded reps run in full: nothing was intra-skipped.
        assert_eq!(result.breakdown.intra_skipped_warp_insts, 0);
        assert_eq!(result.predicted_ipc, full.overall_ipc());
    }

    /// A damaged launch that clustering would have charged to another
    /// launch's IPC is left out of clustering and simulated in full; the
    /// launches with clean profiles still share one representative.
    #[test]
    fn a_damaged_member_represents_itself() {
        let run = homogeneous_run(3, 1800);
        let gpu = GpuConfig::fermi();
        let cfg = TbpointConfig::default();
        let mut profile = profile_run(&run, 2);
        let occupancy = gpu.system_occupancy(&run.kernel);
        let clean = crate::inter::inter_launch_sample_at(&profile, &cfg.inter, occupancy);
        assert_eq!(clean.representatives, vec![1], "launch 0 is a member");
        profile.launches[0].edit_per_block(|tbs| {
            tbs.pop();
        });
        let result = run_tbpoint(&run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();
        assert_eq!(result.num_simulated_launches, 2);
        assert_eq!(result.degraded_launches, 1);
        let a = &result.inter_clustering.assignments;
        assert!(a[1] == a[2] && a[0] != a[1], "{a:?}");
        let launch0 = simulate_launch(&run.kernel, &run.launches[0], &gpu, &mut NullSampling, None);
        assert_eq!(result.per_launch_predicted_cycles[0], launch0.cycles as f64);
    }

    /// A class-table profile as a damaged file could hold it: class ids
    /// that do not cover the launch, or that name a class past the table.
    /// Validation must reject it and the launch degrade, not index out of
    /// bounds.
    #[test]
    fn damaged_class_ids_degrade_to_detailed_simulation() {
        let run = homogeneous_run(3, 200);
        let gpu = GpuConfig::fermi();
        let clean = profile_run(&run, 1);
        assert!(clean.launches.iter().all(|lp| lp.num_classes() == Some(1)));
        for past_table in [false, true] {
            let mut profile = clean.clone();
            for lp in &mut profile.launches {
                let ids = lp.class_ids_mut().unwrap();
                if past_table {
                    ids[7] = 1;
                } else {
                    ids.pop();
                }
            }
            let result = run_tbpoint(
                &run,
                Some(&profile),
                &TbpointConfig::default(),
                &gpu,
                ExecPlan::serial(),
            )
            .unwrap();
            assert_eq!(
                result.degraded_launches, result.num_simulated_launches,
                "past_table {past_table}"
            );
            assert_eq!(result.breakdown.intra_skipped_warp_insts, 0);
        }
    }

    #[test]
    fn invalid_profile_emits_degraded_mode_event() {
        let run = homogeneous_run(2, 100);
        let gpu = GpuConfig::fermi();
        let mut profile = profile_run(&run, 2);
        for lp in &mut profile.launches {
            lp.edit_per_block(|tbs| {
                tbs.pop();
            });
        }
        let (result, traces) = run_tbpoint_traced(
            &run,
            Some(&profile),
            &TbpointConfig::default(),
            &gpu,
            ExecPlan::serial(),
        )
        .unwrap();
        assert!(result.degraded_launches > 0);
        let degraded_events: usize = traces
            .iter()
            .flat_map(|t| &t.trace.events)
            .filter(|e| {
                matches!(
                    e.kind,
                    tbpoint_obs::EventKind::DegradedMode {
                        reason: DegradeReason::ProfileInvalid
                    }
                )
            })
            .count();
        assert_eq!(degraded_events, result.degraded_launches);
    }

    #[test]
    fn warming_budget_abandons_unstable_regions() {
        let run = homogeneous_run(1, 1800);
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 2);
        // A threshold no pair of real unit IPCs can meet plus the
        // tightest legal budget forces every region to abandon warming.
        let cfg = TbpointConfig {
            warming_threshold: 1e-300,
            warming_budget: Some(crate::sampling::WARMING_WINDOW as u32),
            ..Default::default()
        };
        let (result, traces) =
            run_tbpoint_traced(&run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();
        assert_eq!(result.degraded_launches, 1);
        assert!(result.degradation_ratio() > 0.0);
        // Abandoned regions are simulated in detail: no fast-forwarding.
        assert_eq!(result.breakdown.intra_skipped_warp_insts, 0);
        assert!(traces.iter().flat_map(|t| &t.trace.events).any(|e| {
            matches!(
                e.kind,
                tbpoint_obs::EventKind::DegradedMode {
                    reason: DegradeReason::WarmingBudgetExceeded { .. }
                }
            )
        }));
        // Sanity: the same config without the budget warms forever but
        // still terminates (regions just never fast-forward).
        let no_budget = TbpointConfig {
            warming_budget: None,
            ..cfg
        };
        let r2 = run_tbpoint(&run, Some(&profile), &no_budget, &gpu, ExecPlan::serial()).unwrap();
        assert_eq!(r2.degraded_launches, 0);
    }

    #[test]
    fn cycle_budget_overrun_is_an_error_not_a_hang() {
        let run = homogeneous_run(1, 1800);
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 2);
        let cfg = TbpointConfig {
            cycle_budget: Some(1),
            ..Default::default()
        };
        let err = run_tbpoint(&run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap_err();
        assert_eq!(
            err,
            TbError::BudgetExceeded {
                launch: 0,
                budget_cycles: 1
            }
        );
        // A generous budget never trips and leaves the result untouched.
        let roomy = TbpointConfig {
            cycle_budget: Some(u64::MAX),
            ..Default::default()
        };
        let guarded = run_tbpoint(&run, Some(&profile), &roomy, &gpu, ExecPlan::serial()).unwrap();
        let plain = run_tbpoint(
            &run,
            Some(&profile),
            &TbpointConfig::default(),
            &gpu,
            ExecPlan::serial(),
        )
        .unwrap();
        assert_eq!(guarded, plain);
    }

    #[test]
    fn resilience_config_fields_are_validated() {
        let bad_budget = TbpointConfig {
            warming_budget: Some(1),
            ..Default::default()
        };
        assert!(matches!(
            bad_budget.validate().unwrap_err(),
            TbError::InvalidConfig {
                field: "warming_budget",
                ..
            }
        ));
        let zero_cycles = TbpointConfig {
            cycle_budget: Some(0),
            ..Default::default()
        };
        assert!(matches!(
            zero_cycles.validate().unwrap_err(),
            TbError::InvalidConfig {
                field: "cycle_budget",
                ..
            }
        ));
    }

    #[test]
    fn degradation_ratio_math() {
        let run = homogeneous_run(2, 100);
        let profile = profile_run(&run, 2);
        let gpu = GpuConfig::fermi();
        let cfg = TbpointConfig::default();
        let mut r = run_tbpoint(&run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();
        assert_eq!(r.degradation_ratio(), 0.0);
        r.degraded_launches = r.num_simulated_launches;
        assert_eq!(r.degradation_ratio(), 1.0);
        r.num_simulated_launches = 0;
        assert_eq!(r.degradation_ratio(), 0.0);
    }

    #[test]
    fn traced_run_matches_untraced_and_captures_spans() {
        let run = homogeneous_run(4, 400);
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 2);
        let cfg = TbpointConfig::default();
        let plain = run_tbpoint(&run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();
        let (traced, traces) =
            run_tbpoint_traced(&run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();
        // Recording is observation-only: bit-identical results.
        assert_eq!(plain, traced);
        assert_eq!(traces.len(), traced.num_simulated_launches);
        for t in &traces {
            assert!(!t.trace.events.is_empty(), "launch {} empty", t.launch);
            // Each trace opens and closes its SimulateLaunch span.
            assert!(matches!(
                t.trace.events.first().map(|e| e.kind),
                Some(tbpoint_obs::EventKind::SpanStart { .. })
            ));
            assert!(matches!(
                t.trace.events.last().map(|e| e.kind),
                Some(tbpoint_obs::EventKind::SpanEnd { .. })
            ));
            // And carries the simulator's per-launch counters.
            assert!(t
                .trace
                .counters
                .iter()
                .any(|c| c.name == "issued_warp_insts"));
        }
    }

    #[test]
    fn live_mode_on_homogeneous_run_is_accurate_and_cheap() {
        let run = homogeneous_run(6, 1800);
        let gpu = GpuConfig::fermi();
        let full = simulate_run(&run, &gpu, &mut NullSampling, None);

        let cfg = TbpointConfig {
            mode: SamplingMode::Live,
            ..Default::default()
        };
        let result = run_tbpoint(&run, None, &cfg, &gpu, ExecPlan::serial()).unwrap();
        assert_eq!(
            result.num_simulated_launches, 1,
            "6 identical specs -> 1 simulated"
        );
        let err = result.error_vs(full.overall_ipc());
        assert!(err < 10.0, "live error {err:.2}% too high");
        assert!(
            result.sample_size() < 0.25,
            "live sample size {:.3} should be small",
            result.sample_size()
        );
        assert!(result.breakdown.inter_skipped_warp_insts > 0);
        assert!(result.breakdown.intra_skipped_warp_insts > 0);
        // Conservation holds on the estimated totals too.
        assert_eq!(
            result.simulated_warp_insts + result.breakdown.total_skipped(),
            result.total_warp_insts
        );
        // Block-invariant kernel: the estimate is exact, so the total
        // matches what a profile would report.
        let profile = profile_run(&run, 2);
        let exact: u64 = profile.launches.iter().map(|l| l.warp_insts()).sum();
        assert_eq!(result.total_warp_insts, exact);
    }

    #[test]
    fn live_and_two_phase_agree_on_homogeneous_run() {
        let run = homogeneous_run(4, 1800);
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 2);
        let cfg = TbpointConfig::default();
        let two_phase = run_tbpoint(&run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();
        // A supplied profile is ignored in live mode.
        let live = run_tbpoint(
            &run,
            Some(&profile),
            &live_defaults(),
            &gpu,
            ExecPlan::serial(),
        )
        .unwrap();
        let rel = ((live.predicted_ipc - two_phase.predicted_ipc) / two_phase.predicted_ipc).abs();
        assert!(
            rel < 0.10,
            "live {:.3} vs two-phase {:.3}: {:.2}% apart",
            live.predicted_ipc,
            two_phase.predicted_ipc,
            rel * 100.0
        );
    }

    #[test]
    fn live_warming_budget_degrades_gracefully() {
        let run = homogeneous_run(1, 1800);
        let gpu = GpuConfig::fermi();
        let cfg = TbpointConfig {
            warming_threshold: 1e-300,
            warming_budget: Some(crate::sampling::WARMING_WINDOW as u32),
            ..live_defaults()
        };
        let (result, traces) =
            run_tbpoint_traced(&run, None, &cfg, &gpu, ExecPlan::serial()).unwrap();
        assert_eq!(result.degraded_launches, 1);
        assert_eq!(result.breakdown.intra_skipped_warp_insts, 0);
        assert!(traces.iter().flat_map(|t| &t.trace.events).any(|e| {
            matches!(
                e.kind,
                tbpoint_obs::EventKind::DegradedMode {
                    reason: DegradeReason::WarmingBudgetExceeded { .. }
                }
            )
        }));
    }

    #[test]
    fn live_cycle_budget_overrun_is_an_error() {
        let run = homogeneous_run(1, 1800);
        let gpu = GpuConfig::fermi();
        let cfg = TbpointConfig {
            cycle_budget: Some(1),
            ..live_defaults()
        };
        let err = run_tbpoint(&run, None, &cfg, &gpu, ExecPlan::serial()).unwrap_err();
        assert_eq!(
            err,
            TbError::BudgetExceeded {
                launch: 0,
                budget_cycles: 1
            }
        );
    }

    #[test]
    fn live_pooled_results_and_traces_are_identical_at_any_worker_count() {
        let run = sized_run(&[30, 60, 90, 300]);
        let gpu = GpuConfig::fermi();
        let cfg = live_defaults();
        let serial = run_tbpoint(&run, None, &cfg, &gpu, ExecPlan::serial()).unwrap();
        assert!(serial.num_simulated_launches >= 2, "{serial:?}");
        let (serial_traced, serial_traces) =
            run_tbpoint_traced(&run, None, &cfg, &gpu, ExecPlan::serial()).unwrap();
        assert_eq!(serial, serial_traced, "tracing changed the live result");
        for pool_workers in [1, 2, 4] {
            let plan = ExecPlan { pool_workers };
            let pooled = run_tbpoint(&run, None, &cfg, &gpu, plan).unwrap();
            assert_eq!(pooled, serial, "pool_workers={pool_workers}");
            let (traced, traces) = run_tbpoint_traced(&run, None, &cfg, &gpu, plan).unwrap();
            assert_eq!(traced, serial_traced, "pool_workers={pool_workers}");
            assert_eq!(traces, serial_traces, "pool_workers={pool_workers}");
        }
    }

    #[test]
    fn pooled_results_and_traces_are_identical_at_any_worker_count() {
        let run = sized_run(&[30, 60, 90, 300]);
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 2);
        let cfg = TbpointConfig::default();
        let serial = run_tbpoint(&run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();
        assert!(serial.num_simulated_launches >= 2, "{serial:?}");
        let (serial_traced, serial_traces) =
            run_tbpoint_traced(&run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();
        for pool_workers in [1, 2, 4] {
            let plan = ExecPlan { pool_workers };
            let pooled = run_tbpoint(&run, Some(&profile), &cfg, &gpu, plan).unwrap();
            assert_eq!(pooled, serial, "pool_workers={pool_workers}");
            let (traced, traces) =
                run_tbpoint_traced(&run, Some(&profile), &cfg, &gpu, plan).unwrap();
            assert_eq!(traced, serial_traced, "pool_workers={pool_workers}");
            // Canonical-order merge: the trace *streams* are identical
            // too, not just the results.
            assert_eq!(traces, serial_traces, "pool_workers={pool_workers}");
        }
    }
}
