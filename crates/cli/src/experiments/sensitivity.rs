//! Figs. 12 and 13: TBPoint accuracy and sample size across hardware
//! configurations with different system occupancy (W warps per SM,
//! S SMs).
//!
//! The point of the experiment (Section V-C) is that only the cheap
//! steps rerun per configuration: the profile is collected **once** and
//! reused, the epoch table is rebuilt (epoch size = system occupancy),
//! and the simulation is re-run. This module is written exactly that
//! way — `profile_run` is called once per benchmark outside the
//! configuration loop.

use crate::output::{self, TraceEntry};
use serde::{Deserialize, Serialize};
use tbpoint_core::predict::{run_tbpoint, run_tbpoint_traced, TbpointConfig};
use tbpoint_core::TbError;
use tbpoint_emu::profile_run;
use tbpoint_pool::{run_indexed, ExecPlan, SweepUnit};
use tbpoint_sim::{simulate_run, GpuConfig, NullSampling};
use tbpoint_workloads::{all_benchmarks, Benchmark, Scale};

/// The evaluated (W, S) grid. The paper's exact pairs are unreadable in
/// the scan; these six bracket the Fermi baseline (48, 14) from both
/// sides, which is what Figs. 12-13 require.
pub const CONFIGS: [(u32, u32); 6] = [(16, 8), (32, 8), (16, 14), (32, 14), (48, 14), (48, 28)];

/// One (benchmark, config) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityCell {
    /// Benchmark name.
    pub bench: String,
    /// Warps per SM.
    pub warps: u32,
    /// Number of SMs.
    pub sms: u32,
    /// TBPoint sampling error (percent) under this configuration.
    pub error_pct: f64,
    /// TBPoint total sample size under this configuration.
    pub sample_size: f64,
    /// System occupancy (epoch size) under this configuration.
    pub occupancy: u32,
}

/// Figs. 12-13 data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityResult {
    /// All cells, benchmark-major.
    pub cells: Vec<SensitivityCell>,
}

impl SensitivityResult {
    fn benches(&self) -> Vec<String> {
        let mut names: Vec<String> = self.cells.iter().map(|c| c.bench.clone()).collect();
        names.dedup();
        names
    }

    fn render(&self, value: impl Fn(&SensitivityCell) -> String) -> String {
        let mut headers: Vec<String> = vec!["bench".into()];
        headers.extend(CONFIGS.iter().map(|(w, s)| format!("W{w}S{s}")));
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = self
            .benches()
            .into_iter()
            .map(|name| {
                let mut row = vec![name.clone()];
                for (w, s) in CONFIGS {
                    let cell = self
                        .cells
                        .iter()
                        .find(|c| c.bench == name && c.warps == w && c.sms == s)
                        .expect("grid is complete");
                    row.push(value(cell));
                }
                row
            })
            .collect();
        output::render_table(&headers_ref, &rows)
    }

    /// Fig. 12 table: errors.
    pub fn render_errors(&self) -> String {
        let mut s = self.render(|c| output::fmt(c.error_pct, 2));
        let max = self.cells.iter().map(|c| c.error_pct).fold(0.0, f64::max);
        s.push_str(&format!(
            "max error across configs: {max:.2}% (paper: <14%)\n"
        ));
        s
    }

    /// Fig. 13 table: sample sizes.
    pub fn render_samples(&self) -> String {
        self.render(|c| output::pct(c.sample_size))
    }
}

/// Compute one benchmark's whole row of the (W, S) grid — the
/// resumable sweep's unit of work. Profiles once (the one-time
/// profiling step), then simulates every configuration; the first
/// failing configuration aborts the row with its [`TbError`].
pub fn sensitivity_bench(
    bench: &Benchmark,
    tb_cfg: &TbpointConfig,
    plan: ExecPlan,
) -> Result<Vec<SensitivityCell>, TbError> {
    // Live mode has no profiling step at all — each configuration's
    // single timing pass is the whole pipeline.
    let profile = tb_cfg
        .mode
        .needs_profile()
        .then(|| profile_run(&bench.run, 1));
    CONFIGS
        .iter()
        .map(|&(w, s)| {
            let gpu = GpuConfig::with_occupancy(w, s);
            let full = simulate_run(&bench.run, &gpu, &mut NullSampling, None);
            let tbp = run_tbpoint(&bench.run, profile.as_ref(), tb_cfg, &gpu, plan)?;
            Ok(SensitivityCell {
                bench: bench.name.to_string(),
                warps: w,
                sms: s,
                error_pct: tbp.error_vs(full.overall_ipc()),
                sample_size: tbp.sample_size(),
                occupancy: gpu.system_occupancy(&bench.run.kernel),
            })
        })
        .collect()
}

/// One benchmark's whole (W, S) grid row as a pool-schedulable
/// [`SweepUnit`].
pub struct SensitivityUnit<'a> {
    /// The benchmark whose row to compute.
    pub bench: &'a Benchmark,
    /// TBPoint thresholds and budgets shared across the grid.
    pub tb_cfg: &'a TbpointConfig,
    /// Unit-level execution plan — callers pass `plan.unit()` because
    /// the sweep scheduler has already spent the pool-worker budget.
    pub plan: ExecPlan,
}

impl SweepUnit for SensitivityUnit<'_> {
    type Output = Vec<SensitivityCell>;
    type Error = TbError;

    fn id(&self) -> String {
        self.bench.name.to_string()
    }

    fn run(&self) -> Result<Vec<SensitivityCell>, TbError> {
        sensitivity_bench(self.bench, self.tb_cfg, self.plan)
    }
}

/// Run the sensitivity sweep with `tb_cfg` (thresholds and budgets flow
/// through it), fanning benchmark rows out across `plan.pool_workers`
/// pool workers. Each unit profiles once and runs its whole
/// configuration row (same unit shape as the resumable sweep); cells
/// come back benchmark-major in config order — deterministic at any
/// worker count.
pub fn sensitivity(
    scale: Scale,
    plan: ExecPlan,
    tb_cfg: &TbpointConfig,
) -> Result<SensitivityResult, TbError> {
    let benches = all_benchmarks(scale);
    let unit_plan = plan.unit();
    let rows = run_indexed(plan.pool_workers, benches.len(), |i| {
        sensitivity_bench(&benches[i], tb_cfg, unit_plan)
    })
    .map_err(|(_, e)| e)?;
    Ok(SensitivityResult {
        cells: rows.into_iter().flatten().collect(),
    })
}

/// [`sensitivity`] with observability traces (the `--trace-out` path):
/// every (benchmark, config) cell's simulated launches are recorded,
/// labelled `bench@W<warps>S<sms>`. Runs serially for a deterministic
/// trace order; the [`SensitivityResult`] is identical to
/// [`sensitivity`]'s.
pub fn sensitivity_traced(
    scale: Scale,
    threads: usize,
    tb_cfg: &TbpointConfig,
    plan: ExecPlan,
) -> Result<(SensitivityResult, Vec<TraceEntry>), TbError> {
    let benches = all_benchmarks(scale);
    let profiles: Vec<_> = benches
        .iter()
        .map(|b| {
            tb_cfg
                .mode
                .needs_profile()
                .then(|| profile_run(&b.run, threads))
        })
        .collect();
    let mut cells = Vec::new();
    let mut entries = Vec::new();
    for (bi, bench) in benches.iter().enumerate() {
        for (w, s) in CONFIGS {
            let gpu = GpuConfig::with_occupancy(w, s);
            let full = simulate_run(&bench.run, &gpu, &mut NullSampling, None);
            let (tbp, traces) =
                run_tbpoint_traced(&bench.run, profiles[bi].as_ref(), tb_cfg, &gpu, plan)?;
            entries.extend(traces.into_iter().map(|t| TraceEntry {
                label: format!("{}@W{w}S{s}", bench.name),
                launch: t.launch,
                trace: t.trace,
            }));
            cells.push(SensitivityCell {
                bench: bench.name.to_string(),
                warps: w,
                sms: s,
                error_pct: tbp.error_vs(full.overall_ipc()),
                sample_size: tbp.sample_size(),
                occupancy: gpu.system_occupancy(&bench.run.kernel),
            });
        }
    }
    Ok((SensitivityResult { cells }, entries))
}

/// Render Fig. 12 (errors).
pub fn render_fig12(r: &SensitivityResult) -> String {
    r.render_errors()
}

/// Render Fig. 13 (sample sizes).
pub fn render_fig13(r: &SensitivityResult) -> String {
    r.render_samples()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_scales_with_config() {
        // Cheap structural check: occupancy must grow with W and S.
        let gpu_small = GpuConfig::with_occupancy(16, 8);
        let gpu_big = GpuConfig::with_occupancy(48, 28);
        let bench = &all_benchmarks(Scale::Tiny)[6]; // cfd
        assert!(
            gpu_big.system_occupancy(&bench.run.kernel)
                > gpu_small.system_occupancy(&bench.run.kernel)
        );
    }
}
