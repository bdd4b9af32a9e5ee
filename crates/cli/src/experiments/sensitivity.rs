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

use super::tbpoint_unit;
use crate::output::{self, TraceEntry};
use serde::{Deserialize, Serialize};
use tbpoint_core::predict::TbpointConfig;
use tbpoint_core::TbError;
use tbpoint_emu::profile_run;
use tbpoint_sim::{simulate_run, GpuConfig, NullSampling};
use tbpoint_workloads::Benchmark;

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
/// failing configuration aborts the row with its [`TbError`]. With
/// `trace`, every cell's simulated launches are recorded, labelled
/// `bench@W<warps>S<sms>`, in config order (otherwise the trace list is
/// empty); recording never changes the cells.
pub fn sensitivity_bench(
    bench: &Benchmark,
    tb_cfg: &TbpointConfig,
    trace: bool,
) -> Result<(Vec<SensitivityCell>, Vec<TraceEntry>), TbError> {
    // Live mode has no profiling step at all — each configuration's
    // single timing pass is the whole pipeline.
    let profile = tb_cfg
        .mode
        .needs_profile()
        .then(|| profile_run(&bench.run, 1));
    let mut cells = Vec::with_capacity(CONFIGS.len());
    let mut entries = Vec::new();
    for (w, s) in CONFIGS {
        let gpu = GpuConfig::with_occupancy(w, s);
        let full = simulate_run(&bench.run, &gpu, &mut NullSampling, None);
        let label = trace.then(|| format!("{}@W{w}S{s}", bench.name));
        let (tbp, traces) =
            tbpoint_unit(&bench.run, profile.as_ref(), tb_cfg, &gpu, label.as_deref())?;
        entries.extend(traces);
        cells.push(SensitivityCell {
            bench: bench.name.to_string(),
            warps: w,
            sms: s,
            error_pct: tbp.error_vs(full.overall_ipc()),
            sample_size: tbp.sample_size(),
            occupancy: gpu.system_occupancy(&bench.run.kernel),
        });
    }
    Ok((cells, entries))
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
    use tbpoint_workloads::{all_benchmarks, Scale};

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
