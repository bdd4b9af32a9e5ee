//! One module per paper artefact; each returns serialisable result
//! structs and can render itself as text.

pub mod ablate;
pub mod eval;
pub mod fig5;
pub mod fig8;
pub mod inspect;
pub mod sensitivity;
pub mod table1;
pub mod table6;

pub use ablate::{ablate, AblationResult};
pub use eval::{
    eval_bench, render_fig10, render_fig11, render_fig9, BenchEval, EvalConfig, EvalResult,
};
pub use fig5::fig5;
pub use fig8::{fig8_bench, Fig8Result, Fig8Series};
pub use inspect::inspect;
pub use sensitivity::{
    render_fig12, render_fig13, sensitivity_bench, SensitivityCell, SensitivityResult,
};
pub use table1::table1;
pub use table6::table6;

use crate::output::TraceEntry;
use tbpoint_core::predict::{run_tbpoint, run_tbpoint_traced, TbpointConfig, TbpointResult};
use tbpoint_core::TbError;
use tbpoint_emu::RunProfile;
use tbpoint_ir::KernelRun;
use tbpoint_pool::ExecPlan;
use tbpoint_sim::GpuConfig;
use tbpoint_workloads::Scale;

/// Run the TBPoint pipeline inside one roster unit. With a `label`, the
/// launches are recorded and their traces come back under that label;
/// without one, the trace list is empty. Recording never changes the
/// result. Units run serially: the roster driver has already spent the
/// pool-worker budget across units.
fn tbpoint_unit(
    run: &KernelRun,
    profile: Option<&RunProfile>,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    label: Option<&str>,
) -> Result<(TbpointResult, Vec<TraceEntry>), TbError> {
    let Some(label) = label else {
        return Ok((
            run_tbpoint(run, profile, cfg, gpu, ExecPlan::serial())?,
            Vec::new(),
        ));
    };
    let (tbp, traces) = run_tbpoint_traced(run, profile, cfg, gpu, ExecPlan::serial())?;
    let entries = traces
        .into_iter()
        .map(|t| TraceEntry {
            label: label.to_string(),
            launch: t.launch,
            trace: t.trace,
        })
        .collect();
    Ok((tbp, entries))
}

/// Parse a `--scale` value.
pub fn parse_scale(s: &str) -> Option<Scale> {
    match s {
        "full" => Some(Scale::Full),
        "dev" => Some(Scale::Dev),
        "tiny" => Some(Scale::Tiny),
        _ => None,
    }
}

/// Default worker-thread count: the machine's parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}
