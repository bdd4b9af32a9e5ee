//! # tbpoint — facade crate
//!
//! Re-exports the whole TBPoint workspace behind one dependency, so examples
//! and downstream users can write `use tbpoint::...` without tracking the
//! individual sub-crates.
//!
//! TBPoint (Huang, Nai, Kim, Lee — IPDPS 2014) reduces cycle-level GPGPU
//! simulation time by sampling at two levels:
//!
//! * **inter-launch**: cluster kernel launches by a 4-feature vector and
//!   simulate one representative per cluster ([`core::inter`]);
//! * **intra-launch**: identify *homogeneous regions* of thread blocks from
//!   a hardware-independent profile and fast-forward through them once the
//!   measured IPC stabilises ([`core::intra`], [`core::sampling`]).
//!
//! The workspace also contains everything the paper's evaluation needs:
//! a SIMT functional profiler ([`emu`]), a cycle-level GPU timing simulator
//! ([`sim`]), clustering algorithms ([`cluster`]), the Markov-chain warp
//! interleaving model ([`model`]), the Table-VI benchmark roster
//! ([`workloads`]), the Random / Ideal-SimPoint baselines ([`baselines`]),
//! an observability layer of recorders, counters and cycle-stamped
//! events ([`obs`]), and a deterministic cross-launch job pool with the
//! unified [`ExecPlan`](pool::ExecPlan) parallelism API ([`pool`]).
//!
//! Pipeline entry points return [`TbError`] instead of panicking; grab
//! the usual suspects from [`prelude`]:
//!
//! ```no_run
//! use tbpoint::prelude::*;
//! # fn demo(run: &tbpoint::ir::KernelRun) -> Result<(), TbError> {
//! let gpu = GpuConfig::fermi();
//! // The paper's two-phase pipeline: profile once, then sample.
//! let profile = profile_run(run, 1);
//! let cfg = TbpointConfig::default();
//! let result = run_tbpoint(run, Some(&profile), &cfg, &gpu, ExecPlan::serial())?;
//! println!("predicted IPC {:.3}", result.predicted_ipc);
//! // Live single-pass sampling: the same call, no profile.
//! let live = TbpointConfig {
//!     mode: SamplingMode::Live,
//!     ..cfg
//! };
//! let result = run_tbpoint(run, None, &live, &gpu, ExecPlan::serial())?;
//! println!("live predicted IPC {:.3}", result.predicted_ipc);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use tbpoint_baselines as baselines;
pub use tbpoint_cluster as cluster;
pub use tbpoint_core as core;
pub use tbpoint_emu as emu;
pub use tbpoint_ir as ir;
pub use tbpoint_model as model;
pub use tbpoint_obs as obs;
pub use tbpoint_pool as pool;
pub use tbpoint_sim as sim;
pub use tbpoint_stats as stats;
pub use tbpoint_workloads as workloads;

pub use tbpoint_core::TbError;

/// The names most library users need, in one import.
pub mod prelude {
    pub use crate::core::{
        run_tbpoint, run_tbpoint_traced, IntraOutcome, LaunchTrace, RegionSampler, SamplingMode,
        TbError, TbpointConfig, TbpointResult,
    };
    pub use crate::emu::{profile_launch, profile_run};
    pub use crate::obs::{
        CollectingRecorder, Event, EventKind, JsonlRecorder, NullRecorder, Recorder, TraceBundle,
    };
    pub use crate::pool::{ExecPlan, SweepUnit};
    pub use crate::sim::{simulate_launch, simulate_run, GpuConfig};
}
