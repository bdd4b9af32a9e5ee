// Tests assert by panicking and compare exact floats on purpose; their
// clocks and hash maps never reach a result.
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods,
        clippy::disallowed_types
    )
)]

//! # tbpoint-core
//!
//! TBPoint proper: the two sampling techniques of the paper, built on the
//! profiler (`tbpoint-emu`), the timing simulator (`tbpoint-sim`) and the
//! clustering library (`tbpoint-cluster`).
//!
//! * [`inter`] — **inter-launch sampling** (Section III): each kernel
//!   launch becomes a 4-feature vector (Eq. 2: thread instructions, warp
//!   instructions, memory requests, CoV of thread-block sizes, each
//!   normalised by its cross-launch average); hierarchical clustering with
//!   distance threshold σ groups homogeneous launches; the launch closest
//!   to each cluster centre is the simulation point.
//! * [`intra`] — **homogeneous region identification** (Section IV-B1):
//!   thread blocks are grouped into epochs of `system occupancy` size
//!   (Eq. 4), epochs are clustered on their average stall probability
//!   (Eq. 5), epochs with a high variation factor (outlier TBs) are
//!   isolated, and maximal runs of same-cluster epochs become homogeneous
//!   regions stored in a region table (Table III).
//! * [`sampling`] — **homogeneous region sampling** (Section IV-B2): a
//!   [`tbpoint_sim::SamplingHook`] that tracks designated-thread-block
//!   sampling units, enters a region when every resident TB shares its
//!   region id, warms until consecutive unit IPCs agree within 10%, then
//!   fast-forwards (skips) the region's remaining TBs, predicting their
//!   cycles from the last warm unit's IPC.
//! * [`sampling::live`] — **live single-pass sampling**: the same
//!   warming/fast-forward machine driven by an epoch/cluster/region
//!   structure detected *online* from the simulator's retire-time
//!   feature stream, with no profiling pass
//!   (`TbpointConfig::mode = Live`).
//! * [`predict`] — the end-to-end pipeline ([`run_tbpoint`], one call for
//!   both modes) and the IPC / sample-size / skipped-instruction
//!   accounting behind Figs. 9-13 (Table IV).
//!
//! Entry points return [`TbError`] on invalid configs or mismatched
//! profiles; samplers are constructed from a [`TbpointConfig`] and report
//! into a [`tbpoint_obs::Recorder`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod inter;
pub mod intra;
pub mod predict;
pub mod sampling;

/// Revision of the sampling rules. Serve's cache keys and the sweeps'
/// unit names hash it, so results computed under older rules are
/// recomputed, not reused. Bump it with any change that moves sampled
/// predictions for unchanged inputs. Revision 2: inter-launch size
/// features count up to one wave and the TB-size CoV enters as is.
pub const SAMPLER_REV: u32 = 2;

pub use error::TbError;
#[doc(hidden)]
pub use inter::inter_launch_sample;
pub use inter::{inter_launch_sample_at, InterConfig, InterResult};
pub use intra::{build_epochs, identify_regions, Epoch, IntraConfig, Region, RegionTable};
pub use predict::{
    run_tbpoint, run_tbpoint_traced, LaunchTrace, SamplingMode, SavingsBreakdown, TbpointConfig,
    TbpointResult,
};
#[doc(hidden)]
pub use predict::{run_tbpoint_live_plan, run_tbpoint_plan, run_tbpoint_traced_plan};
pub use sampling::live::{LiveOutcome, LiveSampler};
pub use sampling::{IntraOutcome, RegionSampler};
pub use tbpoint_pool::ExecPlan;
