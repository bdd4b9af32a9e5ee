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

//! # tbpoint-emu
//!
//! SIMT functional emulator — the reproduction's stand-in for GPUOcelot.
//!
//! TBPoint's profiling step (Section II-B of the paper) runs each kernel
//! once through a *functional* simulator and records, per thread block:
//! thread instructions, warp instructions and memory requests (after
//! coalescing); per launch it adds per-basic-block execution counts and
//! global-memory instruction totals. Those counters are **hardware
//! independent**: they
//! depend only on the program and its input, never on cache sizes, warp
//! scheduling or SM counts. That is what lets TBPoint profile once and
//! re-cluster cheaply for any simulated configuration.
//!
//! The emulator walks a warp's structured program with an active lane
//! mask ([`walker`]), from which two consumers are built:
//!
//! * [`profile`] — streaming per-TB / per-launch profiles (no trace is
//!   materialised; counters only), parallelised over thread blocks;
//! * [`trace`] — materialised per-warp instruction traces that the timing
//!   simulator replays. A trace entry is `(static index, mask, iter_key)`,
//!   12 bytes: op, site and basic block live once per kernel in a
//!   [`StaticTable`], and addresses are recomputed deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod divergence;
pub mod intern;
pub mod profile;
pub mod trace;
pub mod walker;

pub use divergence::DivergenceReport;
pub use intern::{InternStats, TraceArena, TraceDeps, TraceKey};
pub use profile::{
    block_classes, profile_launch, profile_run, profile_run_obs, InterFeatures, LaunchProfile,
    RunProfile, TbStats,
};
#[doc(hidden)]
pub use trace::TraceInst;
pub use trace::{trace_warp, StaticInst, StaticTable, TraceEntry, WarpTrace};
pub use walker::{walk_warp, WarpEvent};
