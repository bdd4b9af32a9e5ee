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
//! coalescing). Those counters are **hardware independent**: they
//! depend only on the program and its input, never on cache sizes, warp
//! scheduling or SM counts. That is what lets TBPoint profile once and
//! re-cluster cheaply for any simulated configuration.
//!
//! The emulator walks a warp's structured program with an active lane
//! mask ([`walker`]): a [`WarpWalk`] yields one warp instruction per
//! pull, and two consumers are built on it:
//!
//! * [`profile`] — streaming per-TB / per-launch profiles (no trace is
//!   materialised; counters only), one launch at a time;
//! * [`trace`] — the per-warp instruction streams the timing simulator
//!   replays. A trace is built only where [`TraceArena`] shares it
//!   between identical warps; a warp nothing shares is streamed from its
//!   walk as it issues. A trace entry is `(static index, mask, iter_key)`,
//!   12 bytes: op, site and basic block live once per kernel in a
//!   [`StaticTable`], and addresses are recomputed deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod intern;
pub mod profile;
pub mod trace;
pub mod walker;

pub use intern::{InternStats, TraceArena, TraceDeps, TraceKey};
pub use profile::{
    block_classes, profile_launch, profile_run, BlockClasses, InterFeatures, LaunchProfile,
    RunProfile, TbStats, Tbs,
};
pub use trace::{
    trace_warp, StaticInst, StaticTable, TraceEntry, TraceInst, WarpStream, WarpTrace,
};
pub use walker::{WarpEvent, WarpWalk};
