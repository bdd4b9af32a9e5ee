// Tests assert by panicking on purpose; their clocks and hash maps
// never reach a result.
#![cfg_attr(
    test,
    allow(
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods,
        clippy::disallowed_types
    )
)]

//! # tbpoint-pool
//!
//! The deterministic cross-launch job pool and the unified parallelism
//! API for the TBPoint workspace.
//!
//! TBPoint's pipelines are piles of *independent* work items — launches
//! inside [`run_tbpoint`](../tbpoint_core/predict/fn.run_tbpoint.html),
//! benchmarks inside a sweep, config points inside an ablation. This
//! crate schedules them — whole launches and whole sweep units — across
//! worker threads, the repo's one parallel axis.
//!
//! Two pieces:
//!
//! * [`runner`] — [`run_indexed`] / [`map_indexed`], an atomic-cursor
//!   pool over index-addressed jobs whose output is **bit-identical to
//!   a serial loop at every worker count** (canonical-order merge:
//!   results land in per-index slots and are assembled in index order;
//!   only scheduling order is timing-dependent); plus
//!   [`run_supervised`], the service-grade variant that contains a
//!   panicking unit to its own index (an `Err` carrying the panic
//!   message) while the pool keeps draining.
//! * [`plan`] — [`ExecPlan`]`{ pool_workers }`, the single home for the
//!   parallelism knob.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plan;
pub mod runner;

pub use plan::ExecPlan;
pub use runner::{map_indexed, panic_message, run_indexed, run_supervised};
