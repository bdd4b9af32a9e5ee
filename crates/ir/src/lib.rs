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

//! # tbpoint-ir
//!
//! Kernel intermediate representation for the TBPoint reproduction.
//!
//! The paper profiles real CUDA kernels through GPUOcelot. We replace the
//! CUDA/PTX front end with a compact, *structured* kernel IR: a thread
//! program is a tree of [`program::Node`]s (straight-line basic blocks,
//! `if`s, loops). Per-thread control flow — trip counts, branch decisions —
//! is a **pure function** of `(kernel seed, launch id, block id, thread id,
//! site)`, evaluated through the stateless mixer in `tbpoint-stats`. That
//! purity is what makes the whole reproduction hang together:
//!
//! * the functional profiler (`tbpoint-emu`) and the timing simulator
//!   (`tbpoint-sim`) observe *exactly* the same instruction streams, so
//!   profiling is **hardware independent** and **one-time** — the two
//!   properties the paper demands of a good profiling-based sampling scheme
//!   (Table II);
//! * every run is bit-reproducible regardless of host thread count.
//!
//! The IR deliberately models only what the sampling experiments are
//! sensitive to: instruction counts, control-flow divergence (active-mask
//! shrinkage), memory divergence (coalescing behaviour), barriers, and
//! occupancy limits (registers / shared memory).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod display;
pub mod inst;
pub mod kernel;
pub mod program;
pub mod types;

pub use display::render_program;
pub use inst::{AddrPattern, Inst, LatencyClass, Op};
pub use kernel::{Kernel, KernelBuilder, KernelRun, LaunchSpec, ValidateError};
pub use program::{Cond, Dist, ExecCtx, Node, TripCount};
pub use types::{BasicBlockId, LaunchId, TbId, ThreadId, WarpId, WARP_SIZE};
