//! Observability layer for the TBPoint workspace.
//!
//! The paper's evaluation hinges on understanding *why* a sampled run
//! diverges — which regions were warmed vs fast-forwarded, where IPC
//! failed to stabilise, which SMs sat behind the memory system. This
//! crate provides the plumbing every layer shares:
//!
//! - [`Recorder`]: a trait with cycle-stamped **events**, monotonic
//!   **counters**, indexed **gauges**, and paired **spans**. All methods
//!   take `&self` (implementations use interior mutability) so a single
//!   recorder can be shared by the sampler and the simulator within one
//!   launch without aliasing conflicts.
//! - [`NullRecorder`]: the default. Every method is an empty inline
//!   `&self` no-op on a zero-sized type, so when the simulator is
//!   monomorphised over it the instrumentation compiles away entirely.
//! - [`CollectingRecorder`]: in-memory collection, drained into a
//!   [`TraceBundle`], whose [`TraceBundle::to_jsonl`] is the
//!   deterministic JSON-lines form every trace file is written in.
//! - [`Store`]: the sealed-entry store every persisted result lives in
//!   (resumable sweep units, the serve result cache), with the atomic
//!   writer [`write_atomic`] under it.
//!
//! Recording must never perturb results: recorders only *observe*, and
//! the workspace golden test asserts that a `NullRecorder` run and a
//! collecting run produce bit-identical `TbpointResult`s.
//!
//! Determinism note: nothing here reads wall-clock time or any other
//! ambient state. Event order is exactly call order; counter and gauge
//! summaries are emitted in `BTreeMap` (name, index) order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods,
        clippy::disallowed_types
    )
)]

mod event;
mod integrity;
mod jsonl;
mod persist;
mod recorder;

pub use event::{Counter, DegradeReason, Event, EventKind, GaugeSummary, Span, TraceBundle};
pub use integrity::{fnv1a64, fnv1a64_extend, seal, verify, TraceError};
pub use jsonl::{event_line, parse_event};
pub use persist::{clean_stale_tmps, is_stale_tmp, safe_name, write_atomic, Lookup, Store};
pub use recorder::{CollectingRecorder, NullRecorder, Recorder};
