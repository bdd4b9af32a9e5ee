//! `tbpoint-serve`: the fault-tolerant long-running simulation service.
//!
//! PRs 1–7 built a *pipeline*: one invocation, one result, exit. This
//! crate wraps that pipeline in a *service* — `tbpoint serve` reads
//! JSONL requests from stdin in blank-line-delimited batch windows,
//! schedules the work requests onto the supervised
//! [`tbpoint_pool`] and answers one JSONL response per request — with
//! the robustness properties a long-running process needs:
//!
//! - **Worker supervision** ([`service`]): every unit runs under
//!   `catch_unwind` containment ([`tbpoint_pool::run_supervised`]), so
//!   a panicking request yields a structured error for *that* index
//!   while the batch keeps draining. Every request runs exactly once:
//!   the pipeline is a pure function of the request, so a re-run could
//!   only repeat the panic.
//! - **Deadlines and admission control**: per-request cycle/warming
//!   budgets layer onto `TbpointConfig`, overruns come back as
//!   `deadline-exceeded`; a bounded queue load-sheds overflow with a
//!   structured `rejected` response — never a silent drop — and a
//!   `shutdown` request drains its batch before the loop exits.
//! - **A self-healing result cache** ([`cache`]): content-addressed on
//!   the full request inputs, kept in the workspace's sealed-entry store
//!   ([`tbpoint_obs::Store`]): every entry carries its own seal and is
//!   re-verified on every read; corrupt entries are quarantined and
//!   recomputed, never served.
//! - **Observability**: admission, rejection, deadline and cache
//!   traffic are recorded as [`tbpoint_obs::EventKind`] events and
//!   counters on the coordinator thread, in deterministic order.

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

pub mod cache;
pub mod proto;
pub mod service;

pub use cache::{cache_name, key_text, Lookup, ResultCache};
pub use proto::{
    parse_request, Command, EvalSummary, InjectedFault, Request, Response, SimSummary,
    StatusReport, WorkBody,
};
pub use service::{process_text, run_loop, ServeOptions, Service};
