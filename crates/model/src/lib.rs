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

//! # tbpoint-model
//!
//! The mathematical backbone of intra-launch sampling (Section IV-A of the
//! paper): a Markov-chain model of N concurrently scheduled warps, each
//! either *runnable* or *stalled*, plus the Monte-Carlo study that shows a
//! homogeneous interval's IPC barely moves under random warp interleaving.
//!
//! Per the paper's Definition 4.0 / Figure 4:
//!
//! * a runnable warp stalls with probability `p` each cycle (`p` =
//!   stall probability, approximated at profile time by
//!   `mem_insts / total_insts`);
//! * a stalled warp wakes with probability `1 / M_x` each cycle, where
//!   `M_x` is that warp's mean stall duration, drawn once per experiment
//!   from `N(mu, sigma^2)` with `sigma = 0.1 * mu / 1.96` (so 95% of draws
//!   land within ±10% of `mu`);
//! * the SM issues one instruction per cycle whenever at least one warp is
//!   runnable, so `IPC = 1 - R_0` with `R_0` the steady-state probability
//!   of the all-stalled state (Eq. 3).
//!
//! Lemma 4.1 — reproduced by [`monte_carlo::ipc_variation`] — states that
//! more than 95% of Monte-Carlo samples fall within 10% of the mean IPC.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod markov;
pub mod monte_carlo;
pub mod simulate;

pub use markov::{closed_form_ipc, steady_state_ipc, WarpChain};
pub use monte_carlo::{ipc_variation, IpcVariationConfig, IpcVariationResult};
pub use simulate::simulate_chain_ipc;
