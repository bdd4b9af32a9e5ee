//! `ExecPlan`: the single home for the parallelism knob.
//!
//! TBPoint has one parallel axis: `pool_workers`, how many threads the
//! [`runner`](crate::runner) pool uses to schedule whole launches and
//! sweep units. (An intra-launch axis that sharded one launch's SMs
//! across threads was measured slower than serial on every host it ran
//! on and was removed — DESIGN.md, "Deterministic parallel simulation".)
//!
//! The plan is an *execution* concern, deliberately kept out of
//! `TbpointConfig` and every serialized result artifact: results are
//! bit-identical at any worker count, so recording the worker count
//! with the result would break artifact-level byte comparison for no
//! information gain.

use serde::{Deserialize, Serialize};

/// The parallelism plan: a worker count with serial (`1`) as the
/// neutral value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecPlan {
    /// Pool workers scheduling whole launches / sweep units
    /// (`--pool-workers`).
    pub pool_workers: usize,
}

impl Default for ExecPlan {
    /// Serial.
    fn default() -> Self {
        ExecPlan { pool_workers: 1 }
    }
}

impl ExecPlan {
    /// Serial (alias for [`Default`], reads better at call sites). Work
    /// running *inside* one pool unit gets this plan: the outermost
    /// scheduler spends the `pool_workers` budget once.
    #[must_use]
    pub fn serial() -> Self {
        ExecPlan::default()
    }
}
