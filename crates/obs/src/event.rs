//! Event vocabulary shared by every instrumented layer.
//!
//! Events are plain `Copy` data — constructing one never allocates, so
//! call sites build the payload unconditionally and let a
//! `NullRecorder` discard it for free.

use serde::Serialize;

/// A paired region of work, opened by [`EventKind::SpanStart`] and closed
/// by [`EventKind::SpanEnd`] carrying the same payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Span {
    /// Cycle-level simulation of one representative launch
    /// (`tbpoint-core`). `SpanEnd` is stamped with the final cycle.
    SimulateLaunch {
        /// Launch index within the run.
        launch: u32,
    },
}

/// What happened. Variant names double as the "kind" label in the CLI
/// trace summary (`EventKind::name`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum EventKind {
    /// A span opened.
    SpanStart {
        /// The span being opened.
        span: Span,
    },
    /// A span closed.
    SpanEnd {
        /// The span being closed.
        span: Span,
    },

    // --- dispatcher / cycle loop (tbpoint-sim) ---
    /// A thread block became resident on an SM.
    TbDispatched {
        /// Flat thread-block id.
        tb: u32,
        /// SM index it landed on.
        sm: u32,
    },
    /// The sampling hook told the dispatcher to skip this block.
    TbSkipped {
        /// Flat thread-block id.
        tb: u32,
    },
    /// A resident thread block retired.
    TbRetired {
        /// Flat thread-block id.
        tb: u32,
        /// SM index it retired from.
        sm: u32,
    },
    /// The cycle loop found nothing issueable and jumped forward.
    IdleJump {
        /// Cycles skipped in one jump.
        cycles: u64,
    },

    // --- memory system (tbpoint-sim) ---
    /// A load missed L1 and waited for a miss-status register to free up.
    MshrStall {
        /// SM whose load stalled.
        sm: u32,
        /// Cycles the request waited before it could even issue.
        cycles: u64,
    },
    /// An access reached DRAM (L2 miss).
    DramAccess {
        /// SM that originated the access.
        sm: u32,
        /// Whether it hit an open row buffer.
        row_hit: bool,
    },

    // --- region sampler (tbpoint-core) ---
    /// The sampler crossed into a new homogeneous region and started
    /// warming.
    RegionEntered {
        /// Region index: a region-table id in two-phase mode, the online
        /// cluster id in live mode.
        region: u32,
    },
    /// The sampler left the launch (all blocks dispatched).
    RegionExited,
    /// A warming unit closed with the given observed IPC.
    UnitClosed {
        /// IPC over the closed unit.
        ipc: f64,
    },
    /// Warming converged; subsequent blocks in the region fast-forward.
    FastForwardStarted {
        /// Region index, as in `RegionEntered`.
        region: u32,
        /// The stabilised IPC used to extrapolate the region.
        ipc: f64,
    },
    /// A block was skipped (fast-forwarded) instead of simulated.
    BlockSkipped {
        /// Flat thread-block id.
        tb: u32,
        /// Warp instructions the block would have issued.
        warp_insts: u64,
    },

    // --- live single-pass sampler (tbpoint-core) ---
    /// The online detector completed an epoch of retired blocks and
    /// assigned it to a behaviour cluster.
    LiveEpochDetected {
        /// Epoch index within the launch.
        epoch: u32,
        /// Cluster the epoch's mean stall probability landed in.
        cluster: u32,
    },
    /// A guard block's statistics deviated from its cluster's running
    /// representative: fast-forwarding stopped and the sampler fell back
    /// to detailed simulation.
    LiveDestabilised {
        /// Cluster index that destabilised.
        cluster: u32,
    },

    // --- resilience (tbpoint-core) ---
    /// The pipeline fell back to detailed simulation instead of
    /// fast-forwarding on untrustworthy data.
    DegradedMode {
        /// What triggered the fallback.
        reason: DegradeReason,
    },
}

/// Why the pipeline degraded to detailed simulation (payload of
/// [`EventKind::DegradedMode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DegradeReason {
    /// A representative launch's profile failed validation (wrong block
    /// count or non-finite features): the launch is simulated in full
    /// and its IPC taken from the simulator, not the profile.
    ProfileInvalid,
    /// A region's per-unit IPC failed to stabilise within the configured
    /// warming budget: the region is abandoned and its remaining blocks
    /// simulated in detail.
    WarmingBudgetExceeded {
        /// The abandoned region's index.
        region: u32,
    },
}

impl EventKind {
    /// Stable label for summaries ("events by kind").
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SpanStart { .. } => "SpanStart",
            EventKind::SpanEnd { .. } => "SpanEnd",
            EventKind::TbDispatched { .. } => "TbDispatched",
            EventKind::TbSkipped { .. } => "TbSkipped",
            EventKind::TbRetired { .. } => "TbRetired",
            EventKind::IdleJump { .. } => "IdleJump",
            EventKind::MshrStall { .. } => "MshrStall",
            EventKind::DramAccess { .. } => "DramAccess",
            EventKind::RegionEntered { .. } => "RegionEntered",
            EventKind::RegionExited => "RegionExited",
            EventKind::UnitClosed { .. } => "UnitClosed",
            EventKind::FastForwardStarted { .. } => "FastForwardStarted",
            EventKind::BlockSkipped { .. } => "BlockSkipped",
            EventKind::LiveEpochDetected { .. } => "LiveEpochDetected",
            EventKind::LiveDestabilised { .. } => "LiveDestabilised",
            EventKind::DegradedMode { .. } => "DegradedMode",
        }
    }
}

/// A cycle-stamped event. `cycle` is the simulated cycle (every event
/// comes from the simulator or the sampler).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Event {
    /// Simulated cycle at which the event occurred.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Final value of one named monotonic counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Counter {
    /// Counter name (e.g. `l1_hit`).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// Everything one recorder saw, written out by [`TraceBundle::to_jsonl`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceBundle {
    /// Events in record order.
    pub events: Vec<Event>,
    /// Counters, name-sorted.
    pub counters: Vec<Counter>,
}

impl TraceBundle {
    /// Serialise to deterministic JSON-lines text: one line per event in
    /// record order, then one per counter.
    ///
    /// The output buffer is sized up front from the record count (big
    /// traces reach millions of events, and repeated doubling of a
    /// multi-megabyte `String` copies the whole prefix each time), and
    /// each line is serialised directly into it rather than through a
    /// per-record temporary.
    pub fn to_jsonl(&self) -> String {
        let records = self.events.len() + self.counters.len();
        let mut out = String::with_capacity(records * crate::jsonl::EST_LINE_BYTES);
        for ev in &self.events {
            crate::jsonl::push_event_line(&mut out, ev);
        }
        for c in &self.counters {
            crate::jsonl::push_counter_line(&mut out, c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(EventKind::RegionExited.name(), "RegionExited");
        assert_eq!(
            EventKind::TbDispatched { tb: 0, sm: 0 }.name(),
            "TbDispatched"
        );
    }
}
