//! Event vocabulary shared by every instrumented layer.
//!
//! Events are plain `Copy` data — constructing one never allocates, so
//! call sites can build the payload unconditionally and let a
//! `NullRecorder` discard it for free. Anything that would be expensive
//! to gather is guarded by `Recorder::enabled` at the call site instead.

use serde::{Deserialize, Serialize};

/// A paired region of work, opened by [`EventKind::SpanStart`] and closed
/// by [`EventKind::SpanEnd`] carrying the same payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Span {
    /// Functional profiling of one launch (`tbpoint-emu`). Profiling has
    /// no simulated clock, so these events carry cycle 0.
    ProfileLaunch {
        /// Launch index within the run.
        launch: u32,
    },
    /// Cycle-level simulation of one representative launch
    /// (`tbpoint-core`). `SpanEnd` is stamped with the final cycle.
    SimulateLaunch {
        /// Launch index within the run.
        launch: u32,
    },
}

/// What happened. Variant names double as the "kind" label in the CLI
/// trace summary (`EventKind::name`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

    // --- request service (tbpoint-serve) ---
    // Requests are identified by their arrival sequence number (`seq`),
    // not their caller-chosen id string: event payloads stay `Copy`.
    /// A request passed admission control and was queued for execution.
    RequestAdmitted {
        /// Arrival sequence number within the service run.
        seq: u64,
    },
    /// A request was load-shed at admission (bounded queue full). The
    /// caller still gets a structured `rejected` response — rejection
    /// is never a silent drop.
    RequestRejected {
        /// Arrival sequence number within the service run.
        seq: u64,
    },
    /// A request exceeded its cycle budget and was answered with a
    /// structured deadline error instead of a result.
    DeadlineExceeded {
        /// Arrival sequence number within the service run.
        seq: u64,
    },
    /// A request was answered from the content-addressed result cache.
    CacheHit {
        /// Arrival sequence number within the service run.
        seq: u64,
    },
    /// A cache entry failed its checksum re-verification on read and
    /// was quarantined (renamed aside) before recomputation — corrupt
    /// bytes are never deserialized into a response.
    CacheQuarantined {
        /// Arrival sequence number within the service run.
        seq: u64,
    },
}

/// Why the pipeline degraded to detailed simulation (payload of
/// [`EventKind::DegradedMode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
            EventKind::RequestAdmitted { .. } => "RequestAdmitted",
            EventKind::RequestRejected { .. } => "RequestRejected",
            EventKind::DeadlineExceeded { .. } => "DeadlineExceeded",
            EventKind::CacheHit { .. } => "CacheHit",
            EventKind::CacheQuarantined { .. } => "CacheQuarantined",
        }
    }
}

/// A cycle-stamped event. `cycle` is the simulated cycle when the layer
/// has a clock (the simulator and sampler) and 0 where it does not
/// (functional profiling).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Simulated cycle at which the event occurred.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Final value of one named monotonic counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter {
    /// Counter name (e.g. `l1_hit`).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// Summary of one indexed gauge (e.g. resident blocks on SM 3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSummary {
    /// Gauge name (e.g. `sm_resident_blocks`).
    pub name: String,
    /// Instance index (e.g. the SM id).
    pub index: u32,
    /// Last value set.
    pub last: u64,
    /// Maximum value observed.
    pub max: u64,
    /// Number of samples recorded.
    pub samples: u64,
}

/// Everything one recorder saw, in a serialisable, mergeable form.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceBundle {
    /// Events in record order.
    pub events: Vec<Event>,
    /// Counters, name-sorted.
    pub counters: Vec<Counter>,
    /// Gauge summaries, (name, index)-sorted.
    pub gauges: Vec<GaugeSummary>,
}

impl TraceBundle {
    /// Fold `other` into `self`: events append in order, counters sum,
    /// gauges take the later `last`, the larger `max`, and sum samples.
    /// Used to merge per-launch traces into a run-level trace in a
    /// deterministic (launch-index) order.
    pub fn merge(&mut self, other: TraceBundle) {
        self.events.extend(other.events);
        for c in other.counters {
            match self.counters.binary_search_by(|p| p.name.cmp(&c.name)) {
                Ok(i) => self.counters[i].value += c.value,
                Err(i) => self.counters.insert(i, c),
            }
        }
        for g in other.gauges {
            let key = |p: &GaugeSummary| (p.name.clone(), p.index);
            match self
                .gauges
                .binary_search_by(|p| key(p).cmp(&(g.name.clone(), g.index)))
            {
                Ok(i) => {
                    let cur = &mut self.gauges[i];
                    cur.last = g.last;
                    cur.max = cur.max.max(g.max);
                    cur.samples += g.samples;
                }
                Err(i) => self.gauges.insert(i, g),
            }
        }
    }

    /// Serialise to deterministic JSON-lines text: one line per event in
    /// record order, then one per counter, then one per gauge summary.
    ///
    /// The output buffer is sized up front from the record count (big
    /// traces reach millions of events, and repeated doubling of a
    /// multi-megabyte `String` copies the whole prefix each time), and
    /// each line is serialised directly into it rather than through a
    /// per-record temporary.
    pub fn to_jsonl(&self) -> String {
        let records = self.events.len() + self.counters.len() + self.gauges.len();
        let mut out = String::with_capacity(records * crate::jsonl::EST_LINE_BYTES);
        for ev in &self.events {
            crate::jsonl::push_event_line(&mut out, ev);
        }
        for c in &self.counters {
            crate::jsonl::push_counter_line(&mut out, c);
        }
        for g in &self.gauges {
            crate::jsonl::push_gauge_line(&mut out, g);
        }
        out
    }

    /// Parse text produced by [`TraceBundle::to_jsonl`]. Unknown line
    /// shapes are an error; blank lines are skipped.
    ///
    /// This parser is *lenient*: text truncated exactly at a newline
    /// boundary parses as a valid shorter bundle, and a bit flip that
    /// stays within JSON syntax goes unnoticed. Durable artifacts should
    /// use [`TraceBundle::to_jsonl_checked`] /
    /// [`TraceBundle::from_jsonl_checked`] instead.
    pub fn from_jsonl(text: &str) -> Result<TraceBundle, serde_json::Error> {
        crate::jsonl::parse_bundle(text)
    }

    /// [`TraceBundle::to_jsonl`] followed by an integrity trailer line
    /// (non-empty line count + FNV-1a-64 checksum of the body). The
    /// sealed text is still line-oriented JSON; parse it back with
    /// [`TraceBundle::from_jsonl_checked`].
    pub fn to_jsonl_checked(&self) -> String {
        crate::integrity::seal(&self.to_jsonl())
    }

    /// Strict parse of text produced by [`TraceBundle::to_jsonl_checked`]:
    /// the trailer is required, and any byte damage to the body —
    /// truncation (even at a newline boundary), bit flips, spliced or
    /// dropped records — fails verification before parsing begins.
    ///
    /// # Errors
    ///
    /// [`crate::TraceError`] describing the first integrity violation, or
    /// wrapping the parse error when the verified body is not a trace.
    pub fn from_jsonl_checked(text: &str) -> Result<TraceBundle, crate::TraceError> {
        let body = crate::integrity::verify(text)?;
        crate::jsonl::parse_bundle(body).map_err(|e| crate::TraceError::Parse(e.to_string()))
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

    #[test]
    fn serve_events_round_trip_through_jsonl() {
        let kinds = [
            EventKind::RequestAdmitted { seq: 7 },
            EventKind::RequestRejected { seq: 8 },
            EventKind::DeadlineExceeded { seq: 9 },
            EventKind::CacheHit { seq: 10 },
            EventKind::CacheQuarantined { seq: 11 },
        ];
        for kind in kinds {
            let ev = Event { cycle: 0, kind };
            let line = crate::jsonl::event_line(&ev);
            let back = crate::jsonl::parse_event(&line).expect("round trip");
            assert_eq!(back, ev, "{}", kind.name());
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn live_events_round_trip_through_jsonl() {
        let kinds = [
            EventKind::LiveEpochDetected {
                epoch: 3,
                cluster: 1,
            },
            EventKind::LiveDestabilised { cluster: 1 },
        ];
        for kind in kinds {
            let ev = Event { cycle: 42, kind };
            let line = crate::jsonl::event_line(&ev);
            let back = crate::jsonl::parse_event(&line).expect("round trip");
            assert_eq!(back, ev, "{}", kind.name());
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let mut a = TraceBundle {
            events: vec![Event {
                cycle: 1,
                kind: EventKind::RegionEntered { region: 0 },
            }],
            counters: vec![Counter {
                name: "l1_hit".into(),
                value: 3,
            }],
            gauges: vec![GaugeSummary {
                name: "occ".into(),
                index: 0,
                last: 2,
                max: 4,
                samples: 5,
            }],
        };
        let b = TraceBundle {
            events: vec![Event {
                cycle: 2,
                kind: EventKind::RegionExited,
            }],
            counters: vec![
                Counter {
                    name: "l1_hit".into(),
                    value: 2,
                },
                Counter {
                    name: "l1_miss".into(),
                    value: 1,
                },
            ],
            gauges: vec![GaugeSummary {
                name: "occ".into(),
                index: 0,
                last: 1,
                max: 3,
                samples: 2,
            }],
        };
        a.merge(b);
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.counters[0].value, 5);
        assert_eq!(a.counters[1].name, "l1_miss");
        assert_eq!(a.gauges[0].last, 1);
        assert_eq!(a.gauges[0].max, 4);
        assert_eq!(a.gauges[0].samples, 7);
    }
}
