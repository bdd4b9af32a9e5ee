//! The `Recorder` trait and its two implementations.

use crate::event::{Counter, Event, EventKind, TraceBundle};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Observation sink threaded through the simulator, profiler and
/// sampler.
///
/// Methods take `&self` so one recorder can be shared by several
/// components of a single launch (the sampler holds it while the
/// simulator drives it); implementations use interior mutability.
/// Recorders observe only — a correct implementation never influences
/// the computation it watches, and the workspace golden test checks
/// that swapping recorders leaves `TbpointResult` bit-identical.
///
/// Building an [`EventKind`] is allocation-free, so call sites build
/// payloads unconditionally. Counters are not per-access tallies: the
/// simulator emits each one once per launch from the statistics it
/// keeps anyway.
pub trait Recorder {
    /// Record a cycle-stamped event.
    fn record(&self, cycle: u64, kind: EventKind);

    /// Add `delta` to the named monotonic counter.
    fn counter(&self, name: &'static str, delta: u64);
}

/// The default recorder: a zero-sized type whose methods are empty
/// inline no-ops. Code monomorphised over `NullRecorder` compiles the
/// instrumentation away entirely (every end-to-end metric of the repo
/// benchmark runs on it, so a cost here would show there).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline(always)]
    fn record(&self, _cycle: u64, _kind: EventKind) {}

    #[inline(always)]
    fn counter(&self, _name: &'static str, _delta: u64) {}
}

#[derive(Debug, Default)]
struct Collected {
    events: Vec<Event>,
    counters: BTreeMap<&'static str, u64>,
}

/// In-memory recorder: keeps every event in record order plus the
/// counters summed by name; drain with [`CollectingRecorder::finish`].
#[derive(Debug, Default)]
pub struct CollectingRecorder {
    inner: RefCell<Collected>,
}

impl CollectingRecorder {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the events recorded so far (in record order).
    pub fn events(&self) -> Vec<Event> {
        self.inner.borrow().events.clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consume the recorder, yielding everything it saw.
    pub fn finish(self) -> TraceBundle {
        let Collected { events, counters } = self.inner.into_inner();
        TraceBundle {
            events,
            counters: counters
                .into_iter()
                .map(|(name, value)| Counter {
                    name: name.to_string(),
                    value,
                })
                .collect(),
        }
    }
}

impl Recorder for CollectingRecorder {
    fn record(&self, cycle: u64, kind: EventKind) {
        self.inner.borrow_mut().events.push(Event { cycle, kind });
    }

    fn counter(&self, name: &'static str, delta: u64) {
        *self.inner.borrow_mut().counters.entry(name).or_insert(0) += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Span;

    fn drive<R: Recorder>(rec: &R) {
        let span = Span::SimulateLaunch { launch: 2 };
        rec.record(0, EventKind::SpanStart { span });
        rec.record(3, EventKind::TbDispatched { tb: 0, sm: 1 });
        rec.counter("l1_hit", 2);
        rec.counter("l1_hit", 3);
        rec.record(9, EventKind::SpanEnd { span });
    }

    #[test]
    fn null_recorder_is_silent() {
        drive(&NullRecorder); // must not panic, must not do anything observable
    }

    #[test]
    fn collecting_recorder_keeps_order_and_aggregates() {
        let rec = CollectingRecorder::new();
        assert!(rec.is_empty());
        drive(&rec);
        assert_eq!(rec.len(), 3);
        let bundle = rec.finish();
        assert_eq!(
            bundle.events[0].kind,
            EventKind::SpanStart {
                span: Span::SimulateLaunch { launch: 2 }
            }
        );
        assert_eq!(bundle.events[2].cycle, 9);
        assert_eq!(
            bundle.counters,
            vec![Counter {
                name: "l1_hit".into(),
                value: 5
            }]
        );
    }
}
