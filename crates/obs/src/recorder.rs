//! The `Recorder` trait and its three implementations.

use crate::event::{Counter, Event, EventKind, GaugeSummary, Span, TraceBundle};
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
/// Hot paths should guard payload *gathering* with [`Recorder::enabled`];
/// building an [`EventKind`] itself is allocation-free and needs no
/// guard.
pub trait Recorder {
    /// False for [`NullRecorder`]; lets hot paths skip gathering data
    /// that exists only to be recorded.
    fn enabled(&self) -> bool;

    /// Record a cycle-stamped event.
    fn record(&self, cycle: u64, kind: EventKind);

    /// Add `delta` to the named monotonic counter.
    fn counter(&self, name: &'static str, delta: u64);

    /// Set the gauge `name[index]` to `value` (e.g. resident blocks on
    /// one SM).
    fn gauge(&self, name: &'static str, index: u32, value: u64);

    /// Open a span at `cycle`.
    fn span_start(&self, cycle: u64, span: Span) {
        self.record(cycle, EventKind::SpanStart { span });
    }

    /// Close a span at `cycle`.
    fn span_end(&self, cycle: u64, span: Span) {
        self.record(cycle, EventKind::SpanEnd { span });
    }
}

/// The default recorder: a zero-sized type whose methods are empty
/// inline no-ops. Code monomorphised over `NullRecorder` compiles the
/// instrumentation away entirely (the `obs_overhead` bench in
/// `tbpoint-bench` keeps this honest).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&self, _cycle: u64, _kind: EventKind) {}

    #[inline(always)]
    fn counter(&self, _name: &'static str, _delta: u64) {}

    #[inline(always)]
    fn gauge(&self, _name: &'static str, _index: u32, _value: u64) {}
}

#[derive(Debug, Default)]
struct GaugeCell {
    last: u64,
    max: u64,
    samples: u64,
}

#[derive(Debug, Default)]
struct Collected {
    events: Vec<Event>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<(&'static str, u32), GaugeCell>,
}

impl Collected {
    fn record(&mut self, cycle: u64, kind: EventKind) {
        self.events.push(Event { cycle, kind });
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    fn gauge(&mut self, name: &'static str, index: u32, value: u64) {
        let cell = self.gauges.entry((name, index)).or_default();
        cell.last = value;
        cell.max = cell.max.max(value);
        cell.samples += 1;
    }

    fn into_bundle(self) -> TraceBundle {
        TraceBundle {
            events: self.events,
            counters: self
                .counters
                .into_iter()
                .map(|(name, value)| Counter {
                    name: name.to_string(),
                    value,
                })
                .collect(),
            gauges: self
                .gauges
                .into_iter()
                .map(|((name, index), cell)| GaugeSummary {
                    name: name.to_string(),
                    index,
                    last: cell.last,
                    max: cell.max,
                    samples: cell.samples,
                })
                .collect(),
        }
    }
}

/// In-memory recorder: keeps every event in record order plus aggregated
/// counters and gauges; drain with [`CollectingRecorder::finish`].
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
        self.inner.into_inner().into_bundle()
    }
}

impl Recorder for CollectingRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, cycle: u64, kind: EventKind) {
        self.inner.borrow_mut().record(cycle, kind);
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.inner.borrow_mut().counter(name, delta);
    }

    fn gauge(&self, name: &'static str, index: u32, value: u64) {
        self.inner.borrow_mut().gauge(name, index, value);
    }
}

/// Deterministic JSON-lines sink: every event is serialised the moment
/// it is recorded (so the text *is* the event stream, in order), while
/// counters and gauges aggregate and are appended as summary lines by
/// [`JsonlRecorder::finish`]. The output parses back with
/// [`TraceBundle::from_jsonl`].
#[derive(Debug, Default)]
pub struct JsonlRecorder {
    lines: RefCell<String>,
    summary: RefCell<Collected>,
}

impl JsonlRecorder {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the sink, yielding the full JSON-lines text (events in
    /// record order, then counter and gauge summary lines).
    pub fn finish(self) -> String {
        let mut out = self.lines.into_inner();
        let bundle = self.summary.into_inner().into_bundle();
        for c in &bundle.counters {
            crate::jsonl::push_counter_line(&mut out, c);
        }
        for g in &bundle.gauges {
            crate::jsonl::push_gauge_line(&mut out, g);
        }
        out
    }
}

impl Recorder for JsonlRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, cycle: u64, kind: EventKind) {
        // Serialise straight into the long-lived buffer: no per-event
        // `String`, and amortised growth instead of one allocation per
        // record.
        let ev = Event { cycle, kind };
        crate::jsonl::push_event_line(&mut self.lines.borrow_mut(), &ev);
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.summary.borrow_mut().counter(name, delta);
    }

    fn gauge(&self, name: &'static str, index: u32, value: u64) {
        self.summary.borrow_mut().gauge(name, index, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<R: Recorder>(rec: &R) {
        rec.span_start(0, Span::SimulateLaunch { launch: 2 });
        rec.record(3, EventKind::TbDispatched { tb: 0, sm: 1 });
        rec.counter("l1_hit", 2);
        rec.counter("l1_hit", 3);
        rec.gauge("sm_resident_blocks", 1, 4);
        rec.gauge("sm_resident_blocks", 1, 2);
        rec.span_end(9, Span::SimulateLaunch { launch: 2 });
    }

    #[test]
    fn null_recorder_is_disabled_and_silent() {
        let rec = NullRecorder;
        assert!(!rec.enabled());
        drive(&rec); // must not panic, must not do anything observable
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
        assert_eq!(bundle.gauges.len(), 1);
        assert_eq!(bundle.gauges[0].index, 1);
        assert_eq!(bundle.gauges[0].last, 2);
        assert_eq!(bundle.gauges[0].max, 4);
        assert_eq!(bundle.gauges[0].samples, 2);
    }

    #[test]
    fn jsonl_recorder_matches_collecting_recorder() {
        let collect = CollectingRecorder::new();
        let sink = JsonlRecorder::new();
        drive(&collect);
        drive(&sink);
        let bundle = collect.finish();
        let text = sink.finish();
        assert_eq!(bundle.to_jsonl(), text);
        assert_eq!(TraceBundle::from_jsonl(&text).ok(), Some(bundle));
    }
}
