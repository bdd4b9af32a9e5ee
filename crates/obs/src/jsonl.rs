//! Deterministic JSON-lines encoding of trace records.
//!
//! Two line shapes, distinguishable by their top-level keys (the
//! vendored `serde_json` keeps struct-field order, so the encoding is
//! byte-stable for equal values):
//!
//! - event:   `{"cycle":123,"kind":{"TbDispatched":{"tb":1,"sm":0}}}`
//! - counter: `{"counter":{"name":"l1_hit","value":42}}`

use crate::event::{Counter, Event};
use serde::Serialize;

/// Wrapper giving counter lines their `{"counter":...}` shape.
#[derive(Serialize)]
struct CounterLine {
    counter: Counter,
}

/// Rough bytes-per-line estimate used to pre-size serialization buffers.
/// A typical event line (`{"cycle":123,"kind":{"TbDispatched":{"tb":1,
/// "sm":0}}}`) runs 45–70 bytes; counter lines are in the same range. Oversizing slightly beats regrowing a multi-megabyte
/// buffer several times.
pub(crate) const EST_LINE_BYTES: usize = 72;

/// Append one JSON line (newline included) for `value` to `out`.
///
/// The vendored `serde_json` only fails on unrepresentable values, which
/// the trace types cannot contain (non-finite floats degrade to `null`);
/// degrade to an empty line rather than panicking in a library crate.
fn push_line<T: Serialize>(out: &mut String, value: &T) {
    // On the (unreachable) error path nothing was appended and the blank
    // line keeps the stream parseable.
    serde_json::to_string_into(value, out).unwrap_or_default();
    out.push('\n');
}

/// One JSON line (no trailing newline) for an event.
pub fn event_line(ev: &Event) -> String {
    let mut out = String::with_capacity(EST_LINE_BYTES);
    serde_json::to_string_into(ev, &mut out).unwrap_or_default();
    out
}

/// Append an event line (newline included) to `out`.
pub(crate) fn push_event_line(out: &mut String, ev: &Event) {
    push_line(out, ev);
}

/// Append a counter summary line (newline included) to `out`.
pub(crate) fn push_counter_line(out: &mut String, c: &Counter) {
    push_line(out, &CounterLine { counter: c.clone() });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Span, TraceBundle};
    use serde::Value;

    /// Every line `to_jsonl` writes is the JSON of its record, in record
    /// order: events as they are, counters under their wrapper key.
    #[test]
    fn bundle_lines_are_the_records_values() {
        let bundle = TraceBundle {
            events: vec![
                Event {
                    cycle: 0,
                    kind: EventKind::SpanStart {
                        span: Span::SimulateLaunch { launch: 7 },
                    },
                },
                Event {
                    cycle: 12,
                    kind: EventKind::DramAccess {
                        sm: 3,
                        row_hit: true,
                    },
                },
                Event {
                    cycle: 99,
                    kind: EventKind::UnitClosed { ipc: 1.625 },
                },
                Event {
                    cycle: 100,
                    kind: EventKind::RegionExited,
                },
            ],
            counters: vec![Counter {
                name: "l1_hit".into(),
                value: 2,
            }],
        };
        let wrap = |key: &str, v: Value| Value::Obj(vec![(key.to_string(), v)]);
        let expected: Vec<Value> = (bundle.events.iter().map(Serialize::to_value))
            .chain(
                bundle
                    .counters
                    .iter()
                    .map(|c| wrap("counter", c.to_value())),
            )
            .collect();
        let text = bundle.to_jsonl();
        let lines: Vec<Value> = text
            .lines()
            .map(|l| serde_json::parse(l).unwrap())
            .collect();
        assert_eq!(lines, expected, "text was:\n{text}");
        assert_eq!(
            text.lines().next(),
            Some(event_line(&bundle.events[0]).as_str())
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        let ev = Event {
            cycle: 5,
            kind: EventKind::MshrStall { sm: 1, cycles: 40 },
        };
        assert_eq!(event_line(&ev), event_line(&ev.clone()));
        assert_eq!(
            event_line(&ev),
            "{\"cycle\":5,\"kind\":{\"MshrStall\":{\"sm\":1,\"cycles\":40}}}"
        );
    }
}
