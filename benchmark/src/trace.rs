//! The harness-side span recorder of the traced pass.
//!
//! Spans wrap calls into a layer from outside, through public functions;
//! spans inside the program are a later change. They are held in memory and
//! written out once, when the run ends.

use serde::Value;
use std::time::Instant;

/// One timed call into a layer. `parent` is the span open when this one
/// started (the span that caused it), `None` for a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Kernel the call worked on; empty for spans that cover a whole leg.
    pub kernel: String,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records spans while `enabled`; otherwise `span` only runs the closure, so
/// the end-to-end pass and the traced pass share one code path.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `work` inside a span and return its result with the elapsed
    /// seconds (measured whether or not spans are being recorded).
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        kernel: &str,
        work: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        if !self.enabled {
            let start = Instant::now();
            let out = work(self);
            return (out, start.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            kernel: kernel.to_string(),
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = work(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans named `layer`/`name`, optionally of one
    /// kernel only.
    pub fn total_secs(&self, layer: &str, name: &str, kernel: Option<&str>) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .filter(|s| kernel.is_none_or(|k| s.kernel == k))
            .map(Span::secs)
            .sum()
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part its
/// direct children cover. Children of one parent never overlap here (the
/// harness is single-threaded where it records spans), so that part is the
/// sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// The trace file body: every span, plus self time summed per layer.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let own = self_times_ns(spans);
    let mut per_layer: Vec<(&'static str, u64)> = Vec::new();
    for (s, &ns) in spans.iter().zip(&own) {
        match per_layer.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, total)) => *total += ns,
            None => per_layer.push((s.layer, ns)),
        }
    }
    let span_values = spans
        .iter()
        .zip(&own)
        .map(|(s, &self_ns)| {
            Value::Obj(vec![
                ("id".into(), Value::U64(s.id as u64)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                ),
                ("workload".into(), Value::Str(workload.into())),
                ("kernel".into(), Value::Str(s.kernel.clone())),
                ("layer".into(), Value::Str(s.layer.into())),
                ("name".into(), Value::Str(s.name.into())),
                ("start_ns".into(), Value::U64(s.start_ns)),
                ("end_ns".into(), Value::U64(s.end_ns)),
                ("self_ns".into(), Value::U64(self_ns)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("workload".into(), Value::Str(workload.into())),
        (
            "self_ns_by_layer".into(),
            Value::Obj(
                per_layer
                    .into_iter()
                    .map(|(l, ns)| (l.to_string(), Value::U64(ns)))
                    .collect(),
            ),
        ),
        ("spans".into(), Value::Arr(span_values)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            kernel: String::new(),
            layer: "sim",
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100 holds a 10..40 child (which holds a 15..25 grandchild)
        // and a 50..90 child.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_spans_and_is_silent_when_disabled() {
        let mut t = Tracer::new(true);
        let ((), _) = t.span("harness", "leg", "", |t| {
            t.span("sim", "full", "bfs", |_| ());
            t.span("sim", "full", "sssp", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(t.total_secs("sim", "full", Some("bfs")), spans[1].secs());

        let mut off = Tracer::new(false);
        let (v, secs) = off.span("sim", "full", "bfs", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
    }
}
