//! Plain-text table rendering and artefact persistence, including the
//! `--trace-out` JSON-lines sink and its on-screen summary.

use std::collections::BTreeMap;
use std::path::Path;
use tbpoint_obs::{write_atomic, EventKind, TraceBundle};

/// Render rows as an aligned plain-text table with a header rule.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, (c, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{c:>w$}", w = w));
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Write a CSV file (quotes are not needed for our numeric content).
pub fn write_csv(path: &Path, headers: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str(&headers.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    write_atomic(path, out.as_bytes())
}

/// Serialise any serde value as pretty JSON (atomic tmp+rename write).
pub fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    write_atomic(path, serde_json::to_string_pretty(value)?.as_bytes())
}

/// Format a float with the given number of decimals.
pub fn fmt(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// Format a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// One labelled launch trace destined for `--trace-out`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Which experiment cell produced it (e.g. `"bfs"` or `"bfs@W16S14"`).
    pub label: String,
    /// Launch index within that benchmark's run.
    pub launch: usize,
    /// The recorded events, counters and gauges.
    pub trace: TraceBundle,
}

#[derive(serde::Serialize)]
struct TraceHeader {
    bench: String,
    launch: u64,
}

/// Write traces as deterministic JSON lines: each launch starts with a
/// `{"bench":...,"launch":...}` header line followed by its bundle
/// (events in cycle order, then counters, then gauges). The whole file
/// is sealed with the `tbpoint-obs` integrity trailer, so truncation or
/// bit damage in transit is detectable with [`tbpoint_obs::verify`],
/// and written atomically.
pub fn write_trace_jsonl(path: &Path, entries: &[TraceEntry]) -> std::io::Result<()> {
    let mut out = String::new();
    for e in entries {
        let header = TraceHeader {
            bench: e.label.clone(),
            launch: e.launch as u64,
        };
        out.push_str(&serde_json::to_string(&header)?);
        out.push('\n');
        out.push_str(&e.trace.to_jsonl());
    }
    write_atomic(path, tbpoint_obs::seal(&out).as_bytes())
}

/// Summarise traces on screen: total events by kind, then the top-N
/// memory-stall sites (per-SM MSHR stall cycles, heaviest first).
pub fn render_trace_summary(entries: &[TraceEntry], top_n: usize) -> String {
    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    // (label, sm) -> (stall events, stall cycles)
    let mut stall_sites: BTreeMap<(String, u32), (u64, u64)> = BTreeMap::new();
    let mut total_events = 0u64;
    for e in entries {
        for ev in &e.trace.events {
            total_events += 1;
            *by_kind.entry(ev.kind.name()).or_insert(0) += 1;
            if let EventKind::MshrStall { sm, cycles } = ev.kind {
                let site = stall_sites.entry((e.label.clone(), sm)).or_insert((0, 0));
                site.0 += 1;
                site.1 += cycles;
            }
        }
    }

    let kind_rows: Vec<Vec<String>> = by_kind
        .iter()
        .map(|(k, n)| vec![(*k).to_string(), n.to_string()])
        .collect();
    let mut s = format!(
        "trace summary: {} launches, {} events\n",
        entries.len(),
        total_events
    );
    s.push_str(&render_table(&["event kind", "count"], &kind_rows));

    let mut sites: Vec<((String, u32), (u64, u64))> = stall_sites.into_iter().collect();
    // Heaviest stall cycles first; BTreeMap order breaks ties.
    sites.sort_by_key(|site| std::cmp::Reverse(site.1 .1));
    sites.truncate(top_n);
    if !sites.is_empty() {
        let rows: Vec<Vec<String>> = sites
            .into_iter()
            .map(|((label, sm), (n, cycles))| {
                vec![label, format!("SM{sm}"), n.to_string(), cycles.to_string()]
            })
            .collect();
        s.push_str(&format!("top {top_n} memory-stall sites:\n"));
        s.push_str(&render_table(
            &["bench", "sm", "stalls", "stall cycles"],
            &rows,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.00".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[3].contains("long-name"));
    }

    #[test]
    fn helpers() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(pct(0.0265), "2.65%");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_jagged_rows() {
        render_table(&["a", "b"], &[vec!["x".into()]]);
    }
}
