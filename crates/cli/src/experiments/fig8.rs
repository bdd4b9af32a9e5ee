//! Fig. 8: regular vs irregular kernels, classified by their per-TB
//! size-ratio scatter (thread instructions per TB normalised by the
//! cross-TB average).

use crate::output;
use serde::{Deserialize, Serialize};
use tbpoint_emu::profile_launch;
use tbpoint_stats::cov;

/// One benchmark's size-ratio series (concatenated across launches, in
/// dispatch order — red dots in the paper mark launch starts; we record
/// the boundaries instead).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Series {
    /// Benchmark name.
    pub name: String,
    /// Declared kind from the roster.
    pub kind: String,
    /// Per-TB size ratio (size / mean size), dispatch order.
    pub size_ratio: Vec<f64>,
    /// Indices where each launch starts.
    pub launch_starts: Vec<usize>,
    /// CoV of the sizes — the quantitative regular/irregular signal.
    pub size_cov: f64,
}

/// Fig. 8 output for the full roster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Result {
    /// One series per benchmark.
    pub series: Vec<Fig8Series>,
}

impl Fig8Result {
    /// Summary table (full scatter data goes to the CSV artefacts).
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .series
            .iter()
            .map(|s| {
                vec![
                    s.name.clone(),
                    s.kind.clone(),
                    s.size_ratio.len().to_string(),
                    output::fmt(s.size_cov, 3),
                    output::fmt(s.size_ratio.iter().cloned().fold(f64::MIN, f64::max), 2),
                ]
            })
            .collect();
        output::render_table(&["bench", "kind", "TBs", "size CoV", "max ratio"], &rows)
    }
}

/// Profile one benchmark and extract its Fig. 8 series — the resumable
/// sweep's unit of work.
pub fn fig8_bench(bench: &tbpoint_workloads::Benchmark) -> Fig8Series {
    let mut sizes: Vec<f64> = vec![];
    let mut launch_starts = vec![];
    for spec in &bench.run.launches {
        launch_starts.push(sizes.len());
        let lp = profile_launch(&bench.run.kernel, spec);
        sizes.extend(lp.tbs().map(|t| t.thread_insts as f64));
    }
    let mean = tbpoint_stats::mean(&sizes);
    let size_cov = cov(&sizes);
    let size_ratio = sizes
        .iter()
        .map(|&s| if mean > 0.0 { s / mean } else { 0.0 })
        .collect();
    Fig8Series {
        name: bench.name.to_string(),
        kind: format!("{:?}", bench.kind),
        size_ratio,
        launch_starts,
        size_cov,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbpoint_workloads::{all_benchmarks, KernelKind, Scale};

    /// The Tiny roster's series.
    fn tiny_series() -> Vec<Fig8Series> {
        all_benchmarks(Scale::Tiny).iter().map(fig8_bench).collect()
    }

    #[test]
    fn irregular_kernels_have_higher_size_cov() {
        let series = tiny_series();
        assert_eq!(series.len(), 12);
        let benches = all_benchmarks(Scale::Tiny);
        let mut irregular = vec![];
        let mut regular = vec![];
        for (s, b) in series.iter().zip(&benches) {
            if b.kind == KernelKind::Irregular {
                irregular.push(s.size_cov);
            } else {
                regular.push(s.size_cov);
            }
        }
        let gi = tbpoint_stats::geometric_mean(&irregular);
        let gr = tbpoint_stats::geometric_mean(&regular);
        assert!(
            gi > gr * 3.0,
            "irregular size CoV geomean {gi:.3} should dwarf regular {gr:.3}"
        );
    }

    #[test]
    fn ratios_average_to_one() {
        for s in &tiny_series() {
            let mean = tbpoint_stats::mean(&s.size_ratio);
            assert!((mean - 1.0).abs() < 1e-9, "{}: mean ratio {mean}", s.name);
        }
    }

    #[test]
    fn launch_starts_match_launch_counts() {
        let benches = all_benchmarks(Scale::Tiny);
        for (s, b) in tiny_series().iter().zip(&benches) {
            assert_eq!(s.launch_starts.len(), b.run.num_launches());
            assert_eq!(s.launch_starts[0], 0);
        }
    }
}
