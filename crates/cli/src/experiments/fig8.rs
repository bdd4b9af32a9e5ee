//! Fig. 8: regular vs irregular kernels, classified by their per-TB
//! size-ratio scatter (thread instructions per TB normalised by the
//! cross-TB average).

use crate::output;
use serde::{Deserialize, Serialize};
use tbpoint_core::TbError;
use tbpoint_emu::profile_launch;
use tbpoint_pool::{map_indexed, SweepUnit};
use tbpoint_stats::cov;
use tbpoint_workloads::{all_benchmarks, Scale};

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
pub fn fig8_bench(bench: &tbpoint_workloads::Benchmark, threads: usize) -> Fig8Series {
    let mut sizes: Vec<f64> = vec![];
    let mut launch_starts = vec![];
    for spec in &bench.run.launches {
        launch_starts.push(sizes.len());
        let lp = profile_launch(&bench.run.kernel, spec, threads);
        sizes.extend(lp.tbs.iter().map(|t| t.thread_insts as f64));
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

/// One benchmark's Fig. 8 extraction as a pool-schedulable
/// [`SweepUnit`].
pub struct Fig8Unit<'a> {
    /// The benchmark to profile.
    pub bench: &'a tbpoint_workloads::Benchmark,
    /// Profiling threads inside this unit.
    pub threads: usize,
}

impl SweepUnit for Fig8Unit<'_> {
    type Output = Fig8Series;
    type Error = TbError;

    fn id(&self) -> String {
        self.bench.name.to_string()
    }

    fn run(&self) -> Result<Fig8Series, TbError> {
        Ok(fig8_bench(self.bench, self.threads))
    }
}

/// Profile every benchmark and extract the Fig. 8 series, fanning
/// benchmarks out across `workers` pool workers (series order stays
/// roster order at any worker count).
pub fn fig8(scale: Scale, threads: usize, workers: usize) -> Fig8Result {
    let benches = all_benchmarks(scale);
    Fig8Result {
        series: map_indexed(workers, benches.len(), |i| fig8_bench(&benches[i], threads)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbpoint_workloads::KernelKind;

    #[test]
    fn irregular_kernels_have_higher_size_cov() {
        let r = fig8(Scale::Tiny, 4, 2);
        assert_eq!(r.series.len(), 12);
        let benches = all_benchmarks(Scale::Tiny);
        let mut irregular = vec![];
        let mut regular = vec![];
        for (s, b) in r.series.iter().zip(&benches) {
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
        let r = fig8(Scale::Tiny, 2, 1);
        for s in &r.series {
            let mean = tbpoint_stats::mean(&s.size_ratio);
            assert!((mean - 1.0).abs() < 1e-9, "{}: mean ratio {mean}", s.name);
        }
    }

    #[test]
    fn launch_starts_match_launch_counts() {
        let r = fig8(Scale::Tiny, 2, 1);
        let benches = all_benchmarks(Scale::Tiny);
        for (s, b) in r.series.iter().zip(&benches) {
            assert_eq!(s.launch_starts.len(), b.run.num_launches());
            assert_eq!(s.launch_starts[0], 0);
        }
    }
}
