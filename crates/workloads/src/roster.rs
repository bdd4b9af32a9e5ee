//! The Table VI roster: all twelve benchmarks with their metadata.

use crate::kernels;
use crate::Scale;
use serde::{Deserialize, Serialize};
use tbpoint_ir::KernelRun;

/// Benchmark suite of origin (Table VI's "Suite" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Suite {
    /// LonestarGPU (irregular graph algorithms).
    Lonestar,
    /// Parboil.
    Parboil,
    /// Rodinia.
    Rodinia,
    /// CUDA SDK samples.
    Sdk,
}

/// Kernel type per the paper's Fig. 8 classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelKind {
    /// Type I: irregular thread-block sizes.
    Irregular,
    /// Type II: regular (patterned) thread-block sizes.
    Regular,
}

/// One roster entry: metadata plus the generated workload.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Table VI abbreviation (bfs, sssp, ...).
    pub name: &'static str,
    /// Originating suite.
    pub suite: Suite,
    /// Regular or irregular (Type II / Type I).
    pub kind: KernelKind,
    /// The workload itself.
    pub run: KernelRun,
}

/// Table VI in order: abbreviation, suite, kernel type, generator.
type RosterEntry = (&'static str, Suite, KernelKind, fn(Scale) -> KernelRun);

const ROSTER: [RosterEntry; 12] = {
    use KernelKind::{Irregular, Regular};
    use Suite::{Lonestar, Parboil, Rodinia, Sdk};
    [
        ("bfs", Lonestar, Irregular, kernels::bfs::run),
        ("sssp", Lonestar, Irregular, kernels::sssp::run),
        ("mst", Lonestar, Irregular, kernels::mst::run),
        ("mri", Parboil, Irregular, kernels::mri::run),
        ("spmv", Parboil, Irregular, kernels::spmv::run),
        ("lbm", Parboil, Regular, kernels::lbm::run),
        ("cfd", Rodinia, Regular, kernels::cfd::run),
        ("kmeans", Rodinia, Regular, kernels::kmeans::run),
        ("hotspot", Rodinia, Regular, kernels::hotspot::run),
        ("stream", Rodinia, Irregular, kernels::stream::run),
        ("black", Sdk, Regular, kernels::black::run),
        ("conv", Sdk, Regular, kernels::conv::run),
    ]
};

fn build(&(name, suite, kind, run): &RosterEntry, scale: Scale) -> Benchmark {
    Benchmark {
        name,
        suite,
        kind,
        run: run(scale),
    }
}

/// Build the full 12-benchmark roster at the given scale, in Table VI
/// order.
pub fn all_benchmarks(scale: Scale) -> Vec<Benchmark> {
    ROSTER.iter().map(|e| build(e, scale)).collect()
}

/// Look up a single benchmark by its Table VI abbreviation; only that
/// entry's workload is generated.
pub fn benchmark_by_name(name: &str, scale: Scale) -> Option<Benchmark> {
    ROSTER.iter().find(|e| e.0 == name).map(|e| build(e, scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Table VI ground truth: (name, launches, thread blocks).
    const TABLE_VI: [(&str, usize, u64); 12] = [
        ("bfs", 13, 10_619),
        ("sssp", 49, 12_691),
        ("mst", 10, 2_331),
        ("mri", 1, 18_158),
        ("spmv", 50, 38_250),
        ("lbm", 1, 108_000),
        ("cfd", 100, 50_600),
        ("kmeans", 30, 58_080),
        ("hotspot", 1, 1_849),
        ("stream", 211, 2_688),
        ("black", 1, 41_760),
        ("conv", 16, 202_752),
    ];

    #[test]
    fn roster_matches_table_vi_exactly() {
        let roster = all_benchmarks(Scale::Full);
        assert_eq!(roster.len(), 12);
        for (bench, &(name, launches, tbs)) in roster.iter().zip(TABLE_VI.iter()) {
            assert_eq!(bench.name, name);
            assert_eq!(bench.run.num_launches(), launches, "{name} launch count");
            assert_eq!(bench.run.total_blocks(), tbs, "{name} TB count");
        }
    }

    #[test]
    fn every_kernel_validates() {
        for bench in all_benchmarks(Scale::Tiny) {
            bench
                .run
                .kernel
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        }
    }

    #[test]
    fn six_irregular_six_regular() {
        let roster = all_benchmarks(Scale::Tiny);
        let irregular = roster
            .iter()
            .filter(|b| b.kind == KernelKind::Irregular)
            .count();
        assert_eq!(irregular, 6);
    }

    #[test]
    fn lookup_by_name_builds_the_roster_entry() {
        for scale in [Scale::Tiny, Scale::Dev, Scale::Full] {
            let roster = all_benchmarks(scale);
            let names: Vec<&str> = roster.iter().map(|b| b.name).collect();
            assert_eq!(names, TABLE_VI.map(|(name, ..)| name), "Table VI order");
            for twin in roster {
                let b = benchmark_by_name(twin.name, scale).expect("roster name");
                // Field-wise equality of the run implies identical JSON.
                assert_eq!(
                    (b.name, b.suite, b.kind, &b.run),
                    (twin.name, twin.suite, twin.kind, &twin.run),
                    "{} at {scale:?}",
                    twin.name
                );
            }
            assert!(benchmark_by_name("nope", scale).is_none());
            assert!(benchmark_by_name("", scale).is_none());
            assert!(benchmark_by_name("BFS", scale).is_none());
        }
    }

    #[test]
    fn names_and_seeds_are_unique() {
        let roster = all_benchmarks(Scale::Tiny);
        let mut names: Vec<&str> = roster.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
        let mut seeds: Vec<u64> = roster.iter().map(|b| b.run.kernel.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 12, "kernel seeds must differ");
    }
}
