//! The fault-injection matrix smoke suite (run by the CI `resilience`
//! job): every fault kind x 8 seeds over small workloads, asserting
//! full containment — zero panics, zero silently-accepted cells, and
//! every profile fault surfacing as a `TbError`, degraded mode, or a
//! quantified IPC error.

#![allow(clippy::unwrap_used, clippy::float_cmp)]

use tbpoint_ir::{AddrPattern, KernelBuilder, KernelRun, LaunchId, LaunchSpec, Op, TripCount};
use tbpoint_resilience::{run_fault_matrix, Fault, Outcome, MATRIX_SEEDS};
use tbpoint_workloads::{benchmark_by_name, Scale};

fn synthetic_run(name: &str, seed: u64, n_launches: u32, blocks: u32) -> KernelRun {
    let mut b = KernelBuilder::new(name, seed, 128);
    let body = b.block(&[
        Op::IAlu,
        Op::FAlu,
        Op::LdGlobal(AddrPattern::Coalesced {
            region: 0,
            stride: 4,
        }),
    ]);
    let n = b.loop_(TripCount::Const(24), body);
    let kernel = b.finish(n);
    KernelRun {
        kernel,
        launches: (0..n_launches)
            .map(|i| LaunchSpec {
                launch_id: LaunchId(i),
                num_blocks: blocks,
                work_scale: 1.0,
            })
            .collect(),
    }
}

fn matrix_workloads() -> Vec<(String, KernelRun)> {
    vec![
        (
            "synth-homog".to_string(),
            synthetic_run("synth-homog", 11, 3, 160),
        ),
        (
            "bfs-tiny".to_string(),
            benchmark_by_name("bfs", Scale::Tiny).unwrap().run,
        ),
    ]
}

#[test]
fn full_matrix_contains_every_fault() {
    let report = run_fault_matrix(&matrix_workloads());

    assert!(MATRIX_SEEDS.len() >= 8, "acceptance demands >= 8 seeds");
    let faults = Fault::default_matrix();
    assert_eq!(report.cells.len(), 2 * faults.len() * MATRIX_SEEDS.len());
    assert_eq!(report.panics(), 0, "panicking cells:\n{}", report.summary());
    assert_eq!(
        report.silently_accepted(),
        0,
        "silently accepted cells:\n{}",
        report.summary()
    );
    assert!(report.all_contained());

    // The paper's claim, checked on the clean baseline: with no injected
    // damage the TBPoint prediction is within 10% of the full simulation.
    assert_eq!(report.clean_err_pct.len(), 2);
    for (bench, err) in &report.clean_err_pct {
        assert!(
            *err < 10.0,
            "{bench}: clean sampling error {err:.2}% breaches the paper's 10% claim"
        );
    }

    // Structural profile faults (drop/duplicate) must degrade or error,
    // never pass as a clean quantified run.
    for cell in &report.cells {
        // Class ids exist only in the class-path synthetic kernel's
        // profile (bfs is profiled block by block).
        let structural = match cell.fault {
            Fault::DropEpochs { .. } | Fault::DuplicateEpochs { .. } => true,
            Fault::CorruptClassIds => cell.bench == "synth-homog",
            _ => false,
        };
        if structural {
            assert!(
                matches!(
                    cell.outcome,
                    Outcome::Degraded { .. } | Outcome::GracefulError(_)
                ),
                "structural fault passed untouched: {cell:?}"
            );
        }
        // Every pool fault must be contained: the panicking indices
        // report a graceful per-index error, everything else completes
        // (lowest-index reporting preserved), at every worker count.
        if cell.fault.is_pool_fault() {
            match &cell.outcome {
                Outcome::GracefulError(msg) => {
                    assert!(
                        msg.starts_with("unit ") && msg.contains("panicked"),
                        "pool containment message malformed: {msg}"
                    );
                }
                other => panic!("pool fault not contained: {other:?}"),
            }
        }
    }

    // One tally line per fault (in roster order), then the totals line,
    // however many workloads ran.
    let summary = report.summary();
    let lines: Vec<&str> = summary.lines().collect();
    let (totals, tallies) = lines.split_last().unwrap();
    assert!(totals.starts_with("cells="), "summary:\n{summary}");
    let names: Vec<&str> = tallies
        .iter()
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    let expected: Vec<&str> = faults.iter().map(|f| f.name()).collect();
    assert_eq!(names, expected, "summary:\n{summary}");

    // The report round-trips through JSON (the CLI writes it out).
    let json = serde_json::to_string(&report).unwrap();
    let back: tbpoint_resilience::MatrixReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
}
