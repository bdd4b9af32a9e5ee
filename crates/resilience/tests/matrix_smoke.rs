//! The fault-injection matrix smoke suite (run by the CI `resilience`
//! job): every fault kind x 8 seeds over small workloads, asserting
//! full containment — zero panics, zero silently-accepted cells, and
//! every profile fault surfacing as a `TbError`, degraded mode, or a
//! quantified IPC error.

#![allow(clippy::unwrap_used, clippy::float_cmp)]

use tbpoint_ir::{AddrPattern, KernelBuilder, KernelRun, LaunchId, LaunchSpec, Op, TripCount};
use tbpoint_resilience::{error_growth, run_fault_matrix, MatrixOptions, Outcome};
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
    let opts = MatrixOptions::default();
    assert!(opts.seeds.len() >= 8, "acceptance demands >= 8 seeds");
    let report = run_fault_matrix(&matrix_workloads(), &opts);

    let expected = 2 * opts.faults.len() * opts.seeds.len();
    assert_eq!(report.cells.len(), expected);
    assert_eq!(report.panics(), 0, "panicking cells:\n{}", report.summary());
    assert_eq!(
        report.silently_accepted(),
        0,
        "silently accepted cells:\n{}",
        report.summary()
    );
    assert!(report.all_contained());

    // Structural profile faults (drop/duplicate) must degrade or error,
    // never pass as a clean quantified run.
    for cell in &report.cells {
        // Class ids exist only in the class-path synthetic kernel's
        // profile (bfs is profiled block by block).
        let structural = match cell.fault {
            tbpoint_resilience::Fault::DropEpochs { .. }
            | tbpoint_resilience::Fault::DuplicateEpochs { .. } => true,
            tbpoint_resilience::Fault::CorruptClassIds => cell.bench == "synth-homog",
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
    let expected: Vec<&str> = opts.faults.iter().map(|f| f.name()).collect();
    assert_eq!(names, expected, "summary:\n{summary}");

    // The report round-trips through JSON (the CLI writes it out).
    let json = serde_json::to_string(&report).unwrap();
    let back: tbpoint_resilience::MatrixReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
}

#[test]
fn error_grows_from_a_sub_ten_percent_baseline() {
    let run = synthetic_run("growth", 5, 2, 240);
    let opts = MatrixOptions::default();
    let curve = error_growth(&run, &[0.0, 0.4, 0.8], &[1, 2, 3, 4], &opts);
    assert_eq!(curve.len(), 3);
    // The paper's claim, checked empirically: with no injected noise
    // the TBPoint prediction is within 10% of the full simulation.
    assert!(
        curve[0].mean_err_pct < 10.0,
        "clean sampling error {:.2}% breaches the paper's 10% claim",
        curve[0].mean_err_pct
    );
    // Errors stay finite and the curve reports every magnitude.
    for p in &curve {
        assert!(p.mean_err_pct.is_finite());
        assert!(p.max_err_pct >= p.mean_err_pct - 1e-12);
    }
    // Determinism: the whole curve replays bit-identically.
    let again = error_growth(&run, &[0.0, 0.4, 0.8], &[1, 2, 3, 4], &opts);
    assert_eq!(curve, again);
}
