//! The fault-injection matrix runner.
//!
//! Runs every `(benchmark, fault, seed)` cell under
//! [`std::panic::catch_unwind`] and classifies what the pipeline did
//! with the damage. The contract under test: **no fault ever panics** —
//! each one surfaces as a [`tbpoint_core::TbError`], as degraded mode
//! (with `DegradedMode` events and a nonzero `degradation_ratio`), or
//! as a quantified IPC error.

use crate::fault::{inject_profile, Fault};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use tbpoint_core::{run_tbpoint, TbpointConfig};
use tbpoint_emu::{profile_run, RunProfile};
use tbpoint_ir::KernelRun;
use tbpoint_pool::{panic_message, run_supervised, ExecPlan};
use tbpoint_sim::{simulate_run, GpuConfig, NullSampling};

/// What one matrix cell did with its fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// The pipeline panicked — always a bug; the matrix exists to keep
    /// this count at zero.
    Panicked(String),
    /// The pipeline returned a `TbError` (message attached).
    GracefulError(String),
    /// The pipeline completed but fell back to detailed simulation for
    /// some representatives, emitting `DegradedMode`.
    Degraded {
        /// `TbpointResult::degradation_ratio()` of the faulty run.
        degradation_ratio: f64,
        /// Absolute IPC error (percent) vs the clean full simulation.
        err_pct: f64,
    },
    /// The pipeline completed normally; the fault's effect is the
    /// quantified IPC error vs the clean full simulation.
    Quantified {
        /// Absolute IPC error (percent) vs the clean full simulation.
        err_pct: f64,
    },
    /// The pool lost a contained panic, damaged a sibling unit's value
    /// or gave a worker-count-dependent outcome — a hole in the
    /// containment; the matrix exists to keep this count at zero.
    SilentlyAccepted,
}

/// One `(benchmark, fault, seed)` result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixCell {
    /// Benchmark name.
    pub bench: String,
    /// The injected fault.
    pub fault: Fault,
    /// The injection seed (replay coordinate).
    pub seed: u64,
    /// What happened.
    pub outcome: Outcome,
}

/// The whole matrix plus the per-benchmark clean baselines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MatrixReport {
    /// Every cell, in `(bench, fault, seed)` order.
    pub cells: Vec<MatrixCell>,
    /// Per-benchmark clean TBPoint error vs full simulation (percent) —
    /// the zero-noise baseline the faulty errors are read against.
    pub clean_err_pct: Vec<(String, f64)>,
}

impl MatrixReport {
    /// Cells that panicked (must be zero).
    pub fn panics(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, Outcome::Panicked(_)))
            .count()
    }

    /// Cells whose damage went through silently (must be zero).
    pub fn silently_accepted(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, Outcome::SilentlyAccepted))
            .count()
    }

    /// The matrix's pass criterion: every fault was contained.
    pub fn all_contained(&self) -> bool {
        self.panics() == 0 && self.silently_accepted() == 0
    }

    /// Human-readable per-fault tally.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // One line per fault, in first-appearance order: cells run
        // (bench, fault, seed), so each fault recurs once per bench.
        let mut faults: Vec<&'static str> = Vec::new();
        for c in &self.cells {
            if !faults.contains(&c.fault.name()) {
                faults.push(c.fault.name());
            }
        }
        for fname in faults {
            let (mut err, mut deg, mut quant, mut bad) = (0, 0, 0, 0);
            for c in self.cells.iter().filter(|c| c.fault.name() == fname) {
                match c.outcome {
                    Outcome::GracefulError(_) => err += 1,
                    Outcome::Degraded { .. } => deg += 1,
                    Outcome::Quantified { .. } => quant += 1,
                    Outcome::Panicked(_) | Outcome::SilentlyAccepted => bad += 1,
                }
            }
            let _ = writeln!(
                out,
                "{fname:18} error={err:3} degraded={deg:3} quantified={quant:3} \
                 CONTAINMENT-FAILURES={bad}"
            );
        }
        let _ = writeln!(
            out,
            "cells={} panics={} silently-accepted={}",
            self.cells.len(),
            self.panics(),
            self.silently_accepted()
        );
        out
    }
}

/// Injection seeds: eight per `(benchmark, fault)`.
pub const MATRIX_SEEDS: [u64; 8] = [
    0xF00D, 0xF00E, 0xF00F, 0xF010, 0xF011, 0xF012, 0xF013, 0xF014,
];

/// The pipeline config the faulty profiles run under: a warming budget
/// so regions destabilised by jitter degrade instead of warming forever.
fn matrix_config() -> TbpointConfig {
    TbpointConfig {
        warming_budget: Some(32),
        ..TbpointConfig::default()
    }
}

/// Run one profile-fault cell: inject, run the pipeline, classify.
fn profile_cell(
    run: &KernelRun,
    profile: &RunProfile,
    full_ipc: f64,
    fault: Fault,
    seed: u64,
    gpu: &GpuConfig,
) -> Outcome {
    let mut faulty = profile.clone();
    inject_profile(&mut faulty, fault, seed);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_tbpoint(
            run,
            Some(&faulty),
            &matrix_config(),
            gpu,
            ExecPlan::serial(),
        )
    }));
    match outcome {
        Err(p) => Outcome::Panicked(panic_message(p)),
        Ok(Err(e)) => Outcome::GracefulError(e.to_string()),
        Ok(Ok(r)) => {
            let err_pct = r.error_vs(full_ipc);
            if r.degraded_launches > 0 {
                Outcome::Degraded {
                    degradation_ratio: r.degradation_ratio(),
                    err_pct,
                }
            } else {
                Outcome::Quantified { err_pct }
            }
        }
    }
}

/// Run one pool-fault cell: schedule a batch of units on the
/// *supervised* pool with two seeded units rigged to panic, at several
/// worker counts, and classify the containment. The contract:
///
/// * no panic escapes the pool (else [`Outcome::Panicked`]);
/// * exactly the rigged indices report an `Err` with the injected panic
///   message, **every other index completes** with the correct
///   value, and the outcome vector is identical at every worker count —
///   then the cell is [`Outcome::GracefulError`] carrying the
///   *lowest* failed index (the workspace's error-reporting rule);
/// * anything else — a lost panic, a wrong sibling value, a
///   worker-count-dependent outcome — is [`Outcome::SilentlyAccepted`].
///
/// The cell is a pure function of the seed (it ignores the benchmark:
/// the pool under attack schedules synthetic units, not profiles).
fn pool_cell(seed: u64) -> Outcome {
    const UNITS: usize = 16;
    let bad_a = crate::fault::seeded_index(&[seed, 20], UNITS);
    let bad_b = crate::fault::seeded_index(&[seed, 21], UNITS);
    let is_bad = |i: usize| i == bad_a || i == bad_b;

    let mut runs = Vec::new();
    for workers in [1usize, 2, 4] {
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_supervised(workers, UNITS, |i| {
                if is_bad(i) {
                    // The fault under test: a unit panic the supervised
                    // pool must contain. `resume_unwind` unwinds without
                    // calling the panic hook, so a contained fault prints
                    // nothing to stderr.
                    std::panic::resume_unwind(Box::new("injected unit panic"));
                }
                i as u64 * 3
            })
        }));
        match run {
            Err(p) => return Outcome::Panicked(panic_message(p)),
            Ok(results) => runs.push(results),
        }
    }

    let contained = runs.iter().all(|results| {
        results.len() == UNITS
            && results.iter().enumerate().all(|(i, r)| match r {
                Ok(v) => !is_bad(i) && *v == i as u64 * 3,
                Err(msg) => is_bad(i) && msg == "injected unit panic",
            })
    });
    let identical = runs.windows(2).all(|w| w[0] == w[1]);
    if contained && identical {
        let lowest = bad_a.min(bad_b);
        Outcome::GracefulError(format!(
            "unit {lowest} panicked: injected unit panic ({}/{UNITS} units completed)",
            UNITS - if bad_a == bad_b { 1 } else { 2 }
        ))
    } else {
        // A lost panic or a timing-dependent outcome is exactly the
        // silent-damage class the matrix exists to keep at zero.
        Outcome::SilentlyAccepted
    }
}

/// Run the full fault matrix over the given named workloads: every
/// fault of [`Fault::default_matrix`] at each of [`MATRIX_SEEDS`], on the Fermi
/// model.
///
/// Per benchmark this profiles once, runs one full simulation (the IPC
/// reference) and one clean TBPoint pass, then executes every
/// `(fault, seed)` cell.
pub fn run_fault_matrix(runs: &[(String, KernelRun)]) -> MatrixReport {
    let faults = Fault::default_matrix();
    let gpu = GpuConfig::fermi();
    let mut report = MatrixReport::default();
    for (name, run) in runs {
        let profile = profile_run(run, 1);
        let full = simulate_run(run, &gpu, &mut NullSampling, None);
        let full_ipc = full.overall_ipc();
        match run_tbpoint(
            run,
            Some(&profile),
            &matrix_config(),
            &gpu,
            ExecPlan::serial(),
        ) {
            Ok(clean) => report
                .clean_err_pct
                .push((name.clone(), clean.error_vs(full_ipc))),
            Err(e) => {
                // A benchmark whose *clean* run fails is reported as one
                // graceful-error cell per fault so the hole is visible.
                report.clean_err_pct.push((name.clone(), f64::NAN));
                for &fault in &faults {
                    for seed in MATRIX_SEEDS {
                        report.cells.push(MatrixCell {
                            bench: name.clone(),
                            fault,
                            seed,
                            outcome: Outcome::GracefulError(format!("clean run failed: {e}")),
                        });
                    }
                }
                continue;
            }
        }
        for &fault in &faults {
            for seed in MATRIX_SEEDS {
                let outcome = if fault.is_pool_fault() {
                    pool_cell(seed)
                } else {
                    profile_cell(run, &profile, full_ipc, fault, seed, &gpu)
                };
                report.cells.push(MatrixCell {
                    bench: name.clone(),
                    fault,
                    seed,
                    outcome,
                });
            }
        }
    }
    report
}
