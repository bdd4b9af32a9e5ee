//! Crash-safe, resumable sweep execution on the deterministic job pool.
//!
//! A *sweep* is a list of independent units (one benchmark, or one
//! benchmark's whole hardware grid), each computed by `run(index)`.
//! [`run_units`] schedules them across `tbpoint-pool` workers and
//! persists each finished unit immediately as an entry of the
//! workspace's sealed-entry store ([`tbpoint_obs::Store`]), under a name
//! the caller chooses. The `tbpoint` binary hashes every input a flag
//! can change into each name, so a reused entry was computed from the
//! same inputs:
//!
//! * an entry is written atomically and carries its own seal, so a crash
//!   leaves each unit either complete and verifiable or absent;
//! * with `resume`, every name is looked up: a verified entry is reused, a
//!   damaged one is quarantined (with a warning) and recomputed, and a
//!   missing one is computed. A unit's computation is deterministic, so
//!   a recomputed entry has the same bytes;
//! * the final result is assembled from entries **read back through the
//!   store**, which is why an interrupted-then-resumed sweep produces
//!   final artifacts byte-identical to an uninterrupted one (the
//!   vendored `serde_json` prints floats shortest-round-trip and keeps
//!   field order, so parse -> serialize is the identity on our entries);
//! * `--max-units K` stops after K units, reporting a partial sweep
//!   (the CLI exits with code 3) — the deterministic stand-in for
//!   killing the process mid-sweep.
//!
//! Persistence and scheduling are deliberately orthogonal: the pool
//! decides *when* a unit runs (timing-dependent), each entry's bytes
//! depend only on its inputs, and the final assembly reads entries back
//! in unit order — so entries and final artifact are byte-identical at
//! every `--pool-workers` value, with or without an interrupt +
//! `--resume` in between.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::PathBuf;
use tbpoint_core::TbError;
use tbpoint_obs::{Lookup, Store};
use tbpoint_pool::run_indexed;

/// How a sweep failed.
#[derive(Debug)]
pub enum SweepError {
    /// Filesystem trouble, with the path involved.
    Io(PathBuf, std::io::Error),
    /// The pipeline rejected one unit (e.g. a `--cycle-budget`
    /// overrun). Completed unit entries are preserved for `--resume`.
    Pipeline {
        /// The entry name of the unit that failed.
        unit: String,
        /// Why.
        err: TbError,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            SweepError::Pipeline { unit, err } => {
                write!(
                    f,
                    "unit {unit:?} failed: {err} (completed units are kept; a re-run \
                     with the same flags reuses them, `eval` and `fig8` only with --resume)"
                )
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Where a sweep stores its units, and its resumption policy.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Directory holding the unit entries.
    pub dir: PathBuf,
    /// Reuse verified units from a previous run.
    pub resume: bool,
    /// Stop after computing this many units (partial sweep).
    pub max_units: Option<usize>,
    /// Pool workers for independent units (`ExecPlan::pool_workers`).
    pub workers: usize,
}

/// What [`run_units`] did.
#[derive(Debug)]
pub struct SweepOutcome<T> {
    /// Per-unit results in unit order; `None` for units not yet computed
    /// (only when `partial`).
    pub results: Vec<Option<T>>,
    /// Units computed in this invocation.
    pub computed: usize,
    /// Units skipped because a previous run's verified entry covered
    /// them.
    pub resumed: usize,
    /// True when `max_units` stopped the sweep early.
    pub partial: bool,
}

impl<T> SweepOutcome<T> {
    /// The complete result list; call only when `!partial`.
    ///
    /// # Panics
    ///
    /// If the sweep was partial (a caller bug — the CLI exits with
    /// code 3 before reaching this).
    pub fn into_complete(self) -> Vec<T> {
        self.results
            .into_iter()
            .map(|r| match r {
                Some(t) => t,
                None => panic!("sweep incomplete"),
            })
            .collect()
    }
}

/// Run (or resume) a sweep of `names.len()` units on the deterministic
/// job pool; `run(i)` computes unit `i` and stores it as entry
/// `names[i]`.
///
/// Names must be unique, and equal across runs exactly when the units'
/// inputs are, or `resume` cannot match completed work. `run` must be
/// deterministic and independent of other units — resumption
/// correctness and the byte-identity guarantee both rest on that. Units
/// compute in parallel on `plan.workers` pool workers and are stored as
/// they finish.
pub fn run_units<T>(
    plan: &SweepPlan,
    names: &[String],
    run: impl Fn(usize) -> Result<T, TbError> + Sync,
) -> Result<SweepOutcome<T>, SweepError>
where
    T: Serialize + Deserialize + Send,
{
    let (store, swept) =
        Store::<T>::open(&plan.dir).map_err(|e| SweepError::Io(plan.dir.clone(), e))?;
    for path in &swept {
        eprintln!("swept stale staging file {}", path.display());
    }
    let mut results: Vec<Option<T>> = names.iter().map(|_| None).collect();
    if plan.resume {
        for (slot, name) in results.iter_mut().zip(names) {
            match store.lookup(name) {
                Lookup::Hit(value) => *slot = Some(value),
                Lookup::Quarantined => eprintln!(
                    "warning: unit {} failed verification and was quarantined; recomputing",
                    store.entry_path(name).display()
                ),
                Lookup::Miss => {}
            }
        }
    }
    let resumed = results.iter().flatten().count();

    let todo: Vec<usize> = (0..names.len()).filter(|&i| results[i].is_none()).collect();
    let computed = plan.max_units.unwrap_or(todo.len()).min(todo.len());
    let partial = computed < todo.len();

    // The pool schedules the allowed prefix of missing units; each job
    // stores its unit as soon as it is computed, so an interrupt at any
    // instant preserves every finished unit. On failure the pool reports
    // the lowest failing unit and stops scheduling new ones; in-flight
    // units still persist, ready for `--resume`.
    run_indexed(plan.workers, computed, |n| {
        let i = todo[n];
        let value = run(i).map_err(|err| SweepError::Pipeline {
            unit: names[i].clone(),
            err,
        })?;
        store
            .store(&names[i], &value)
            .map_err(|e| SweepError::Io(store.entry_path(&names[i]), e))
    })
    .map_err(|(_, e)| e)?;

    // Read the computed units back through the store: in-memory values
    // never reach the final artifact, so resumed and uninterrupted
    // sweeps serialize identically.
    for &i in &todo[..computed] {
        match store.lookup(&names[i]) {
            Lookup::Hit(value) => results[i] = Some(value),
            _ => {
                return Err(SweepError::Io(
                    store.entry_path(&names[i]),
                    std::io::Error::other("unit entry did not verify after it was stored"),
                ))
            }
        }
    }

    Ok(SweepOutcome {
        results,
        computed,
        resumed,
        partial,
    })
}
