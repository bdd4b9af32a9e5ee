//! Crash-safe, resumable sweep execution on the deterministic job pool.
//!
//! A *sweep* is a list of independent units (one benchmark, or one
//! benchmark's whole hardware grid), each named by a key and computed
//! by `run(index)`. [`run_units`] schedules them across `tbpoint-pool`
//! workers and persists each finished unit immediately:
//!
//! * every unit result is written to its own JSON file via
//!   [`crate::output::write_atomic`] (tmp + fsync + rename), so a crash
//!   leaves each unit either complete or absent — never torn;
//! * after each unit, a *manifest* (JSONL sealed with the `tbpoint-obs`
//!   integrity trailer) is atomically rewritten, recording every
//!   completed unit's file name and FNV-1a-64 checksum;
//! * `--resume` re-reads the manifest, verifies its trailer and each
//!   unit file's checksum, skips verified units and recomputes the
//!   rest. A unit file that was tampered with, torn, or orphaned by a
//!   crash between its rename and the manifest update is simply
//!   recomputed — a unit's computation is deterministic, so the bytes
//!   come out the same;
//! * the final result is assembled by **re-reading every unit file from
//!   disk**, which is why an interrupted-then-resumed sweep produces
//!   final artifacts byte-identical to an uninterrupted one (the
//!   vendored `serde_json` prints floats shortest-round-trip and keeps
//!   field order, so parse -> serialize is the identity on our files);
//! * `--max-units K` stops after K units, reporting a partial sweep
//!   (the CLI exits with code 3) — the deterministic stand-in for
//!   killing the process mid-sweep.
//!
//! Persistence and scheduling are deliberately orthogonal: the pool
//! decides *when* a unit runs (timing-dependent), the manifest records
//! *what* completed (canonical key order), and the final assembly reads
//! units back in key order — so unit files, manifest, and final
//! artifact are all byte-identical at every `--pool-workers` value,
//! with or without an interrupt + `--resume` in between.

use crate::output;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use tbpoint_core::TbError;
use tbpoint_obs::{fnv1a64, seal, verify};
use tbpoint_pool::run_indexed;

/// How a sweep failed.
#[derive(Debug)]
pub enum SweepError {
    /// Filesystem trouble, with the path involved.
    Io(PathBuf, std::io::Error),
    /// The pipeline rejected one unit (e.g. a `--cycle-budget`
    /// overrun). Completed unit files are preserved for `--resume`.
    Pipeline {
        /// The unit that failed.
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
                    "unit {unit:?} failed: {err} (completed units are kept; \
                     fix the config and re-run with --resume)"
                )
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Sweep identity and resumption policy.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Sweep name; prefixes every unit file and the manifest
    /// (e.g. `"eval_tiny"`).
    pub name: String,
    /// Directory holding unit files and the manifest.
    pub dir: PathBuf,
    /// Reuse verified units from a previous (interrupted) run.
    pub resume: bool,
    /// Stop after computing this many units (partial sweep).
    pub max_units: Option<usize>,
    /// Pool workers for independent units (`ExecPlan::pool_workers`).
    pub workers: usize,
}

/// What [`run_units`] did.
#[derive(Debug)]
pub struct SweepOutcome<T> {
    /// Per-unit results in key order; `None` for units not yet computed
    /// (only when `partial`).
    pub results: Vec<Option<T>>,
    /// Units computed in this invocation.
    pub computed: usize,
    /// Units skipped because a previous run's verified file covered
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

/// One manifest line.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ManifestEntry {
    sweep: String,
    unit: String,
    file: String,
    fnv64: String,
}

fn manifest_path(plan: &SweepPlan) -> PathBuf {
    plan.dir.join(format!("{}.manifest.jsonl", plan.name))
}

fn unit_path(plan: &SweepPlan, key: &str) -> PathBuf {
    // Keys are bench names / bench@config labels; keep anything else
    // filesystem-safe.
    let safe: String = key
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    plan.dir.join(format!("{}.unit.{safe}.json", plan.name))
}

fn io_err(path: &Path, e: std::io::Error) -> SweepError {
    SweepError::Io(path.to_path_buf(), e)
}

/// Atomically rewrite the manifest from the completed-unit map (sorted
/// by key index, so the final manifest is deterministic no matter in
/// which order pool workers finished).
fn write_manifest(
    plan: &SweepPlan,
    keys: &[String],
    done: &BTreeMap<usize, String>,
) -> Result<(), SweepError> {
    let mut body = String::new();
    for (&i, fnv) in done {
        let entry = ManifestEntry {
            sweep: plan.name.clone(),
            unit: keys[i].clone(),
            file: unit_path(plan, &keys[i])
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
            fnv64: fnv.clone(),
        };
        match serde_json::to_string(&entry) {
            Ok(line) => {
                body.push_str(&line);
                body.push('\n');
            }
            Err(e) => return Err(io_err(&manifest_path(plan), std::io::Error::other(e))),
        }
    }
    let path = manifest_path(plan);
    output::write_atomic(&path, seal(&body).as_bytes()).map_err(|e| io_err(&path, e))
}

/// Load the previous manifest and return, per key index, the checksum
/// of a unit file that exists and verifies. Errors in the manifest or
/// a unit file are not fatal: the unit is just recomputed.
fn load_verified_units(plan: &SweepPlan, keys: &[String]) -> BTreeMap<usize, String> {
    let mut verified = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(manifest_path(plan)) else {
        return verified;
    };
    let Ok(body) = verify(&text) else {
        eprintln!(
            "warning: manifest {} failed its integrity check; recomputing every unit",
            manifest_path(plan).display()
        );
        return verified;
    };
    let entries: Vec<ManifestEntry> = body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| serde_json::from_str(l).ok())
        .collect();
    for entry in entries {
        if entry.sweep != plan.name {
            continue;
        }
        let Some(i) = keys.iter().position(|k| *k == entry.unit) else {
            continue;
        };
        let path = unit_path(plan, &keys[i]);
        match std::fs::read(&path) {
            Ok(bytes) if format!("{:016x}", fnv1a64(&bytes)) == entry.fnv64 => {
                verified.insert(i, entry.fnv64);
            }
            Ok(_) => {
                eprintln!(
                    "warning: unit file {} does not match its manifest checksum; recomputing",
                    path.display()
                );
            }
            Err(_) => {}
        }
    }
    verified
}

/// Run (or resume) a sweep of `keys.len()` units on the deterministic
/// job pool; `run(i)` computes unit `i`.
///
/// Keys name the unit files and the manifest entries, so they must be
/// unique and stable across runs, or `--resume` cannot match completed
/// work. `run` must be deterministic and independent of other units —
/// resumption correctness and the byte-identity guarantee both rest on
/// that. Scheduling runs on `plan.workers` pool workers; persistence is
/// serialized under one lock (compute in parallel, persist one at a
/// time), so the manifest on disk always describes a consistent
/// prefix-closed set of finished units.
pub fn run_units<T>(
    plan: &SweepPlan,
    keys: &[String],
    run: impl Fn(usize) -> Result<T, TbError> + Sync,
) -> Result<SweepOutcome<T>, SweepError>
where
    T: Serialize + Deserialize + Send,
{
    std::fs::create_dir_all(&plan.dir).map_err(|e| io_err(&plan.dir, e))?;
    // Sweep `write_atomic` staging files a crashed previous run left
    // behind, exactly as the serve result cache does on open: a stale
    // `.tmp` is never valid input, and leaving it around masks how much
    // disk the unit directory really holds.
    let swept = tbpoint_obs::clean_stale_tmps(&plan.dir).map_err(|e| io_err(&plan.dir, e))?;
    for path in &swept {
        eprintln!("swept stale staging file {}", path.display());
    }

    let mut done: BTreeMap<usize, String> = if plan.resume {
        load_verified_units(plan, keys)
    } else {
        BTreeMap::new()
    };
    let resumed = done.len();

    let todo: Vec<usize> = (0..keys.len()).filter(|i| !done.contains_key(i)).collect();
    let allowed = plan.max_units.unwrap_or(todo.len()).min(todo.len());
    let partial = allowed < todo.len();

    // The pool schedules the allowed prefix of missing units; each job
    // computes its unit off-lock, then (under the lock) writes the unit
    // file atomically and rewrites the manifest, so an interrupt at any
    // instant preserves every finished unit. On failure the pool
    // reports the lowest recorded unit index and stops scheduling new
    // units; in-flight units still persist, ready for `--resume`.
    let state: std::sync::Mutex<BTreeMap<usize, String>> =
        std::sync::Mutex::new(std::mem::take(&mut done));
    run_indexed(plan.workers, allowed, |n| {
        let i = todo[n];
        let value = run(i).map_err(|err| SweepError::Pipeline {
            unit: keys[i].clone(),
            err,
        })?;
        let path = unit_path(plan, &keys[i]);
        let json = serde_json::to_string_pretty(&value)
            .map_err(|e| io_err(&path, std::io::Error::other(e)))?;
        let fnv = format!("{:016x}", fnv1a64(json.as_bytes()));
        let mut st = state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        output::write_atomic(&path, json.as_bytes()).map_err(|e| io_err(&path, e))?;
        st.insert(i, fnv);
        write_manifest(plan, keys, &st)
    })
    .map_err(|(_, e)| e)?;

    let done = state
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let computed = done.len() - resumed;

    // Assemble results by re-reading every unit file from disk: the
    // in-memory values never reach the final artifact, so resumed and
    // uninterrupted sweeps serialize identically.
    let mut results: Vec<Option<T>> = Vec::with_capacity(keys.len());
    for (i, key) in keys.iter().enumerate() {
        if !done.contains_key(&i) {
            results.push(None);
            continue;
        }
        let path = unit_path(plan, key);
        let bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
        let value: T =
            serde_json::from_slice(&bytes).map_err(|e| io_err(&path, std::io::Error::other(e)))?;
        results.push(Some(value));
    }

    Ok(SweepOutcome {
        results,
        computed,
        resumed,
        partial,
    })
}
