//! The pool's headline guarantee, tested end-to-end: every on-disk
//! artifact of a pooled sweep — the sealed unit entries, the final
//! assembled JSON, and the recorder's trace JSONL — is
//! **byte-identical** at every `--pool-workers` value, with or without
//! an interrupt + `--resume` in between. Scheduling order is
//! timing-dependent; the bytes never are.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use tbpoint_cli::experiments::{eval_bench, BenchEval, EvalConfig};
use tbpoint_cli::output::{self, TraceEntry};
use tbpoint_cli::sweep::{run_units, SweepOutcome, SweepPlan};
use tbpoint_sim::GpuConfig;
use tbpoint_workloads::{benchmark_by_name, Benchmark, Scale};

/// Fresh scratch directory per test leg (std-only; no tempfile crate).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tbpoint-poolid-{}-{}-{tag}",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "_")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small real roster slice — big enough to be scheduled out of order,
/// small enough for a unit test.
fn roster() -> Vec<Benchmark> {
    ["bfs", "cfd", "spmv"]
        .iter()
        .map(|n| benchmark_by_name(n, Scale::Tiny).expect("roster name"))
        .collect()
}

/// Every file of a sweep directory, keyed by file name.
type DirBytes = BTreeMap<String, Vec<u8>>;

/// Every file under `dir`, keyed by file name, so whole-directory
/// byte-comparison is one map equality.
fn dir_bytes(dir: &Path) -> DirBytes {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read sweep dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, std::fs::read(entry.path()).expect("read file"));
    }
    out
}

/// Run the real eval pipeline over the roster slice as a pooled sweep,
/// recorded when `trace` is set, the way the `tbpoint` binary does:
/// each unit's traces land in its own slot and are concatenated in
/// roster order.
fn eval_sweep(
    dir: &Path,
    workers: usize,
    resume: bool,
    max_units: Option<usize>,
    trace: bool,
) -> (SweepOutcome<BenchEval>, Vec<TraceEntry>) {
    let benches = roster();
    let names: Vec<String> = benches
        .iter()
        .map(|b| format!("poolid-{}.json", b.name))
        .collect();
    let cfg = EvalConfig::new(Scale::Tiny);
    let gpu = GpuConfig::fermi();
    let plan = SweepPlan {
        dir: dir.to_path_buf(),
        resume,
        max_units,
        workers,
    };
    let slots: Vec<OnceLock<Vec<TraceEntry>>> = names.iter().map(|_| OnceLock::new()).collect();
    let outcome = run_units(&plan, &names, |i| {
        let (b, traces) = eval_bench(&benches[i], &cfg, &gpu, trace)?;
        let _ = slots[i].set(traces);
        Ok(b)
    })
    .expect("sweep runs");
    let traces = slots
        .into_iter()
        .filter_map(OnceLock::into_inner)
        .flatten()
        .collect();
    (outcome, traces)
}

/// Run the untraced sweep and return (per-file bytes, final artifact
/// bytes), or `None` when `max_units` stopped it early.
fn sweep_leg(
    dir: &Path,
    workers: usize,
    resume: bool,
    max_units: Option<usize>,
) -> Option<(DirBytes, Vec<u8>)> {
    let (outcome, _) = eval_sweep(dir, workers, resume, max_units, false);
    if outcome.partial {
        return None;
    }
    let final_path = dir.join("final.json");
    output::write_json(&final_path, &outcome.into_complete()).expect("write final");
    let files = dir_bytes(dir);
    let final_bytes = std::fs::read(&final_path).expect("read final");
    Some((files, final_bytes))
}

#[test]
fn sweep_artifacts_are_byte_identical_at_every_worker_count() {
    let dir1 = scratch("w1");
    let (files1, final1) = sweep_leg(&dir1, 1, false, None).expect("complete");
    for workers in [2, 4] {
        let dir = scratch(&format!("w{workers}"));
        let (files, final_bytes) = sweep_leg(&dir, workers, false, None).expect("complete");
        assert_eq!(
            files1.keys().collect::<Vec<_>>(),
            files.keys().collect::<Vec<_>>(),
            "workers={workers}: same file set"
        );
        for (name, bytes) in &files1 {
            assert_eq!(
                bytes, &files[name],
                "workers={workers}: {name} must be byte-identical to serial"
            );
        }
        assert_eq!(
            final1, final_bytes,
            "workers={workers}: final artifact must be byte-identical to serial"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&dir1);
}

#[test]
fn interrupted_pooled_sweep_resumes_to_identical_bytes() {
    // Reference: uninterrupted, 2 workers.
    let dir_a = scratch("ref");
    let (files_a, final_a) = sweep_leg(&dir_a, 2, false, None).expect("complete");

    // Interrupted at 1 unit with concurrent writers, then resumed —
    // still 2 workers on the resume leg.
    let dir_b = scratch("resume");
    assert!(
        sweep_leg(&dir_b, 2, false, Some(1)).is_none(),
        "max_units leg must report partial"
    );
    let (files_b, final_b) = sweep_leg(&dir_b, 2, true, None).expect("resume completes");

    for (name, bytes) in &files_a {
        assert_eq!(
            bytes, &files_b[name],
            "{name} must be byte-identical after interrupt + resume"
        );
    }
    assert_eq!(final_a, final_b);
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn recorder_trace_jsonl_is_byte_identical_at_every_worker_count() {
    let untraced_dir = scratch("untraced");
    eval_sweep(&untraced_dir, 1, false, None, false);
    let untraced_files = dir_bytes(&untraced_dir);

    let mut serial_trace: Option<Vec<u8>> = None;
    for workers in [1, 2, 4] {
        let dir = scratch(&format!("traced-w{workers}"));
        let (outcome, traces) = eval_sweep(&dir, workers, false, None, true);
        assert!(!outcome.partial);
        assert!(!traces.is_empty(), "workers={workers}: nothing recorded");
        assert_eq!(
            untraced_files,
            dir_bytes(&dir),
            "workers={workers}: a traced sweep must leave the untraced unit files"
        );
        let path = dir.join("trace.jsonl");
        output::write_trace_jsonl(&path, &traces).expect("write traces");
        let bytes = std::fs::read(&path).expect("read traces");
        match &serial_trace {
            None => serial_trace = Some(bytes),
            Some(serial) => assert!(
                *serial == bytes,
                "workers={workers}: recorder JSONL must be byte-identical to serial"
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&untraced_dir);
}
