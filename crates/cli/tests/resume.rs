//! Crash-safety contract of [`tbpoint_cli::sweep::run_units`]:
//! an interrupted-then-resumed sweep must produce final artifacts
//! byte-identical to an uninterrupted run, tampered or unsealed unit
//! entries must be quarantined and recomputed, and a failing unit must
//! not destroy the units that already finished.
//!
//! The units here are a cheap deterministic stand-in (no simulations)
//! so the tests exercise only the persistence machinery.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use tbpoint_cli::output;
use tbpoint_cli::sweep::{run_units, SweepError, SweepOutcome, SweepPlan};
use tbpoint_core::TbError;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit {
    name: String,
    value: f64,
    series: Vec<f64>,
}

/// Deterministic per-unit payload with awkward floats, so byte-identity
/// actually exercises the shortest-round-trip printer.
fn compute(i: usize, key: &str) -> Result<Unit, TbError> {
    let value = (i as f64 + 1.0) / 3.0;
    Ok(Unit {
        name: key.to_string(),
        value,
        series: (0..4).map(|k| value * 0.1_f64.powi(k)).collect(),
    })
}

fn keys() -> Vec<String> {
    ["bfs", "cfd", "hotspot", "lud", "nw"]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// The entry name of unit `key`.
fn entry(key: &str) -> String {
    format!("test_sweep-{key}.json")
}

fn names() -> Vec<String> {
    keys().iter().map(|k| entry(k)).collect()
}

/// Sweep the test keys with the stand-in computation.
fn sweep(plan: &SweepPlan) -> Result<SweepOutcome<Unit>, SweepError> {
    let keys = keys();
    run_units(plan, &names(), |i| compute(i, &keys[i]))
}

fn plan(dir: &Path) -> SweepPlan {
    SweepPlan {
        dir: dir.to_path_buf(),
        resume: false,
        max_units: None,
        workers: 2,
    }
}

/// Fresh scratch directory per test (std-only; no tempfile crate).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tbpoint-resume-{}-{}-{tag}",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "_")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn final_artifact(dir: &Path, units: &[Unit]) -> Vec<u8> {
    let path = dir.join("final.json");
    output::write_json(&path, &units.to_vec()).expect("write final artifact");
    std::fs::read(&path).expect("read final artifact back")
}

#[test]
fn interrupted_then_resumed_run_is_byte_identical() {
    // Leg A: uninterrupted.
    let dir_a = scratch("a");
    let full = sweep(&plan(&dir_a)).expect("uninterrupted sweep");
    assert!(!full.partial);
    assert_eq!(full.computed, keys().len());
    let bytes_a = final_artifact(&dir_a, &full.into_complete());

    // Leg B: stop after 2 units (the deterministic stand-in for a
    // mid-sweep kill), then resume.
    let dir_b = scratch("b");
    let mut p = plan(&dir_b);
    p.max_units = Some(2);
    let partial = sweep(&p).expect("partial sweep");
    assert!(partial.partial);
    assert_eq!(partial.computed, 2);
    assert_eq!(partial.results.iter().flatten().count(), 2);

    let mut p = plan(&dir_b);
    p.resume = true;
    let resumed = sweep(&p).expect("resumed sweep");
    assert!(!resumed.partial);
    assert_eq!(resumed.resumed, 2, "both finished units must be reused");
    assert_eq!(resumed.computed, keys().len() - 2);
    let bytes_b = final_artifact(&dir_b, &resumed.into_complete());

    assert_eq!(
        bytes_a, bytes_b,
        "resumed final artifact must be byte-identical to the uninterrupted one"
    );

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn without_resume_everything_is_recomputed() {
    let dir = scratch("noresume");
    sweep(&plan(&dir)).expect("first run");
    let again = sweep(&plan(&dir)).expect("second run");
    assert_eq!(again.resumed, 0);
    assert_eq!(again.computed, keys().len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tampered_unit_file_is_detected_and_recomputed() {
    let dir = scratch("tamper");
    let full = sweep(&plan(&dir)).expect("first run");
    let expected = final_artifact(&dir, &full.into_complete());

    // Flip one byte inside a unit entry; its seal no longer verifies, so
    // --resume must quarantine and recompute exactly that unit.
    let victim = dir.join(entry("cfd"));
    let mut bytes = std::fs::read(&victim).expect("read unit file");
    let pos = bytes.len() / 2;
    bytes[pos] = bytes[pos].wrapping_add(1);
    std::fs::write(&victim, &bytes).expect("tamper with unit file");

    let calls = AtomicUsize::new(0);
    let keys = keys();
    let mut p = plan(&dir);
    p.resume = true;
    let resumed = run_units(&p, &names(), |i| {
        calls.fetch_add(1, Ordering::Relaxed);
        compute(i, &keys[i])
    })
    .expect("resume over tampered state");
    assert_eq!(resumed.resumed, keys.len() - 1);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        1,
        "only the tampered unit recomputes"
    );
    assert_eq!(
        std::fs::read(dir.join(entry("cfd") + ".quarantined")).expect("quarantined"),
        bytes,
        "the damaged bytes are set aside"
    );
    let healed = final_artifact(&dir, &resumed.into_complete());
    assert_eq!(
        expected, healed,
        "recomputation heals the tampered unit exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unit_entries_are_sealed_pretty_json_and_no_manifest_is_written() {
    let dir = scratch("sealed");
    sweep(&plan(&dir)).expect("sweep");
    let mut listed: Vec<String> = std::fs::read_dir(&dir)
        .expect("list")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    listed.sort();
    let keys = keys();
    let expected = names();
    assert_eq!(listed, expected, "one entry per unit and nothing else");
    for (i, key) in keys.iter().enumerate() {
        let text = std::fs::read_to_string(dir.join(&expected[i])).expect("read unit");
        let pretty = serde_json::to_string_pretty(&compute(i, key).unwrap()).unwrap();
        assert_eq!(text, tbpoint_obs::seal(&format!("{pretty}\n")), "{key}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unsealed_units_are_quarantined_and_recomputed() {
    // Unit files without a seal (the layout older sweeps left, whose
    // checksums lived in a separate manifest) are never trusted.
    let dir = scratch("unsealed");
    let full = sweep(&plan(&dir)).expect("first run");
    let expected = final_artifact(&dir, &full.into_complete());
    let keys = keys();
    for (i, key) in keys.iter().enumerate() {
        let pretty = serde_json::to_string_pretty(&compute(i, key).unwrap()).unwrap();
        std::fs::write(dir.join(entry(key)), pretty).expect("plant unsealed unit");
    }

    let mut p = plan(&dir);
    p.resume = true;
    let resumed = sweep(&p).expect("resume over unsealed units");
    assert_eq!(resumed.resumed, 0, "an unsealed unit is never trusted");
    assert_eq!(resumed.computed, keys.len());
    for key in &keys {
        assert!(dir.join(entry(key) + ".quarantined").exists());
    }
    let healed = final_artifact(&dir, &resumed.into_complete());
    assert_eq!(expected, healed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_staging_files_are_swept_before_the_sweep() {
    // A crash between `write_atomic`'s create and rename leaves a
    // `.tmp` staging file in the unit directory; the next sweep must
    // remove it on startup (it is never valid input) while leaving
    // real unit files alone.
    let dir = scratch("tmpsweep");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let stale = dir.join(format!(".{}.tmp", entry("bfs")));
    std::fs::write(&stale, b"torn half-write").expect("plant stale tmp");
    let full = sweep(&plan(&dir)).expect("sweep over stale tmp");
    assert!(!full.partial);
    assert_eq!(full.computed, keys().len());
    assert!(!stale.exists(), "stale staging file swept on startup");
    assert!(
        dir.join(entry("bfs")).exists(),
        "real unit files are untouched"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failing_unit_keeps_completed_units_for_resume() {
    let dir = scratch("fail");

    // Serial so the failure point is deterministic: units 0 and 1
    // finish, unit 2 fails, 3 and 4 never run.
    let mut p = plan(&dir);
    p.workers = 1;
    let keys = keys();
    let err = run_units(&p, &names(), |i| {
        if i == 2 {
            return Err(TbError::BudgetExceeded {
                launch: 0,
                budget_cycles: 1,
            });
        }
        compute(i, &keys[i])
    })
    .expect_err("unit 2 must fail the sweep");
    match err {
        SweepError::Pipeline { unit, .. } => assert_eq!(unit, entry("hotspot")),
        other => panic!("expected a pipeline error, got {other}"),
    }

    // A healthy re-run with --resume picks up the two survivors.
    let mut p = plan(&dir);
    p.resume = true;
    let resumed = sweep(&p).expect("resume after failure");
    assert_eq!(resumed.resumed, 2);
    assert_eq!(resumed.computed, 3);
    let _ = std::fs::remove_dir_all(&dir);
}
