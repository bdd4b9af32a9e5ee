//! Sweep units are reused only when every input a flag can change is
//! the same: a figure rendered after `eval` or another figure reuses
//! their units, and a changed `--cycle-budget` recomputes instead of
//! serving a result computed without it.

use std::path::PathBuf;
use std::process::{Command, Output};

const BUDGET_ERROR: &str = "exceeded its cycle budget of 1 cycles";

/// A fresh `--artifacts` directory for one scenario.
fn artifacts(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("keyed_units_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `tbpoint <args> --scale tiny --artifacts <dir> --pool-workers 2`.
fn tbpoint(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tbpoint"))
        .args(args)
        .args(["--scale", "tiny", "--pool-workers", "2", "--artifacts"])
        .arg(dir)
        .output()
        .expect("spawn tbpoint")
}

fn assert_exit(out: &Output, code: i32, fragment: &str, what: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(code), "{what}: {stderr}");
    assert!(stderr.contains(fragment), "{what}: {stderr}");
    stderr
}

#[test]
fn figures_reuse_units_and_a_changed_budget_recomputes() {
    let dir = artifacts("sensitivity");
    assert_exit(&tbpoint(&dir, &["fig12"]), 0, "", "fig12");
    assert_exit(
        &tbpoint(&dir, &["fig13"]),
        0,
        "sensitivity: 0 unit(s) computed, 12 resumed from disk",
        "fig13 after fig12",
    );
    assert_exit(
        &tbpoint(&dir, &["fig12", "--cycle-budget", "1"]),
        1,
        BUDGET_ERROR,
        "fig12 --cycle-budget 1 after fig12",
    );

    let dir = artifacts("eval");
    assert_exit(&tbpoint(&dir, &["eval"]), 0, "", "eval");
    assert_exit(
        &tbpoint(&dir, &["fig9", "--cycle-budget", "1"]),
        1,
        BUDGET_ERROR,
        "fig9 --cycle-budget 1 after eval",
    );
    assert_exit(
        &tbpoint(&dir, &["eval", "--resume", "--cycle-budget", "1"]),
        1,
        BUDGET_ERROR,
        "eval --resume --cycle-budget 1 after eval",
    );
}
