#![allow(clippy::unwrap_used)] // tests assert by panicking

//! Fixture tests: each rule gets a failing, a passing, and an
//! allow-escape fixture, analyzed in-memory by mapping the fixture onto a
//! path inside the crate scope the rule targets. A final set of tests
//! drives the compiled `tbpoint-lint` binary against a fixture tree on
//! disk to pin down the exit-code contract CI relies on.

use tbpoint_lint::{analyze_source, rules, Severity};

/// Analyze a fixture as if it lived at `rel_path`, returning only the
/// diagnostics of `rule`.
fn diags_for(rule: &str, rel_path: &str, src: &str) -> Vec<tbpoint_lint::Diagnostic> {
    analyze_source(rel_path, src)
        .into_iter()
        .filter(|d| d.rule == rule)
        .collect()
}

// ---- no-nondeterminism ------------------------------------------------

#[test]
fn nondeterminism_fail_fixture_flags_every_trigger() {
    let src = include_str!("fixtures/nondeterminism_fail.rs");
    let diags = diags_for(rules::NO_NONDETERMINISM, "crates/emu/src/fixture.rs", src);
    // use-decl (2) + thread_rng + Instant::now + SystemTime::now +
    // HashMap::new + HashSet::new = 7 hits.
    assert!(diags.len() >= 5, "expected >= 5 diagnostics, got {diags:?}");
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
    assert!(diags.iter().any(|d| d.message.contains("thread_rng")));
    assert!(diags.iter().any(|d| d.message.contains("Instant::now")));
    assert!(diags.iter().any(|d| d.message.contains("SystemTime::now")));
    assert!(diags.iter().any(|d| d.message.contains("HashMap")));
}

#[test]
fn nondeterminism_pass_fixture_is_clean() {
    let src = include_str!("fixtures/nondeterminism_pass.rs");
    let diags = analyze_source("crates/emu/src/fixture.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn nondeterminism_allow_fixture_is_suppressed() {
    let src = include_str!("fixtures/nondeterminism_allow.rs");
    let diags = analyze_source("crates/emu/src/fixture.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn nondeterminism_not_enforced_outside_library_crates() {
    let src = include_str!("fixtures/nondeterminism_fail.rs");
    assert!(analyze_source("crates/cli/src/fixture.rs", src).is_empty());
    assert!(analyze_source("crates/emu/tests/fixture.rs", src).is_empty());
    assert!(analyze_source("vendor/serde/src/lib.rs", src).is_empty());
}

// ---- no-nan-unsafe-ordering -------------------------------------------

#[test]
fn nan_ordering_fail_fixture_flags_all_four_sites() {
    let src = include_str!("fixtures/nan_ordering_fail.rs");
    let diags = diags_for(
        rules::NO_NAN_UNSAFE_ORDERING,
        "crates/cluster/src/fixture.rs",
        src,
    );
    assert_eq!(diags.len(), 4, "{diags:?}");
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
    assert!(diags.iter().any(|d| d.message.contains("total_cmp")));
}

#[test]
fn nan_float_eq_only_applies_to_clustering_and_stats() {
    let src = include_str!("fixtures/nan_ordering_fail.rs");
    // In sim, partial_cmp-unwrap still fires but float == does not.
    let diags = diags_for(
        rules::NO_NAN_UNSAFE_ORDERING,
        "crates/sim/src/fixture.rs",
        src,
    );
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().all(|d| d.message.contains("partial_cmp")));
}

#[test]
fn nan_ordering_pass_fixture_is_clean() {
    let src = include_str!("fixtures/nan_ordering_pass.rs");
    let diags = diags_for(
        rules::NO_NAN_UNSAFE_ORDERING,
        "crates/stats/src/fixture.rs",
        src,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn nan_ordering_allow_fixture_is_suppressed() {
    let src = include_str!("fixtures/nan_ordering_allow.rs");
    let diags = analyze_source("crates/stats/src/fixture.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---- no-panic-in-library ----------------------------------------------

#[test]
fn panic_fail_fixture_flags_all_five_sites() {
    let src = include_str!("fixtures/panic_fail.rs");
    let diags = diags_for(
        rules::NO_PANIC_IN_LIBRARY,
        "crates/workloads/src/fixture.rs",
        src,
    );
    assert_eq!(diags.len(), 5, "{diags:?}");
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn panic_pass_fixture_is_clean_including_test_module() {
    let src = include_str!("fixtures/panic_pass.rs");
    let diags = analyze_source("crates/workloads/src/fixture.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn panic_allow_fixture_is_suppressed() {
    let src = include_str!("fixtures/panic_allow.rs");
    let diags = analyze_source("crates/workloads/src/fixture.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---- no-lossy-cast ----------------------------------------------------

#[test]
fn lossy_cast_fail_fixture_warns_on_counter_truncation() {
    let src = include_str!("fixtures/lossy_cast_fail.rs");
    let diags = diags_for(rules::NO_LOSSY_CAST, "crates/sim/src/fixture.rs", src);
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn lossy_cast_only_applies_to_sim_and_core() {
    let src = include_str!("fixtures/lossy_cast_fail.rs");
    let diags = diags_for(rules::NO_LOSSY_CAST, "crates/stats/src/fixture.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn lossy_cast_pass_fixture_is_clean() {
    let src = include_str!("fixtures/lossy_cast_pass.rs");
    let diags = diags_for(rules::NO_LOSSY_CAST, "crates/core/src/fixture.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn lossy_cast_allow_fixture_is_suppressed() {
    let src = include_str!("fixtures/lossy_cast_allow.rs");
    let diags = diags_for(rules::NO_LOSSY_CAST, "crates/sim/src/fixture.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---- no-alloc-in-hot-path ----------------------------------------------

#[test]
fn hot_fail_fixture_flags_every_allocation() {
    let src = include_str!("fixtures/hot_fail.rs");
    let diags = diags_for(
        rules::NO_ALLOC_IN_HOT_PATH,
        "crates/sim/src/fixture.rs",
        src,
    );
    // Vec::new + collect + format! + clone + to_string = 5 sites.
    assert_eq!(diags.len(), 5, "{diags:?}");
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
    assert!(diags.iter().any(|d| d.message.contains("Vec::new")));
    assert!(diags.iter().any(|d| d.message.contains("collect")));
    assert!(diags.iter().any(|d| d.message.contains("format!")));
    assert!(diags.iter().any(|d| d.message.contains("clone")));
}

#[test]
fn hot_pass_fixture_is_clean() {
    let src = include_str!("fixtures/hot_pass.rs");
    let diags = analyze_source("crates/sim/src/fixture.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn hot_allow_fixture_is_suppressed() {
    let src = include_str!("fixtures/hot_allow.rs");
    let diags = analyze_source("crates/sim/src/fixture.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---- unused-allow-directive --------------------------------------------
//
// No allow-escape fixture: the staleness warning is deliberately not
// self-suppressible (an allow cannot vouch for itself), so the trio
// collapses to fail/pass.

#[test]
fn unused_allow_fail_fixture_warns_on_stale_and_misspelled() {
    let src = include_str!("fixtures/unused_allow_fail.rs");
    let diags = diags_for(
        rules::UNUSED_ALLOW_DIRECTIVE,
        "crates/sim/src/fixture.rs",
        src,
    );
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
    assert!(diags
        .iter()
        .any(|d| d.message.contains("no-pannic-in-library")));
}

#[test]
fn unused_allow_pass_fixture_is_clean() {
    let src = include_str!("fixtures/unused_allow_pass.rs");
    let diags = analyze_source("crates/sim/src/fixture.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---- binary exit-code contract ----------------------------------------

/// Materialize fixtures into a throwaway workspace-shaped tree and run the
/// compiled binary against it.
fn run_binary_on(label: &str, files: &[(&str, &str)], extra_args: &[&str]) -> (i32, String) {
    // Tests in this binary run concurrently in one process, so the label
    // (not just the pid) keeps their scratch trees disjoint.
    let root = std::env::temp_dir().join(format!(
        "tbpoint-lint-fixture-{}-{label}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    for (rel, src) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, src).unwrap();
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tbpoint-lint"))
        .arg("--root")
        .arg(&root)
        .args(extra_args)
        .output()
        .unwrap();
    let _ = std::fs::remove_dir_all(&root);
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn binary_exits_nonzero_on_violations() {
    let (code, stdout) = run_binary_on(
        "violations",
        &[(
            "crates/sim/src/bad.rs",
            include_str!("fixtures/panic_fail.rs"),
        )],
        &[],
    );
    assert_eq!(code, 1, "stdout: {stdout}");
    assert!(stdout.contains("no-panic-in-library"));
}

#[test]
fn binary_exits_zero_on_clean_tree() {
    let (code, stdout) = run_binary_on(
        "clean",
        &[(
            "crates/sim/src/good.rs",
            include_str!("fixtures/panic_pass.rs"),
        )],
        &[],
    );
    assert_eq!(code, 0, "stdout: {stdout}");
}

#[test]
fn binary_warnings_fail_only_under_deny_warnings() {
    let files = [(
        "crates/sim/src/warny.rs",
        include_str!("fixtures/lossy_cast_fail.rs"),
    )];
    let (code, _) = run_binary_on("warn-default", &files, &[]);
    assert_eq!(code, 0, "warnings alone must not fail by default");
    let (code, stdout) = run_binary_on("warn-deny", &files, &["--deny-warnings"]);
    assert_eq!(code, 1, "stdout: {stdout}");
}

#[test]
fn binary_json_output_is_machine_readable() {
    let (code, stdout) = run_binary_on(
        "json",
        &[
            (
                "crates/cluster/src/bad.rs",
                include_str!("fixtures/nan_ordering_fail.rs"),
            ),
            (
                "crates/emu/src/bad.rs",
                include_str!("fixtures/nondeterminism_fail.rs"),
            ),
        ],
        &["--format", "json"],
    );
    assert_eq!(code, 1);
    let v = serde_json::parse(&stdout).unwrap();
    let obj = v.as_obj().unwrap();
    let violations = obj
        .iter()
        .find(|(k, _)| k == "violations")
        .and_then(|(_, v)| v.as_arr())
        .unwrap();
    assert!(!violations.is_empty());
    for d in violations {
        let d = d.as_obj().unwrap();
        for key in ["file", "line", "rule", "severity", "message"] {
            assert!(d.iter().any(|(k, _)| k == key), "missing key {key}");
        }
    }
}

#[test]
fn binary_exits_two_on_bad_usage() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tbpoint-lint"))
        .arg("--format")
        .arg("yaml")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
