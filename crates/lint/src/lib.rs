// Tests assert by panicking and compare exact floats on purpose.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::float_cmp,
        clippy::cast_possible_truncation
    )
)]

//! `tbpoint-lint` — workspace determinism & numeric-safety analyzer.
//!
//! TBPoint's claim — *profile once, simulate a representative subset,
//! trust the numbers* — only holds if workload generation, profiling,
//! clustering and timing simulation are bit-reproducible and NaN-safe.
//! This crate enforces those invariants statically over every `.rs` file
//! in the workspace, with `file:line` diagnostics, severities, a
//! `// tbpoint-lint: allow(<rule>)` escape hatch, human and JSON output,
//! and a non-zero exit code on violations (so CI can gate on it).
//!
//! Rules (see [`rules`]):
//! * `no-nondeterminism` — no `thread_rng`/`from_entropy`, no
//!   `SystemTime::now`/`Instant::now`, no `HashMap`/`HashSet` in library
//!   crates.
//! * `no-nan-unsafe-ordering` — no `partial_cmp(..).unwrap()`, no float
//!   `==`/`!=` in clustering/stats code; use `f64::total_cmp`.
//! * `no-panic-in-library` — no `.unwrap()`/`.expect()`/`panic!` in
//!   non-test library code.
//! * `no-lossy-cast` — no truncating `as` casts on counter-like values in
//!   `sim`/`core` hot paths.
//! * `no-alloc-in-hot-path` — no per-call allocation inside functions
//!   annotated as hot; see [`parser`] for how the annotation attaches.
//! * `unused-allow-directive` — an allow directive that suppresses
//!   nothing is stale and reported (warning).
//!
//! Beyond the token scan, the analyzer builds a per-file item tree
//! ([`parser`]) so the hot rule knows which function a token belongs to
//! — still with no rustc or `syn` dependency.
//!
//! Test code (`#[cfg(test)]` modules, `#[test]` functions, `tests/`,
//! `benches/`, `examples/` trees) is exempt: panics and ad-hoc hashing are
//! fine where a failure is the *point*.

#![forbid(unsafe_code)]

use serde::Serialize;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod parser;
pub mod rules;

use lexer::{Tok, TokKind};
use std::collections::BTreeMap;

/// Diagnostic severity. `Error` fails the run; `Warning` fails only under
/// `--deny-warnings`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Severity {
    /// Must be fixed or allow-listed.
    Error,
    /// Advisory; promoted to failing by `--deny-warnings`.
    Warning,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// A single rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Diagnostic {
    /// Path relative to the analysis root.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule name (kebab-case).
    pub rule: String,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

/// Everything the rules need to know about the file being checked.
pub struct FileContext {
    /// Display path (relative to the root).
    pub path: String,
    /// Short crate name (`sim`, `cluster`, ...; `tbpoint` for the facade).
    pub crate_name: String,
    /// Whether the file belongs to a determinism-critical library crate.
    pub is_library: bool,
}

impl FileContext {
    fn diagnostic(&self, rule: &str, severity: Severity, line: u32, message: String) -> Diagnostic {
        Diagnostic {
            file: self.path.clone(),
            line,
            rule: rule.to_string(),
            severity,
            message,
        }
    }
}

/// Per-rule and per-severity violation counts, keyed by stable names so
/// the JSON form is machine-diffable across runs.
#[derive(Debug, Default, Serialize)]
pub struct Summary {
    /// Violation count per rule name (rules with zero hits are omitted).
    pub by_rule: BTreeMap<String, usize>,
    /// Violation count per severity (`error`/`warning`).
    pub by_severity: BTreeMap<String, usize>,
}

/// Full analysis result over a file set.
#[derive(Debug, Serialize)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All violations, in (file, line, rule) order.
    pub violations: Vec<Diagnostic>,
    /// Count of error-severity violations.
    pub errors: usize,
    /// Count of warning-severity violations.
    pub warnings: usize,
    /// Aggregated counts for machine consumers.
    pub summary: Summary,
}

impl Report {
    /// Build a report from raw diagnostics: sorts them into the canonical
    /// `(file, line, rule)` order and aggregates the summary, so every
    /// construction path (CLI, tests) produces identical output for
    /// identical findings.
    pub fn from_violations(files_scanned: usize, mut violations: Vec<Diagnostic>) -> Report {
        violations.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        let errors = violations
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warnings = violations.len() - errors;
        let mut summary = Summary::default();
        for d in &violations {
            *summary.by_rule.entry(d.rule.clone()).or_insert(0) += 1;
            *summary
                .by_severity
                .entry(d.severity.to_string())
                .or_insert(0) += 1;
        }
        Report {
            files_scanned,
            violations,
            errors,
            warnings,
            summary,
        }
    }

    /// Whether the run should exit non-zero.
    pub fn failed(&self, deny_warnings: bool) -> bool {
        self.errors > 0 || (deny_warnings && self.warnings > 0)
    }
}

/// Analyze one file's source text.
///
/// `rel_path` is used for display and for crate classification, so
/// in-memory fixtures can exercise any scoping by choosing their path.
pub fn analyze_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let Some(class) = classify(rel_path) else {
        return Vec::new();
    };
    let ctx = FileContext {
        path: rel_path.to_string(),
        crate_name: class.crate_name,
        is_library: class.is_library,
    };
    let lexed = lexer::lex(src);
    let (tokens, removed_spans) = strip_test_ranges_spans(&lexed.tokens);
    // Markers inside stripped test ranges must not attach to the next
    // surviving fn — drop them before parsing.
    let live_markers: Vec<u32> = lexed
        .hot_markers
        .iter()
        .copied()
        .filter(|&line| !in_spans(&removed_spans, line))
        .collect();
    let tree = parser::parse(&tokens, &live_markers);
    let mut diags = Vec::new();
    rules::check_file(&ctx, &tokens, &tree, &mut diags);

    // Apply allow directives: a trailing comment (on a line that has code)
    // suppresses its own line; a standalone comment suppresses the next.
    // Track which directives fire so stale ones become findings.
    let code_lines: std::collections::BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
    let mut used = vec![false; lexed.allows.len()];
    diags.retain(|d| {
        let mut suppressed = false;
        for (i, a) in lexed.allows.iter().enumerate() {
            let covered = if code_lines.contains(&a.line) {
                a.line == d.line
            } else {
                a.line + 1 == d.line
            };
            if covered && a.rules.iter().any(|r| r == &d.rule) {
                used[i] = true;
                suppressed = true;
            }
        }
        !suppressed
    });

    // A directive that suppressed nothing is stale. Directives covering
    // test-only code are exempt (the code they covered was stripped, so
    // "suppressed nothing" is expected, not stale), as are whole files
    // outside rule scope. The warning itself is deliberately not
    // allow-listable: silencing "this silencer is dead" with another
    // silencer would defeat the point.
    if ctx.is_library {
        for (i, a) in lexed.allows.iter().enumerate() {
            if used[i] {
                continue;
            }
            let covered_line = if code_lines.contains(&a.line) {
                a.line
            } else {
                a.line + 1
            };
            if in_spans(&removed_spans, a.line) || in_spans(&removed_spans, covered_line) {
                continue;
            }
            let unknown: Vec<&str> = a
                .rules
                .iter()
                .filter(|r| !rules::RULE_NAMES.contains(&r.as_str()))
                .map(String::as_str)
                .collect();
            let detail = if unknown.is_empty() {
                "it suppresses no diagnostic — remove it (or the fix regressed \
                 and the rule no longer fires here)"
                    .to_string()
            } else {
                format!(
                    "it names unknown rule(s) {unknown:?} and suppresses no \
                     diagnostic; check `--list-rules` for valid names"
                )
            };
            diags.push(ctx.diagnostic(
                rules::UNUSED_ALLOW_DIRECTIVE,
                Severity::Warning,
                a.line,
                format!("stale allow directive for {:?}: {detail}", a.rules),
            ));
        }
    }
    diags
}

/// True if `line` falls inside any of the (inclusive) line spans.
fn in_spans(spans: &[(u32, u32)], line: u32) -> bool {
    spans.iter().any(|&(lo, hi)| lo <= line && line <= hi)
}

/// How a path participates in analysis.
struct Classification {
    crate_name: String,
    is_library: bool,
}

/// Classify a workspace-relative path; `None` means "do not analyze"
/// (vendored stand-ins, generated dirs, test/bench/example trees).
fn classify(rel_path: &str) -> Option<Classification> {
    let norm = rel_path.replace('\\', "/");
    let parts: Vec<&str> = norm.split('/').collect();
    if parts
        .iter()
        .any(|p| matches!(*p, "target" | ".git" | "vendor"))
    {
        return None;
    }
    // Test/bench/example trees are exempt from every rule; skip them.
    if parts
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples"))
    {
        return None;
    }
    let crate_name = match parts.as_slice() {
        ["crates", name, "src", ..] => (*name).to_string(),
        ["src", ..] => "tbpoint".to_string(),
        _ => return None,
    };
    let is_library =
        crate_name == "tbpoint" || rules::LIBRARY_CRATES.contains(&crate_name.as_str());
    Some(Classification {
        crate_name,
        is_library,
    })
}

/// Remove token ranges belonging to test-only items: any item annotated
/// `#[cfg(test)]` or `#[test]` (attributes may stack).
pub fn strip_test_ranges(tokens: &[Tok]) -> Vec<Tok> {
    strip_test_ranges_spans(tokens).0
}

/// Like [`strip_test_ranges`], but also reports the inclusive line spans
/// of the removed items, so comment directives (allows, annotations)
/// inside test-only code can be exempted from staleness/attachment.
pub fn strip_test_ranges_spans(tokens: &[Tok]) -> (Vec<Tok>, Vec<(u32, u32)>) {
    let mut out = Vec::with_capacity(tokens.len());
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_test_attr(tokens, i) {
            // Consume this attribute, any further attributes, then the
            // whole annotated item.
            let start = i;
            i = skip_attr(tokens, i);
            while is_attr(tokens, i) {
                i = skip_attr(tokens, i);
            }
            i = skip_item(tokens, i);
            let last = i.saturating_sub(1).min(tokens.len().saturating_sub(1));
            spans.push((tokens[start].line, tokens[last].line));
        } else {
            out.push(tokens[i].clone());
            i += 1;
        }
    }
    (out, spans)
}

fn is_attr(tokens: &[Tok], i: usize) -> bool {
    matches!(tokens.get(i).map(|t| &t.kind), Some(TokKind::Punct('#')))
        && matches!(
            tokens.get(i + 1).map(|t| &t.kind),
            Some(TokKind::Punct('['))
        )
}

/// `#[test]`, `#[cfg(test)]`, or any `#[cfg(...test...)]` combination
/// (e.g. `#[cfg(any(test, feature = "x"))]` errs on the side of "test").
fn is_test_attr(tokens: &[Tok], i: usize) -> bool {
    if !is_attr(tokens, i) {
        return false;
    }
    let mut depth = 0usize;
    let mut saw_cfg_or_test = false;
    let mut saw_test_ident = false;
    let mut j = i + 1;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Ident(s) => {
                if s == "test" {
                    saw_test_ident = true;
                }
                if s == "cfg" || s == "test" {
                    saw_cfg_or_test = true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    saw_cfg_or_test && saw_test_ident
}

/// Skip a whole `#[...]` attribute; returns the index just past `]`.
fn skip_attr(tokens: &[Tok], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i + 1;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Skip one item: ends at the first top-level `;` seen before any
/// top-level `{`, or at the matching `}` of the first top-level `{`.
fn skip_item(tokens: &[Tok], i: usize) -> usize {
    let mut j = i;
    let mut paren = 0i64;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => paren += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => paren -= 1,
            TokKind::Punct(';') if paren == 0 => return j + 1,
            TokKind::Punct('{') if paren == 0 => {
                // Skip to the matching close brace.
                let mut depth = 0i64;
                while j < tokens.len() {
                    match &tokens[j].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                return j + 1;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return j;
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Recursively collect `.rs` files under `root`, sorted for deterministic
/// report order. Directories named `target`, `.git` or `vendor` are
/// pruned.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !matches!(name, "target" | ".git" | "vendor") {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Analyze every `.rs` file under `root` (or only `paths`, when given).
pub fn run(root: &Path, paths: &[PathBuf]) -> std::io::Result<Report> {
    let files = if paths.is_empty() {
        collect_files(root)?
    } else {
        let mut files = Vec::new();
        for p in paths {
            let p = if p.is_absolute() {
                p.clone()
            } else {
                root.join(p)
            };
            if p.is_dir() {
                files.extend(collect_files(&p)?);
            } else {
                files.push(p);
            }
        }
        files.sort();
        files
    };

    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(file)?;
        scanned += 1;
        violations.extend(analyze_source(&rel, &src));
    }
    Ok(Report::from_violations(scanned, violations))
}

/// Render a report for terminals: one rustc-style block per violation.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for d in &report.violations {
        out.push_str(&format!(
            "{}[{}]: {}\n  --> {}:{}\n",
            d.severity, d.rule, d.message, d.file, d.line
        ));
    }
    out.push_str(&format!(
        "{} file(s) scanned: {} error(s), {} warning(s)\n",
        report.files_scanned, report.errors, report.warnings
    ));
    for (rule, count) in &report.summary.by_rule {
        out.push_str(&format!("  {rule}: {count}\n"));
    }
    out
}

/// Render a report as pretty-printed JSON.
pub fn render_json(report: &Report) -> String {
    serde_json::to_string_pretty(report).unwrap_or_else(|_| "{}".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_scopes_crates() {
        assert!(classify("crates/sim/src/sm.rs").is_some_and(|c| c.is_library));
        assert!(classify("crates/cli/src/main.rs").is_some_and(|c| !c.is_library));
        assert!(classify("src/lib.rs").is_some_and(|c| c.is_library));
        assert!(classify("vendor/serde/src/lib.rs").is_none());
        assert!(classify("crates/sim/tests/foo.rs").is_none());
        assert!(classify("crates/bench/benches/foo.rs").is_none());
        assert!(classify("tests/pipeline.rs").is_none());
    }

    #[test]
    fn test_modules_are_stripped() {
        let src = "
            fn lib_code() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { y.unwrap(); }
            }
        ";
        let diags = analyze_source("crates/sim/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn allow_directive_suppresses() {
        let src = "
            fn f() {
                // tbpoint-lint: allow(no-panic-in-library)
                x.unwrap();
                y.unwrap(); // tbpoint-lint: allow(no-panic-in-library)
                z.unwrap();
            }
        ";
        let diags = analyze_source("crates/sim/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 6);
    }

    #[test]
    fn allow_of_other_rule_does_not_suppress() {
        let src = "
            // tbpoint-lint: allow(no-lossy-cast)
            fn f() { x.unwrap(); }
        ";
        let diags = analyze_source("crates/sim/src/x.rs", src);
        // The unwrap error survives, and the no-op directive is itself
        // reported as stale.
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().any(|d| d.rule == rules::NO_PANIC_IN_LIBRARY));
        assert!(diags
            .iter()
            .any(|d| d.rule == rules::UNUSED_ALLOW_DIRECTIVE && d.severity == Severity::Warning));
    }

    #[test]
    fn used_allow_is_not_stale() {
        let src = "
            fn f() {
                // tbpoint-lint: allow(no-panic-in-library)
                x.unwrap();
            }
        ";
        let diags = analyze_source("crates/sim/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allow_inside_test_code_is_exempt_from_staleness() {
        let src = "
            fn lib_code() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    // tbpoint-lint: allow(no-panic-in-library)
                    y.unwrap();
                }
            }
        ";
        let diags = analyze_source("crates/sim/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unknown_rule_names_are_called_out() {
        let src = "
            // tbpoint-lint: allow(no-such-rule)
            fn f() {}
        ";
        let diags = analyze_source("crates/sim/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("no-such-rule"), "{diags:?}");
    }

    #[test]
    fn report_sorts_by_file_line_rule_and_summarizes() {
        let mk = |file: &str, line: u32, rule: &str, sev: Severity| Diagnostic {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            severity: sev,
            message: String::new(),
        };
        let report = Report::from_violations(
            3,
            vec![
                mk("b.rs", 1, "zz-rule", Severity::Warning),
                mk("a.rs", 9, "m-rule", Severity::Error),
                mk("a.rs", 9, "a-rule", Severity::Error),
                mk("a.rs", 2, "zz-rule", Severity::Error),
            ],
        );
        let order: Vec<(&str, u32, &str)> = report
            .violations
            .iter()
            .map(|d| (d.file.as_str(), d.line, d.rule.as_str()))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs", 2, "zz-rule"),
                ("a.rs", 9, "a-rule"),
                ("a.rs", 9, "m-rule"),
                ("b.rs", 1, "zz-rule"),
            ]
        );
        assert_eq!(report.errors, 3);
        assert_eq!(report.warnings, 1);
        assert_eq!(report.summary.by_rule.get("zz-rule"), Some(&2));
        assert_eq!(report.summary.by_severity.get("error"), Some(&3));
        assert_eq!(report.summary.by_severity.get("warning"), Some(&1));
    }

    #[test]
    fn markers_in_test_code_do_not_leak_onto_library_fns() {
        // The hot annotation sits inside a stripped test module; the
        // allocation in `lib_code` must not be flagged.
        let src = "
            #[cfg(test)]
            mod tests {
                // tbpoint-hot
                fn helper() {}
            }
            fn lib_code() { let v = Vec::new(); v }
        ";
        let diags = analyze_source("crates/sim/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
