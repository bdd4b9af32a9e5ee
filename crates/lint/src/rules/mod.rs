//! The project-specific rule set.
//!
//! Every rule pattern-matches over the flat token stream from
//! [`crate::lexer`], restricted to non-test code of the crates it is
//! scoped to. See DESIGN.md ("Determinism invariants & static analysis")
//! for the rationale behind each rule.

pub mod hot;

use crate::lexer::{Tok, TokKind};
use crate::parser::ItemTree;
use crate::{Diagnostic, FileContext, Severity};

/// Names of all rules, in reporting order.
pub const RULE_NAMES: &[&str] = &[
    NO_NONDETERMINISM,
    NO_NAN_UNSAFE_ORDERING,
    NO_PANIC_IN_LIBRARY,
    NO_LOSSY_CAST,
    NO_ALLOC_IN_HOT_PATH,
    UNUSED_ALLOW_DIRECTIVE,
];

/// Forbid wall-clock and OS-entropy randomness plus hash-order iteration.
pub const NO_NONDETERMINISM: &str = "no-nondeterminism";
/// Forbid NaN-panicking float comparisons in clustering/stats code.
pub const NO_NAN_UNSAFE_ORDERING: &str = "no-nan-unsafe-ordering";
/// Forbid `unwrap`/`expect`/`panic!` in library code paths.
pub const NO_PANIC_IN_LIBRARY: &str = "no-panic-in-library";
/// Flag truncating `as` casts on counter-like values in hot paths.
pub const NO_LOSSY_CAST: &str = "no-lossy-cast";
/// No allocation inside `tbpoint-hot` regions.
pub const NO_ALLOC_IN_HOT_PATH: &str = "no-alloc-in-hot-path";
/// An allow directive that suppressed nothing is itself a finding.
pub const UNUSED_ALLOW_DIRECTIVE: &str = "unused-allow-directive";

/// One-line description per rule (for `--list-rules`).
pub fn describe(rule: &str) -> &'static str {
    match rule {
        NO_NONDETERMINISM => {
            "forbids thread_rng/from_entropy/SystemTime::now/Instant::now and \
             HashMap/HashSet (iteration order nondeterminism) in library crates"
        }
        NO_NAN_UNSAFE_ORDERING => {
            "forbids partial_cmp(..).unwrap()/expect() in library crates and \
             float ==/!= against literals in clustering/stats code; use f64::total_cmp"
        }
        NO_PANIC_IN_LIBRARY => {
            "forbids .unwrap()/.expect()/panic!/unreachable!/todo!/unimplemented! \
             in non-test library code; return Result instead"
        }
        NO_LOSSY_CAST => {
            "flags truncating `as` casts on counter-like identifiers (cycle/block/\
             inst/warp/...) in sim and core hot paths; use try_from or u64 math"
        }
        NO_ALLOC_IN_HOT_PATH => {
            "forbids Vec::new/Box::new/collect/format!/to_string/clone and \
             friends inside functions annotated `tbpoint-hot` — the steady-state \
             simulation loop must stay allocation-free"
        }
        UNUSED_ALLOW_DIRECTIVE => {
            "a tbpoint-lint allow(...) directive that suppresses no diagnostic \
             is stale and must be removed (warning; promoted by --deny-warnings)"
        }
        _ => "unknown rule",
    }
}

/// Crates whose results must be bit-reproducible: the profiling, sampling
/// and simulation substrate. `cli`, `bench` and the lint tool itself are
/// presentation/tooling layers and exempt.
pub const LIBRARY_CRATES: &[&str] = &[
    "core",
    "pool",
    "sim",
    "emu",
    "obs",
    "cluster",
    "stats",
    "workloads",
    "baselines",
    "model",
    "ir",
    "resilience",
    "serve",
];

/// Crates where float `==`/`!=` on distances/features is NaN-hazardous.
const FLOAT_CMP_CRATES: &[&str] = &["cluster", "stats"];

/// Crates with cycle/TB-counter hot paths where truncation is silent data
/// corruption.
const LOSSY_CAST_CRATES: &[&str] = &["sim", "core"];

/// Identifier substrings that mark a value as a counter in the hot paths.
const COUNTER_HINTS: &[&str] = &["cycle", "inst", "block", "warp", "request", "epoch", "tb"];

/// Integer types an `as` cast can silently truncate a 64-bit counter to.
const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Run every applicable rule over one file's tokens and item tree.
///
/// `tokens` must already have test-only ranges removed (see
/// [`crate::strip_test_ranges`]), and `tree` must have been parsed from
/// that same stripped stream.
pub fn check_file(ctx: &FileContext, tokens: &[Tok], tree: &ItemTree, out: &mut Vec<Diagnostic>) {
    if !ctx.is_library {
        return;
    }
    check_nondeterminism(ctx, tokens, out);
    check_nan_ordering(ctx, tokens, out);
    check_panic(ctx, tokens, out);
    if LOSSY_CAST_CRATES.contains(&ctx.crate_name.as_str()) {
        check_lossy_cast(ctx, tokens, out);
    }
    hot::check(ctx, tokens, tree, out);
}

pub(crate) fn ident(tok: Option<&Tok>) -> Option<&str> {
    match tok.map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

pub(crate) fn punct(tok: Option<&Tok>) -> Option<char> {
    match tok.map(|t| &t.kind) {
        Some(TokKind::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// `tok[i..]` starts with `::<name>` (path segment).
fn path_seg(tokens: &[Tok], i: usize, name: &str) -> bool {
    punct(tokens.get(i)) == Some(':')
        && punct(tokens.get(i + 1)) == Some(':')
        && ident(tokens.get(i + 2)) == Some(name)
}

fn check_nondeterminism(ctx: &FileContext, tokens: &[Tok], out: &mut Vec<Diagnostic>) {
    for (i, tok) in tokens.iter().enumerate() {
        let TokKind::Ident(name) = &tok.kind else {
            continue;
        };
        let message = match name.as_str() {
            "thread_rng" | "from_entropy" => Some(format!(
                "`{name}` draws OS entropy; results must be a pure function of the \
                 benchmark seed — use tbpoint_stats::SplitMix64 or the stateless \
                 rng::mix64 family"
            )),
            "SystemTime" | "Instant" if path_seg(tokens, i + 1, "now") => Some(format!(
                "`{name}::now()` makes results depend on wall-clock time; thread \
                 timing through explicit cycle counters or config instead"
            )),
            "HashMap" | "HashSet" => Some(format!(
                "`{name}` iteration order is nondeterministic and can leak into \
                 results; use BTreeMap/BTreeSet (or allow-list a membership-only \
                 use with a justification comment)"
            )),
            _ => None,
        };
        if let Some(message) = message {
            out.push(ctx.diagnostic(NO_NONDETERMINISM, Severity::Error, tok.line, message));
        }
    }
}

fn check_nan_ordering(ctx: &FileContext, tokens: &[Tok], out: &mut Vec<Diagnostic>) {
    // `partial_cmp( ... ).unwrap()` / `.expect(` — panics on NaN input.
    for (i, tok) in tokens.iter().enumerate() {
        if ident(Some(tok)) != Some("partial_cmp") || punct(tokens.get(i + 1)) != Some('(') {
            continue;
        }
        // Find the matching close paren.
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < tokens.len() {
            match punct(tokens.get(j)) {
                Some('(') => depth += 1,
                Some(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if punct(tokens.get(j + 1)) == Some('.') {
            if let Some(m @ ("unwrap" | "expect")) = ident(tokens.get(j + 2)) {
                out.push(ctx.diagnostic(
                    NO_NAN_UNSAFE_ORDERING,
                    Severity::Error,
                    tok.line,
                    format!(
                        "`partial_cmp(..).{m}()` panics on NaN; use `f64::total_cmp` \
                         for a total order over floats"
                    ),
                ));
            }
        }
    }

    // Float literal ==/!= comparisons in distance/feature code.
    if !FLOAT_CMP_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    for i in 0..tokens.len().saturating_sub(1) {
        let pair = (punct(tokens.get(i)), punct(tokens.get(i + 1)));
        let op = match pair {
            (Some('='), Some('=')) => "==",
            (Some('!'), Some('=')) => "!=",
            _ => continue,
        };
        // Exclude compound operators ending in `=` (`<=`, `>=`, `+=`, ...)
        // and `===`-like accidents by checking the preceding token.
        if op == "=="
            && matches!(
                punct(tokens.get(i.wrapping_sub(1))),
                Some('<' | '>' | '=' | '!' | '+' | '-' | '*' | '/' | '%' | '^' | '&' | '|')
            )
        {
            continue;
        }
        let float_neighbor =
            matches!(
                tokens.get(i.wrapping_sub(1)).map(|t| &t.kind),
                Some(TokKind::Float)
            ) || matches!(tokens.get(i + 2).map(|t| &t.kind), Some(TokKind::Float));
        if float_neighbor {
            out.push(ctx.diagnostic(
                NO_NAN_UNSAFE_ORDERING,
                Severity::Error,
                tokens[i].line,
                format!(
                    "float `{op}` comparison is NaN-unsafe and rounding-fragile in \
                     clustering/stats code; compare with an epsilon or use \
                     `total_cmp`/bit patterns"
                ),
            ));
        }
    }
}

fn check_panic(ctx: &FileContext, tokens: &[Tok], out: &mut Vec<Diagnostic>) {
    for (i, tok) in tokens.iter().enumerate() {
        let TokKind::Ident(name) = &tok.kind else {
            continue;
        };
        match name.as_str() {
            // `.unwrap()` / `.expect(...)` method calls only: a leading `.`
            // distinguishes them from definitions or `unwrap_or`-family
            // idents (those lex as different identifiers anyway).
            "unwrap" | "expect"
                if punct(tokens.get(i.wrapping_sub(1))) == Some('.')
                    && punct(tokens.get(i + 1)) == Some('(') =>
            {
                out.push(ctx.diagnostic(
                    NO_PANIC_IN_LIBRARY,
                    Severity::Error,
                    tok.line,
                    format!(
                        "`.{name}()` can panic in library code; propagate a \
                         Result/Option or handle the failure explicitly"
                    ),
                ));
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if punct(tokens.get(i + 1)) == Some('!') =>
            {
                out.push(ctx.diagnostic(
                    NO_PANIC_IN_LIBRARY,
                    Severity::Error,
                    tok.line,
                    format!(
                        "`{name}!` aborts the caller from library code; return \
                         an error (or allow-list a provably unreachable arm \
                         with a justification comment)"
                    ),
                ));
            }
            _ => {}
        }
    }
}

fn check_lossy_cast(ctx: &FileContext, tokens: &[Tok], out: &mut Vec<Diagnostic>) {
    for i in 0..tokens.len().saturating_sub(2) {
        let Some(castee) = ident(tokens.get(i)) else {
            continue;
        };
        if ident(tokens.get(i + 1)) != Some("as") {
            continue;
        }
        let Some(target) = ident(tokens.get(i + 2)) else {
            continue;
        };
        if !NARROW_INTS.contains(&target) {
            continue;
        }
        let lower = castee.to_ascii_lowercase();
        if COUNTER_HINTS.iter().any(|hint| lower.contains(hint)) {
            out.push(ctx.diagnostic(
                NO_LOSSY_CAST,
                Severity::Warning,
                tokens[i].line,
                format!(
                    "`{castee} as {target}` silently truncates a counter-like value; \
                     use `{target}::try_from` or keep the arithmetic in u64"
                ),
            ));
        }
    }
}
