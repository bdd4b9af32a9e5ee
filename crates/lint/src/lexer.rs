//! A small Rust lexer producing a flat, line-annotated token stream.
//!
//! The analyzer does not need a full parse tree: every rule it enforces is
//! expressible over identifier/punctuation sequences once comments, string
//! literals and char literals are stripped (so `"thread_rng"` inside a
//! string never trips a rule). The lexer also extracts
//! `tbpoint-lint: allow(...)` directives from comments, since those live
//! exactly in the trivia a parser would discard.
//!
//! `syn` would be the natural tool, but the build environment is offline;
//! a hand-rolled lexer over `char` indices is ~200 lines and covers every
//! construct in this workspace (including raw strings, nested block
//! comments, lifetimes and numeric literals with type suffixes).

/// Kind of a lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`foo`, `as`, `unwrap`).
    Ident(String),
    /// Single punctuation character (`.`, `(`, `=`, ...).
    Punct(char),
    /// Integer literal.
    Int,
    /// Floating-point literal (has a `.` or an exponent).
    Float,
    /// String, byte-string or char literal (contents discarded).
    Str,
    /// Lifetime (`'a`).
    Lifetime,
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// What was lexed.
    pub kind: TokKind,
    /// 1-based source line.
    pub line: u32,
}

/// An `allow` escape-hatch directive found in a comment.
///
/// `// tbpoint-lint: allow(rule-a, rule-b)` suppresses the named rules on
/// the directive's own line (trailing comment) and on the following line
/// (standalone comment above the offending code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// 1-based line the directive appears on.
    pub line: u32,
    /// Rule names listed inside `allow(...)`.
    pub rules: Vec<String>,
}

/// Result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Token stream with comments/strings stripped.
    pub tokens: Vec<Tok>,
    /// All allow directives, in source order.
    pub allows: Vec<AllowDirective>,
    /// Lines of all `tbpoint-hot` annotations, in source order. The
    /// comment must *start* with the annotation (after whitespace), so
    /// prose that merely mentions it — e.g. backtick-quoted examples in
    /// doc comments — is not one.
    pub hot_markers: Vec<u32>,
}

/// Lex Rust source text. Never fails: unrecognized bytes are skipped, so
/// the analyzer degrades gracefully on exotic syntax instead of crashing.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let start = i + 2;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                scan_allow(&text, line, &mut out.allows);
                scan_marker(&text, line, &mut out.hot_markers);
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // Nested block comments, as in real Rust.
                let start = i + 2;
                let mut depth = 1;
                let comment_line = line;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                let end = i.saturating_sub(2).max(start);
                let text: String = chars[start..end].iter().collect();
                scan_allow(&text, comment_line, &mut out.allows);
                scan_marker(&text, comment_line, &mut out.hot_markers);
            }
            '"' => {
                out.tokens.push(Tok {
                    kind: TokKind::Str,
                    line,
                });
                i = skip_string(&chars, i, &mut line);
            }
            'r' | 'b' if starts_raw_or_byte_string(&chars, i) => {
                out.tokens.push(Tok {
                    kind: TokKind::Str,
                    line,
                });
                i = skip_raw_or_byte_string(&chars, i, &mut line);
            }
            '\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let is_lifetime = match chars.get(i + 1) {
                    Some(&n) if n.is_alphabetic() || n == '_' => chars.get(i + 2) != Some(&'\''),
                    _ => false,
                };
                if is_lifetime {
                    let mut j = i + 1;
                    while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                        j += 1;
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        line,
                    });
                    i = j;
                } else {
                    out.tokens.push(Tok {
                        kind: TokKind::Str,
                        line,
                    });
                    i = skip_char_literal(&chars, i);
                }
            }
            c if c.is_ascii_digit() => {
                let (next, kind) = lex_number(&chars, i);
                out.tokens.push(Tok { kind, line });
                i = next;
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let ident: String = chars[i..j].iter().collect();
                out.tokens.push(Tok {
                    kind: TokKind::Ident(ident),
                    line,
                });
                i = j;
            }
            c => {
                out.tokens.push(Tok {
                    kind: TokKind::Punct(c),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// True if position `i` starts `r"`, `r#"`, `b"`, `br"`, `br#"` etc.
fn starts_raw_or_byte_string(chars: &[char], i: usize) -> bool {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
        while chars.get(j) == Some(&'#') {
            j += 1;
        }
    }
    // `b"..."` (j advanced past `b`) or `r#"..."` (past `r##...`): either
    // way the next char must open a string, and we must have consumed at
    // least one prefix char to be here.
    j > i && chars.get(j) == Some(&'"')
}

/// Skip a plain `"..."` string starting at `i`. Returns index past it.
fn skip_string(chars: &[char], i: usize, line: &mut u32) -> usize {
    let mut j = i + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            '\n' => {
                *line += 1;
                j += 1;
            }
            '"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Skip a raw/byte string (`r#"..."#`, `b"..."`, `br##"..."##`).
fn skip_raw_or_byte_string(chars: &[char], i: usize, line: &mut u32) -> usize {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    let raw = chars.get(j) == Some(&'r');
    if raw {
        j += 1;
    }
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    debug_assert_eq!(chars.get(j), Some(&'"'));
    j += 1;
    while j < chars.len() {
        match chars[j] {
            '\\' if !raw => j += 2,
            '\n' => {
                *line += 1;
                j += 1;
            }
            '"' => {
                let mut k = j + 1;
                let mut seen = 0;
                while seen < hashes && chars.get(k) == Some(&'#') {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    return k;
                }
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

/// Skip a char literal `'x'` / `'\n'` / `'\u{1F600}'`.
fn skip_char_literal(chars: &[char], i: usize) -> usize {
    let mut j = i + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            '\'' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Lex a numeric literal starting at `i`; classify int vs float.
fn lex_number(chars: &[char], i: usize) -> (usize, TokKind) {
    let mut j = i;
    let mut float = false;
    // Radix prefixes are always integers.
    if chars[j] == '0' && matches!(chars.get(j + 1), Some('x' | 'o' | 'b')) {
        j += 2;
        while j < chars.len() && (chars[j].is_ascii_hexdigit() || chars[j] == '_') {
            j += 1;
        }
    } else {
        while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
            j += 1;
        }
        // A fractional part: `1.5` but not `1..2` (range) or `1.method()`.
        if chars.get(j) == Some(&'.') && matches!(chars.get(j + 1), Some(d) if d.is_ascii_digit()) {
            float = true;
            j += 1;
            while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
                j += 1;
            }
        }
        // Exponent: `1e9`, `2.5E-3`.
        if matches!(chars.get(j), Some('e' | 'E'))
            && matches!(
                chars.get(j + 1),
                Some(d) if d.is_ascii_digit() || *d == '+' || *d == '-'
            )
        {
            float = true;
            j += 1;
            if matches!(chars.get(j), Some('+' | '-')) {
                j += 1;
            }
            while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
                j += 1;
            }
        }
    }
    // Type suffix (`u64`, `f64`, ...): a suffix beginning with `f` marks a
    // float literal like `1f64`.
    if matches!(chars.get(j), Some(c) if c.is_alphabetic()) {
        if chars[j] == 'f' {
            float = true;
        }
        while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
    }
    (j, if float { TokKind::Float } else { TokKind::Int })
}

/// Extract `tbpoint-lint: allow(a, b)` directives from comment text.
///
/// Listed names must look like rule names (`[a-z0-9-]+`); anything else —
/// e.g. the `allow(<rule>)` placeholder in documentation prose — is
/// dropped rather than recorded as a directive.
fn scan_allow(comment: &str, line: u32, out: &mut Vec<AllowDirective>) {
    let Some(pos) = comment.find("tbpoint-lint:") else {
        return;
    };
    let rest = comment[pos + "tbpoint-lint:".len()..].trim_start();
    let Some(rest) = rest.strip_prefix("allow") else {
        return;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return;
    };
    let Some(close) = rest.find(')') else {
        return;
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| {
            !r.is_empty()
                && r.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        })
        .collect();
    if !rules.is_empty() {
        out.push(AllowDirective { line, rules });
    }
}

/// Record a `tbpoint-hot` annotation found in comment text.
///
/// Unlike allows (which may trail other text so they can sit after code),
/// the annotation is only recognized when the comment *starts* with it.
/// Doc comments (`///`) lex with a leading `/` in their text, so prose
/// examples inside docs never register as annotations.
fn scan_marker(comment: &str, line: u32, out: &mut Vec<u32>) {
    if let Some(rest) = comment.trim_start().strip_prefix("tbpoint-hot") {
        // Require a word boundary so e.g. `tbpoint-hotfix` is prose.
        if !rest.starts_with(|c: char| c.is_alphanumeric() || c == '-') {
            out.push(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let src = r##"
            // thread_rng in a comment
            /* HashMap in a block comment */
            let x = "thread_rng";
            let y = r#"Instant::now"#;
            let z = 'H';
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"thread_rng".to_string()));
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
    }

    #[test]
    fn lines_are_tracked() {
        let lexed = lex("a\nb\n  c");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn float_vs_int_literals() {
        let lexed = lex("1 1.5 1e9 0x1F 1f64 1u32 1..2");
        let kinds: Vec<&TokKind> = lexed.tokens.iter().map(|t| &t.kind).collect();
        assert_eq!(kinds[0], &TokKind::Int);
        assert_eq!(kinds[1], &TokKind::Float);
        assert_eq!(kinds[2], &TokKind::Float);
        assert_eq!(kinds[3], &TokKind::Int);
        assert_eq!(kinds[4], &TokKind::Float);
        assert_eq!(kinds[5], &TokKind::Int);
        // `1..2` lexes as Int, '.', '.', Int — not a float.
        assert_eq!(kinds[6], &TokKind::Int);
        assert_eq!(kinds[7], &TokKind::Punct('.'));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) {}");
        assert!(lexed.tokens.iter().any(|t| t.kind == TokKind::Lifetime));
        assert!(!lexed.tokens.iter().any(|t| t.kind == TokKind::Str));
    }

    #[test]
    fn allow_directives_parse() {
        let src = "
            // tbpoint-lint: allow(no-panic-in-library)
            x.unwrap();
            y.unwrap(); // tbpoint-lint: allow(no-panic-in-library, no-lossy-cast)
        ";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 2);
        assert_eq!(lexed.allows[0].line, 2);
        assert_eq!(lexed.allows[0].rules, vec!["no-panic-in-library"]);
        assert_eq!(lexed.allows[1].line, 4);
        assert_eq!(
            lexed.allows[1].rules,
            vec!["no-panic-in-library", "no-lossy-cast"]
        );
    }

    #[test]
    fn allow_placeholder_names_are_not_directives() {
        // Documentation prose like `tbpoint-lint: allow(<rule>)` must not
        // register: `<rule>` is not a valid rule name.
        let lexed = lex("// the tbpoint-lint: allow(<rule>) escape hatch\nx();");
        assert!(lexed.allows.is_empty(), "{:?}", lexed.allows);
    }

    #[test]
    fn markers_parse_when_anchored() {
        let src = "
            fn a() {}
            // tbpoint-hot
            fn c() {}
        ";
        assert_eq!(lex(src).hot_markers, vec![3]);
    }

    #[test]
    fn marker_mentions_in_prose_are_ignored() {
        let src = "
            /// The `// tbpoint-hot` marker bans allocation.
            // see the tbpoint-hot docs
            // tbpoint-hotfix
            fn a() {}
        ";
        let lexed = lex(src);
        assert!(lexed.hot_markers.is_empty(), "{:?}", lexed.hot_markers);
    }
}
