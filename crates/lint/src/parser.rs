//! A lightweight item parser over the flat token stream.
//!
//! The hot rule needs to know *which function* a token belongs to and
//! whether a `tbpoint-hot` annotation attaches to it. A full AST is
//! unnecessary: `fn` items are recognizable as
//! `fn <name> [<generics>] ( params ) [-> ret] { body }` directly in the
//! token stream, and brace matching delimits bodies exactly (strings and
//! comments were already stripped by the lexer, so no brace inside them
//! can confuse the count).
//!
//! A marker attaches to the next `fn` whose signature line is at or below
//! the marker line — i.e. the annotation comment sits directly above (or
//! trails the line of) the `fn` it describes. A marker with no following
//! `fn` is reported as dangling so a typo'd or misplaced annotation is a
//! diagnostic, never a silent no-op.

use crate::lexer::{Tok, TokKind};

/// One `fn` item recovered from the token stream.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub sig_line: u32,
    /// Token index range of the body, *excluding* the outer braces.
    /// Empty for bodyless trait-method declarations.
    pub body: std::ops::Range<usize>,
    /// Whether a `tbpoint-hot` marker attaches here.
    pub hot: bool,
}

/// The item tree for one file: every `fn`, plus markers that attached to
/// nothing.
#[derive(Debug, Default)]
pub struct ItemTree {
    /// All functions, in source order.
    pub fns: Vec<FnItem>,
    /// Lines of markers with no `fn` at or below them.
    pub dangling: Vec<u32>,
}

/// Parse the (test-stripped) token stream into an item tree and attach
/// the `tbpoint-hot` markers (given by line) to the functions they
/// annotate.
pub fn parse(tokens: &[Tok], hot_markers: &[u32]) -> ItemTree {
    let mut tree = ItemTree::default();
    let mut i = 0usize;
    while i < tokens.len() {
        if ident_at(tokens, i) == Some("fn") {
            if let Some((item, next)) = parse_fn(tokens, i) {
                tree.fns.push(item);
                i = next;
                continue;
            }
        }
        i += 1;
    }
    for &line in hot_markers {
        match tree.fns.iter_mut().find(|f| f.sig_line >= line) {
            Some(f) => f.hot = true,
            None => tree.dangling.push(line),
        }
    }
    tree
}

fn ident_at(tokens: &[Tok], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(tokens: &[Tok], i: usize) -> Option<char> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// Parse one `fn` starting at the `fn` keyword. Returns the item and the
/// index to resume scanning from (just past the body for fns with one, so
/// nested closures are never re-parsed as items; Rust has no nested `fn`
/// in this workspace, and closures use `|..|`, not `fn`).
fn parse_fn(tokens: &[Tok], fn_idx: usize) -> Option<(FnItem, usize)> {
    let name = ident_at(tokens, fn_idx + 1)?.to_string();
    let sig_line = tokens[fn_idx].line;
    let mut i = fn_idx + 2;

    // Skip `<generics>` — bracket-matched, with `->` inside `Fn(..) -> R`
    // bounds handled by ignoring a `>` that directly follows a `-`.
    if punct_at(tokens, i) == Some('<') {
        let mut depth = 0i64;
        while i < tokens.len() {
            match punct_at(tokens, i) {
                Some('<') => depth += 1,
                Some('>') if punct_at(tokens, i.wrapping_sub(1)) != Some('-') => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    // Parameter list.
    if punct_at(tokens, i) != Some('(') {
        return None;
    }
    let mut depth = 0i64;
    while i < tokens.len() {
        match punct_at(tokens, i) {
            Some('(') => depth += 1,
            Some(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i += 1;

    // Return type / where clause: scan to the body `{` or a terminating
    // `;` (trait method declaration) at bracket depth 0.
    let mut depth = 0i64;
    let mut body = 0..0;
    while i < tokens.len() {
        match punct_at(tokens, i) {
            Some('(') | Some('[') => depth += 1,
            Some(')') | Some(']') => depth -= 1,
            Some(';') if depth == 0 => {
                i += 1;
                break;
            }
            Some('{') if depth == 0 => {
                let open = i;
                let mut braces = 0i64;
                while i < tokens.len() {
                    match punct_at(tokens, i) {
                        Some('{') => braces += 1,
                        Some('}') => {
                            braces -= 1;
                            if braces == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                body = open + 1..i.min(tokens.len());
                i = (i + 1).min(tokens.len());
                break;
            }
            _ => {}
        }
        i += 1;
    }

    Some((
        FnItem {
            name,
            sig_line,
            body,
            hot: false,
        },
        i,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn tree_of(src: &str) -> ItemTree {
        let lexed = lexer::lex(src);
        parse(&lexed.tokens, &lexed.hot_markers)
    }

    #[test]
    fn fns_and_bodies_are_found() {
        let src = "
            pub fn alpha(x: u64) -> u64 { x + 1 }
            impl Foo {
                fn beta(&mut self, mem: &mut MemorySystem) { mem.load(); }
            }
            trait T { fn gamma(&self); }
        ";
        let tree = tree_of(src);
        let names: Vec<&str> = tree.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta", "gamma"]);
        assert!(!tree.fns[0].body.is_empty());
        assert!(tree.fns[2].body.is_empty(), "bodyless trait method");
    }

    #[test]
    fn generics_with_fn_bounds_are_skipped() {
        let src = "fn f<F: FnMut(u64) -> u64, T: Ord>(g: F, x: Vec<(u64, T)>) -> u64 { g(0) }";
        let tree = tree_of(src);
        assert_eq!(tree.fns.len(), 1);
        assert_eq!(tree.fns[0].name, "f");
        assert!(!tree.fns[0].body.is_empty());
    }

    #[test]
    fn markers_attach_to_next_fn() {
        let src = "
            fn a() {}
            // tbpoint-hot
            fn b() {}
            fn c() {}
        ";
        let tree = tree_of(src);
        let hot: Vec<bool> = tree.fns.iter().map(|f| f.hot).collect();
        assert_eq!(hot, vec![false, true, false]);
        assert!(tree.dangling.is_empty());
    }

    #[test]
    fn dangling_markers_are_reported() {
        let src = "
            fn a() {}
            // tbpoint-hot
        ";
        let tree = tree_of(src);
        assert!(!tree.fns[0].hot);
        assert_eq!(tree.dangling, vec![3]);
    }
}
