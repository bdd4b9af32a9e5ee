//! `no-alloc-in-hot-path`: functions annotated `tbpoint-hot` must not
//! allocate.
//!
//! PR 4/5 made the steady-state simulation loop allocation-free by hand
//! (reused scratch buffers, fixed arrays, `Vec::push` into pre-grown
//! buffers) and claimed so in comments. This rule turns the claim into a
//! checked property: mark the hot function with a plain `//` comment
//! line reading `tbpoint-hot` directly above it, and any construct that
//! allocates on every call — container constructors, `collect`,
//! `format!`/`vec!`, `to_string`/`to_owned`/`to_vec`, `clone` — becomes
//! an error. `Vec::push` on a caller-owned buffer stays legal: amortized
//! growth on a reused buffer is the intended idiom.

use super::{ident, punct, NO_ALLOC_IN_HOT_PATH};
use crate::lexer::Tok;
use crate::parser::ItemTree;
use crate::{Diagnostic, FileContext, Severity};

/// Container types whose associated constructors allocate (or set up an
/// allocation) when called per-iteration.
const ALLOC_TYPES: &[&str] = &[
    "Vec",
    "Box",
    "String",
    "VecDeque",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "HashMap",
    "HashSet",
    "Rc",
    "Arc",
];

/// Associated functions on the above that allocate.
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from", "default"];

/// Methods that allocate a fresh container/string per call.
const ALLOC_METHODS: &[&str] = &["collect", "to_string", "to_owned", "to_vec", "clone"];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Run the rule over one file.
pub fn check(ctx: &FileContext, tokens: &[Tok], tree: &ItemTree, out: &mut Vec<Diagnostic>) {
    for &line in &tree.dangling {
        out.push(
            ctx.diagnostic(
                NO_ALLOC_IN_HOT_PATH,
                Severity::Warning,
                line,
                "annotation attaches to no function (no `fn` at or below this line); \
             move it directly above the item it describes or remove it"
                    .to_string(),
            ),
        );
    }
    for f in &tree.fns {
        if !f.hot || f.body.is_empty() {
            continue;
        }
        for i in f.body.clone() {
            let Some(name) = ident(tokens.get(i)) else {
                continue;
            };
            let line = tokens[i].line;
            let prev = punct(tokens.get(i.wrapping_sub(1)));
            let next = punct(tokens.get(i + 1));
            let found = if ALLOC_TYPES.contains(&name)
                && next == Some(':')
                && punct(tokens.get(i + 2)) == Some(':')
                && ident(tokens.get(i + 3)).is_some_and(|m| ALLOC_CTORS.contains(&m))
            {
                ident(tokens.get(i + 3)).map(|m| format!("`{name}::{m}`"))
            } else if prev == Some('.')
                && ALLOC_METHODS.contains(&name)
                // `collect::<T>()` and `collect()` both start `.collect`
                && matches!(next, Some('(') | Some(':'))
            {
                Some(format!("`.{name}(..)`"))
            } else if ALLOC_MACROS.contains(&name) && next == Some('!') {
                Some(format!("`{name}!`"))
            } else {
                None
            };
            if let Some(found) = found {
                out.push(ctx.diagnostic(
                    NO_ALLOC_IN_HOT_PATH,
                    Severity::Error,
                    line,
                    format!(
                        "{found} allocates inside hot fn `{}`; the steady-state loop \
                         must reuse caller-owned scratch buffers (push into a \
                         pre-grown Vec, index into fixed arrays) instead of \
                         allocating per call",
                        f.name
                    ),
                ));
            }
        }
    }
}
