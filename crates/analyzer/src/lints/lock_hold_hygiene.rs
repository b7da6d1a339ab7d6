//! Lint: **lock-hold-hygiene** — never call user code while holding a lock.
//!
//! The lock on a level's shared work iterator serialises the reduction workers; a
//! user `Filter` (any `dyn`-trait value) invoked *while that guard is live* turns
//! one slow or re-entrant filter into a convoy of every worker — or, if the filter
//! itself reaches back into the network, a deadlock.  The discipline that keeps
//! the level-parallel walk safe is structural: take the item out under the lock,
//! drop the guard, then run the filter.  This lint enforces exactly that shape.
//!
//! Mechanically: within each function, any `let` binding whose initialiser calls
//! `.lock()`/`.try_lock()` at its top level opens a *guard-live region* that ends
//! at the binding's enclosing block or an explicit `drop(guard)`.  Inside the
//! region, any use of a parameter whose declared type mentions `dyn` is flagged.
//! (Uses include method calls, indexing and being passed as an argument — all of
//! them run or expose user code under the lock.)

use crate::config::Config;
use crate::lexer::Tok;
use crate::report::Finding;
use crate::source::SourceFile;

use super::{is_keyword, skip_group, Lint};

/// See the module docs.
pub struct LockHoldHygiene;

const ID: &str = "lock-hold-hygiene";

impl Lint for LockHoldHygiene {
    fn id(&self) -> &'static str {
        ID
    }

    fn summary(&self) -> &'static str {
        "no dyn-trait (user filter) use while a MutexGuard is live in scope"
    }

    fn check(&self, file: &SourceFile, _config: &Config, out: &mut Vec<Finding>) {
        let mut i = 0;
        while i < file.tokens.len() {
            if let Some("fn") = file.ident(i) {
                if let Some(func) = parse_fn(file, i) {
                    if !func.tainted.is_empty() {
                        check_body(file, &func, out);
                    }
                    i = func.body_end.max(i + 1);
                    continue;
                }
            }
            i += 1;
        }
    }
}

/// A function whose signature declared `dyn`-typed parameters.
struct FnInfo {
    /// Parameter names whose type mentions `dyn`.
    tainted: Vec<String>,
    /// Token index of the body `{`.
    body_start: usize,
    /// Token index just past the body `}`.
    body_end: usize,
}

/// Parse the signature starting at the `fn` keyword token.
fn parse_fn(file: &SourceFile, fn_idx: usize) -> Option<FnInfo> {
    // fn NAME [<generics>] ( params ) [-> ret] [where ...] { body }
    let mut i = fn_idx + 1;
    file.ident(i)?; // the function name
    i += 1;
    if file.punct(i) == Some('<') {
        let mut depth = 0i32;
        while i < file.tokens.len() {
            match file.punct(i) {
                Some('<') => depth += 1,
                Some('>') => {
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
    if file.punct(i) != Some('(') {
        return None;
    }
    let params_end = skip_group(file, i);
    let tainted = tainted_params(file, i + 1, params_end.saturating_sub(1));
    // Find the body `{` (or give up at `;` — a trait method without a body).
    let mut j = params_end;
    while j < file.tokens.len() {
        match file.punct(j) {
            Some('{') => break,
            Some(';') => return None,
            _ => {}
        }
        j += 1;
    }
    if j >= file.tokens.len() {
        return None;
    }
    let body_end = skip_group(file, j);
    Some(FnInfo {
        tainted,
        body_start: j,
        body_end,
    })
}

/// Collect the names of parameters whose type mentions `dyn`, from the token range
/// between the parens of a parameter list.
fn tainted_params(file: &SourceFile, start: usize, end: usize) -> Vec<String> {
    let mut tainted = Vec::new();
    let mut depth = 0i32;
    let mut param_start = start;
    let mut i = start;
    let commit = |param_start: usize, param_end: usize, tainted: &mut Vec<String>| {
        let tokens = &file.tokens[param_start..param_end];
        let colon = tokens.iter().position(|t| matches!(t.tok, Tok::Punct(':')));
        let Some(colon) = colon else { return };
        let has_dyn = tokens[colon..]
            .iter()
            .any(|t| matches!(&t.tok, Tok::Ident(n) if n == "dyn"));
        if !has_dyn {
            return;
        }
        for t in &tokens[..colon] {
            if let Tok::Ident(name) = &t.tok {
                if !is_keyword(name) && name != "_" {
                    tainted.push(name.clone());
                }
            }
        }
    };
    while i < end {
        match file.punct(i) {
            Some('(' | '[' | '<') => depth += 1,
            Some(')' | ']' | '>') => depth -= 1,
            Some(',') if depth == 0 => {
                commit(param_start, i, &mut tainted);
                param_start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    commit(param_start, end, &mut tainted);
    tainted
}

/// An active guard binding.
struct Guard {
    name: String,
    /// Brace depth (relative to the body) the binding lives at; the guard dies
    /// when a `}` brings the depth below this.
    depth: i32,
    line: u32,
}

fn check_body(file: &SourceFile, func: &FnInfo, out: &mut Vec<Finding>) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut i = func.body_start;
    while i < func.body_end {
        match &file.tokens[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
            }
            Tok::Ident(kw) if kw == "let" => {
                if let Some((names, after)) = guard_binding(file, i, func.body_end) {
                    for name in names {
                        guards.push(Guard {
                            name,
                            depth,
                            line: file.tokens[i].line,
                        });
                    }
                    i = after;
                    continue;
                }
            }
            // drop(name) releases that guard early.
            Tok::Ident(kw) if kw == "drop" && file.punct(i + 1) == Some('(') => {
                if let Some(name) = file.ident(i + 2) {
                    if file.punct(i + 3) == Some(')') {
                        guards.retain(|g| g.name != name);
                    }
                }
            }
            Tok::Ident(name)
                if !guards.is_empty()
                    && func.tainted.iter().any(|t| t == name)
                    && !file.is_test(i) =>
            {
                let line = file.tokens[i].line;
                let held: Vec<&str> = guards.iter().map(|g| g.name.as_str()).collect();
                out.push(Finding::new(
                    ID,
                    file,
                    line,
                    format!(
                        "dyn-trait parameter `{name}` used while MutexGuard `{}` (taken on \
                         line {}) is live: user code under a pool lock convoys every worker; \
                         extract the data, drop the guard, then call the filter",
                        held.join("`, `"),
                        guards.first().map(|g| g.line).unwrap_or(0),
                    ),
                ));
            }
            _ => {}
        }
        i += 1;
    }
}

/// If the `let` at `let_idx` binds the result of a top-level `.lock()` /
/// `.try_lock()` call, return the bound (lowercase) names and the index just past
/// the statement's `;`.
fn guard_binding(file: &SourceFile, let_idx: usize, limit: usize) -> Option<(Vec<String>, usize)> {
    // Pattern: everything up to the top-level `=`.
    let mut i = let_idx + 1;
    let mut depth = 0i32;
    let mut names = Vec::new();
    while i < limit {
        match &file.tokens[i].tok {
            Tok::Punct('(' | '[' | '<') => depth += 1,
            Tok::Punct(')' | ']' | '>') => depth -= 1,
            Tok::Punct('=') if depth == 0 && file.punct(i + 1) != Some('=') => break,
            Tok::Punct(';') => return None, // `let x;` — no initialiser
            // Skip enum constructors like Ok/Some in `if let Ok(g) = ...`.
            Tok::Ident(n)
                if !is_keyword(n)
                    && n != "_"
                    && !n.chars().next().is_some_and(|c| c.is_uppercase()) =>
            {
                names.push(n.clone());
            }
            _ => {}
        }
        i += 1;
    }
    if i >= limit || names.is_empty() {
        return None;
    }
    // Initialiser: scan to the terminating `;` at balance 0; a `.lock(` at
    // brace-balance 0 makes this a guard binding (a lock taken inside a nested
    // block `{ ... }` belongs to that block's own binding, not this one).
    let init_start = i + 1;
    let mut j = init_start;
    let mut brace = 0i32;
    let mut paren = 0i32;
    let mut is_guard = false;
    while j < limit {
        match &file.tokens[j].tok {
            Tok::Punct('{') => brace += 1,
            Tok::Punct('}') => brace -= 1,
            Tok::Punct('(') => paren += 1,
            Tok::Punct(')') => paren -= 1,
            Tok::Punct(';') if brace == 0 && paren == 0 => break,
            Tok::Ident(m)
                if brace == 0
                    && (m == "lock" || m == "try_lock")
                    && file.punct(j - 1) == Some('.')
                    && file.punct(j + 1) == Some('(') =>
            {
                is_guard = true;
            }
            _ => {}
        }
        j += 1;
    }
    if is_guard {
        Some((names, j + 1))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("crates/x/src/a.rs", src, &[ID]);
        let mut out = Vec::new();
        LockHoldHygiene.check(&file, &Config::workspace(), &mut out);
        out
    }

    #[test]
    fn dyn_call_under_live_guard_is_flagged() {
        let src = "fn run(queue: &Mutex<Q>, filter: &dyn Filter) {\n  \
                   let mut q = queue.lock().ok();\n  filter.reduce(id, &inputs);\n}\n";
        let findings = run(src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("filter"));
    }

    #[test]
    fn call_after_scope_block_is_clean() {
        let src = "fn run(queue: &Mutex<Q>, filter: &dyn Filter) {\n  let batch = {\n    \
                   let mut q = queue.lock().ok();\n    q.pop()\n  };\n  \
                   filter.reduce(id, &batch);\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn call_after_explicit_drop_is_clean() {
        let src = "fn run(queue: &Mutex<Q>, filter: &dyn Filter) {\n  \
                   let mut q = queue.lock().ok();\n  let b = q.take();\n  drop(q);\n  \
                   filter.reduce(id, &b);\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn dyn_slice_indexing_under_guard_is_flagged() {
        let src = "fn run(queue: &Mutex<Q>, filters: &[&dyn Filter]) {\n  \
                   let q = queue.lock().ok();\n  filters[0].reduce(id, &w);\n}\n";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn functions_without_dyn_params_are_skipped() {
        let src = "fn run(queue: &Mutex<Q>) {\n  let q = queue.lock().ok();\n  \
                   helper(&q);\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn non_guard_bindings_do_not_taint() {
        let src = "fn run(filter: &dyn Filter) {\n  let x = compute();\n  \
                   filter.reduce(id, &x);\n}\n";
        assert!(run(src).is_empty());
    }
}
