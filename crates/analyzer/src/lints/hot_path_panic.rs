//! Lint: **hot-path-panic** — panic-freedom on the TBON hot path.
//!
//! At 208K cores a tool-side panic is indistinguishable from the hang the tool is
//! diagnosing (and on a worker thread of the level-parallel reduction walk it
//! costs the whole level its result).  The modules designated hot-path in the
//! [`Config`] — the network walk, the packet layer, the prefix tree, the task-set
//! word math and the wire codec — must therefore report typed errors instead of
//! panicking: no `unwrap`/`expect`, no
//! `panic!`/`todo!`/`unreachable!`/`unimplemented!`, and no unwaived slice/array
//! indexing (every `x[i]` is a hidden `panic!`).
//!
//! `#[cfg(test)]` code is exempt; everything else either gets a typed error path
//! or carries a waiver whose reason states the invariant that makes the site
//! infallible.

use crate::config::Config;
use crate::lexer::Tok;
use crate::report::Finding;
use crate::source::SourceFile;

use super::{is_keyword, Lint};

/// See the module docs.
pub struct HotPathPanic;

const ID: &str = "hot-path-panic";

impl Lint for HotPathPanic {
    fn id(&self) -> &'static str {
        ID
    }

    fn summary(&self) -> &'static str {
        "no unwrap/expect/panic!/todo!/slice-index in designated hot-path modules"
    }

    fn check(&self, file: &SourceFile, config: &Config, out: &mut Vec<Finding>) {
        if !config.is_hot_path(&file.rel_path) {
            return;
        }
        for (i, token) in file.tokens.iter().enumerate() {
            if file.is_test(i) {
                continue;
            }
            match &token.tok {
                Tok::Ident(name) if name == "unwrap" || name == "expect" => {
                    // Only the method form `.unwrap()` / `.expect(` — identifiers
                    // like `unwrap_or` lex as distinct tokens and never match.
                    let is_method = i > 0 && file.punct(i - 1) == Some('.');
                    let is_call = file.punct(i + 1) == Some('(');
                    if is_method && is_call {
                        out.push(Finding::new(
                            ID,
                            file,
                            token.line,
                            format!(
                                ".{name}() on the hot path: a failed {name} is a tool panic at \
                                 scale; return a typed error (TbonError/StatError/DecodeError) \
                                 or waive with the invariant that makes it infallible"
                            ),
                        ));
                    }
                }
                Tok::Ident(name)
                    if matches!(
                        name.as_str(),
                        "panic" | "todo" | "unimplemented" | "unreachable"
                    ) && file.punct(i + 1) == Some('!') =>
                {
                    out.push(Finding::new(
                        ID,
                        file,
                        token.line,
                        format!(
                            "{name}! on the hot path: the tool must degrade to a typed \
                             error, never abort mid-reduction"
                        ),
                    ));
                }
                Tok::Punct('[') if is_index_expression(file, i) => {
                    out.push(Finding::new(
                        ID,
                        file,
                        token.line,
                        "slice/array index on the hot path is a hidden panic!: use \
                         .get()/.get_mut() with a typed error, or waive with the bound \
                         that keeps the index in range"
                            .to_string(),
                    ));
                }
                _ => {}
            }
        }
    }
}

/// Whether the `[` at `i` starts an index (or slicing) expression rather than an
/// array type/literal, attribute, or macro delimiter: true when the previous token
/// could end an expression (identifier that is not a keyword, `)`, `]`, or a
/// literal).
fn is_index_expression(file: &SourceFile, i: usize) -> bool {
    if i == 0 {
        return false;
    }
    match &file.tokens[i - 1].tok {
        Tok::Ident(prev) => !is_keyword(prev),
        Tok::Punct(')') | Tok::Punct(']') => true,
        Tok::Str | Tok::Num(_) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("crates/x/src/hot.rs", src, &[ID]);
        let mut cfg = Config::workspace();
        cfg.hot_path_modules = vec!["hot.rs".to_string()];
        let mut out = Vec::new();
        HotPathPanic.check(&file, &cfg, &mut out);
        out
    }

    #[test]
    fn flags_the_panicking_family() {
        let findings = run(
            "fn f() {\n  x.unwrap();\n  y.expect(\"m\");\n  panic!(\"no\");\n  todo!();\n  \
             unreachable!();\n}\n",
        );
        assert_eq!(findings.len(), 5);
    }

    #[test]
    fn flags_indexing_but_not_types_or_macros() {
        let findings = run(
            "fn f(v: &[u64], m: &mut [u64]) -> [u8; 4] {\n  let a = v[0];\n  let b = v[1..3];\n  \
             let c: Vec<u64> = vec![0; 4];\n  let d = [1, 2];\n  let e = (x)[0];\n  d\n}\n",
        );
        // v[0], v[1..3], (x)[0] — not the param types, vec![..], or the array literal.
        assert_eq!(findings.len(), 3);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        assert!(run("fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); }\n").is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        assert!(run("#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); v[0]; }\n}\n").is_empty());
    }

    #[test]
    fn non_hot_path_files_are_ignored() {
        let file = SourceFile::parse("crates/x/src/cold.rs", "fn f() { x.unwrap(); }", &[ID]);
        let mut cfg = Config::workspace();
        cfg.hot_path_modules = vec!["hot.rs".to_string()];
        let mut out = Vec::new();
        HotPathPanic.check(&file, &cfg, &mut out);
        assert!(out.is_empty());
    }
}
