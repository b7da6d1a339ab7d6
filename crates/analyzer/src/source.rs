//! Per-file source model: tokens, `#[cfg(test)]` regions, and waivers.
//!
//! Every lint sees the file through this lens, so the rules about what counts as
//! test code and how waivers attach to lines are decided once, here, instead of
//! being re-derived (differently) per lint.

use crate::lexer::{self, Comment, Tok, Token};
use crate::waiver::{Waiver, WaiverParse, WaiverScope};

/// Keywords that can follow `pub` at the head of an item.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "union", "unsafe", "async",
    "extern",
];

/// A lexed source file plus the derived structure lints need.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators (stable across
    /// platforms so reports and golden tests compare byte-for-byte).
    pub rel_path: String,
    /// Raw source lines (for report snippets).
    pub lines: Vec<String>,
    /// The token stream (comments excluded).
    pub tokens: Vec<Token>,
    /// Comments, in order.
    pub comments: Vec<Comment>,
    /// Per-token flag: is this token inside a `#[cfg(test)]` / `#[test]` item?
    pub in_test: Vec<bool>,
    /// Waivers declared in this file, with resolved line coverage.
    pub waivers: Vec<Waiver>,
    /// Waiver comments that failed to parse (bare allows, unknown lints, syntax
    /// errors) — each becomes an unwaivable `invalid-waiver` finding.
    pub invalid_waivers: Vec<(u32, String)>,
}

impl SourceFile {
    /// Lex and classify one file.  `known_lints` is the set of valid lint ids a
    /// waiver may name; anything else is rejected as invalid.
    pub fn parse(rel_path: &str, src: &str, known_lints: &[&str]) -> SourceFile {
        let (tokens, comments) = lexer::lex(src);
        let in_test = mark_test_regions(&tokens);
        let lines: Vec<String> = src.lines().map(|l| l.to_string()).collect();
        let mut waivers = Vec::new();
        let mut invalid_waivers = Vec::new();
        for comment in &comments {
            // Doc comments (`///`, `//!`, `/** */`, `/*! */`) are documentation
            // *about* waivers, never waivers themselves — skip them so writing
            // out the syntax in rustdoc doesn't register as a malformed waiver.
            let body = comment
                .text
                .strip_prefix("//")
                .or_else(|| comment.text.strip_prefix("/*"))
                .unwrap_or(&comment.text);
            if body.starts_with(['/', '!', '*']) {
                continue;
            }
            match Waiver::parse(comment, known_lints) {
                WaiverParse::NotAWaiver => {}
                WaiverParse::Invalid(reason) => invalid_waivers.push((comment.line, reason)),
                WaiverParse::Valid(mut waiver) => {
                    resolve_coverage(&mut waiver, comment, &tokens);
                    waivers.push(waiver);
                }
            }
        }
        SourceFile {
            rel_path: rel_path.to_string(),
            lines,
            tokens,
            comments,
            in_test,
            waivers,
            invalid_waivers,
        }
    }

    /// The source text of a 1-based line, for report snippets.
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|s| s.as_str())
            .unwrap_or("")
    }

    /// Whether the token at `idx` is inside a test region.
    pub fn is_test(&self, idx: usize) -> bool {
        self.in_test.get(idx).copied().unwrap_or(false)
    }

    /// The identifier text of token `idx`, if it is an identifier.
    pub fn ident(&self, idx: usize) -> Option<&str> {
        match self.tokens.get(idx).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Public items declared outside test regions: every `pub` that heads an item
    /// (not a field, a `pub use` re-export or a restricted `pub(...)`), plus every
    /// `#[macro_export]`.  The per-crate sum is the API-size number reviews track.
    pub fn pub_item_count(&self) -> usize {
        (0..self.tokens.len())
            .filter(|&i| !self.is_test(i))
            .filter(|&i| match self.ident(i) {
                Some("pub") => self
                    .ident(i + 1)
                    .is_some_and(|next| ITEM_KEYWORDS.contains(&next)),
                Some("macro_export") => true,
                _ => false,
            })
            .count()
    }

    /// The punctuation char of token `idx`, if it is punctuation.
    pub fn punct(&self, idx: usize) -> Option<char> {
        match self.tokens.get(idx).map(|t| &t.tok) {
            Some(Tok::Punct(c)) => Some(*c),
            _ => None,
        }
    }
}

/// Mark every token that sits inside an item annotated `#[cfg(test)]` (or any
/// `cfg(...)` whose predicate mentions `test` outside a `not(...)`), `#[test]` or
/// `#[bench]`.  The item body is found by brace matching; attribute-only items
/// (`#[cfg(test)] use x;`) cover through their terminating semicolon.
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].tok == Tok::Punct('#')
            && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
        {
            // Collect the attribute tokens up to the matching `]`.
            let attr_start = i + 2;
            let mut depth = 1usize;
            let mut j = attr_start;
            while j < tokens.len() && depth > 0 {
                match tokens[j].tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            let attr = &tokens[attr_start..j.saturating_sub(1)];
            if is_test_attribute(attr) {
                // Skip any further attributes between this one and the item.
                let mut item = j;
                while item < tokens.len() && tokens[item].tok == Tok::Punct('#') {
                    let mut d = 0usize;
                    item += 1; // the `[`
                    loop {
                        match tokens.get(item).map(|t| &t.tok) {
                            Some(Tok::Punct('[')) => d += 1,
                            Some(Tok::Punct(']')) => {
                                d -= 1;
                                if d == 0 {
                                    item += 1;
                                    break;
                                }
                            }
                            None => break,
                            _ => {}
                        }
                        item += 1;
                    }
                }
                // The item body: everything through the matching `}` of the first
                // brace, or through the first `;` if no brace opens first.
                let mut k = item;
                let mut brace = 0usize;
                let mut opened = false;
                while k < tokens.len() {
                    match tokens[k].tok {
                        Tok::Punct('{') => {
                            brace += 1;
                            opened = true;
                        }
                        Tok::Punct('}') => {
                            brace = brace.saturating_sub(1);
                            if opened && brace == 0 {
                                break;
                            }
                        }
                        Tok::Punct(';') if !opened => break,
                        _ => {}
                    }
                    k += 1;
                }
                for flag in in_test.iter_mut().take((k + 1).min(tokens.len())).skip(i) {
                    *flag = true;
                }
                i = k + 1;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    in_test
}

/// Whether an attribute's token list marks a test item: `test`, `bench`, or a
/// `cfg(...)` predicate mentioning `test` outside `not(...)`.
fn is_test_attribute(attr: &[Token]) -> bool {
    let head = match attr.first().map(|t| &t.tok) {
        Some(Tok::Ident(s)) => s.as_str(),
        _ => return false,
    };
    match head {
        "test" | "bench" => true,
        "cfg" | "cfg_attr" => {
            for (idx, t) in attr.iter().enumerate() {
                if let Tok::Ident(name) = &t.tok {
                    if name == "test" {
                        // `cfg(not(test))` is live code, not test code.
                        let negated = idx >= 2
                            && matches!(&attr[idx - 1].tok, Tok::Punct('('))
                            && matches!(&attr[idx - 2].tok, Tok::Ident(n) if n == "not");
                        if !negated {
                            return true;
                        }
                    }
                }
            }
            false
        }
        _ => false,
    }
}

/// Resolve which source lines a waiver covers.
fn resolve_coverage(waiver: &mut Waiver, comment: &Comment, tokens: &[Token]) {
    match waiver.scope {
        WaiverScope::Line => {
            if comment.trailing {
                waiver.covers = comment.line..comment.line + 1;
            } else {
                // Standalone: covers the next line that carries any token.
                let next = tokens
                    .iter()
                    .map(|t| t.line)
                    .find(|&l| l > comment.line)
                    .unwrap_or(comment.line);
                waiver.covers = next..next + 1;
            }
        }
        WaiverScope::Fn => {
            // Covers the body of the next `fn` item after the comment.
            let mut idx = None;
            for (i, t) in tokens.iter().enumerate() {
                if t.line > comment.line {
                    if let Tok::Ident(name) = &t.tok {
                        if name == "fn" {
                            idx = Some(i);
                            break;
                        }
                    }
                }
            }
            let Some(fn_idx) = idx else {
                waiver.covers = comment.line..comment.line;
                return;
            };
            let start_line = tokens[fn_idx].line;
            let mut brace = 0usize;
            let mut opened = false;
            let mut end_line = start_line;
            for t in &tokens[fn_idx..] {
                match t.tok {
                    Tok::Punct('{') => {
                        brace += 1;
                        opened = true;
                    }
                    Tok::Punct('}') => {
                        brace = brace.saturating_sub(1);
                        if opened && brace == 0 {
                            end_line = t.line;
                            break;
                        }
                    }
                    Tok::Punct(';') if !opened => {
                        end_line = t.line;
                        break;
                    }
                    _ => end_line = t.line,
                }
            }
            waiver.covers = start_line..end_line + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINTS: &[&str] = &["hot-path-panic", "truncating-cast"];

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n    fn t() { y.unwrap(); }\n}\n\
                   fn live2() {}\n";
        let f = SourceFile::parse("a.rs", src, LINTS);
        let unwraps: Vec<(usize, bool)> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(&t.tok, Tok::Ident(s) if s == "unwrap"))
            .map(|(i, _)| (i, f.is_test(i)))
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!unwraps[0].1, "unwrap in live code is not test");
        assert!(unwraps[1].1, "unwrap in cfg(test) mod is test");
        // Code after the test mod is live again.
        let live2 = f
            .tokens
            .iter()
            .enumerate()
            .find(|(_, t)| matches!(&t.tok, Tok::Ident(s) if s == "live2"))
            .map(|(i, _)| i)
            .unwrap();
        assert!(!f.is_test(live2));
    }

    #[test]
    fn test_attribute_marks_single_fn() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn live() { y.unwrap(); }\n";
        let f = SourceFile::parse("a.rs", src, LINTS);
        let unwraps: Vec<bool> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(&t.tok, Tok::Ident(s) if s == "unwrap"))
            .map(|(i, _)| f.is_test(i))
            .collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        let f = SourceFile::parse("a.rs", src, LINTS);
        let unwrap_idx = f
            .tokens
            .iter()
            .enumerate()
            .find(|(_, t)| matches!(&t.tok, Tok::Ident(s) if s == "unwrap"))
            .map(|(i, _)| i)
            .unwrap();
        assert!(!f.is_test(unwrap_idx));
    }

    #[test]
    fn trailing_waiver_covers_its_own_line() {
        let src = "let x = v[0]; // stat-analyzer: allow(hot-path-panic) — index 0 checked above\n";
        let f = SourceFile::parse("a.rs", src, LINTS);
        assert_eq!(f.waivers.len(), 1);
        assert_eq!(f.waivers[0].covers, 1..2);
    }

    #[test]
    fn standalone_waiver_covers_the_next_code_line() {
        let src = "// stat-analyzer: allow(hot-path-panic) — bounded by construction\n\
                   let x = v[0];\n";
        let f = SourceFile::parse("a.rs", src, LINTS);
        assert_eq!(f.waivers[0].covers, 2..3);
    }

    #[test]
    fn fn_scope_waiver_covers_the_whole_function() {
        let src = "// stat-analyzer: allow(hot-path-panic, fn) — arena indices never dangle\n\
                   fn walk(&self) {\n    let a = v[0];\n    let b = v[1];\n}\n\
                   fn after() { let c = v[2]; }\n";
        let f = SourceFile::parse("a.rs", src, LINTS);
        assert_eq!(f.waivers[0].covers, 2..6);
    }

    #[test]
    fn bare_allow_is_invalid() {
        let src = "let x = v[0]; // stat-analyzer: allow(hot-path-panic)\n";
        let f = SourceFile::parse("a.rs", src, LINTS);
        assert!(f.waivers.is_empty());
        assert_eq!(f.invalid_waivers.len(), 1);
    }

    #[test]
    fn unknown_lint_in_waiver_is_invalid() {
        let src = "// stat-analyzer: allow(no-such-lint) — because reasons\nlet x = 1;\n";
        let f = SourceFile::parse("a.rs", src, LINTS);
        assert!(f.waivers.is_empty());
        assert_eq!(f.invalid_waivers.len(), 1);
    }
}
