//! Lint: **condvar-discipline** — every wait sits in a predicate loop, every
//! condvar is declared beside its mutex.
//!
//! The instruction-driven multicore-debugging literature (PAPERS.md) singles out
//! synchronisation points as the thing worth checking mechanically.  The
//! workspace holds no `Condvar` today — the reduction walk's barrier is a
//! `thread::scope` join — so this lint is the gate on the next one, and the rules
//! are the two that keep a parked worker from hanging:
//!
//! 1. `Condvar::wait` returns on spurious wakeups, so a wait that is not
//!    re-checking its predicate inside a `loop`/`while` is a latent lost-wakeup
//!    hang — at scale, indistinguishable from the application hang under
//!    diagnosis.  (`wait_while`/`wait_timeout_while` loop internally and are
//!    accepted anywhere.)
//! 2. A `Condvar` must be *declared together with* the `Mutex` guarding its
//!    predicate (same tuple, same struct, same statement) so the pairing is
//!    visible where the types are chosen, not four files away.

use crate::config::Config;
use crate::lexer::Tok;
use crate::report::Finding;
use crate::source::SourceFile;

use super::Lint;

/// See the module docs.
pub struct CondvarDiscipline;

const ID: &str = "condvar-discipline";

/// How many lines around a `Condvar` mention may contain its `Mutex` partner for
/// the declaration to count as "declared together".
const PAIR_WINDOW: u32 = 2;

impl Lint for CondvarDiscipline {
    fn id(&self) -> &'static str {
        ID
    }

    fn summary(&self) -> &'static str {
        "Condvar::wait must sit in a predicate loop; Condvar and its Mutex are declared together"
    }

    fn check(&self, file: &SourceFile, _config: &Config, out: &mut Vec<Finding>) {
        self.check_waits(file, out);
        self.check_pairing(file, out);
    }
}

impl CondvarDiscipline {
    fn check_waits(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        // Track brace blocks; a block is "looping" if its header (the tokens since
        // the previous `;`/`{`/`}`) contains `loop`, `while` or `for`.
        let mut stack: Vec<bool> = Vec::new();
        let mut header_start = 0usize;
        for (i, token) in file.tokens.iter().enumerate() {
            match &token.tok {
                Tok::Punct('{') => {
                    let looping = file.tokens[header_start..i].iter().any(|t| {
                        matches!(&t.tok, Tok::Ident(w) if w == "loop" || w == "while" || w == "for")
                    });
                    stack.push(looping);
                    header_start = i + 1;
                }
                Tok::Punct('}') => {
                    stack.pop();
                    header_start = i + 1;
                }
                Tok::Punct(';') => header_start = i + 1,
                Tok::Ident(name) if name == "wait" || name == "wait_timeout" => {
                    let is_method = i > 0 && file.punct(i - 1) == Some('.');
                    let is_call = file.punct(i + 1) == Some('(');
                    if is_method && is_call && !file.is_test(i) && !stack.iter().any(|&l| l) {
                        out.push(Finding::new(
                            ID,
                            file,
                            token.line,
                            format!(
                                ".{name}() outside a predicate loop: Condvar waits return on \
                                 spurious wakeups, so re-check the predicate in a loop/while \
                                 (or use wait_while)"
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
    }

    fn check_pairing(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let mutex_lines: Vec<u32> = file
            .tokens
            .iter()
            .filter(|t| matches!(&t.tok, Tok::Ident(n) if n == "Mutex" || n == "RwLock"))
            .map(|t| t.line)
            .collect();
        for (i, token) in file.tokens.iter().enumerate() {
            let Tok::Ident(name) = &token.tok else {
                continue;
            };
            if name != "Condvar" || file.is_test(i) {
                continue;
            }
            let line = token.line;
            let paired = mutex_lines.iter().any(|&m| m.abs_diff(line) <= PAIR_WINDOW);
            if !paired {
                out.push(Finding::new(
                    ID,
                    file,
                    line,
                    "Condvar declared away from its Mutex: declare the guard pair together \
                     (same tuple/struct/statement) so the predicate they protect is auditable"
                        .to_string(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("crates/x/src/a.rs", src, &[ID]);
        let mut out = Vec::new();
        CondvarDiscipline.check(&file, &Config::workspace(), &mut out);
        out
    }

    #[test]
    fn wait_in_loop_is_clean() {
        let src = "fn f(pair: &(Mutex<bool>, Condvar)) {\n  let (m, cv) = pair;\n  \
                   let mut g = m.lock().ok();\n  loop {\n    if done { break; }\n    \
                   g = cv.wait(g).ok();\n  }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn wait_in_while_predicate_is_clean() {
        let src = "fn f() { while !*started { started = cv.wait(started).ok(); } }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn naked_wait_is_flagged() {
        let src = "fn f(pair: &(Mutex<bool>, Condvar)) {\n  let g = pair.0.lock().ok();\n  \
                   if !done {\n    let _g = pair.1.wait(g);\n  }\n}\n";
        let findings = run(src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("spurious"));
    }

    #[test]
    fn wait_while_is_accepted_anywhere() {
        let src = "fn f() { let g = cv.wait_while(g, |q| q.is_empty()).ok(); }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn lone_condvar_declaration_is_flagged() {
        let src = "struct Pool {\n  queue: Vec<u64>,\n  cv: Condvar,\n}\n\nstruct Elsewhere {\n  \
                   m: Mutex<u64>,\n}\n";
        let findings = run(src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("guard pair"));
    }

    #[test]
    fn paired_declaration_is_clean() {
        let src = "let queue = (Mutex::new(Q::default()), Condvar::new());\n";
        assert!(run(src).is_empty());
    }
}
