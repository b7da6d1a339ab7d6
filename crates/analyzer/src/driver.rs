//! The analysis driver: file discovery, lint execution, waiver application and
//! budget accounting.
//!
//! Lints emit *raw* findings; the driver is the only place that consults waivers.
//! A waiver that suppresses at least one finding is "used" and counts against its
//! lint's budget; a waiver that suppresses nothing becomes an `unused-waiver`
//! finding (stale waivers rot into lies), and a malformed waiver comment becomes
//! an `invalid-waiver` finding.  Neither pseudo-lint is itself waivable.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::lints::{registry, INVALID_WAIVER, UNUSED_WAIVER};
use crate::report::{Finding, Report, WaiverUsage};
use crate::source::SourceFile;

/// Directory names never descended into during discovery.
const SKIP_DIRS: &[&str] = &[
    "target", "vendor", "fixtures", "tests", "examples", "benches", ".git",
];

/// Analyze a set of `(relative path, source)` pairs under one policy.
pub fn analyze_sources(sources: &[(String, String)], config: &Config) -> Report {
    let lints = registry();
    let known: Vec<&'static str> = lints.iter().map(|l| l.id()).collect();
    let mut report = Report {
        files_scanned: sources.len(),
        ..Report::default()
    };
    let mut used_by_lint: Vec<(String, usize)> = Vec::new();
    let mut pub_items: BTreeMap<&str, usize> = BTreeMap::new();
    for (rel, src) in sources {
        let file = SourceFile::parse(rel, src, &known);
        *pub_items.entry(crate_of(rel)).or_default() += file.pub_item_count();
        let mut raw = Vec::new();
        for lint in &lints {
            lint.check(&file, config, &mut raw);
        }
        let mut used = vec![false; file.waivers.len()];
        for finding in raw {
            match file
                .waivers
                .iter()
                .position(|w| w.suppresses(finding.lint, finding.line))
            {
                Some(ix) => used[ix] = true,
                None => report.findings.push(finding),
            }
        }
        for (ix, waiver) in file.waivers.iter().enumerate() {
            if used[ix] {
                match used_by_lint.iter_mut().find(|(l, _)| *l == waiver.lint) {
                    Some((_, n)) => *n += 1,
                    None => used_by_lint.push((waiver.lint.clone(), 1)),
                }
            } else {
                report.findings.push(Finding::new(
                    UNUSED_WAIVER,
                    &file,
                    waiver.line,
                    format!(
                        "waiver for `{}` suppresses nothing: stale waivers misdocument the \
                         code; delete it (or fix the lint id/scope)",
                        waiver.lint
                    ),
                ));
            }
        }
        for (line, why) in &file.invalid_waivers {
            report.findings.push(Finding::new(
                INVALID_WAIVER,
                &file,
                *line,
                format!("malformed stat-analyzer waiver: {why}"),
            ));
        }
    }
    for lint in &lints {
        let used = used_by_lint
            .iter()
            .find(|(l, _)| l == lint.id())
            .map(|(_, n)| *n)
            .unwrap_or(0);
        report.waivers.push(WaiverUsage {
            lint: lint.id().to_string(),
            used,
            budget: config.budget(lint.id()),
        });
    }
    report.pub_items = pub_items
        .into_iter()
        .map(|(krate, count)| (krate.to_string(), count))
        .collect();
    report.sort();
    report
}

/// The crate a workspace-relative path belongs to: `crates/<name>/..` is `<name>`,
/// anything else its first path component (`src` is the umbrella crate).
fn crate_of(rel_path: &str) -> &str {
    let in_crates = rel_path.strip_prefix("crates/").unwrap_or(rel_path);
    in_crates.split('/').next().unwrap_or(in_crates)
}

/// Discover first-party sources under `root`: every `.rs` file beneath `crates/`
/// and `src/`, excluding `SKIP_DIRS` (vendored deps, build output, integration
/// tests, fixtures).  Paths come back sorted and workspace-relative.
pub fn discover_workspace_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut sources = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        sources.push((rel, src));
    }
    Ok(sources)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyze explicit files (absolute or cwd-relative) under one policy; `root` is
/// only used to relativize paths for the report.
pub fn analyze_paths(paths: &[PathBuf], root: &Path, config: &Config) -> io::Result<Report> {
    let mut sources = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(path)?;
        sources.push((rel, src));
    }
    Ok(analyze_sources(&sources, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_all_hot() -> Config {
        let mut cfg = Config::workspace();
        cfg.hot_path_modules = vec![".rs".to_string()];
        cfg.waiver_budgets = vec![("hot-path-panic".to_string(), 8)];
        cfg
    }

    #[test]
    fn a_waived_finding_is_suppressed_and_counted() {
        let src = "fn f() {\n  x.unwrap(); // stat-analyzer: allow(hot-path-panic) — \
                   checked two lines up\n}\n";
        let report = analyze_sources(&[("crates/a/src/l.rs".into(), src.into())], &cfg_all_hot());
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        let usage = report
            .waivers
            .iter()
            .find(|w| w.lint == "hot-path-panic")
            .unwrap();
        assert_eq!(usage.used, 1);
        assert!(report.is_clean());
    }

    #[test]
    fn an_unused_waiver_is_a_finding() {
        let src = "// stat-analyzer: allow(hot-path-panic) — nothing here\nfn f() {}\n";
        let report = analyze_sources(&[("crates/a/src/l.rs".into(), src.into())], &cfg_all_hot());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].lint, UNUSED_WAIVER);
        assert!(!report.is_clean());
    }

    #[test]
    fn a_malformed_waiver_is_a_finding() {
        let src = "fn f() {\n  x.unwrap(); // stat-analyzer: allow(hot-path-panic)\n}\n";
        let report = analyze_sources(&[("crates/a/src/l.rs".into(), src.into())], &cfg_all_hot());
        assert!(report.findings.iter().any(|f| f.lint == INVALID_WAIVER));
        // The bare allow does NOT suppress: the unwrap finding survives too.
        assert!(report.findings.iter().any(|f| f.lint == "hot-path-panic"));
    }

    #[test]
    fn budget_breach_makes_the_report_dirty() {
        let mut cfg = cfg_all_hot();
        cfg.waiver_budgets = vec![("hot-path-panic".to_string(), 0)];
        let src = "fn f() {\n  x.unwrap(); // stat-analyzer: allow(hot-path-panic) — reason\n}\n";
        let report = analyze_sources(&[("crates/a/src/l.rs".into(), src.into())], &cfg);
        assert!(report.findings.is_empty());
        assert!(
            !report.is_clean(),
            "over-budget waiver use must fail --deny"
        );
    }

    #[test]
    fn public_items_are_counted_per_crate_outside_tests() {
        let src = "pub fn a() {}\npub(crate) fn b() {}\npub struct S { pub field: u8 }\n\
                   pub use x::Y;\nimpl S { pub const fn c(&self) {} }\n\
                   #[macro_export]\nmacro_rules! m { () => {} }\n\
                   #[cfg(test)]\nmod tests { pub fn hidden() {} }\n";
        let report = analyze_sources(
            &[
                ("crates/b/src/l.rs".into(), src.into()),
                ("crates/a/src/l.rs".into(), "pub mod x;\n".into()),
                ("crates/a/src/x.rs".into(), "pub trait T {}\n".into()),
                ("src/lib.rs".into(), "fn private() {}\n".into()),
            ],
            &cfg_all_hot(),
        );
        // `a`, `S`, `c` and the exported macro; not the restricted fn, the field,
        // the re-export or the test-only fn.
        assert_eq!(
            report.pub_items,
            vec![("a".into(), 2), ("b".into(), 4), ("src".into(), 0)]
        );
    }

    #[test]
    fn findings_from_many_files_come_back_sorted() {
        let bad = "fn f() { x.unwrap(); }\n".to_string();
        let report = analyze_sources(
            &[
                ("crates/b/src/z.rs".into(), bad.clone()),
                ("crates/a/src/a.rs".into(), bad),
            ],
            &cfg_all_hot(),
        );
        assert_eq!(report.findings.len(), 2);
        assert!(report.findings[0].file < report.findings[1].file);
    }
}
