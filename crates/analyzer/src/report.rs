//! Findings and report assembly: human-readable and JSON output.
//!
//! The JSON shape is the stable machine interface (golden-tested); the human
//! report is for terminal use and may evolve freely.  Both are deterministic:
//! findings sort by `(file, line, lint, message)` and waiver accounting follows
//! registry order, so the same tree always produces byte-identical output.

use crate::source::SourceFile;

/// One lint hit at a specific source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The lint id (kebab-case, as registered).
    pub lint: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Why this is a problem and what to do instead.
    pub message: String,
    /// The trimmed source line, for context in reports.
    pub snippet: String,
}

impl Finding {
    /// Build a finding against `file` at `line`, capturing the line text as the
    /// snippet.
    pub fn new(lint: &'static str, file: &SourceFile, line: u32, message: String) -> Finding {
        Finding {
            lint,
            file: file.rel_path.clone(),
            line,
            message,
            snippet: file.line_text(line).trim().to_string(),
        }
    }
}

/// Waiver accounting for one lint: how many waivers are in use vs. allowed.
#[derive(Clone, Debug)]
pub struct WaiverUsage {
    /// The lint id.
    pub lint: String,
    /// Waivers actually suppressing a finding somewhere in the tree.
    pub used: usize,
    /// The committed budget from [`crate::config::Config::waiver_budgets`].
    pub budget: usize,
}

impl WaiverUsage {
    /// Whether use exceeds the committed budget.
    pub fn over_budget(&self) -> bool {
        self.used > self.budget
    }
}

/// The assembled result of an analyzer run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Unwaived findings, sorted by `(file, line, lint, message)`.
    pub findings: Vec<Finding>,
    /// Per-lint waiver accounting, in registry order.
    pub waivers: Vec<WaiverUsage>,
    /// Public items per crate ([`SourceFile::pub_item_count`] summed over the
    /// crate's files), sorted by crate: `crates/<name>/..` counts under `<name>`,
    /// anything else under its first path component (`src` is the umbrella crate).
    pub pub_items: Vec<(String, usize)>,
    /// Number of files analyzed.
    pub files_scanned: usize,
}

impl Report {
    /// Clean means zero findings and every lint within its waiver budget.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && !self.waivers.iter().any(WaiverUsage::over_budget)
    }

    /// Canonical ordering; called once by the driver after all files are merged.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.lint, a.message.as_str()).cmp(&(
                b.file.as_str(),
                b.line,
                b.lint,
                b.message.as_str(),
            ))
        });
    }

    /// Render the terminal report.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.file, f.line, f.lint, f.message
            ));
            if !f.snippet.is_empty() {
                out.push_str(&format!("    | {}\n", f.snippet));
            }
        }
        let usage: Vec<String> = self
            .waivers
            .iter()
            .map(|w| {
                let mark = if w.over_budget() { " OVER BUDGET" } else { "" };
                format!("{} {}/{}{}", w.lint, w.used, w.budget, mark)
            })
            .collect();
        out.push_str(&format!(
            "stat-analyzer: {} file(s), {} finding(s); waivers: {}\n",
            self.files_scanned,
            self.findings.len(),
            usage.join(", ")
        ));
        let surface: Vec<String> = self
            .pub_items
            .iter()
            .map(|(krate, count)| format!("{krate} {count}"))
            .collect();
        out.push_str(&format!("public items: {}\n", surface.join(", ")));
        out
    }

    /// Render the machine report (stable shape, golden-tested).
    pub fn json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"lint\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \
                 \"snippet\": {}}}",
                json_str(f.lint),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
                json_str(&f.snippet),
            ));
        }
        if self.findings.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        out.push_str("  \"waivers\": [");
        for (i, w) in self.waivers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"lint\": {}, \"used\": {}, \"budget\": {}}}",
                json_str(&w.lint),
                w.used,
                w.budget,
            ));
        }
        if self.waivers.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        out.push_str("  \"pub_items\": [");
        for (i, (krate, count)) in self.pub_items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"crate\": {}, \"count\": {count}}}",
                json_str(krate)
            ));
        }
        if self.pub_items.is_empty() {
            out.push_str("]\n");
        } else {
            out.push_str("\n  ]\n");
        }
        out.push_str("}\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: u32, lint: &'static str) -> Finding {
        Finding {
            lint,
            file: file.to_string(),
            line,
            message: "m".to_string(),
            snippet: "s".to_string(),
        }
    }

    #[test]
    fn sort_orders_by_file_then_line_then_lint() {
        let mut r = Report {
            findings: vec![
                finding("b.rs", 1, "a-lint"),
                finding("a.rs", 9, "z-lint"),
                finding("a.rs", 9, "a-lint"),
                finding("a.rs", 2, "z-lint"),
            ],
            waivers: vec![],
            pub_items: vec![],
            files_scanned: 2,
        };
        r.sort();
        let order: Vec<(String, u32, &str)> = r
            .findings
            .iter()
            .map(|f| (f.file.clone(), f.line, f.lint))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs".to_string(), 2, "z-lint"),
                ("a.rs".to_string(), 9, "a-lint"),
                ("a.rs".to_string(), 9, "z-lint"),
                ("b.rs".to_string(), 1, "a-lint"),
            ]
        );
    }

    #[test]
    fn clean_requires_no_findings_and_budgets_met() {
        let mut r = Report {
            findings: vec![],
            waivers: vec![WaiverUsage {
                lint: "x".to_string(),
                used: 1,
                budget: 1,
            }],
            pub_items: vec![],
            files_scanned: 1,
        };
        assert!(r.is_clean());
        r.waivers[0].used = 2;
        assert!(!r.is_clean());
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_report_is_well_formed_when_empty() {
        let r = Report {
            findings: vec![],
            waivers: vec![],
            pub_items: vec![],
            files_scanned: 0,
        };
        let j = r.json();
        assert!(j.contains("\"findings\": []"));
        assert!(j.contains("\"pub_items\": []"));
        assert!(j.contains("\"clean\": true"));
    }
}
