//! Lint findings and the text report.

use std::collections::BTreeMap;
use std::fmt;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule name (`hot-path-panic`, `dead-pub-item`, …).
    pub rule: String,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line of the finding.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The outcome of linting a file set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// Surviving findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings suppressed by `pccs-lint: allow(...)` waivers.
    pub waived: usize,
}

impl LintReport {
    /// Whether no findings survived waivers.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Finding counts per rule, for summaries and tests.
    pub fn per_rule(&self) -> BTreeMap<String, usize> {
        let mut map = BTreeMap::new();
        for f in &self.findings {
            *map.entry(f.rule.clone()).or_insert(0) += 1;
        }
        map
    }

    /// Restores the canonical (file, line, rule) ordering.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    }

    /// Renders the human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        let per_rule = self.per_rule();
        if !per_rule.is_empty() {
            out.push('\n');
            for (rule, n) in &per_rule {
                out.push_str(&format!("  {rule}: {n}\n"));
            }
        }
        out.push_str(&format!(
            "pccs-lint: {} finding(s) in {} file(s) scanned ({} waived)\n",
            self.findings.len(),
            self.files_scanned,
            self.waived
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: u32, rule: &str) -> Finding {
        Finding {
            rule: rule.into(),
            file: file.into(),
            line,
            message: "m".into(),
        }
    }

    #[test]
    fn report_sorts_and_counts() {
        let mut r = LintReport {
            findings: vec![
                finding("b.rs", 2, "nondeterminism"),
                finding("a.rs", 9, "hot-path-panic"),
                finding("a.rs", 1, "hot-path-panic"),
            ],
            files_scanned: 2,
            waived: 1,
        };
        r.sort();
        assert_eq!(r.findings[0].file, "a.rs");
        assert_eq!(r.findings[0].line, 1);
        assert_eq!(r.per_rule()["hot-path-panic"], 2);
        assert!(!r.is_clean());
        let text = r.render_text();
        assert!(text.contains("a.rs:1: [hot-path-panic]"));
        assert!(text.contains("3 finding(s) in 2 file(s) scanned (1 waived)"));
    }
}
