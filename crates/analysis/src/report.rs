//! Lint findings and machine-readable reports.
//!
//! Every [`Finding`] carries a [`Scope`]: `file` findings are provable
//! from one file's tokens alone (the phase-1 rules), `workspace` findings
//! need the cross-file symbol index (the phase-2 rules — dead public
//! items, metrics-registry drift, stale waivers, module cycles, expired
//! shims). The scope is part of the JSONL record so downstream tooling
//! can split a CI gate into a cheap per-file pass and a full workspace
//! pass without re-deriving rule tables.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Whether a finding is provable from one file or needs the workspace
/// symbol index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Scope {
    /// Provable from a single file's token stream (phase-1 rules).
    #[default]
    File,
    /// Needs the cross-file symbol index (phase-2 rules).
    Workspace,
}

impl Scope {
    /// The stable lowercase name used in reports (`file` / `workspace`).
    pub fn as_str(self) -> &'static str {
        match self {
            Scope::File => "file",
            Scope::Workspace => "workspace",
        }
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

// Manual impls: the report format wants lowercase scope names, and the
// vendored serde derive has no rename attribute.
impl Serialize for Scope {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_owned())
    }
}

impl Deserialize for Scope {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v.as_str() {
            Some("file") => Ok(Scope::File),
            Some("workspace") => Ok(Scope::Workspace),
            _ => Err(serde::DeError::expected("scope 'file'|'workspace'", v)),
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// Stable rule name (`hot-path-panic`, `dead-pub-item`, …).
    pub rule: String,
    /// Whether the rule is file- or workspace-scoped ([`Scope`]).
    pub scope: Scope,
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
            "{}:{}: [{}/{}] {}",
            self.file, self.line, self.rule, self.scope, self.message
        )
    }
}

/// The outcome of linting a file set.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintReport {
    /// Surviving findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Total source lines across the scanned files (`tests/changed.rs`
    /// bounds the work of a `--changed` run by this).
    pub lines_scanned: usize,
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

    /// Merges findings and counters from `other` into `self`.
    pub fn merge(&mut self, other: LintReport) {
        self.findings.extend(other.findings);
        self.files_scanned += other.files_scanned;
        self.lines_scanned += other.lines_scanned;
        self.waived += other.waived;
        self.sort();
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

    /// Renders findings as JSON lines via the telemetry exporter, one
    /// `{"type": "lint.finding", ...}` record per line. Keys inside a
    /// record are sorted (the exporter's `Value` model is a BTreeMap), so
    /// the byte-level field order is deterministic:
    /// `file, line, message, rule, scope, type`.
    pub fn to_jsonl(&self) -> String {
        pccs_telemetry::export::jsonl_records("lint.finding", &self.findings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: u32, rule: &str) -> Finding {
        Finding {
            rule: rule.into(),
            scope: Scope::File,
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
            lines_scanned: 40,
            waived: 1,
        };
        r.sort();
        assert_eq!(r.findings[0].file, "a.rs");
        assert_eq!(r.findings[0].line, 1);
        assert_eq!(r.per_rule()["hot-path-panic"], 2);
        assert!(!r.is_clean());
        let text = r.render_text();
        assert!(text.contains("a.rs:1: [hot-path-panic/file]"));
        assert!(text.contains("3 finding(s) in 2 file(s) scanned (1 waived)"));
    }

    #[test]
    fn scope_serializes_lowercase_and_round_trips() {
        assert_eq!(Scope::File.to_value(), serde::Value::String("file".into()));
        assert_eq!(
            Scope::Workspace.to_value(),
            serde::Value::String("workspace".into())
        );
        for scope in [Scope::File, Scope::Workspace] {
            assert_eq!(Scope::from_value(&scope.to_value()).unwrap(), scope);
        }
        assert!(Scope::from_value(&serde::Value::String("global".into())).is_err());
    }

    #[test]
    fn jsonl_roundtrips_through_serde() {
        let mut f = finding("x.rs", 3, "missing-docs");
        f.scope = Scope::Workspace;
        let r = LintReport {
            findings: vec![f],
            files_scanned: 1,
            lines_scanned: 10,
            waived: 0,
        };
        let jsonl = r.to_jsonl();
        assert!(jsonl.contains("\"lint.finding\""));
        assert!(jsonl.contains("\"x.rs\""));
        assert!(jsonl.contains("\"scope\":\"workspace\""));
        let line = jsonl.lines().next().unwrap();
        let v: serde::Value = serde_json::from_str(line).unwrap();
        let serde::Value::Object(map) = v else {
            panic!("record is not an object: {line}");
        };
        assert!(matches!(map["line"], serde::Value::Number(_)));
    }

    #[test]
    fn merge_combines_counters() {
        let mut a = LintReport {
            findings: vec![finding("z.rs", 1, "r")],
            files_scanned: 3,
            lines_scanned: 30,
            waived: 2,
        };
        a.merge(LintReport {
            findings: vec![finding("a.rs", 1, "r")],
            files_scanned: 1,
            lines_scanned: 12,
            waived: 1,
        });
        assert_eq!(a.files_scanned, 4);
        assert_eq!(a.lines_scanned, 42);
        assert_eq!(a.waived, 3);
        assert_eq!(a.findings[0].file, "a.rs");
    }
}
