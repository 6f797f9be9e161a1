//! End-to-end acceptance of the linter on the seeded fixture tree and on
//! the real workspace: the fixture must fail with every rule represented
//! — file-scoped and workspace-scoped — and the workspace itself must
//! lint clean.

use pccs_analysis::report::Scope;
use pccs_analysis::rules::rule_scope;
use pccs_analysis::workspace::{analyze_root, LintOptions};
use serde::Value;
use std::path::Path;

fn fixture_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixture-tree"))
}

fn workspace_root() -> &'static Path {
    // crates/analysis -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
}

#[test]
fn seeded_fixture_trips_every_rule() {
    let report = analyze_root(fixture_root())
        .expect("fixture tree lints")
        .run(&LintOptions::default());
    assert!(!report.is_clean(), "seeded fixture must produce findings");
    let per_rule = report.per_rule();
    assert_eq!(
        per_rule["hot-path-panic"], 2,
        "unwrap + panic!: {per_rule:?}"
    );
    assert_eq!(
        per_rule["nondeterminism"], 3,
        "HashMap + Instant::now in dram, HashMap in serve: {per_rule:?}"
    );
    assert_eq!(per_rule["missing-docs"], 1, "{per_rule:?}");
    // The workspace-scoped rules, one planted violation each:
    assert_eq!(
        per_rule["dead-pub-item"], 2,
        "orphan_api + legacy_entry: {per_rule:?}"
    );
    assert_eq!(
        per_rule["dependency-cycle"], 2,
        "both edges of the cyc_a <-> cyc_b ring: {per_rule:?}"
    );
    assert_eq!(
        per_rule["deprecated-shim-expiry"], 1,
        "#[deprecated] legacy_entry shim: {per_rule:?}"
    );
    assert_eq!(
        per_rule["metrics-registry-drift"], 2,
        "never-published registry entry + rogue publish: {per_rule:?}"
    );
    assert_eq!(
        per_rule["stale-waiver"], 2,
        "useless waiver + unknown-rule waiver: {per_rule:?}"
    );
    assert_eq!(report.waived, 1, "the waived unwrap counts as waived");
    // Findings carry fixture-relative paths for stable reports, and every
    // finding's scope matches its rule's declared scope.
    for f in &report.findings {
        assert!(f.file.starts_with("crates/"), "{f}");
        assert_eq!(f.scope, rule_scope(&f.rule), "{f}");
    }
    // `fixture.published` is registered *and* published: the drift rule
    // must leave both sides alone.
    assert!(
        !report.render_text().contains("fixture.published"),
        "registered+published metric must not be flagged"
    );
    // The serve crate is on the deterministic list: its planted HashMap
    // must surface as exactly one file-scoped nondeterminism finding.
    let serve: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file == "crates/serve/src/planted.rs" && f.scope == Scope::File)
        .collect();
    assert_eq!(serve.len(), 1, "{serve:?}");
    assert_eq!(serve[0].rule, "nondeterminism");
}

#[test]
fn drift_rule_is_falsifiable_on_the_fixture_tree() {
    // Removing a *published* name from the registry index must convert
    // its publish sites into fresh drift findings — proving the rule
    // reads the registry rather than pattern-matching the fixture.
    let opts = LintOptions::default();
    let mut index = analyze_root(fixture_root()).expect("fixture tree lints");
    let before = index.run(&opts).per_rule()["metrics-registry-drift"];
    index.remove_required_metric("fixture.published");
    let report = index.run(&opts);
    assert_eq!(report.per_rule()["metrics-registry-drift"], before + 1);
    assert!(
        report.render_text().contains("fixture.published"),
        "the now-unregistered publish site must be flagged:\n{}",
        report.render_text()
    );
}

#[test]
fn the_workspace_lints_clean() {
    let report = analyze_root(workspace_root())
        .expect("workspace lints")
        .run(&LintOptions::default());
    assert!(
        report.is_clean(),
        "workspace must lint clean:\n{}",
        report.render_text()
    );
}

#[test]
fn jsonl_export_of_fixture_findings_parses() {
    let report = analyze_root(fixture_root())
        .expect("fixture tree lints")
        .run(&LintOptions::default());
    for line in report.to_jsonl().lines() {
        let v: Value = serde_json::from_str(line).expect("valid JSON line");
        let Value::Object(map) = v else {
            panic!("record is not an object: {line}");
        };
        assert_eq!(map["type"], Value::String("lint.finding".into()));
        assert!(matches!(map["rule"], Value::String(_)));
    }
}
