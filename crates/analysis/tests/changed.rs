//! Contract of the diff-aware mode (`pccs lint --changed <git-ref>`):
//! its findings are a strict subset of the full run's, and on a
//! single-file diff it lexes a small fraction of the full analysis's
//! lines — that cheapness is the whole reason the CI gate can run per-PR.

use pccs_analysis::workspace::{analyze_root, lint_changed, LintOptions};
use std::path::Path;

fn fixture_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixture-tree"))
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
}

#[test]
fn changed_findings_are_a_strict_subset_of_the_full_run() {
    let opts = LintOptions::default();
    let full = analyze_root(fixture_root())
        .expect("fixture lints")
        .run(&opts);
    // Every single-file diff must report a subset of the full run — no
    // finding may appear only under --changed (that would make the gate
    // flag code a full run blesses).
    let changed_paths = [
        "crates/serve/src/planted.rs",
        "crates/dram/src/lib.rs",
        "crates/dram/src/cyc_a.rs",
        "crates/bench/src/lib.rs",
    ];
    for path in changed_paths {
        let changed =
            lint_changed(fixture_root(), &[path.to_owned()], &opts).expect("changed-mode lints");
        for f in &changed.findings {
            assert!(
                full.findings.contains(f),
                "--changed {path} surfaced a finding the full run lacks: {f}"
            );
        }
        // Findings in the diffed file itself are never dropped.
        let full_here = full.findings.iter().filter(|f| f.file == path).count();
        let changed_here = changed.findings.iter().filter(|f| f.file == path).count();
        assert_eq!(
            changed_here, full_here,
            "--changed {path} must keep that file's own findings"
        );
    }
}

#[test]
fn changed_mode_accepts_non_source_and_unknown_paths() {
    let opts = LintOptions::default();
    // git diff output routinely includes docs, scripts, and deleted
    // files; none of these may panic or produce findings.
    let changed = lint_changed(
        fixture_root(),
        &[
            "README.md".to_owned(),
            "scripts/check.sh".to_owned(),
            "crates/dram/src/deleted_long_ago.rs".to_owned(),
        ],
        &opts,
    )
    .expect("non-source diffs lint");
    assert!(changed.is_clean(), "{}", changed.render_text());
}

#[test]
fn changed_mode_is_decisively_cheaper_on_a_single_file_diff() {
    let root = workspace_root();
    let opts = LintOptions::default();
    let diff = ["crates/soc/src/corun.rs".to_owned()];
    let full = analyze_root(root).expect("workspace lints").run(&opts);
    let changed = lint_changed(root, &diff, &opts).expect("changed-mode lints");
    // Lexing and indexing dominate the cost, so the lines `--changed`
    // lexes against a full run measure its cheapness without a clock.
    assert!(changed.files_scanned < full.files_scanned);
    assert!(
        4 * changed.lines_scanned < full.lines_scanned,
        "--changed on a one-file diff lexed {} of {} lines ({:.0}% — the \
         diff-aware gate must stay under 25%)",
        changed.lines_scanned,
        full.lines_scanned,
        100.0 * changed.lines_scanned as f64 / full.lines_scanned as f64
    );
}
