//! `repro` rejects options it does not know before running anything.

use std::process::Command;

fn repro(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    let code = out.status.code().expect("repro exits normally");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn removed_engine_flag_is_named_in_the_error() {
    // `--engine` was removed; it gets the generic unknown-option error,
    // which names it, before any experiment name is looked at.
    let (code, stderr) = repro(&["--quick", "--engine", "event", "fig5"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown option '--engine'"), "{stderr}");
    assert!(!stderr.contains("unknown experiment"), "{stderr}");
}

#[test]
fn unknown_flag_is_rejected() {
    // `--quik` is a typo; `--json` is an option that was removed and now
    // gets the same error as any other unknown option.
    for flag in ["--quik", "--json"] {
        let (code, stderr) = repro(&[flag, "x", "fig5"]);
        assert_eq!(code, 2, "{flag}");
        assert!(
            stderr.contains(&format!("unknown option '{flag}'")),
            "{stderr}"
        );
        assert!(!stderr.contains("unknown experiment"), "{stderr}");
    }
}

#[test]
fn audit_scorecards_keep_units_apart() {
    let ledger = format!("{}/mixed-audit.jsonl", env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--quick",
            "--jobs",
            "2",
            "--audit-out",
            &ledger,
            "fig8",
            "sched",
        ])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // One scorecard per (source, unit), each closed by its own `(all)` row.
    let headers: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("audit scorecard:"))
        .collect();
    assert_eq!(
        headers,
        [
            "audit scorecard: sched predictions in cycles",
            "audit scorecard: validate predictions in rs_pct",
        ],
        "{stdout}"
    );
    let totals: Vec<Vec<&str>> = stdout
        .lines()
        .filter(|l| l.starts_with("(all)"))
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert_eq!(totals.len(), 2, "{stdout}");
    // Columns: soc pu region policy n MAE … — fig8's relative-speed errors
    // are a few percentage points, far below any error in cycles.
    let mae = |row: &[&str]| row[5].parse::<f64>().expect("MAE column");
    assert!(mae(&totals[1]) < 10.0, "{stdout}");
    assert!(mae(&totals[0]) > 100.0, "{stdout}");
    let records = std::fs::read_to_string(&ledger).expect("ledger written");
    let n: usize = totals
        .iter()
        .map(|row| row[4].parse::<usize>().unwrap())
        .sum();
    assert_eq!(records.lines().count(), n);
}
