//! Every `pccs` subcommand rejects options it does not read, before any
//! simulation starts.

use std::process::Command;

fn pccs(line: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pccs"))
        .args(line.split_whitespace())
        .output()
        .expect("pccs runs");
    let code = out.status.code().expect("pccs exits normally");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn misspelled_corun_option_is_rejected() {
    let (code, stderr) =
        pccs("corun --soc xavier --pu GPU --bench streamcluster --quick --horizn 5");
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown option --horizn"), "{stderr}");
}

#[test]
fn removed_engine_option_is_rejected_by_serve() {
    // Options that were removed get the generic error, like a typo: the
    // memory-engine switch, and `pccs lint`'s diff-aware mode, JSONL
    // output and finding filters.
    for (line, option) in [
        ("serve --quick --policy greedy --engine event", "--engine"),
        ("lint --changed HEAD~1", "--changed"),
        ("lint --json", "--json"),
        ("lint --rule hot-path-panic", "--rule"),
        ("lint --scope file", "--scope"),
    ] {
        let (code, stderr) = pccs(line);
        assert_eq!(code, 2, "{line}");
        assert!(
            stderr.contains(&format!("unknown option {option}")),
            "{line}: {stderr}"
        );
    }
}
