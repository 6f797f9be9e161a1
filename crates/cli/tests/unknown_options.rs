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
    let (code, stderr) = pccs("serve --quick --policy greedy --engine event");
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown option --engine"), "{stderr}");
}
