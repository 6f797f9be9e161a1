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
    let (code, stderr) = repro(&["--quick", "--engine", "event", "fig5"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("'--engine' was removed"), "{stderr}");
    assert!(!stderr.contains("unknown experiment"), "{stderr}");
}

#[test]
fn unknown_flag_is_rejected() {
    let (code, stderr) = repro(&["--quik", "fig5"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown option '--quik'"), "{stderr}");
}
