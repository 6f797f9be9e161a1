//! `pccs predict`, `explore-freq`, `corun`, `policies`, `audit`, `sched`
//! and `serve` turn malformed outside input — negative or non-finite
//! bandwidths, tolerances, scales and rates, non-integer cycle counts,
//! model files that break the model's invariants — into an error message
//! and exit status 1, never a panic or a hang.

use std::path::PathBuf;
use std::process::Command;

const PAPER_GPU: &str = r#"{"normal_bw":38.1,"intensive_bw":96.2,"mrmc":4.9,"cbp":45.3,"tbwdc":87.2,"rate_n":0.83,"peak_bw":137.0}"#;

fn pccs(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pccs"))
        .args(args)
        .output()
        .expect("pccs runs");
    let code = out.status.code().expect("pccs exits normally");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Writes `json` to a model file unique to `name` and returns its path.
fn model_file(name: &str, json: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("bad_inputs_{name}.json"));
    std::fs::write(&path, json).expect("write model file");
    path.to_string_lossy().into_owned()
}

fn assert_rejected(args: &[&str], message: &str) {
    let (code, stderr) = pccs(args);
    assert_eq!(code, 1, "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn predict_rejects_bad_bandwidths() {
    let model = model_file("paper_gpu", PAPER_GPU);
    let (code, stderr) = pccs(&["predict", "--model", &model, "--demand", "60"]);
    assert_eq!(code, 0, "{stderr}");
    for (flag, value) in [
        ("--external", "-1"),
        ("--external", "NaN"),
        ("--demand", "-3"),
        ("--demand", "inf"),
    ] {
        let mut args = vec!["predict", "--model", &model, "--demand", "60"];
        args.extend([flag, value]);
        assert_rejected(
            &args,
            &format!("{flag} must be a finite, non-negative bandwidth"),
        );
    }
}

#[test]
fn predict_rejects_models_that_break_invariants() {
    for (name, from, to, reason) in [
        (
            "unordered",
            r#""intensive_bw":96.2"#,
            r#""intensive_bw":20.0"#,
            "region boundaries unordered",
        ),
        (
            "negative_rate",
            r#""rate_n":0.83"#,
            r#""rate_n":-1.0"#,
            "reduction rate must be non-negative",
        ),
        (
            "infinite",
            r#""cbp":45.3"#,
            r#""cbp":1e999"#,
            "every parameter must be finite",
        ),
    ] {
        let model = model_file(name, &PAPER_GPU.replace(from, to));
        assert_rejected(
            &["predict", "--model", &model, "--demand", "60"],
            &format!("invalid model parameters: {reason}"),
        );
    }
}

#[test]
fn explore_freq_rejects_bad_inputs_before_profiling() {
    let base = [
        "explore-freq",
        "--soc",
        "xavier",
        "--pu",
        "GPU",
        "--bench",
        "streamcluster",
    ];
    let mut args = base.to_vec();
    args.extend(["--external", "-1"]);
    assert_rejected(&args, "--external must be a finite, non-negative bandwidth");

    let model = model_file(
        "explore_unordered",
        &PAPER_GPU.replace(r#""intensive_bw":96.2"#, r#""intensive_bw":20.0"#),
    );
    let mut args = base.to_vec();
    args.extend(["--model", &model]);
    assert_rejected(&args, "region boundaries unordered");
}

#[test]
fn corun_and_policies_reject_bad_bandwidths() {
    let corun = [
        "corun",
        "--soc",
        "xavier",
        "--pu",
        "GPU",
        "--bench",
        "streamcluster",
        "--quick",
    ];
    for value in ["-5", "NaN", "inf"] {
        let mut args = corun.to_vec();
        args.extend(["--external", value]);
        assert_rejected(&args, "--external must be a finite, non-negative bandwidth");
        assert_rejected(
            &["policies", "--victim", value],
            "--victim must be a finite, non-negative bandwidth",
        );
    }
}

#[test]
fn audit_rejects_bad_tolerance_before_auditing() {
    for value in ["NaN", "-0.5", "inf"] {
        let args = [
            "audit",
            "--quick",
            "--check",
            "ACCURACY.json",
            "--tolerance",
            value,
        ];
        assert_rejected(&args, "--tolerance must be a finite, non-negative");
        // The audit announces itself on stderr before it runs; a rejected
        // tolerance must stop the command before that point.
        let (_, stderr) = pccs(&args);
        assert!(!stderr.contains("auditing model accuracy"), "{stderr}");
    }
}

#[test]
fn corun_horizon_and_epoch_must_be_integers() {
    let corun = [
        "corun",
        "--soc",
        "xavier",
        "--pu",
        "GPU",
        "--bench",
        "streamcluster",
        "--quick",
    ];
    for (flag, value) in [
        ("--horizon", "inf"),
        ("--horizon", "1e30"),
        ("--horizon", "2.9"),
        ("--horizon", "-3"),
        ("--epoch", "inf"),
        ("--epoch", "0.5"),
    ] {
        let mut args = corun.to_vec();
        args.extend([flag, value]);
        assert_rejected(&args, &format!("{flag} expects an integer"));
    }
    let mut args = corun.to_vec();
    args.extend(["--horizon", "0"]);
    assert_rejected(&args, "--horizon must be positive");
}

#[test]
fn sched_scale_and_serve_rate_must_be_finite_and_positive() {
    for value in ["NaN", "inf", "0", "-2"] {
        assert_rejected(
            &["sched", "--quick", "--scale", value],
            "--scale must be finite and positive",
        );
        assert_rejected(
            &["serve", "--quick", "--policy", "greedy", "--rate", value],
            "--rate must be finite and positive",
        );
    }
}

#[test]
fn pccs_policy_reads_jobs_with_or_without_quick() {
    // The PCCS policy's calibration takes its worker count from `--jobs`
    // in both fidelities, so a bad count fails before any calibration run.
    for command in ["sched", "serve"] {
        assert_rejected(
            &[command, "--policy", "pccs", "--jobs", "abc"],
            "--jobs expects an integer, got 'abc'",
        );
        assert_rejected(
            &[command, "--quick", "--policy", "pccs", "--jobs", "abc"],
            "--jobs expects an integer, got 'abc'",
        );
    }
}

#[test]
fn serve_rejects_an_arrival_stream_too_large_to_generate() {
    // 10^12 arrivals per Mcycle would expect ~10^12 events over the quick
    // duration; the generator refuses before allocating any of them.
    for arrivals in ["poisson", "bursty"] {
        assert_rejected(
            &[
                "serve",
                "--quick",
                "--policy",
                "greedy",
                "--rate",
                "1e12",
                "--arrivals",
                arrivals,
            ],
            "expected arrivals",
        );
    }
}
