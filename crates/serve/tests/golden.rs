//! Golden digests of the replay core shared by `pccs serve` and
//! `pccs sched`.
//!
//! Every serving run and every offline schedule below is serialized in
//! full (each request outcome, each decision) and hashed with 64-bit
//! FNV-1a. The pinned values were recorded before the replay core was
//! reworked to borrow its decision snapshots, so any change to a float
//! expression's operands or order, to how often a policy is called, or to
//! which bundle goes where shows up as a digest mismatch.
//!
//! The grid covers each bundled placement policy under every admission
//! policy and both synthetic arrival processes (a few hundred requests
//! each), and each policy on each bundled scheduling mix. The PCCS policy
//! runs on the paper's published Xavier models so the test calibrates
//! nothing.

use pccs_sched::engine::{run_schedule, SchedConfig};
use pccs_sched::mixes;
use pccs_sched::policy::{ObliviousGreedy, OraclePolicy, PccsPolicy, Policy, RoundRobin};
use pccs_serve::request::contended_classes;
use pccs_serve::{
    boxed_models, paper_models, run_serve, AdmissionPolicy, ArrivalProcess, ServeConfig,
};
use pccs_soc::soc::SocConfig;
use serde::Serialize;

/// Mean arrival rate of the serving runs, requests per million cycles.
const RATE_PER_MCYCLE: f64 = 8.0;

/// Cycles of arrivals per serving run: ~300 requests at the rate above.
const DURATION: u64 = 40_000_000;

const POLICIES: [&str; 4] = ["round-robin", "greedy", "pccs", "oracle"];

fn policy(soc: &SocConfig, name: &str) -> Box<dyn Policy> {
    match name {
        "round-robin" => Box::new(RoundRobin::default()),
        "greedy" => Box::new(ObliviousGreedy),
        "pccs" => Box::new(PccsPolicy::paper_xavier(soc)),
        "oracle" => Box::new(OraclePolicy),
        _ => unreachable!("not a bundled policy: {name}"),
    }
}

/// 64-bit FNV-1a of the value's JSON serialization.
fn digest<T: Serialize>(value: &T) -> u64 {
    let json = serde_json::to_string(value).expect("reports serialize");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Compares each `(label, digest)` with its pinned value and reports every
/// mismatch at once.
fn check(actual: &[(String, u64)], pinned: &[(&str, u64)]) {
    let labels: Vec<&str> = actual.iter().map(|(l, _)| l.as_str()).collect();
    let expected: Vec<&str> = pinned.iter().map(|(l, _)| *l).collect();
    assert_eq!(
        labels, expected,
        "the grid changed shape; now: {actual:#x?}"
    );
    let wrong: Vec<String> = actual
        .iter()
        .zip(pinned)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((label, got), (_, want))| format!("{label}: {got:#018x}, pinned {want:#018x}"))
        .collect();
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}

#[test]
fn serve_reports_match_their_pinned_digests() {
    let soc = SocConfig::xavier();
    let classes = contended_classes();
    let admissions = [
        AdmissionPolicy::Open,
        AdmissionPolicy::Strict,
        AdmissionPolicy::MissProb(0.3),
    ];
    let arrivals = [
        ArrivalProcess::Poisson {
            rate_per_mcycle: RATE_PER_MCYCLE,
        },
        ArrivalProcess::bursty(RATE_PER_MCYCLE),
    ];
    let mut actual = Vec::new();
    for name in POLICIES {
        for admission in admissions {
            for process in &arrivals {
                let cfg = ServeConfig {
                    arrivals: process.clone(),
                    duration: DURATION,
                    seed: 11,
                    admission,
                    ..ServeConfig::quick()
                };
                let mut policy = policy(&soc, name);
                let models = boxed_models(&paper_models(&soc));
                let report = run_serve(&soc, &classes, policy.as_mut(), models, &cfg)
                    .expect("bundled classes are servable on Xavier");
                assert!(report.offered >= 200, "{} requests", report.offered);
                let label = format!("{name}/{}/{}", admission.describe(), process.describe());
                actual.push((label, digest(&report)));
            }
        }
    }
    check(&actual, SERVE_PINNED);
}

#[test]
fn schedule_reports_match_their_pinned_digests() {
    let soc = SocConfig::xavier();
    let mut actual = Vec::new();
    for name in POLICIES {
        for mix in mixes::all() {
            let mut policy = policy(&soc, name);
            let report = run_schedule(
                &soc,
                &mix.name,
                &mix.jobs,
                policy.as_mut(),
                &SchedConfig::quick(),
            )
            .expect("bundled mixes are schedulable on Xavier");
            actual.push((format!("{name}/{}", mix.name), digest(&report)));
        }
    }
    check(&actual, SCHED_PINNED);
}

const SERVE_PINNED: &[(&str, u64)] = &[
    ("round-robin/open/poisson(8/Mcycle)", 0xdb740352e8ea9296),
    ("round-robin/open/bursty(8/Mcycle x4)", 0x4b5a2138514a2acd),
    ("round-robin/strict/poisson(8/Mcycle)", 0xb336bdbcfc54bd98),
    ("round-robin/strict/bursty(8/Mcycle x4)", 0x71f2be6aeddc7771),
    ("round-robin/p0.30/poisson(8/Mcycle)", 0x859a7aaca6125b41),
    ("round-robin/p0.30/bursty(8/Mcycle x4)", 0x3dda4b3a6c15d436),
    ("greedy/open/poisson(8/Mcycle)", 0x161bcdb4d1025403),
    ("greedy/open/bursty(8/Mcycle x4)", 0xd48e18d4714a4dd2),
    ("greedy/strict/poisson(8/Mcycle)", 0xafa414159f123998),
    ("greedy/strict/bursty(8/Mcycle x4)", 0xa469be839e8d2087),
    ("greedy/p0.30/poisson(8/Mcycle)", 0xa30c08f157028e62),
    ("greedy/p0.30/bursty(8/Mcycle x4)", 0x2ea6abe46e0f210d),
    ("pccs/open/poisson(8/Mcycle)", 0x5a6f2e6a3d50b341),
    ("pccs/open/bursty(8/Mcycle x4)", 0xcf7e82387ac6d112),
    ("pccs/strict/poisson(8/Mcycle)", 0x6266a403b4517916),
    ("pccs/strict/bursty(8/Mcycle x4)", 0xdf2d638f5a8546f0),
    ("pccs/p0.30/poisson(8/Mcycle)", 0x79641a1630eca975),
    ("pccs/p0.30/bursty(8/Mcycle x4)", 0x7ba15ccec6279069),
    ("oracle/open/poisson(8/Mcycle)", 0xc856f06a0daae13b),
    ("oracle/open/bursty(8/Mcycle x4)", 0xdc8548b3afe3fb0c),
    ("oracle/strict/poisson(8/Mcycle)", 0xb7d9fc236dc793f3),
    ("oracle/strict/bursty(8/Mcycle x4)", 0x4c7c72781d664e4c),
    ("oracle/p0.30/poisson(8/Mcycle)", 0x92fce00f507eaedb),
    ("oracle/p0.30/bursty(8/Mcycle x4)", 0x575320a53ec013f2),
];

const SCHED_PINNED: &[(&str, u64)] = &[
    ("round-robin/contended", 0x2e3a2b186fdd290b),
    ("round-robin/inference-burst", 0x2d533fff67082d22),
    ("round-robin/steady-stream", 0xb111168cc2dbaafc),
    ("greedy/contended", 0x5167902f398ae5c9),
    ("greedy/inference-burst", 0x53a4fd1394969a9a),
    ("greedy/steady-stream", 0x279e2e28d06d82ad),
    ("pccs/contended", 0xa6449ef413c29452),
    ("pccs/inference-burst", 0xf789e6d945379d0d),
    ("pccs/steady-stream", 0xe84792e438393828),
    ("oracle/contended", 0xb6277f17460a4c8f),
    ("oracle/inference-burst", 0xf1d8d19ea085f82d),
    ("oracle/steady-stream", 0xec47ff5f6714a9ec),
];
