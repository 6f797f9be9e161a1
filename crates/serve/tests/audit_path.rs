//! The serving loop's audit path, both ways: with the prediction-audit
//! ledger on, every completed bundle resolves into exactly one record with
//! the same provenance labels as before the record was built lazily; with
//! it off, no record is built or stored, and the drift monitor that
//! observes the same predictions recalibrates exactly as often.
//!
//! The ledger and its enable flag are process-global, so the tests of this
//! file take turns and no other test shares their process.

use pccs_sched::policy::ObliviousGreedy;
use pccs_serve::request::contended_classes;
use pccs_serve::{boxed_models, paper_models, run_serve, ArrivalProcess, ServeConfig, ServeReport};
use pccs_soc::soc::SocConfig;
use pccs_telemetry::audit;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Records the run of `cfg()` resolves into, and its recalibrations.
const RECORDS: usize = 294;
const RECALIBRATIONS: u64 = 3;

/// 64-bit FNV-1a of the canonically ordered records of that run, as
/// JSON: every label, prediction and observation.
const RECORDS_DIGEST: u64 = 0x9cbb6ebc75341cc4;

fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cfg() -> ServeConfig {
    ServeConfig {
        arrivals: ArrivalProcess::Poisson {
            rate_per_mcycle: 8.0,
        },
        duration: 40_000_000,
        seed: 11,
        ..ServeConfig::quick()
    }
}

fn serve(audited: bool) -> ServeReport {
    let soc = SocConfig::xavier();
    audit::set_enabled(audited);
    let report = run_serve(
        &soc,
        &contended_classes(),
        &mut ObliviousGreedy,
        boxed_models(&paper_models(&soc)),
        &cfg(),
    );
    audit::set_enabled(false);
    report.expect("bundled classes are servable on Xavier")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn an_enabled_ledger_gets_one_record_per_completed_bundle() {
    let _turn = serial();
    audit::drain();
    let report = serve(true);
    let records = audit::drain();
    assert_eq!(records.len(), report.decisions, "one record per bundle");
    assert_eq!(
        (records.len(), report.recalibrations),
        (RECORDS, RECALIBRATIONS)
    );
    for rec in &records {
        assert_eq!(
            (rec.source.as_str(), rec.unit.as_str()),
            ("serve", "cycles")
        );
        assert_eq!(
            (rec.soc.as_str(), rec.policy.as_str()),
            ("xavier", "greedy")
        );
    }
    let json = serde_json::to_string(&records).expect("records serialize");
    assert_eq!(
        fnv1a(json.as_bytes()),
        RECORDS_DIGEST,
        "labels or pairs moved"
    );
}

#[test]
fn a_disabled_ledger_builds_no_record_and_drifts_alike() {
    let _turn = serial();
    audit::drain();
    assert_eq!(audit::capacity(), 0);
    let report = serve(false);
    assert_eq!(audit::capacity(), 0, "a record reached the disabled ledger");
    assert_eq!(report.recalibrations, RECALIBRATIONS);
    assert_eq!(report.decisions, RECORDS);
}
