//! Prediction-audit ledger: model-accuracy observability.
//!
//! The PCCS model's whole value is predictive accuracy, yet predictions
//! and ground truth are produced in different places: models predict in
//! the experiments, the scheduling replay, and the serving runtime, while
//! achieved values come out of the co-run simulator (or the serving
//! clock). This module is where the two meet. Every prediction site
//! resolves its forecast into one [`AuditRecord`] — predicted value,
//! achieved value, the three-region operating point the prediction came
//! from, and full SoC/PU/workload/MC-policy provenance — and
//! pushes it into a process-global ledger.
//!
//! On top of the ledger sit the accuracy scorecards: [`scorecard`] slices
//! the records per SoC × PU × region × policy and reports MAE, MAPE,
//! p95 absolute error, and worst-case absolute error per slice (plus an
//! `(all)` aggregate). [`jsonl`] streams raw records through the
//! standard tagged-JSONL exporter; [`render_scorecard`] is the
//! human-readable table behind `pccs audit`.
//!
//! Like the [`crate::metrics`] registry, the ledger is process-global and
//! deliberately not a hot-path structure: emitters record once per
//! resolved prediction (per co-run, per completed job, per served
//! bundle), never per cycle. It is **disabled by default** — when off,
//! [`record`] is one relaxed atomic load — and switched on by the audit
//! consumers (`pccs audit`, `repro --audit-out`, the accuracy harness),
//! which is also how the accuracy report measures the ledger's overhead.
//!
//! [`AuditRecord`]: crate::audit::AuditRecord
//! [`scorecard`]: crate::audit::scorecard
//! [`jsonl`]: crate::audit::jsonl
//! [`render_scorecard`]: crate::audit::render_scorecard
//! [`record`]: crate::audit::record

use crate::export;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);

fn ledger() -> &'static Mutex<Vec<AuditRecord>> {
    static LEDGER: OnceLock<Mutex<Vec<AuditRecord>>> = OnceLock::new();
    LEDGER.get_or_init(|| Mutex::new(Vec::new()))
}

/// Turns audit recording on or off process-wide (default: **off**). When
/// off, every [`record`] call is one relaxed atomic load.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether audit recording is currently on.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One resolved (prediction, ground-truth) pair with its provenance.
/// Unknown provenance fields carry `"-"` so slicing stays total.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditRecord {
    /// Emitting subsystem: `"corun"`, `"sched"`, `"serve"`, `"validate"`.
    pub source: String,
    /// SoC the pair was measured on (preset slug or display name).
    pub soc: String,
    /// Processing-unit name ("CPU", "GPU", "DLA").
    pub pu: String,
    /// Kernel / benchmark / request-class label.
    pub workload: String,
    /// Three-region operating point of the prediction ("minor", "normal",
    /// "intensive"), or `"-"` when the emitter has no model view.
    pub region: String,
    /// Memory-controller or placement policy label.
    pub policy: String,
    /// What the pair measures: `"rs_pct"` (relative speed, percent) or
    /// `"cycles"` (service time, memory cycles).
    pub unit: String,
    /// The model's forecast.
    pub predicted: f64,
    /// The value the simulator or replay actually achieved.
    pub achieved: f64,
}

impl AuditRecord {
    /// A record with the given pair and `"-"` provenance; fill the rest
    /// with the `with_*` builders.
    pub fn new(source: &str, unit: &str, predicted: f64, achieved: f64) -> Self {
        Self {
            source: source.to_owned(),
            soc: "-".to_owned(),
            pu: "-".to_owned(),
            workload: "-".to_owned(),
            region: "-".to_owned(),
            policy: "-".to_owned(),
            unit: unit.to_owned(),
            predicted,
            achieved,
        }
    }

    /// Sets the SoC label, chaining.
    pub fn with_soc(mut self, soc: &str) -> Self {
        self.soc = soc.to_owned();
        self
    }

    /// Sets the PU name, chaining.
    pub fn with_pu(mut self, pu: &str) -> Self {
        self.pu = pu.to_owned();
        self
    }

    /// Sets the workload label, chaining.
    pub fn with_workload(mut self, workload: &str) -> Self {
        self.workload = workload.to_owned();
        self
    }

    /// Sets the contention-region label, chaining.
    pub fn with_region(mut self, region: &str) -> Self {
        self.region = region.to_owned();
        self
    }

    /// Sets the policy label, chaining.
    pub fn with_policy(mut self, policy: &str) -> Self {
        self.policy = policy.to_owned();
        self
    }

    /// Absolute prediction error, in the record's unit.
    pub fn abs_error(&self) -> f64 {
        (self.predicted - self.achieved).abs()
    }

    /// Absolute percentage error relative to the achieved value, or `None`
    /// when the achieved value is zero.
    pub fn pct_error(&self) -> Option<f64> {
        if self.achieved == 0.0 {
            None
        } else {
            Some(100.0 * self.abs_error() / self.achieved.abs())
        }
    }
}

/// Appends one record to the ledger. A no-op (one relaxed atomic load)
/// when recording is disabled.
pub fn record(rec: AuditRecord) {
    if is_enabled() {
        ledger().lock().expect("audit ledger poisoned").push(rec);
    }
}

/// A copy of every record currently in the ledger, in emission order.
pub fn snapshot() -> Vec<AuditRecord> {
    ledger().lock().expect("audit ledger poisoned").clone()
}

/// Removes and returns every record in a canonical order, leaving the
/// ledger empty. Parallel sweeps emit records in a nondeterministic order;
/// draining canonically makes every sum over the result, and so every
/// scorecard, byte-reproducible.
pub fn drain() -> Vec<AuditRecord> {
    let mut records = std::mem::take(&mut *ledger().lock().expect("audit ledger poisoned"));
    sort_canonical(&mut records);
    records
}

/// Sorts records into a total order that does not depend on emission
/// order: by the string fields, then by the bits of `predicted` and
/// `achieved`.
fn sort_canonical(records: &mut [AuditRecord]) {
    fn key(r: &AuditRecord) -> ([&str; 7], u64, u64) {
        let strings = [
            &r.source,
            &r.soc,
            &r.pu,
            &r.workload,
            &r.region,
            &r.policy,
            &r.unit,
        ];
        (
            strings.map(String::as_str),
            r.predicted.to_bits(),
            r.achieved.to_bits(),
        )
    }
    records.sort_unstable_by(|a, b| key(a).cmp(&key(b)));
}

/// Number of records currently held.
pub fn len() -> usize {
    ledger().lock().expect("audit ledger poisoned").len()
}

/// Record slots the ledger has allocated. Zero after a [`drain`] until
/// the next enabled [`record`], which is how the disabled ledger's
/// zero-cost claim is checked without a wall clock.
pub fn capacity() -> usize {
    ledger().lock().expect("audit ledger poisoned").capacity()
}

/// Empties the ledger. Used by the audit harness so a scorecard covers
/// exactly one measured run.
pub fn reset() {
    ledger().lock().expect("audit ledger poisoned").clear();
}

/// Accuracy statistics of one SoC × PU × region × policy slice (or the
/// `(all)` aggregate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SliceScore {
    /// SoC label of the slice, `"(all)"` for the aggregate.
    pub soc: String,
    /// PU label of the slice.
    pub pu: String,
    /// Region label of the slice.
    pub region: String,
    /// Policy label of the slice.
    pub policy: String,
    /// Records in the slice.
    pub samples: u64,
    /// Mean absolute error (in the records' unit).
    pub mae: f64,
    /// Mean absolute percentage error vs the achieved values (records
    /// with an achieved value of zero are excluded from this mean).
    pub mape_pct: f64,
    /// 95th-percentile absolute error (nearest-rank).
    pub p95_abs_error: f64,
    /// Worst-case absolute error.
    pub worst_abs_error: f64,
}

impl SliceScore {
    fn from_errors(labels: (&str, &str, &str, &str), records: &[&AuditRecord]) -> Self {
        let mut abs: Vec<f64> = records.iter().map(|r| r.abs_error()).collect();
        abs.sort_by(|a, b| a.partial_cmp(b).expect("errors are finite"));
        let n = abs.len();
        let mae = abs.iter().sum::<f64>() / n.max(1) as f64;
        let pct: Vec<f64> = records.iter().filter_map(|r| r.pct_error()).collect();
        let mape_pct = if pct.is_empty() {
            0.0
        } else {
            pct.iter().sum::<f64>() / pct.len() as f64
        };
        // Nearest-rank p95: the smallest error that bounds ≥95% of samples.
        let p95_abs_error = if n == 0 {
            0.0
        } else {
            let rank = ((0.95 * n as f64).ceil() as usize).clamp(1, n);
            abs[rank - 1]
        };
        Self {
            soc: labels.0.to_owned(),
            pu: labels.1.to_owned(),
            region: labels.2.to_owned(),
            policy: labels.3.to_owned(),
            samples: n as u64,
            mae,
            mape_pct,
            p95_abs_error,
            worst_abs_error: abs.last().copied().unwrap_or(0.0),
        }
    }
}

/// A full accuracy scorecard: one [`SliceScore`] per populated
/// SoC × PU × region × policy combination (in sorted key order, so the
/// same records always render identically) plus the `(all)` aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scorecard {
    /// Per-slice scores, sorted by (soc, pu, region, policy).
    pub slices: Vec<SliceScore>,
    /// Aggregate over every record.
    pub overall: SliceScore,
}

/// Slices `records` per SoC × PU × region × policy and scores each slice.
pub fn scorecard(records: &[AuditRecord]) -> Scorecard {
    let mut groups: BTreeMap<(String, String, String, String), Vec<&AuditRecord>> = BTreeMap::new();
    for r in records {
        groups
            .entry((
                r.soc.clone(),
                r.pu.clone(),
                r.region.clone(),
                r.policy.clone(),
            ))
            .or_default()
            .push(r);
    }
    let slices = groups
        .iter()
        .map(|((soc, pu, region, policy), rs)| {
            SliceScore::from_errors((soc, pu, region, policy), rs)
        })
        .collect();
    let all: Vec<&AuditRecord> = records.iter().collect();
    Scorecard {
        slices,
        overall: SliceScore::from_errors(("(all)", "(all)", "(all)", "(all)"), &all),
    }
}

/// Mean absolute error over `records`, or `0.0` when empty.
pub fn mean_abs_error<'a, I: IntoIterator<Item = &'a AuditRecord>>(records: I) -> f64 {
    let errs: Vec<f64> = records.into_iter().map(AuditRecord::abs_error).collect();
    if errs.is_empty() {
        0.0
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    }
}

/// Renders raw records as a tagged JSONL stream (`{"type":"audit", ...}`
/// per line), composing with the other telemetry event streams.
pub fn jsonl(records: &[AuditRecord]) -> String {
    export::jsonl_records("audit", records)
}

/// Renders a scorecard as an aligned text table, slices first and the
/// `(all)` aggregate last.
pub fn render_scorecard(card: &Scorecard) -> String {
    const HEADERS: [&str; 9] = [
        "soc", "pu", "region", "policy", "n", "MAE", "MAPE%", "p95", "worst",
    ];
    let fmt_row = |s: &SliceScore| -> [String; 9] {
        [
            s.soc.clone(),
            s.pu.clone(),
            s.region.clone(),
            s.policy.clone(),
            s.samples.to_string(),
            format!("{:.2}", s.mae),
            format!("{:.2}", s.mape_pct),
            format!("{:.2}", s.p95_abs_error),
            format!("{:.2}", s.worst_abs_error),
        ]
    };
    let mut rows: Vec<[String; 9]> = card.slices.iter().map(fmt_row).collect();
    rows.push(fmt_row(&card.overall));
    let mut widths: Vec<usize> = HEADERS.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let render_line = |out: &mut String, cells: &[String]| {
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:<width$}", width = *w));
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    render_line(&mut out, &HEADERS.map(str::to_owned));
    for row in &rows {
        render_line(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The ledger is process-global and tests run concurrently: serialize
    // every test that toggles the enable switch or drains the ledger.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: StdMutex<()> = StdMutex::new(());
        GUARD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn rec(soc: &str, region: &str, predicted: f64, achieved: f64) -> AuditRecord {
        AuditRecord::new("test", "rs_pct", predicted, achieved)
            .with_soc(soc)
            .with_pu("GPU")
            .with_region(region)
            .with_policy("ATLAS")
    }

    #[test]
    fn ledger_records_only_when_enabled() {
        let _g = guard();
        reset();
        set_enabled(false);
        record(rec("xavier", "normal", 90.0, 88.0));
        assert_eq!(len(), 0, "disabled ledger must drop records");
        set_enabled(true);
        record(rec("xavier", "normal", 90.0, 88.0));
        assert_eq!(len(), 1);
        let drained = drain();
        set_enabled(false);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].soc, "xavier");
        assert_eq!(len(), 0, "drain empties the ledger");
    }

    #[test]
    fn snapshot_preserves_emission_order() {
        let _g = guard();
        reset();
        set_enabled(true);
        record(rec("a", "minor", 100.0, 100.0));
        record(rec("b", "normal", 80.0, 70.0));
        let snap = snapshot();
        set_enabled(false);
        reset();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].soc, "a");
        assert_eq!(snap[1].soc, "b");
    }

    #[test]
    fn shuffled_records_score_bit_identically() {
        // Magnitudes far apart make float sums depend on their order.
        let records: Vec<AuditRecord> = (0..40)
            .map(|i| {
                let scale = 10f64.powi(i % 9 - 4);
                let region = ["minor", "normal", "intensive"][i as usize % 3];
                rec(
                    "xavier",
                    region,
                    100.0 * scale,
                    (100.0 - f64::from(i)) * scale,
                )
            })
            .collect();
        let mut reversed = records.clone();
        reversed.reverse();
        let mut interleaved: Vec<AuditRecord> = records.iter().step_by(2).cloned().collect();
        interleaved.extend(records.iter().skip(1).step_by(2).cloned());
        let bits = |mut recs: Vec<AuditRecord>| {
            sort_canonical(&mut recs);
            let card = scorecard(&recs);
            let mut out = vec![mean_abs_error(recs.iter()).to_bits()];
            for s in card.slices.iter().chain([&card.overall]) {
                out.extend(
                    [s.mae, s.mape_pct, s.p95_abs_error, s.worst_abs_error].map(f64::to_bits),
                );
            }
            out
        };
        let expected = bits(records);
        assert_eq!(bits(reversed), expected);
        assert_eq!(bits(interleaved), expected);
    }

    #[test]
    fn drain_returns_canonical_order() {
        let _g = guard();
        reset();
        set_enabled(true);
        record(rec("b", "normal", 80.0, 70.0));
        record(rec("a", "minor", 100.0, 90.0));
        record(rec("a", "minor", 100.0, 80.0));
        let drained = drain();
        set_enabled(false);
        let got: Vec<(&str, f64)> = drained
            .iter()
            .map(|r| (r.soc.as_str(), r.achieved))
            .collect();
        assert_eq!(got, [("a", 80.0), ("a", 90.0), ("b", 70.0)]);
    }

    #[test]
    fn record_error_accessors() {
        let r = rec("xavier", "normal", 90.0, 80.0);
        assert!((r.abs_error() - 10.0).abs() < 1e-12);
        assert!((r.pct_error().unwrap() - 12.5).abs() < 1e-12);
        let zero = AuditRecord::new("test", "cycles", 5.0, 0.0);
        assert_eq!(zero.pct_error(), None);
        assert_eq!(zero.soc, "-", "unfilled provenance defaults to '-'");
    }

    #[test]
    fn scorecard_slices_and_aggregates() {
        let records = vec![
            rec("xavier", "normal", 90.0, 80.0),    // err 10
            rec("xavier", "normal", 85.0, 80.0),    // err 5
            rec("xavier", "intensive", 50.0, 48.0), // err 2
        ];
        let card = scorecard(&records);
        assert_eq!(card.slices.len(), 2, "two populated slices");
        // BTreeMap order: "intensive" < "normal".
        assert_eq!(card.slices[0].region, "intensive");
        assert_eq!(card.slices[0].samples, 1);
        assert!((card.slices[0].mae - 2.0).abs() < 1e-12);
        let normal = &card.slices[1];
        assert_eq!(normal.samples, 2);
        assert!((normal.mae - 7.5).abs() < 1e-12);
        assert!((normal.worst_abs_error - 10.0).abs() < 1e-12);
        assert!((normal.p95_abs_error - 10.0).abs() < 1e-12);
        assert_eq!(card.overall.samples, 3);
        assert!((card.overall.mae - 17.0 / 3.0).abs() < 1e-12);
        assert!((card.overall.worst_abs_error - 10.0).abs() < 1e-12);
        // MAPE of the overall: (12.5 + 6.25 + 100*2/48) / 3.
        let expect = (12.5 + 6.25 + 100.0 * 2.0 / 48.0) / 3.0;
        assert!((card.overall.mape_pct - expect).abs() < 1e-9);
    }

    #[test]
    fn empty_scorecard_is_total() {
        let card = scorecard(&[]);
        assert!(card.slices.is_empty());
        assert_eq!(card.overall.samples, 0);
        assert_eq!(card.overall.mae, 0.0);
        assert_eq!(card.overall.p95_abs_error, 0.0);
        assert!((mean_abs_error(Vec::new().iter())).abs() < 1e-12);
    }

    #[test]
    fn p95_uses_nearest_rank() {
        // 20 records with errors 1..=20: nearest-rank p95 is the 19th.
        let records: Vec<AuditRecord> = (1..=20)
            .map(|i| rec("x", "normal", 100.0, 100.0 - i as f64))
            .collect();
        let card = scorecard(&records);
        assert!((card.overall.p95_abs_error - 19.0).abs() < 1e-12);
        assert!((card.overall.worst_abs_error - 20.0).abs() < 1e-12);
    }

    #[test]
    fn exporters_render_records_and_tables() {
        let records = vec![rec("xavier", "normal", 90.0, 80.0)];
        let lines = jsonl(&records);
        assert!(lines.contains("\"type\":\"audit\""));
        assert!(lines.contains("\"region\":\"normal\""));
        assert!(lines.ends_with('\n'));
        let card = scorecard(&records);
        let table = render_scorecard(&card);
        assert!(table.contains("soc"), "header present");
        assert!(table.contains("(all)"), "aggregate row present");
        assert!(table.contains("xavier"));
        let back: Vec<SliceScore> =
            vec![serde_json::from_str(&serde_json::to_string(&card.overall).unwrap()).unwrap()];
        assert_eq!(back[0], card.overall, "scores round-trip through JSON");
    }
}
