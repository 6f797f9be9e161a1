//! Accuracy baselines: the `ACCURACY_<host>_<date>.json` trajectory
//! behind `pccs audit` and the CI accuracy gate.
//!
//! Where the repository benchmark (`perfbench/`, `BENCHMARK.json`)
//! answers "did the simulator get slower", this module answers "did the
//! *model* get worse". [`run_accuracy`] replays the five validation figures
//! (Figs. 8–12, `pccs_experiments::validate`) with the prediction-audit
//! ledger enabled, slices the resulting records into a
//! [`Scorecard`](pccs_telemetry::audit::Scorecard), and reports one mean
//! absolute error per figure — numbers that match `pccs repro validate`
//! exactly, because every ledger record *is* one sweep point.
//!
//! The report structure is deterministic (schema tag, figure names,
//! sorted keys), so two baselines diff line by line and [`validate`]
//! can check any emitted file. [`compare`] is the gate: it fails when
//! any figure's mean error drifts above the baseline by more than a
//! tolerance — the sims are deterministic, so at equal fidelity the
//! errors are bit-identical and the default tolerance only absorbs
//! genuine model or calibration changes, not noise.
//!
//! The ledger's runtime cost is measured, not assumed: the report
//! carries `audit_overhead_pct`, the canonical contended co-run timed
//! with auditing on vs off (best of N runs each). The test suite checks
//! the disabled ledger deterministically instead: a run with it off
//! records nothing and allocates nothing.

use crate::{best_of, contended_sim, hostname, today_utc};
use pccs_experiments::context::{Context, Quality};
use pccs_experiments::validate::{run as run_figure, Figure};
use pccs_soc::corun::{CoRunSim, DEFAULT_HORIZON};
use pccs_soc::soc::SocConfig;
use pccs_telemetry::audit::{self, AuditRecord, Scorecard};
use pccs_workloads::rodinia::RodiniaBenchmark;
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// Schema tag every accuracy report carries; bump when the structure
/// changes.
pub const SCHEMA: &str = "pccs-accuracy/v1";

/// The five validation figures an accuracy report must cover, in report
/// (sorted-key) order.
pub const FIGURES: &[&str] = &["fig10", "fig11", "fig12", "fig8", "fig9"];

/// Per-figure drift the gate tolerates, percentage points of mean
/// absolute error. The validation sweeps are deterministic, so at equal
/// fidelity a healthy tree reproduces the baseline exactly; the slack
/// only exists to absorb intentional, reviewed calibration changes that
/// ride along with a baseline refresh.
pub const DEFAULT_TOLERANCE_PCT_POINTS: f64 = 0.5;

/// Audit-ledger overhead budget on the contended co-run, percent
/// (DESIGN.md §12).
const OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// One validation figure's accuracy summary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FigureAccuracy {
    /// Sweep points audited (records contributing to the means).
    pub samples: u64,
    /// Mean absolute PCCS error over the sweep, percentage points —
    /// equal to `Validation::avg_pccs_error` for the same figure.
    pub mean_abs_error_pct: f64,
    /// Worst single-point absolute error, percentage points.
    pub worst_abs_error_pct: f64,
}

/// One accuracy baseline: model error per figure, the sliced scorecard,
/// and the measured ledger overhead.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AccuracyReport {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Sanitized host name the run executed on.
    pub host: String,
    /// UTC date of the run, `YYYY-MM-DD`.
    pub date: String,
    /// Whether the quick (smoke) sweep sizes were used. Gate comparisons
    /// require equal fidelity.
    pub quick: bool,
    /// Per-figure accuracy, keyed `fig8`..`fig12`.
    pub figures: BTreeMap<String, FigureAccuracy>,
    /// The full scorecard over every audited sweep point, sliced per
    /// SoC × PU × region × policy.
    pub scorecard: Scorecard,
    /// Measured wall-clock overhead of the enabled ledger on the
    /// contended co-run, percent.
    pub audit_overhead_pct: f64,
}

impl AccuracyReport {
    /// The canonical file name for this report:
    /// `ACCURACY_<host>_<date>.json`.
    pub fn filename(&self) -> String {
        format!("ACCURACY_{}_{}.json", self.host, self.date)
    }

    /// The report as a JSON value (sorted keys, deterministic
    /// structure).
    pub fn to_json(&self) -> Value {
        self.to_value()
    }

    /// The per-figure summary table plus the rendered scorecard.
    pub fn format(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "Model accuracy ({} fidelity)", fidelity(self.quick));
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>10} {:>10}",
            "figure", "points", "MAE", "worst"
        );
        for (name, f) in &self.figures {
            let _ = writeln!(
                out,
                "{name:<8} {:>8} {:>9.2}% {:>9.2}%",
                f.samples, f.mean_abs_error_pct, f.worst_abs_error_pct
            );
        }
        let _ = writeln!(
            out,
            "audit overhead: {:.2}% (budget {OVERHEAD_BUDGET_PCT}%)",
            self.audit_overhead_pct
        );
        out.push('\n');
        out.push_str(&audit::render_scorecard(&self.scorecard));
        out
    }
}

fn fidelity(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

/// Replays Figs. 8–12 with the audit ledger enabled and assembles the
/// accuracy report. `quick` shrinks the sweeps for CI smoke use; the
/// committed baseline is generated at the same fidelity the gate later
/// compares at.
///
/// The ledger is drained per figure (figure = one validation sweep), so
/// the report is self-contained regardless of what was recorded before,
/// and the enabled flag is restored afterwards.
///
/// # Panics
///
/// Panics if a bundled figure fails to run (a bug in the presets) or if
/// a figure's ledger-derived mean disagrees with the sweep's own
/// headline — the invariant that makes the scorecard trustworthy.
pub fn run_accuracy(quick: bool) -> AccuracyReport {
    let quality = if quick { Quality::Quick } else { Quality::Full };
    let mut ctx = Context::new(quality);
    let was_enabled = audit::is_enabled();
    audit::set_enabled(true);
    audit::drain();
    let mut figures = BTreeMap::new();
    let mut all_records: Vec<AuditRecord> = Vec::new();
    for fig in Figure::all() {
        let v = run_figure(&mut ctx, fig).expect("bundled validation figures run");
        let recs: Vec<AuditRecord> = audit::drain()
            .into_iter()
            .filter(|r| r.source == "validate")
            .collect();
        let mae = audit::mean_abs_error(recs.iter());
        // Every bench in a figure sweeps the same external grid, so the
        // flat ledger mean must equal the figure's equal-weight headline.
        assert!(
            (mae - v.avg_pccs_error()).abs() < 1e-9,
            "fig{}: ledger MAE {mae} != validation headline {}",
            fig.number(),
            v.avg_pccs_error()
        );
        let worst = recs.iter().map(AuditRecord::abs_error).fold(0.0, f64::max);
        figures.insert(
            format!("fig{}", fig.number()),
            FigureAccuracy {
                samples: recs.len() as u64,
                mean_abs_error_pct: mae,
                worst_abs_error_pct: worst,
            },
        );
        all_records.extend(recs);
    }
    let scorecard = audit::scorecard(&all_records);
    let audit_overhead_pct = measure_audit_overhead(quick);
    audit::set_enabled(was_enabled);
    AccuracyReport {
        schema: SCHEMA.to_owned(),
        host: hostname(),
        date: today_utc(),
        quick,
        figures,
        scorecard,
        audit_overhead_pct,
    }
}

/// The canonical contended co-run ([`contended_sim`]) with one registered
/// expectation, so a record flows per run while the ledger is enabled.
fn audited_corun(soc: &SocConfig, horizon: u64) -> CoRunSim {
    let gpu = soc.pu_index("GPU").unwrap_or(0);
    let kernel = RodiniaBenchmark::Streamcluster.kernel(soc.pus[gpu].kind);
    let standalone = CoRunSim::standalone(soc, gpu, &kernel, horizon);
    let mut sim = contended_sim(soc, horizon);
    sim.expect_rs("bench-overhead", "streamcluster", "-", standalone, 80.0);
    sim
}

/// Times [`audited_corun`] with the ledger enabled vs disabled, best of N
/// runs each. Returns the enabled-mode overhead percent.
fn measure_audit_overhead(quick: bool) -> f64 {
    let soc = SocConfig::xavier();
    let iterations = if quick { 3 } else { 5 };
    let sim = audited_corun(&soc, DEFAULT_HORIZON);
    let was_enabled = audit::is_enabled();
    audit::set_enabled(true);
    let wall_on = best_of(iterations, || {
        let _ = sim.execute();
    });
    audit::set_enabled(false);
    let wall_off = best_of(iterations, || {
        let _ = sim.execute();
    });
    audit::set_enabled(was_enabled);
    // The probe's records are measurement exhaust, not model evidence.
    audit::drain();
    if wall_off > 0.0 {
        (wall_on / wall_off - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Validates a parsed accuracy report against the [`SCHEMA`] contract:
/// schema tag, host/date, all five figures with samples and finite
/// non-negative errors (worst ≥ mean), a scorecard whose overall slice
/// saw every sample, and a finite overhead measurement.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate(report: &Value) -> Result<(), String> {
    let obj = report
        .as_object()
        .ok_or_else(|| "accuracy report is not a JSON object".to_owned())?;
    match obj.get("schema").and_then(Value::as_str) {
        Some(tag) if tag == SCHEMA => {}
        Some(tag) => return Err(format!("schema is '{tag}', expected '{SCHEMA}'")),
        None => return Err("missing schema tag".to_owned()),
    }
    for key in ["host", "date"] {
        match obj.get(key).and_then(Value::as_str) {
            Some(s) if !s.is_empty() => {}
            _ => return Err(format!("missing or empty '{key}'")),
        }
    }
    if obj.get("quick").and_then(Value::as_bool).is_none() {
        return Err("missing boolean 'quick'".to_owned());
    }
    let figures = obj
        .get("figures")
        .and_then(Value::as_object)
        .ok_or_else(|| "missing figures object".to_owned())?;
    let mut samples_total = 0;
    for name in FIGURES {
        let f = figures
            .get(*name)
            .and_then(Value::as_object)
            .ok_or_else(|| format!("missing figure '{name}'"))?;
        let samples = match f.get("samples").and_then(Value::as_u64) {
            Some(n) if n > 0 => n,
            _ => return Err(format!("figure '{name}': samples must be positive")),
        };
        samples_total += samples;
        let mean = f.get("mean_abs_error_pct").and_then(Value::as_f64);
        let worst = f.get("worst_abs_error_pct").and_then(Value::as_f64);
        match (mean, worst) {
            (Some(m), Some(w)) if m.is_finite() && m >= 0.0 && w >= m => {}
            _ => {
                return Err(format!(
                    "figure '{name}': needs finite errors with worst >= mean"
                ))
            }
        }
    }
    let overall_samples = obj
        .get("scorecard")
        .and_then(|c| c.get("overall"))
        .and_then(|o| o.get("samples"))
        .and_then(Value::as_u64);
    match overall_samples {
        Some(n) if n == samples_total => {}
        Some(n) => {
            return Err(format!(
                "scorecard overall covers {n} samples, figures total {samples_total}"
            ))
        }
        None => return Err("missing scorecard.overall.samples".to_owned()),
    }
    match obj.get("audit_overhead_pct").and_then(Value::as_f64) {
        Some(pct) if pct.is_finite() => {}
        _ => return Err("missing finite audit_overhead_pct".to_owned()),
    }
    Ok(())
}

fn figure_mean(report: &Value, name: &str) -> Result<f64, String> {
    report
        .as_object()
        .and_then(|o| o.get("figures"))
        .and_then(|f| f.get(name))
        .and_then(|f| f.get("mean_abs_error_pct"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("figure '{name}': missing mean_abs_error_pct"))
}

/// The accuracy gate: fails when any figure's mean absolute error in
/// `current` exceeds the `baseline`'s by more than `tolerance`
/// percentage points. Improvements always pass (the gate is one-sided);
/// refreshing the committed baseline is how an improvement becomes the
/// new bar. Both reports must be schema-valid and at the same fidelity.
///
/// # Errors
///
/// Returns the first drifted figure with both means and the tolerance,
/// or the schema/fidelity violation that made the comparison
/// meaningless.
pub fn compare(baseline: &Value, current: &Value, tolerance: f64) -> Result<(), String> {
    validate(baseline).map_err(|e| format!("baseline: {e}"))?;
    validate(current).map_err(|e| format!("current: {e}"))?;
    let quick_of = |v: &Value| {
        v.as_object()
            .and_then(|o| o.get("quick"))
            .and_then(Value::as_bool)
    };
    let label = |q: Option<bool>| match q {
        Some(true) => "quick",
        Some(false) => "full",
        None => "unknown",
    };
    let (b_quick, c_quick) = (quick_of(baseline), quick_of(current));
    if b_quick != c_quick {
        return Err(format!(
            "fidelity mismatch: baseline is {} fidelity, current is {} — \
             the gate only compares reports of equal fidelity",
            label(b_quick),
            label(c_quick)
        ));
    }
    for name in FIGURES {
        let b = figure_mean(baseline, name)?;
        let c = figure_mean(current, name)?;
        if c - b > tolerance {
            return Err(format!(
                "accuracy gate: {name} mean abs error drifted {b:.3} -> {c:.3} \
                 pct points (tolerance {tolerance:.3})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccs_core::{PccsModel, SlowdownModel};
    use std::sync::Mutex;

    /// The audit ledger is process-global; tests that enable/drain it
    /// serialize here.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn synthetic_report(recs: &[AuditRecord]) -> AccuracyReport {
        let mae = audit::mean_abs_error(recs.iter());
        let worst = recs.iter().map(AuditRecord::abs_error).fold(0.0, f64::max);
        let figures = FIGURES
            .iter()
            .map(|n| {
                (
                    (*n).to_owned(),
                    FigureAccuracy {
                        samples: recs.len() as u64,
                        mean_abs_error_pct: mae,
                        worst_abs_error_pct: worst,
                    },
                )
            })
            .collect();
        // The synthetic scorecard reuses one figure's records five
        // times, so patch the overall sample count to match the figure
        // totals the validator cross-checks.
        let mut scorecard = audit::scorecard(recs);
        scorecard.overall.samples = 5 * recs.len() as u64;
        AccuracyReport {
            schema: SCHEMA.to_owned(),
            host: "test".to_owned(),
            date: "2026-08-08".to_owned(),
            quick: true,
            figures,
            scorecard,
            audit_overhead_pct: 0.0,
        }
    }

    #[test]
    fn quick_accuracy_report_is_schema_valid_and_cheap() {
        let _g = guard();
        let report = run_accuracy(true);
        let json = report.to_json();
        validate(&json).expect("freshly generated report satisfies its own schema");
        assert_eq!(report.figures.len(), 5);
        for name in FIGURES {
            assert!(report.figures.contains_key(*name));
        }
        let total: u64 = report.figures.values().map(|f| f.samples).sum();
        assert_eq!(report.scorecard.overall.samples, total);
        // A report gates cleanly against itself at zero tolerance — the
        // self-comparison every fresh baseline must survive.
        compare(&json, &json, 0.0).expect("self-comparison passes");
        assert!(report.format().contains("fig12"));
    }

    #[test]
    fn disabled_ledger_records_and_allocates_nothing() {
        let _g = guard();
        let was_enabled = audit::is_enabled();
        let sim = audited_corun(&SocConfig::xavier(), DEFAULT_HORIZON / 4);
        audit::set_enabled(false);
        audit::drain();
        let _ = sim.execute();
        let (records, slots) = (audit::len(), audit::capacity());
        // The same run with the ledger on does record, so the check above
        // is not vacuous.
        audit::set_enabled(true);
        let _ = sim.execute();
        let enabled_records = audit::drain().len();
        audit::set_enabled(was_enabled);
        assert_eq!(records, 0, "a disabled ledger must record nothing");
        assert_eq!(slots, 0, "a disabled ledger must allocate nothing");
        assert_eq!(enabled_records, 1, "one expectation, one record");
    }

    #[test]
    fn perturbed_model_trips_the_accuracy_gate() {
        // Falsifiability: drift one calibrated constant (the region
        // bandwidths, via scale_bandwidth) and the scorecard plus the
        // gate must both flag it against the unperturbed baseline.
        let truth = PccsModel::xavier_gpu_paper();
        let drifted = truth.scale_bandwidth(0.7);
        // A normal/intensive-region demand: here the region bandwidths
        // actually shape the prediction, so the 0.7x miscalibration is
        // visible (in the minor region both models predict ~100%).
        let demand = 40.0;
        let grid = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0];
        let sweep = |model: &PccsModel| -> Vec<AuditRecord> {
            grid.iter()
                .map(|&y| {
                    AuditRecord::new(
                        "validate",
                        "rs_pct",
                        model.relative_speed_pct(demand, y),
                        truth.relative_speed_pct(demand, y),
                    )
                    .with_soc("xavier")
                    .with_pu("GPU")
                    .with_workload("gate-unit-test")
                    .with_region(model.region_label(demand))
                })
                .collect()
        };
        let base = synthetic_report(&sweep(&truth));
        let drift = synthetic_report(&sweep(&drifted));
        assert!(
            drift.scorecard.overall.mae > base.scorecard.overall.mae + 1.0,
            "scorecard must surface the regression: {} vs {}",
            drift.scorecard.overall.mae,
            base.scorecard.overall.mae
        );
        let err = compare(
            &base.to_json(),
            &drift.to_json(),
            DEFAULT_TOLERANCE_PCT_POINTS,
        )
        .expect_err("gate fails on a perturbed model");
        assert!(err.contains("accuracy gate"), "unexpected error: {err}");
        // The unperturbed model still passes its own gate.
        compare(&base.to_json(), &base.to_json(), 0.0).expect("no drift, no failure");
    }

    #[test]
    fn validate_rejects_broken_reports() {
        assert!(validate(&Value::Null).is_err());
        let mut obj = BTreeMap::new();
        obj.insert(
            "schema".to_owned(),
            Value::String("pccs-accuracy/v0".to_owned()),
        );
        assert!(validate(&Value::Object(obj)).is_err());
        // A valid report turned fidelity-mismatched fails compare.
        let recs = vec![AuditRecord::new("validate", "rs_pct", 90.0, 91.0)];
        let report = synthetic_report(&recs);
        let mut full = report.clone();
        full.quick = false;
        let err = compare(&report.to_json(), &full.to_json(), 10.0)
            .expect_err("fidelity mismatch must not gate silently");
        assert!(err.contains("fidelity mismatch"), "unexpected error: {err}");
    }
}
