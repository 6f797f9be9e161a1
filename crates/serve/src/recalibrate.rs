//! Incremental recalibration: track observed-vs-predicted drift per PU.
//!
//! The admission controller and the PCCS placement policy both trust
//! per-PU slowdown models calibrated offline. When the served mix drifts
//! away from the calibration conditions, predictions go stale. The drift
//! monitor watches the ratio of observed to predicted bundle service time
//! over a sliding window per PU; when the window's mean ratio strays from
//! the correction currently in force by more than a bound, it refreshes
//! the correction (a multiplicative service-time factor the admission
//! controller applies) and counts a recalibration.
//!
//! The monitor is a *windowed view over the prediction-audit ledger*
//! (`pccs_telemetry::audit`): the serving engine resolves each completed
//! bundle into one [`AuditRecord`] and feeds it through
//! [`DriftMonitor::observe_audited`], which writes the pair to the
//! process-global ledger and folds it into the sliding window in one
//! step. What the offline scorecards slice after a run is exactly the
//! stream the monitor reacted to online.
//!
//! [`AuditRecord`]: pccs_telemetry::audit::AuditRecord

use pccs_telemetry::audit::{self, AuditRecord};
use pccs_telemetry::metrics;
use std::collections::VecDeque;

/// Sliding-window drift tracking for the per-PU models.
#[derive(Debug)]
pub struct DriftMonitor {
    /// Per-PU windows of observed/predicted service-time ratios.
    windows: Vec<VecDeque<f64>>,
    /// Per-PU corrections currently in force.
    corrections: Vec<f64>,
    /// Window length in observations.
    window: usize,
    /// Relative drift that triggers a recalibration (e.g. `0.25` = the
    /// window mean strayed 25% from the correction in force).
    bound: f64,
    recalibrations: u64,
}

impl DriftMonitor {
    /// A monitor for `pus` processing units.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `bound` is not positive.
    pub fn new(pus: usize, window: usize, bound: f64) -> Self {
        assert!(window > 0, "drift window must be non-empty");
        assert!(bound > 0.0, "drift bound must be positive");
        Self {
            windows: (0..pus).map(|_| VecDeque::with_capacity(window)).collect(),
            corrections: vec![1.0; pus],
            window,
            bound,
            recalibrations: 0,
        }
    }

    /// Feeds one completed bundle's predicted and observed service time on
    /// PU `pu_idx`. Returns the refreshed correction when this observation
    /// pushed the window past the drift bound, `None` otherwise.
    pub fn observe(&mut self, pu_idx: usize, predicted: f64, observed: f64) -> Option<f64> {
        if predicted <= 0.0 || observed <= 0.0 {
            return None;
        }
        let window = self.windows.get_mut(pu_idx)?;
        if window.len() == self.window {
            window.pop_front();
        }
        window.push_back(observed / predicted);
        if window.len() < self.window {
            return None;
        }
        // The ratio is measured against *corrected* predictions, so the
        // target correction compounds the one already in force.
        let mean: f64 = window.iter().sum::<f64>() / window.len() as f64;
        if (mean - 1.0).abs() <= self.bound {
            return None;
        }
        let refreshed = (self.corrections[pu_idx] * mean).clamp(0.1, 10.0);
        self.corrections[pu_idx] = refreshed;
        window.clear();
        self.recalibrations += 1;
        // Only published when drift actually trips, so the bench baselines
        // (drift-free replays) never carry it; keep it out of the registry.
        // pccs-lint: allow(metrics-registry-drift)
        metrics::add("serve.recalibrations", 1);
        Some(refreshed)
    }

    /// Feeds one resolved prediction as an audit record: the record is
    /// written to the process-global ledger (when auditing is enabled)
    /// and its (predicted, achieved) pair drives the drift window exactly
    /// like [`DriftMonitor::observe`].
    pub fn observe_audited(&mut self, pu_idx: usize, rec: AuditRecord) -> Option<f64> {
        let (predicted, achieved) = (rec.predicted, rec.achieved);
        audit::record(rec);
        self.observe(pu_idx, predicted, achieved)
    }

    /// The correction currently in force for PU `pu_idx`.
    pub fn correction(&self, pu_idx: usize) -> f64 {
        self.corrections.get(pu_idx).copied().unwrap_or(1.0)
    }

    /// Recalibrations triggered so far.
    pub fn recalibrations(&self) -> u64 {
        self.recalibrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accurate_predictions_never_trigger() {
        let mut mon = DriftMonitor::new(2, 4, 0.25);
        for _ in 0..20 {
            assert!(mon.observe(0, 1_000.0, 1_050.0).is_none());
        }
        assert_eq!(mon.recalibrations(), 0);
        assert_eq!(mon.correction(0), 1.0);
    }

    #[test]
    fn sustained_underprediction_refreshes_the_correction() {
        let mut mon = DriftMonitor::new(1, 4, 0.25);
        let mut refreshed = None;
        for _ in 0..4 {
            refreshed = mon.observe(0, 1_000.0, 2_000.0);
        }
        let factor = refreshed.expect("four 2x observations fill the window");
        assert!((factor - 2.0).abs() < 1e-9);
        assert_eq!(mon.recalibrations(), 1);
        assert_eq!(mon.correction(0), factor);
        // The window restarts after a refresh: no immediate re-trigger.
        assert!(mon.observe(0, 1_000.0, 2_000.0).is_none());
    }

    #[test]
    fn corrections_compound_across_refreshes() {
        let mut mon = DriftMonitor::new(1, 2, 0.1);
        for _ in 0..2 {
            mon.observe(0, 1_000.0, 1_500.0);
        }
        assert!((mon.correction(0) - 1.5).abs() < 1e-9);
        for _ in 0..2 {
            mon.observe(0, 1_000.0, 1_500.0);
        }
        assert!((mon.correction(0) - 2.25).abs() < 1e-9);
        assert_eq!(mon.recalibrations(), 2);
    }

    #[test]
    fn degenerate_observations_are_ignored() {
        let mut mon = DriftMonitor::new(1, 1, 0.1);
        assert!(mon.observe(0, 0.0, 100.0).is_none());
        assert!(mon.observe(0, 100.0, 0.0).is_none());
        assert!(mon.observe(5, 100.0, 100.0).is_none()); // out of range
        assert_eq!(mon.recalibrations(), 0);
    }

    #[test]
    fn empty_window_reports_identity_correction() {
        let mon = DriftMonitor::new(3, 4, 0.25);
        for pu in 0..3 {
            assert_eq!(mon.correction(pu), 1.0);
        }
        assert_eq!(mon.correction(99), 1.0, "out-of-range PU reads identity");
        assert_eq!(mon.recalibrations(), 0);
    }

    #[test]
    fn single_sample_window_triggers_immediately() {
        let mut mon = DriftMonitor::new(1, 1, 0.25);
        // One drifting observation fills a window of one and triggers.
        let factor = mon.observe(0, 1_000.0, 3_000.0).expect("window of one");
        assert!((factor - 3.0).abs() < 1e-9);
        assert_eq!(mon.recalibrations(), 1);
        // An in-bound single observation does not.
        assert!(mon.observe(0, 1_000.0, 1_100.0).is_none());
    }

    #[test]
    fn window_boundary_evicts_the_oldest_sample() {
        let mut mon = DriftMonitor::new(1, 2, 0.25);
        // A 4x outlier enters first but never pairs with a full window.
        assert!(mon.observe(0, 1_000.0, 4_000.0).is_none());
        // Two accurate samples evict it: means are (4.0+1.0)/2 = 2.5
        // (trigger), then after the refresh-clear the window refills.
        let refreshed = mon.observe(0, 1_000.0, 1_000.0).expect("mean 2.5 drifts");
        assert!((refreshed - 2.5).abs() < 1e-9);
        // Post-refresh, only new samples count: two accurate ones stay
        // quiet because the outlier is gone from the window.
        assert!(mon.observe(0, 1_000.0, 1_000.0).is_none());
        assert!(mon.observe(0, 1_000.0, 1_000.0).is_none());
        assert_eq!(mon.recalibrations(), 1);
        // Eviction keeps the window at its bound: a third consecutive
        // sample pops the first, so the mean tracks the last two only.
        let mut mon = DriftMonitor::new(1, 2, 0.25);
        assert!(mon.observe(0, 1_000.0, 4_000.0).is_none());
        assert_eq!(mon.windows[0].len(), 1);
        mon.observe(0, 1_000.0, 4_000.0);
        assert_eq!(mon.windows[0].len(), 0, "trigger clears the window");
        assert!(mon.observe(0, 1_000.0, 1_000.0).is_none());
        assert!(mon.observe(0, 1_000.0, 1_000.0).is_none());
        assert_eq!(mon.windows[0].len(), 2, "window capped at its length");
        mon.observe(0, 1_000.0, 1_000.0);
        assert_eq!(mon.windows[0].len(), 2, "boundary eviction pops the front");
    }

    #[test]
    fn audited_observations_land_in_the_ledger() {
        let mut mon = DriftMonitor::new(1, 1, 0.25);
        audit::set_enabled(true);
        let refreshed = mon.observe_audited(
            0,
            AuditRecord::new("serve", "cycles", 1_000.0, 2_000.0)
                .with_soc("xavier")
                .with_workload("drift-unit-test"),
        );
        audit::set_enabled(false);
        assert!((refreshed.expect("2x drift on a window of one") - 2.0).abs() < 1e-9);
        let recs: Vec<_> = audit::snapshot()
            .into_iter()
            .filter(|r| r.workload == "drift-unit-test")
            .collect();
        assert_eq!(recs.len(), 1, "the monitor writes through to the ledger");
        assert_eq!(recs[0].source, "serve");
        assert!((recs[0].achieved - 2_000.0).abs() < 1e-12);
    }
}
