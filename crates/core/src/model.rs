//! The three-region slowdown model (Equations 2–5 of the paper) and its
//! linear bandwidth scaling (Section 3.3).

use crate::error::ModelBuildError;
use crate::region::Region;
use crate::traits::SlowdownModel;
use serde::{Deserialize, Serialize};

/// A constructed PCCS model for one processing unit on one SoC.
///
/// All bandwidth-typed parameters are in GB/s; `mrmc` is a percentage;
/// `rate_n` is % of relative speed lost per GB/s of excess total demand.
///
/// Construct via [`ModelBuilder`](crate::builder::ModelBuilder) from
/// calibration measurements, or directly with [`PccsModel::from_parameters`]
/// when parameters are known (e.g. the paper's Table 7 values).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PccsModel {
    /// Boundary between the minor and normal contention regions (GB/s).
    pub normal_bw: f64,
    /// Boundary between the normal and intensive contention regions (GB/s).
    pub intensive_bw: f64,
    /// Maximum reduction of minor contention, in percent, observed at the
    /// largest external pressure. `None` when the PU has no minor region
    /// (the paper reports "NA" for the DLA).
    pub mrmc: Option<f64>,
    /// Contention balance point: the external demand (GB/s) beyond which
    /// the speed curve flattens.
    pub cbp: f64,
    /// Total bandwidth demand with contention: the total (own + external)
    /// demand (GB/s) at which the dropping phase begins.
    pub tbwdc: f64,
    /// Reduction rate in the normal region, % per GB/s.
    pub rate_n: f64,
    /// Peak bandwidth of the SoC (GB/s).
    pub peak_bw: f64,
}

impl PccsModel {
    /// Assembles a model from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters break an invariant [`Self::validate`]
    /// checks.
    pub fn from_parameters(
        normal_bw: f64,
        intensive_bw: f64,
        mrmc: Option<f64>,
        cbp: f64,
        tbwdc: f64,
        rate_n: f64,
        peak_bw: f64,
    ) -> Self {
        let model = Self {
            normal_bw,
            intensive_bw,
            mrmc,
            cbp,
            tbwdc,
            rate_n,
            peak_bw,
        };
        let verdict = model.validate();
        assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        model
    }

    /// Checks the model's invariants: every parameter is finite, the region
    /// boundaries are non-negative and ordered, `tbwdc` and `rate_n` are
    /// non-negative, `cbp` and `peak_bw` are positive, and `mrmc` is a
    /// percentage. A model read from a file (which bypasses
    /// [`Self::from_parameters`]) must pass this before use.
    ///
    /// # Errors
    ///
    /// Returns [`ModelBuildError::InvalidParameters`] naming the first
    /// broken invariant.
    pub fn validate(&self) -> Result<(), ModelBuildError> {
        let finite = [
            self.normal_bw,
            self.intensive_bw,
            self.mrmc.unwrap_or(0.0),
            self.cbp,
            self.tbwdc,
            self.rate_n,
            self.peak_bw,
        ]
        .iter()
        .all(|v| v.is_finite());
        let reason = if !finite {
            "every parameter must be finite"
        } else if !(self.normal_bw >= 0.0 && self.intensive_bw >= self.normal_bw) {
            "region boundaries unordered"
        } else if self.cbp <= 0.0 {
            "contention balance point must be positive"
        } else if self.tbwdc < 0.0 {
            "TBWDC must be non-negative"
        } else if self.rate_n < 0.0 {
            "reduction rate must be non-negative"
        } else if self.peak_bw <= 0.0 {
            "peak bandwidth must be positive"
        } else if self.mrmc.is_some_and(|m| !(0.0..=100.0).contains(&m)) {
            "MRMC is a percentage"
        } else {
            return Ok(());
        };
        Err(ModelBuildError::InvalidParameters { reason })
    }

    /// The Xavier GPU model of Table 7 (rate_n back-derived from the
    /// reported Rate^I at the intensive boundary).
    pub fn xavier_gpu_paper() -> Self {
        Self::from_parameters(38.1, 96.2, Some(4.9), 45.3, 87.2, 0.83, 137.0)
    }

    /// The Xavier CPU model of Table 7.
    pub fn xavier_cpu_paper() -> Self {
        Self::from_parameters(37.6, 65.7, Some(3.7), 46.6, 82.8, 0.92, 137.0)
    }

    /// The Xavier DLA model of Table 7 (no minor region).
    pub fn xavier_dla_paper() -> Self {
        Self::from_parameters(0.0, 27.9, None, 71.1, 22.1, 0.32, 137.0)
    }

    /// Classifies a standalone demand into its contention region
    /// (Equation 1).
    pub fn region(&self, x: f64) -> Region {
        Region::classify(x, self.normal_bw, self.intensive_bw)
    }

    /// The MRMC percentage used in formulas (0 when the PU has none).
    fn mrmc_pct(&self) -> f64 {
        self.mrmc.unwrap_or(0.0)
    }

    /// Equation 2: achieved relative speed in the minor region. The
    /// reduction grows with the external pressure `y` and reaches `MRMC` at
    /// the SoC's peak bandwidth. (The paper's printed equation writes the
    /// traffic variable as `x`; MRMC's definition — "the maximum slowdown …
    /// at the largest external memory pressure" — fixes the intended
    /// variable as the external demand.)
    fn rs_minor(&self, y: f64) -> f64 {
        100.0 - self.mrmc_pct() * y.min(self.peak_bw) / self.peak_bw
    }

    /// Equation 3: the normal region. Flat (minor-like) while
    /// `x + y ≤ TBWDC`, then dropping at `rate_n` per GB/s of excess total
    /// demand, then flat once `y ≥ CBP`.
    fn rs_normal(&self, x: f64, y: f64) -> f64 {
        let base = self.rs_minor(y);
        let eff_y = y.min(self.cbp);
        let excess = x + eff_y - self.tbwdc;
        if excess <= 0.0 {
            base
        } else {
            // `min` keeps the piecewise form continuous where the linear
            // segment crosses the minor baseline.
            base.min(100.0 - excess * self.rate_n)
        }
    }

    /// Equation 4: the intensive-region reduction rate for a kernel with
    /// standalone demand `x`: the normal-region curve extended to `y = CBP`
    /// and divided by `CBP`, so the drop starts at `y = 0`.
    pub fn rate_i(&self, x: f64) -> f64 {
        (self.rate_n * (x + self.cbp - self.tbwdc) / self.cbp).max(0.0)
    }

    /// The representative intensive rate reported in Table 7: [`Self::rate_i`]
    /// evaluated at the intensive-region boundary.
    pub fn rate_i_representative(&self) -> f64 {
        self.rate_i(self.intensive_bw)
    }

    /// Equation 5: the intensive region — linear drop at
    /// [`Self::rate_i`] until `CBP`, flat afterwards.
    fn rs_intensive(&self, x: f64, y: f64) -> f64 {
        let eff_y = y.min(self.cbp);
        100.0 - eff_y * self.rate_i(x)
    }

    /// Predicts the achieved relative speed (percent of standalone speed)
    /// of a kernel whose standalone bandwidth demand is `x` GB/s under
    /// `y` GB/s of total external demand.
    ///
    /// The result is clamped to `[0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is negative or not finite.
    pub fn predict(&self, x: f64, y: f64) -> f64 {
        assert!(
            x.is_finite() && x >= 0.0,
            "demand must be finite and non-negative"
        );
        assert!(
            y.is_finite() && y >= 0.0,
            "external demand must be finite and non-negative"
        );
        let rs = match self.region(x) {
            Region::Minor => self.rs_minor(y),
            Region::Normal => self.rs_normal(x, y),
            Region::Intensive => self.rs_intensive(x, y),
        };
        rs.clamp(0.0, 100.0)
    }

    /// Linear bandwidth scaling (Section 3.3): returns the model adapted to
    /// a memory subsystem whose peak bandwidth is `ratio ×` the calibrated
    /// one (frequency and/or channel-count changes). The five
    /// bandwidth-typed parameters scale linearly; `rate_n` scales inversely
    /// so percentage drops are preserved at corresponding operating points;
    /// `MRMC` is a percentage and does not scale (Table 5).
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not positive and finite.
    pub fn scale_bandwidth(&self, ratio: f64) -> Self {
        assert!(
            ratio > 0.0 && ratio.is_finite(),
            "scaling ratio must be positive and finite"
        );
        Self {
            normal_bw: self.normal_bw * ratio,
            intensive_bw: self.intensive_bw * ratio,
            mrmc: self.mrmc,
            cbp: self.cbp * ratio,
            tbwdc: self.tbwdc * ratio,
            rate_n: self.rate_n / ratio,
            peak_bw: self.peak_bw * ratio,
        }
    }
}

impl SlowdownModel for PccsModel {
    fn name(&self) -> &'static str {
        "PCCS"
    }

    fn relative_speed_pct(&self, demand_gbps: f64, external_gbps: f64) -> f64 {
        self.predict(demand_gbps, external_gbps)
    }

    fn region_label(&self, demand_gbps: f64) -> &'static str {
        match self.region(demand_gbps) {
            Region::Minor => "minor",
            Region::Normal => "normal",
            Region::Intensive => "intensive",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> PccsModel {
        PccsModel::xavier_gpu_paper()
    }

    #[test]
    fn no_pressure_means_no_slowdown() {
        let m = gpu();
        for x in [5.0, 50.0, 120.0] {
            let rs = m.predict(x, 0.0);
            assert!((99.0..=100.0).contains(&rs) || m.region(x) == Region::Intensive);
        }
        // Even intensive kernels start at 100 with zero pressure.
        assert!((m.predict(120.0, 0.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn minor_region_loses_at_most_mrmc() {
        let m = gpu();
        let rs = m.predict(10.0, m.peak_bw);
        assert!((rs - (100.0 - 4.9)).abs() < 1e-9);
        // Beyond peak pressure the loss saturates.
        assert_eq!(m.predict(10.0, 500.0), rs);
    }

    #[test]
    fn normal_region_has_three_stages() {
        let m = gpu();
        let x = 60.0; // normal region
                      // Stage 1: flat while x + y <= TBWDC (y <= 27.2).
        let flat = m.predict(x, 10.0);
        assert!(flat > 99.0);
        // Stage 2: dropping.
        let mid = m.predict(x, 40.0);
        assert!(mid < flat - 5.0, "mid={mid}");
        // Stage 3: flat past CBP.
        let at_cbp = m.predict(x, m.cbp);
        let beyond = m.predict(x, m.cbp + 30.0);
        assert!((at_cbp - beyond).abs() < m.mrmc.unwrap() + 1e-9);
    }

    #[test]
    fn normal_region_is_continuous_at_tbwdc_crossing() {
        let m = gpu();
        let x = 60.0;
        let y_star = m.tbwdc - x; // crossing point
        let before = m.predict(x, y_star - 1e-6);
        let after = m.predict(x, y_star + 1e-6);
        assert!(
            (before - after).abs() < 1e-3,
            "jump at TBWDC: {before} vs {after}"
        );
    }

    #[test]
    fn intensive_region_drops_immediately() {
        let m = gpu();
        let x = 120.0;
        let rs = m.predict(x, 5.0);
        assert!(
            rs < 100.0 - 4.0,
            "intensive kernel should drop fast, rs={rs}"
        );
    }

    #[test]
    fn intensive_flattens_after_cbp() {
        let m = gpu();
        let x = 120.0;
        assert!((m.predict(x, m.cbp) - m.predict(x, m.cbp + 50.0)).abs() < 1e-9);
    }

    #[test]
    fn rate_i_exceeds_rate_n_for_intensive_kernels() {
        let m = gpu();
        assert!(m.rate_i(m.intensive_bw) > m.rate_n);
    }

    #[test]
    fn prediction_monotone_in_pressure() {
        let m = gpu();
        for x in [10.0, 45.0, 60.0, 90.0, 110.0, 130.0] {
            let mut prev = f64::INFINITY;
            for step in 0..28 {
                let y = step as f64 * 5.0;
                let rs = m.predict(x, y);
                assert!(rs <= prev + 1e-9, "x={x} y={y}: {rs} > {prev}");
                prev = rs;
            }
        }
    }

    #[test]
    fn dla_model_has_no_minor_region() {
        let m = PccsModel::xavier_dla_paper();
        assert_eq!(m.mrmc, None);
        assert_eq!(m.region(0.1), Region::Normal);
        // Small demand, small pressure: already slowing (paper §4.1.2).
        assert!(m.predict(25.0, 30.0) < 95.0);
    }

    #[test]
    fn scaling_round_trips() {
        let m = gpu();
        let back = m.scale_bandwidth(0.5).scale_bandwidth(2.0);
        assert!((back.normal_bw - m.normal_bw).abs() < 1e-9);
        assert!((back.rate_n - m.rate_n).abs() < 1e-9);
        assert!((back.peak_bw - m.peak_bw).abs() < 1e-9);
    }

    #[test]
    fn scaling_preserves_predictions_at_corresponding_points() {
        let m = gpu();
        let half = m.scale_bandwidth(0.5);
        for (x, y) in [(60.0, 40.0), (100.0, 20.0), (20.0, 80.0)] {
            let a = m.predict(x, y);
            let b = half.predict(x / 2.0, y / 2.0);
            assert!((a - b).abs() < 1e-9, "x={x} y={y}: {a} vs {b}");
        }
    }

    #[test]
    fn clamps_to_zero_floor() {
        let m = PccsModel::from_parameters(1.0, 2.0, Some(5.0), 10.0, 0.0, 50.0, 100.0);
        assert_eq!(m.predict(150.0, 100.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_input() {
        gpu().predict(f64::NAN, 1.0);
    }

    #[test]
    #[should_panic(expected = "unordered")]
    fn rejects_unordered_boundaries() {
        PccsModel::from_parameters(50.0, 20.0, None, 10.0, 10.0, 1.0, 100.0);
    }

    #[test]
    fn validate_names_the_broken_invariant() {
        assert_eq!(gpu().validate(), Ok(()));
        let reason = |m: PccsModel| match m.validate() {
            Err(ModelBuildError::InvalidParameters { reason }) => reason,
            other => panic!("expected InvalidParameters, got {other:?}"),
        };
        let swapped = PccsModel {
            intensive_bw: 10.0,
            ..gpu()
        };
        assert_eq!(reason(swapped), "region boundaries unordered");
        let nan = PccsModel {
            cbp: f64::NAN,
            ..gpu()
        };
        assert_eq!(reason(nan), "every parameter must be finite");
        let negative_rate = PccsModel {
            rate_n: -0.5,
            ..gpu()
        };
        assert_eq!(reason(negative_rate), "reduction rate must be non-negative");
        let mrmc = PccsModel {
            mrmc: Some(120.0),
            ..gpu()
        };
        assert_eq!(reason(mrmc), "MRMC is a percentage");
    }
}
