//! Gables-style baseline slowdown model (Hill & Reddi, "Gables: A Roofline
//! Model for Mobile SoCs", HPCA 2019) — the state-of-the-art comparison
//! point of the PCCS paper.
//!
//! The Gables memory-contention assumption, as characterized in the paper
//! (Section 4.1.1, "Baseline"):
//!
//! > "the effective bandwidth of a processor under contention is not
//! > reduced as long as the total BW requested is smaller than the SoC peak
//! > BW. Otherwise, the effective BW is calculated by pro-rating the
//! > requested BW to the available BW."
//!
//! For a memory-bound kernel the relative speed tracks the granted share of
//! its requested bandwidth; a compute-bound kernel is unaffected. This is
//! exactly the proportional-distribution assumption PCCS's measurements
//! contradict (Figure 2 / Figure 3) — reproducing its failure modes is the
//! point of carrying it through every experiment.
//!
//! # Example
//!
//! ```
//! use pccs_gables::GablesModel;
//! use pccs_core::SlowdownModel;
//!
//! let gables = GablesModel::new(137.0);
//! // Total demand below peak: Gables predicts no slowdown at all.
//! assert_eq!(gables.relative_speed_pct(60.0, 40.0), 100.0);
//! // Over-subscribed: pro-rated share.
//! assert!(gables.relative_speed_pct(100.0, 100.0) < 100.0);
//! ```

#![warn(missing_docs, unreachable_pub)]

use pccs_core::SlowdownModel;
use serde::{Deserialize, Serialize};

/// The Gables proportional-share contention model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GablesModel {
    /// Peak bandwidth of the SoC (GB/s).
    pub peak_bw: f64,
}

impl GablesModel {
    /// Creates the model for an SoC with the given peak bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `peak_bw` is not positive and finite.
    pub fn new(peak_bw: f64) -> Self {
        assert!(
            peak_bw > 0.0 && peak_bw.is_finite(),
            "peak bandwidth must be positive and finite"
        );
        Self { peak_bw }
    }

    /// The effective bandwidth Gables grants a kernel demanding
    /// `demand_gbps` against `external_gbps` of competing demand.
    pub fn granted_bw_gbps(&self, demand_gbps: f64, external_gbps: f64) -> f64 {
        assert!(demand_gbps >= 0.0 && external_gbps >= 0.0);
        let total = demand_gbps + external_gbps;
        if total <= self.peak_bw {
            demand_gbps
        } else {
            // Pro-rate the peak across requesters by their demands.
            self.peak_bw * demand_gbps / total
        }
    }
}

impl SlowdownModel for GablesModel {
    fn name(&self) -> &'static str {
        "Gables"
    }

    fn relative_speed_pct(&self, demand_gbps: f64, external_gbps: f64) -> f64 {
        if demand_gbps <= 0.0 {
            return 100.0;
        }
        let granted = self.granted_bw_gbps(demand_gbps, external_gbps);
        (100.0 * granted / demand_gbps).clamp(0.0, 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_peak_no_slowdown() {
        let g = GablesModel::new(137.0);
        assert_eq!(g.relative_speed_pct(60.0, 70.0), 100.0);
        assert_eq!(g.granted_bw_gbps(60.0, 70.0), 60.0);
    }

    #[test]
    fn above_peak_pro_rates() {
        let g = GablesModel::new(100.0);
        // 100 + 100 demanded over 100 peak: each gets half.
        assert!((g.relative_speed_pct(100.0, 100.0) - 50.0).abs() < 1e-9);
        assert!((g.granted_bw_gbps(100.0, 100.0) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn exact_peak_boundary_is_lossless() {
        let g = GablesModel::new(100.0);
        assert_eq!(g.relative_speed_pct(40.0, 60.0), 100.0);
    }

    #[test]
    fn zero_demand_kernel_never_slows() {
        let g = GablesModel::new(100.0);
        assert_eq!(g.relative_speed_pct(0.0, 500.0), 100.0);
    }

    #[test]
    fn monotone_in_external_demand() {
        let g = GablesModel::new(137.0);
        let mut prev = f64::INFINITY;
        for step in 0..40 {
            let y = step as f64 * 5.0;
            let rs = g.relative_speed_pct(90.0, y);
            assert!(rs <= prev + 1e-12);
            prev = rs;
        }
    }

    #[test]
    fn slowdown_trait_integration() {
        let g = GablesModel::new(100.0);
        assert!((g.slowdown(100.0, 100.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_peak() {
        GablesModel::new(0.0);
    }
}
