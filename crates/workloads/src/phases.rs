//! Phase detection over bandwidth time series.
//!
//! The paper applies PCCS to multi-phase programs by predicting each phase
//! separately (Section 3.2, Figure 13) and cites phase-shift detection as a
//! well-studied, orthogonal ingredient. This module supplies the missing
//! piece for trace-driven use: segmenting a sampled bandwidth-demand series
//! into stable phases that can feed
//! [`PhasedWorkload`].
//!
//! The detector is a deliberately simple online change-point rule: a new
//! phase opens when `min_run` consecutive samples deviate from the current
//! phase's running mean by more than `threshold`. Simplicity keeps it
//! deterministic and easy to reason about in tests; fancier detectors plug
//! in at the same interface.
//!
//! [`PhasedWorkload`]: pccs_core::phased::PhasedWorkload

use pccs_core::PhasedWorkload;
use serde::{Deserialize, Serialize};

/// One detected phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseSegment {
    /// Index of the first sample in the phase.
    pub start: usize,
    /// One past the last sample.
    pub end: usize,
    /// Mean bandwidth demand over the phase (same unit as the series).
    pub mean_bw: f64,
}

impl PhaseSegment {
    /// Number of samples in the phase.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the phase holds no samples (never produced by the detector).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Detects phases in a bandwidth series.
///
/// * `threshold` — absolute deviation (GB/s) that counts as "out of phase";
/// * `min_run` — consecutive deviating samples required to open a new
///   phase (suppresses single-sample spikes).
///
/// Returns at least one segment for a non-empty series; segments tile the
/// series exactly.
///
/// # Panics
///
/// Panics if `threshold` is not positive or `min_run` is zero.
pub fn detect_phases(series: &[f64], threshold: f64, min_run: usize) -> Vec<PhaseSegment> {
    assert!(threshold > 0.0, "threshold must be positive");
    assert!(min_run > 0, "min_run must be positive");
    if series.is_empty() {
        return Vec::new();
    }

    let mut segments = Vec::new();
    let mut start = 0usize;
    let mut sum = series[0];
    let mut count = 1usize;
    let mut deviating = 0usize;

    for (i, &v) in series.iter().enumerate().skip(1) {
        let mean = sum / count as f64;
        if (v - mean).abs() > threshold {
            deviating += 1;
            if deviating >= min_run {
                // Close the current phase before the deviation run began.
                let cut = i + 1 - deviating;
                if cut > start {
                    let seg_sum: f64 = series[start..cut].iter().sum();
                    segments.push(PhaseSegment {
                        start,
                        end: cut,
                        mean_bw: seg_sum / (cut - start) as f64,
                    });
                }
                start = cut;
                sum = series[start..=i].iter().sum();
                count = i - start + 1;
                deviating = 0;
                continue;
            }
        } else {
            deviating = 0;
        }
        sum += v;
        count += 1;
    }
    let seg_sum: f64 = series[start..].iter().sum();
    segments.push(PhaseSegment {
        start,
        end: series.len(),
        mean_bw: seg_sum / (series.len() - start) as f64,
    });
    segments
}

/// Converts detected phases into a [`PhasedWorkload`] weighted by phase
/// duration.
///
/// # Panics
///
/// Panics if `segments` is empty.
pub fn to_phased_workload(name: impl Into<String>, segments: &[PhaseSegment]) -> PhasedWorkload {
    assert!(!segments.is_empty(), "at least one phase required");
    let phases: Vec<(f64, f64)> = segments
        .iter()
        .map(|s| (s.mean_bw.max(0.0), s.len() as f64))
        .collect();
    PhasedWorkload::new(name, &phases)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_series() -> Vec<f64> {
        let mut v = vec![20.0; 40];
        v.extend(vec![80.0; 60]);
        v.extend(vec![45.0; 40]);
        v
    }

    #[test]
    fn detects_clean_steps() {
        let phases = detect_phases(&step_series(), 10.0, 3);
        assert_eq!(phases.len(), 3);
        assert!((phases[0].mean_bw - 20.0).abs() < 1.0);
        assert!((phases[1].mean_bw - 80.0).abs() < 1.0);
        assert!((phases[2].mean_bw - 45.0).abs() < 1.0);
    }

    #[test]
    fn segments_tile_the_series() {
        let series = step_series();
        let phases = detect_phases(&series, 10.0, 3);
        assert_eq!(phases[0].start, 0);
        assert_eq!(phases.last().unwrap().end, series.len());
        for w in phases.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn spikes_shorter_than_min_run_are_ignored() {
        let mut series = vec![30.0; 50];
        series[20] = 100.0; // single-sample spike
        series[21] = 100.0;
        let phases = detect_phases(&series, 10.0, 3);
        assert_eq!(phases.len(), 1);
    }

    #[test]
    fn noise_below_threshold_keeps_one_phase() {
        let series: Vec<f64> = (0..100).map(|i| 50.0 + ((i % 7) as f64 - 3.0)).collect();
        let phases = detect_phases(&series, 8.0, 3);
        assert_eq!(phases.len(), 1);
        assert!((phases[0].mean_bw - 50.0).abs() < 2.0);
    }

    #[test]
    fn empty_series_yields_no_phases() {
        assert!(detect_phases(&[], 5.0, 2).is_empty());
    }

    #[test]
    fn converts_to_phased_workload_with_duration_weights() {
        let phases = detect_phases(&step_series(), 10.0, 3);
        let w = to_phased_workload("stepper", &phases);
        assert_eq!(w.phases().len(), 3);
        // The 60-sample phase carries the largest weight.
        let max = w
            .phases()
            .iter()
            .max_by(|a, b| a.weight.total_cmp(&b.weight))
            .unwrap();
        assert!((max.demand_gbps - 80.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_zero_threshold() {
        detect_phases(&[1.0], 0.0, 1);
    }

    #[test]
    fn segment_len_helpers() {
        let s = PhaseSegment {
            start: 3,
            end: 10,
            mean_bw: 1.0,
        };
        assert_eq!(s.len(), 7);
        assert!(!s.is_empty());
    }
}
