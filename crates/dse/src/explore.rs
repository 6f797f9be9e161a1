//! Core-count and memory-subsystem exploration (the "PU-related
//! architectural changes" and "memory sub-system parameters" knobs of
//! Section 3.4).

use pccs_core::SlowdownModel;
use pccs_soc::corun::{CoRunConfig, CoRunSim};
use pccs_soc::kernel::KernelDesc;
use pccs_soc::soc::SocConfig;
use serde::{Deserialize, Serialize};

/// The profile and prediction for one candidate core count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreCountPoint {
    /// Candidate core count.
    pub cores: u32,
    /// Standalone work rate (lines per memory cycle).
    pub standalone_rate: f64,
    /// Standalone bandwidth demand (GB/s).
    pub demand_gbps: f64,
    /// Model-predicted co-run relative speed (percent) under the
    /// exploration's external demand.
    pub predicted_rs_pct: f64,
    /// Predicted co-run performance normalized to the largest candidate.
    pub corun_perf_rel: f64,
}

/// Profiles `kernel` on PU `pu_idx` at each candidate core count and
/// predicts co-run performance under `external_gbps` with `model`.
///
/// Returns points in ascending core order with `corun_perf_rel` normalized
/// to the best candidate; the caller picks the smallest count meeting its
/// slowdown budget (the paper's "up to 50 % area" scenario).
///
/// # Panics
///
/// Panics if `core_counts` is empty or contains zero.
pub fn explore_core_counts<M: SlowdownModel + ?Sized>(
    soc: &SocConfig,
    pu_idx: usize,
    kernel: &KernelDesc,
    core_counts: &[u32],
    model: &M,
    external_gbps: f64,
    horizon: u64,
) -> Vec<CoreCountPoint> {
    assert!(!core_counts.is_empty(), "at least one core count required");
    let mut counts = core_counts.to_vec();
    counts.sort_unstable();
    let config = CoRunConfig::default().with_horizon(horizon);
    let mut points: Vec<CoreCountPoint> = counts
        .into_iter()
        .map(|cores| {
            let resized = soc.with_pu(pu_idx, soc.pus[pu_idx].with_cores(cores));
            let profile = CoRunSim::standalone(&resized, pu_idx, kernel, &config);
            let rs = model.relative_speed_pct(profile.bw_gbps, external_gbps);
            CoreCountPoint {
                cores,
                standalone_rate: profile.lines_per_cycle,
                demand_gbps: profile.bw_gbps,
                predicted_rs_pct: rs,
                corun_perf_rel: profile.lines_per_cycle * rs / 100.0,
            }
        })
        .collect();
    let best = points
        .iter()
        .map(|p| p.corun_perf_rel)
        .fold(0.0, f64::max)
        .max(f64::MIN_POSITIVE);
    for p in &mut points {
        p.corun_perf_rel /= best;
    }
    points
}

/// Picks the smallest core count whose normalized co-run performance is
/// within `max_slowdown` of the best candidate.
///
/// # Panics
///
/// Panics if `points` is empty or `max_slowdown` is not in `[0, 1)`.
pub fn select_core_count(points: &[CoreCountPoint], max_slowdown: f64) -> u32 {
    assert!(!points.is_empty(), "no candidates");
    assert!(
        (0.0..1.0).contains(&max_slowdown),
        "max slowdown is a fraction"
    );
    points
        .iter()
        .find(|p| p.corun_perf_rel >= 1.0 - max_slowdown)
        .map(|p| p.cores)
        .unwrap_or(points.last().expect("non-empty").cores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccs_core::PccsModel;

    #[test]
    fn memory_bound_kernel_needs_few_cpu_cores_under_contention() {
        let soc = SocConfig::xavier();
        let cpu = soc.pu_index("CPU").unwrap();
        // A strongly memory-bound kernel: core count beyond memory
        // saturation buys nothing.
        let kernel = KernelDesc::memory_streaming("stream", 0.4);
        let model = PccsModel::xavier_cpu_paper();
        let points = explore_core_counts(&soc, cpu, &kernel, &[2, 4, 8], &model, 60.0, 15_000);
        assert_eq!(points.len(), 3);
        assert!(points.windows(2).all(|w| w[0].cores < w[1].cores));
        let chosen = select_core_count(&points, 0.20);
        assert!(chosen <= 8);
        // Normalization: the best candidate sits at 1.0.
        let max = points.iter().map(|p| p.corun_perf_rel).fold(0.0, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no candidates")]
    fn select_requires_points() {
        select_core_count(&[], 0.1);
    }
}
