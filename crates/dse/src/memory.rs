//! Memory-subsystem design exploration (Section 3.4, "Memory sub-system
//! parameters").
//!
//! Architects adjust channel count and I/O clock; PCCS adapts by *linear
//! parameter scaling* (Section 3.3) instead of re-running the co-located
//! calibration on every candidate: the model constructed at the nominal
//! memory configuration is scaled by the candidate-to-nominal peak-bandwidth
//! ratio, standalone demand is re-profiled (standalone profiling needs no
//! co-runs), and the scaled model predicts the co-run slowdown.

use pccs_core::{PccsModel, SlowdownModel};
use pccs_soc::corun::{CoRunConfig, CoRunSim, Placement};
use pccs_soc::kernel::KernelDesc;
use pccs_soc::soc::SocConfig;
use pccs_workloads::calibrate::pressure_pu;
use serde::{Deserialize, Serialize};

/// One candidate memory configuration and its evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryDesignPoint {
    /// Channel count of the candidate.
    pub channels: usize,
    /// Memory clock relative to the nominal configuration.
    pub clock_ratio: f64,
    /// Theoretical peak of the candidate (GB/s).
    pub peak_gbps: f64,
    /// Kernel's standalone demand re-profiled on the candidate (GB/s).
    pub demand_gbps: f64,
    /// Scaled-model predicted co-run relative speed (%).
    pub predicted_rs_pct: f64,
    /// Simulated ground-truth co-run relative speed (%), when measured.
    pub actual_rs_pct: Option<f64>,
}

/// Evaluates candidate `(channels, clock_ratio)` memory configurations for
/// `kernel` on PU `pu_idx` under `external_gbps` of co-runner demand,
/// using `nominal_model` (constructed on `soc`'s nominal memory) scaled per
/// candidate. With `measure_truth`, each candidate is also co-run in the
/// simulator.
///
/// # Panics
///
/// Panics if `candidates` is empty, a candidate has zero channels or a
/// non-positive clock ratio, or `measure_truth` is set on a SoC lacking
/// the PU that [`pressure_pu`] names.
#[allow(clippy::too_many_arguments)] // mirrors the exploration's knobs 1:1
pub fn explore_memory_configs(
    soc: &SocConfig,
    pu_idx: usize,
    kernel: &KernelDesc,
    nominal_model: &PccsModel,
    external_gbps: f64,
    candidates: &[(usize, f64)],
    horizon: u64,
    measure_truth: bool,
) -> Vec<MemoryDesignPoint> {
    assert!(!candidates.is_empty(), "at least one candidate required");
    let nominal_peak = soc.peak_bw_gbps();

    candidates
        .iter()
        .map(|&(channels, clock_ratio)| {
            assert!(channels > 0 && clock_ratio > 0.0, "invalid candidate");
            let dram = soc
                .dram
                .with_channels(channels)
                .with_clock_ratio(clock_ratio);
            let candidate = soc.with_dram(dram);
            let peak = candidate.peak_bw_gbps();
            let scaled = nominal_model.scale_bandwidth(peak / nominal_peak);

            let config = CoRunConfig::default().with_horizon(horizon);
            let profile = CoRunSim::standalone(&candidate, pu_idx, kernel, &config);
            let predicted = scaled.relative_speed_pct(profile.bw_gbps, external_gbps);

            let actual = measure_truth.then(|| {
                let pressure = pressure_pu(&candidate, pu_idx).expect("SoC lacks the pressure PU");
                let mut sim = CoRunSim::with_config(&candidate, config);
                sim.place(Placement::kernel(pu_idx, kernel.clone()));
                sim.external_pressure(pressure, external_gbps);
                sim.execute()
                    .relative_speed_pct(pu_idx, &profile)
                    .expect("kernel PU is placed")
                    .min(102.0)
            });

            MemoryDesignPoint {
                channels,
                clock_ratio,
                peak_gbps: peak,
                demand_gbps: profile.bw_gbps,
                predicted_rs_pct: predicted,
                actual_rs_pct: actual,
            }
        })
        .collect()
}

/// Picks the cheapest candidate (lowest peak bandwidth) whose predicted
/// co-run relative speed meets `min_rs_pct`; falls back to the largest
/// candidate when none qualifies.
///
/// # Panics
///
/// Panics if `points` is empty.
pub fn select_memory_config(points: &[MemoryDesignPoint], min_rs_pct: f64) -> &MemoryDesignPoint {
    assert!(!points.is_empty(), "no candidates");
    let mut sorted: Vec<&MemoryDesignPoint> = points.iter().collect();
    sorted.sort_by(|a, b| a.peak_gbps.total_cmp(&b.peak_gbps));
    sorted
        .iter()
        .find(|p| p.predicted_rs_pct >= min_rs_pct)
        .copied()
        .unwrap_or_else(|| sorted.last().expect("non-empty"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SocConfig, usize, KernelDesc, PccsModel) {
        let soc = SocConfig::xavier();
        let gpu = soc.pu_index("GPU").unwrap();
        let kernel = KernelDesc::memory_streaming("stream", 18.0);
        // Paper-magnitude model as the nominal construction.
        let model = PccsModel::xavier_gpu_paper();
        (soc, gpu, kernel, model)
    }

    #[test]
    fn explores_and_orders_candidates() {
        let (soc, gpu, kernel, model) = setup();
        let points = explore_memory_configs(
            &soc,
            gpu,
            &kernel,
            &model,
            40.0,
            &[(4, 1.0), (8, 1.0)],
            12_000,
            false,
        );
        assert_eq!(points.len(), 2);
        assert!(points[1].peak_gbps > points[0].peak_gbps);
        for p in &points {
            assert!((0.0..=100.0).contains(&p.predicted_rs_pct));
            assert!(p.actual_rs_pct.is_none());
        }
    }

    #[test]
    fn selection_prefers_cheapest_adequate_config() {
        let mk = |peak: f64, rs: f64| MemoryDesignPoint {
            channels: 4,
            clock_ratio: 1.0,
            peak_gbps: peak,
            demand_gbps: 30.0,
            predicted_rs_pct: rs,
            actual_rs_pct: None,
        };
        let points = vec![mk(60.0, 70.0), mk(100.0, 92.0), mk(137.0, 99.0)];
        assert_eq!(select_memory_config(&points, 90.0).peak_gbps, 100.0);
        // Nothing qualifies: take the largest.
        assert_eq!(select_memory_config(&points, 99.5).peak_gbps, 137.0);
    }

    #[test]
    fn truth_measurement_populates_actual() {
        let (soc, gpu, kernel, model) = setup();
        let points =
            explore_memory_configs(&soc, gpu, &kernel, &model, 30.0, &[(8, 1.0)], 10_000, true);
        let actual = points[0].actual_rs_pct.expect("measured");
        assert!((0.0..=102.0).contains(&actual));
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn rejects_empty_candidates() {
        let (soc, gpu, kernel, model) = setup();
        explore_memory_configs(&soc, gpu, &kernel, &model, 40.0, &[], 1000, false);
    }
}
