//! PU frequency selection under a co-run slowdown constraint (Section 4.3,
//! Table 9, Figure 15).

use pccs_core::SlowdownModel;
use pccs_soc::corun::{CoRunConfig, CoRunSim, Placement};
use pccs_soc::kernel::KernelDesc;
use pccs_soc::soc::SocConfig;
use serde::{Deserialize, Serialize};

/// The standalone profile of one candidate frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrequencyPoint {
    /// The candidate PU clock in MHz.
    pub freq_mhz: f64,
    /// Standalone work rate at that clock (lines per memory cycle).
    pub standalone_rate: f64,
    /// Standalone bandwidth demand at that clock (GB/s) — the model input.
    pub demand_gbps: f64,
}

/// The outcome of a frequency selection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequencySelection {
    /// The chosen (lowest acceptable) frequency in MHz.
    pub chosen_mhz: f64,
    /// Per-candidate predicted co-run performance, normalized to the best
    /// candidate (1.0 = best), in ascending frequency order.
    pub perf_rel: Vec<(f64, f64)>,
}

/// Profiles `kernel` standalone on PU `pu_idx` at each candidate frequency
/// — the "standalone performance models" given to the architects.
///
/// # Panics
///
/// Panics if `freqs` is empty or contains non-positive frequencies.
pub fn profile_frequencies(
    soc: &SocConfig,
    pu_idx: usize,
    kernel: &KernelDesc,
    freqs: &[f64],
    horizon: u64,
) -> Vec<FrequencyPoint> {
    assert!(
        !freqs.is_empty(),
        "at least one candidate frequency required"
    );
    freqs
        .iter()
        .map(|&f| {
            let reclocked = soc.with_pu(pu_idx, soc.pus[pu_idx].with_frequency(f));
            let profile = CoRunSim::standalone(&reclocked, pu_idx, kernel, horizon);
            FrequencyPoint {
                freq_mhz: f,
                standalone_rate: profile.lines_per_cycle,
                demand_gbps: profile.bw_gbps,
            }
        })
        .collect()
}

/// Selects the lowest frequency whose predicted *co-run* performance is
/// within `max_slowdown` (a fraction, e.g. 0.05) of the best candidate's
/// predicted co-run performance, under `external_gbps` of external demand.
///
/// Co-run performance of a candidate is
/// `standalone_rate × model-predicted relative speed`; normalizing against
/// the best candidate captures "how much performance does the extra
/// frequency actually buy under contention".
///
/// # Panics
///
/// Panics if `points` is empty or `max_slowdown` is not in `[0, 1)`.
pub fn select_frequency<M: SlowdownModel + ?Sized>(
    points: &[FrequencyPoint],
    model: &M,
    external_gbps: f64,
    max_slowdown: f64,
) -> FrequencySelection {
    assert!(!points.is_empty(), "no candidate frequencies");
    assert!(
        (0.0..1.0).contains(&max_slowdown),
        "max slowdown must be a fraction in [0, 1)"
    );
    let mut sorted: Vec<FrequencyPoint> = points.to_vec();
    sorted.sort_by(|a, b| a.freq_mhz.total_cmp(&b.freq_mhz));

    let perf: Vec<f64> = sorted
        .iter()
        .map(|p| p.standalone_rate * model.relative_speed_pct(p.demand_gbps, external_gbps) / 100.0)
        .collect();
    let best = perf
        .iter()
        .cloned()
        .fold(0.0, f64::max)
        .max(f64::MIN_POSITIVE);
    let perf_rel: Vec<(f64, f64)> = sorted
        .iter()
        .zip(&perf)
        .map(|(p, &v)| (p.freq_mhz, v / best))
        .collect();
    let chosen = perf_rel
        .iter()
        .find(|&&(_, rel)| rel >= 1.0 - max_slowdown)
        .map(|&(f, _)| f)
        .unwrap_or(sorted.last().expect("non-empty").freq_mhz);
    FrequencySelection {
        chosen_mhz: chosen,
        perf_rel,
    }
}

/// The simulated ground truth of Table 9: measures actual co-run
/// performance at every candidate frequency and applies the same
/// lowest-acceptable rule.
#[allow(clippy::too_many_arguments)] // mirrors the experiment's knobs 1:1
pub fn ground_truth_frequency(
    soc: &SocConfig,
    pu_idx: usize,
    pressure_pu: usize,
    kernel: &KernelDesc,
    freqs: &[f64],
    external_gbps: f64,
    max_slowdown: f64,
    horizon: u64,
) -> FrequencySelection {
    assert!(!freqs.is_empty(), "no candidate frequencies");
    assert!(
        (0.0..1.0).contains(&max_slowdown),
        "max slowdown is a fraction"
    );
    let mut sorted = freqs.to_vec();
    sorted.sort_by(f64::total_cmp);

    let perf: Vec<f64> = sorted
        .iter()
        .map(|&f| {
            let reclocked = soc.with_pu(pu_idx, soc.pus[pu_idx].with_frequency(f));
            let mut sim =
                CoRunSim::with_config(&reclocked, CoRunConfig::default().with_horizon(horizon));
            sim.place(Placement::kernel(pu_idx, kernel.clone()));
            sim.external_pressure(pressure_pu, external_gbps);
            let out = sim.execute();
            out.per_pu[&pu_idx].lines_per_cycle
        })
        .collect();
    let best = perf
        .iter()
        .cloned()
        .fold(0.0, f64::max)
        .max(f64::MIN_POSITIVE);
    let perf_rel: Vec<(f64, f64)> = sorted
        .iter()
        .zip(&perf)
        .map(|(&f, &v)| (f, v / best))
        .collect();
    let chosen = perf_rel
        .iter()
        .find(|&&(_, rel)| rel >= 1.0 - max_slowdown)
        .map(|&(f, _)| f)
        .unwrap_or(*sorted.last().expect("non-empty"));
    FrequencySelection {
        chosen_mhz: chosen,
        perf_rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccs_core::PccsModel;
    use pccs_gables::GablesModel;

    fn points() -> Vec<FrequencyPoint> {
        // A memory-bound kernel: standalone rate saturates above 900 MHz
        // (like streamcluster in Figure 15); demand grows with frequency
        // until saturation.
        vec![
            FrequencyPoint {
                freq_mhz: 500.0,
                standalone_rate: 0.25,
                demand_gbps: 35.0,
            },
            FrequencyPoint {
                freq_mhz: 700.0,
                standalone_rate: 0.35,
                demand_gbps: 49.0,
            },
            FrequencyPoint {
                freq_mhz: 900.0,
                standalone_rate: 0.44,
                demand_gbps: 62.0,
            },
            FrequencyPoint {
                freq_mhz: 1100.0,
                standalone_rate: 0.45,
                demand_gbps: 63.0,
            },
            FrequencyPoint {
                freq_mhz: 1377.0,
                standalone_rate: 0.45,
                demand_gbps: 63.0,
            },
        ]
    }

    #[test]
    fn gables_picks_the_same_frequency_at_any_mild_pressure() {
        // Gables predicts zero slowdown while total demand < peak, so its
        // choice cannot react to pressure (the paper's 880/880/880 row).
        let g = GablesModel::new(137.0);
        let a = select_frequency(&points(), &g, 20.0, 0.05);
        let b = select_frequency(&points(), &g, 60.0, 0.05);
        assert_eq!(a.chosen_mhz, b.chosen_mhz);
    }

    #[test]
    fn pccs_chooses_lower_frequency_under_higher_pressure() {
        let m = PccsModel::xavier_gpu_paper();
        let low = select_frequency(&points(), &m, 20.0, 0.05);
        let high = select_frequency(&points(), &m, 90.0, 0.05);
        assert!(
            high.chosen_mhz <= low.chosen_mhz,
            "pressure should never raise the useful frequency: {} vs {}",
            high.chosen_mhz,
            low.chosen_mhz
        );
    }

    #[test]
    fn looser_budget_allows_lower_frequency() {
        let m = PccsModel::xavier_gpu_paper();
        let tight = select_frequency(&points(), &m, 40.0, 0.05);
        let loose = select_frequency(&points(), &m, 40.0, 0.20);
        assert!(loose.chosen_mhz <= tight.chosen_mhz);
    }

    #[test]
    fn perf_rel_is_normalized_and_ordered() {
        let m = PccsModel::xavier_gpu_paper();
        let sel = select_frequency(&points(), &m, 40.0, 0.05);
        assert_eq!(sel.perf_rel.len(), 5);
        let max = sel.perf_rel.iter().map(|&(_, r)| r).fold(0.0, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
        assert!(sel.perf_rel.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn rejects_slowdown_of_one() {
        let m = PccsModel::xavier_gpu_paper();
        select_frequency(&points(), &m, 40.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "no candidate")]
    fn rejects_empty_points() {
        let m = PccsModel::xavier_gpu_paper();
        select_frequency(&[], &m, 40.0, 0.05);
    }
}
