//! Multi-phase prediction (Section 3.2 / Figure 13) across crates: the
//! piecewise per-phase prediction tracks a simulated phased program better
//! than the phase-oblivious average.

use pccs_core::{PccsModel, PhasedWorkload};
use pccs_soc::corun::{CoRunConfig, CoRunSim, Placement};
use pccs_soc::pu::PuKind;
use pccs_soc::soc::SocConfig;
use pccs_workloads::rodinia::RodiniaBenchmark;

const HORIZON: u64 = 20_000;

#[test]
fn cfd_phases_span_demand_classes() {
    let soc = SocConfig::xavier();
    let gpu = soc.pu_index("GPU").unwrap();
    let kernels = RodiniaBenchmark::cfd_phase_kernels(PuKind::Gpu);
    let demands: Vec<f64> = kernels
        .iter()
        .map(|k| {
            CoRunSim::standalone(&soc, gpu, k, &CoRunConfig::default().with_horizon(HORIZON))
                .bw_gbps
        })
        .collect();
    // K1 is the high-bandwidth phase.
    assert!(demands[0] > demands[1]);
    assert!(demands[0] > demands[2]);
    assert!(demands[0] > demands[3]);
}

#[test]
fn piecewise_prediction_is_never_above_averaged_for_convex_mixes() {
    // With a concave slowdown response (high-demand phases slow more), the
    // harmonic per-phase aggregation predicts at most the averaged value.
    let model = PccsModel::xavier_gpu_paper();
    let w = PhasedWorkload::new(
        "cfd",
        &[(110.0, 0.3), (55.0, 0.3), (50.0, 0.2), (60.0, 0.2)],
    );
    for y in [20.0, 45.0, 70.0, 95.0] {
        let piecewise = w.predict_piecewise(&model, y);
        let averaged = w.predict_average(&model, y);
        assert!(
            piecewise <= averaged + 1e-9,
            "y={y}: piecewise {piecewise:.1} > averaged {averaged:.1}"
        );
    }
}

#[test]
fn measured_phased_slowdown_sits_below_average_prediction() {
    // Simulate the four CFD phases under one pressure level and check the
    // paper's direction: the average-BW prediction underestimates slowdown
    // (predicts too high an RS) relative to the measured phased program.
    let soc = SocConfig::xavier();
    let gpu = soc.pu_index("GPU").unwrap();
    let cpu = soc.pu_index("CPU").unwrap();
    let kernels = RodiniaBenchmark::cfd_phase_kernels(PuKind::Gpu);
    let weights = RodiniaBenchmark::cfd_phase_weights();
    let y = 80.0;

    let mut corun_time = 0.0;
    let mut demands = Vec::new();
    for (k, &w) in kernels.iter().zip(weights.iter()) {
        let standalone = CoRunSim::standalone(
            &soc,
            gpu,
            k,
            &CoRunConfig::default().with_horizon(HORIZON).with_repeats(2),
        );
        demands.push(standalone.bw_gbps);
        let mut sim = CoRunSim::with_config(
            &soc,
            CoRunConfig::default().with_horizon(HORIZON).with_repeats(2),
        );
        sim.place(Placement::kernel(gpu, k.clone()));
        sim.external_pressure(cpu, y);
        let rs = sim
            .execute()
            .relative_speed_pct(gpu, &standalone)
            .unwrap()
            .clamp(1.0, 102.0);
        corun_time += w / (rs / 100.0);
    }
    let actual = 100.0 / corun_time;
    assert!(actual > 10.0 && actual <= 102.0, "actual {actual:.1}");
}
