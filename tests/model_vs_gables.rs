//! The paper's headline claim, end to end: a PCCS model constructed only
//! from calibrators predicts the co-run slowdown of *applications* it never
//! saw, more accurately than the Gables proportional-share baseline.

use pccs_core::SlowdownModel;
use pccs_gables::GablesModel;
use pccs_soc::corun::{CoRunConfig, CoRunSim, Placement};
use pccs_soc::pu::PuKind;
use pccs_soc::soc::SocConfig;
use pccs_workloads::calibrate::{build_model, CalibrationConfig};
use pccs_workloads::rodinia::RodiniaBenchmark;

const HORIZON: u64 = 24_000;

fn cfg() -> CalibrationConfig {
    CalibrationConfig {
        demands_gbps: vec![15.0, 40.0, 65.0, 90.0, 115.0, 135.0],
        external_gbps: vec![15.0, 40.0, 65.0, 90.0, 115.0],
        horizon: HORIZON,
        repeats: 2,
        threads: 0,
    }
}

#[test]
fn pccs_beats_gables_on_unseen_benchmarks() {
    let soc = SocConfig::xavier();
    let gpu = soc.pu_index("GPU").unwrap();
    let cpu = soc.pu_index("CPU").unwrap();
    let (pccs, _) = build_model(&soc, gpu, cpu, &cfg()).expect("model builds");
    let gables = GablesModel::new(soc.peak_bw_gbps());

    // Benchmarks spanning the demand classes; none were used in
    // construction.
    let suite = [
        RodiniaBenchmark::Hotspot,
        RodiniaBenchmark::Streamcluster,
        RodiniaBenchmark::Kmeans,
        RodiniaBenchmark::Bfs,
    ];
    let pressures = [30.0, 60.0, 90.0, 120.0];

    let mut pccs_err = 0.0;
    let mut gables_err = 0.0;
    let mut n = 0.0;
    for bench in suite {
        let kernel = bench.kernel(PuKind::Gpu);
        let standalone = CoRunSim::standalone(
            &soc,
            gpu,
            &kernel,
            &CoRunConfig::default().with_horizon(HORIZON).with_repeats(2),
        );
        for &y in &pressures {
            let mut sim = CoRunSim::with_config(
                &soc,
                CoRunConfig::default().with_horizon(HORIZON).with_repeats(2),
            );
            sim.place(Placement::kernel(gpu, kernel.clone()));
            sim.external_pressure(cpu, y);
            let actual = sim
                .execute()
                .relative_speed_pct(gpu, &standalone)
                .unwrap()
                .min(102.0);
            pccs_err += (actual - pccs.relative_speed_pct(standalone.bw_gbps, y)).abs();
            gables_err += (actual - gables.relative_speed_pct(standalone.bw_gbps, y)).abs();
            n += 1.0;
        }
    }
    pccs_err /= n;
    gables_err /= n;
    assert!(
        pccs_err < gables_err,
        "PCCS avg error {pccs_err:.1}% should beat Gables {gables_err:.1}%"
    );
    assert!(
        pccs_err < 15.0,
        "PCCS avg error {pccs_err:.1}% should be usable for design exploration"
    );
}

#[test]
fn gables_predicts_no_slowdown_below_peak() {
    // The failure mode Figure 2 demonstrates: Gables claims zero slowdown
    // whenever total demand is under the peak, yet the measured system
    // already slows down.
    let soc = SocConfig::xavier();
    let gpu = soc.pu_index("GPU").unwrap();
    let cpu = soc.pu_index("CPU").unwrap();
    let gables = GablesModel::new(soc.peak_bw_gbps());
    let kernel = RodiniaBenchmark::Srad.kernel(PuKind::Gpu);
    let standalone = CoRunSim::standalone(
        &soc,
        gpu,
        &kernel,
        &CoRunConfig::default().with_horizon(HORIZON).with_repeats(2),
    );
    let y = 60.0;
    assert!(standalone.bw_gbps + y < soc.peak_bw_gbps());
    assert_eq!(gables.relative_speed_pct(standalone.bw_gbps, y), 100.0);

    let mut sim = CoRunSim::with_config(
        &soc,
        CoRunConfig::default().with_horizon(HORIZON).with_repeats(2),
    );
    sim.place(Placement::kernel(gpu, kernel));
    sim.external_pressure(cpu, y);
    let actual = sim.execute().relative_speed_pct(gpu, &standalone).unwrap();
    assert!(
        actual < 99.0,
        "the simulated SoC should contend below peak (measured {actual:.1}%)"
    );
}
