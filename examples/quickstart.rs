//! Quickstart: construct a PCCS model for the simulated Xavier GPU and use
//! it to predict co-run slowdowns of a few kernels — the complete
//! paper workflow in ~40 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pccs_core::SlowdownModel;
use pccs_soc::corun::{CoRunConfig, CoRunSim};
use pccs_soc::pu::PuKind;
use pccs_soc::soc::SocConfig;
use pccs_workloads::calibrate::{build_model, CalibrationConfig};
use pccs_workloads::rodinia::RodiniaBenchmark;

fn main() {
    // 1. The SoC under design: NVIDIA Jetson AGX Xavier (simulated).
    let soc = SocConfig::xavier();
    let gpu = soc.pu_index("GPU").expect("Xavier has a GPU");
    let cpu = soc.pu_index("CPU").expect("Xavier has a CPU");
    println!("SoC: {} (peak {:.1} GB/s)", soc.name, soc.peak_bw_gbps());

    // 2. Construct the GPU's slowdown model from calibrators only — no
    //    application co-runs are ever measured (Section 3.2).
    let cfg = CalibrationConfig {
        horizon: 30_000,
        repeats: 2,
        ..CalibrationConfig::default()
    };
    println!("constructing the GPU model (calibrator sweep)...");
    let (model, data) = build_model(&soc, gpu, cpu, &cfg).expect("construction succeeds");
    println!(
        "constructed from a {}x{} matrix: normalBW={:.1}  intensiveBW={:.1}  \
         CBP={:.1}  TBWDC={:.1}  rateN={:.2}",
        data.rows(),
        data.cols(),
        model.normal_bw,
        model.intensive_bw,
        model.cbp,
        model.tbwdc,
        model.rate_n
    );

    // 3. Predict arbitrary workloads the model has never seen.
    println!(
        "\n{:<16} {:>10} {:>22}",
        "benchmark", "demand", "RS% @ 30/60/90 GB/s"
    );
    for bench in [
        RodiniaBenchmark::Hotspot,
        RodiniaBenchmark::Streamcluster,
        RodiniaBenchmark::Bfs,
    ] {
        let kernel = bench.kernel(PuKind::Gpu);
        let profile = CoRunSim::standalone(
            &soc,
            gpu,
            &kernel,
            &CoRunConfig::default().with_horizon(30_000),
        );
        let rs = |y: f64| model.relative_speed_pct(profile.bw_gbps, y);
        println!(
            "{:<16} {:>7.1} GB/s {:>6.1} {:>6.1} {:>6.1}",
            bench.label(),
            profile.bw_gbps,
            rs(30.0),
            rs(60.0),
            rs(90.0)
        );
    }
}
