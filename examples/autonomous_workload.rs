//! The paper's motivating scenario (Figure 1): an autonomous-vehicle
//! workload whose modules are mapped onto the PUs of an SoC — object
//! recognition on the DLA, trajectory prediction on the GPU, planning on
//! the CPU — all contending for the shared memory.
//!
//! This example predicts each module's co-run slowdown with PCCS, then
//! verifies against the full 3-PU co-run simulation.
//!
//! ```text
//! cargo run --release --example autonomous_workload
//! ```

use pccs_core::SlowdownModel;
use pccs_soc::corun::{CoRunConfig, CoRunSim, Placement};
use pccs_soc::pu::PuKind;
use pccs_soc::soc::SocConfig;
use pccs_workloads::calibrate::{build_model, CalibrationConfig};
use pccs_workloads::dnn::DnnModel;
use pccs_workloads::rodinia::RodiniaBenchmark;

fn main() {
    let soc = SocConfig::xavier();
    let cpu = soc.pu_index("CPU").unwrap();
    let gpu = soc.pu_index("GPU").unwrap();
    let dla = soc.pu_index("DLA").unwrap();

    // The workload mapping: module -> PU.
    let modules = [
        (
            cpu,
            "planning (streamcluster)",
            RodiniaBenchmark::Streamcluster.kernel(PuKind::Cpu),
        ),
        (
            gpu,
            "trajectory (pathfinder)",
            RodiniaBenchmark::Pathfinder.kernel(PuKind::Gpu),
        ),
        (dla, "perception (ResNet-50)", DnnModel::Resnet50.kernel()),
    ];

    // Standalone profiles (what the design team measures on existing parts).
    let horizon = 30_000;
    let profiles: Vec<_> = modules
        .iter()
        .map(|(pu, _, k)| CoRunSim::standalone_averaged(&soc, *pu, k, horizon, 2))
        .collect();

    // PCCS models per PU (pressure per the paper's convention).
    let cfg = CalibrationConfig {
        horizon,
        repeats: 2,
        ..CalibrationConfig::default()
    };
    println!("constructing per-PU models...");
    let models: Vec<_> = modules
        .iter()
        .map(|(pu, _, _)| {
            let pressure = if *pu == cpu { gpu } else { cpu };
            build_model(&soc, *pu, pressure, &cfg)
                .expect("model builds")
                .0
        })
        .collect();

    // The actual co-run.
    let mut sim = CoRunSim::with_config(
        &soc,
        CoRunConfig::default().with_horizon(horizon).with_repeats(2),
    );
    for (pu, _, k) in &modules {
        sim.place(Placement::kernel(*pu, k.clone()));
    }
    let out = sim.execute();

    println!(
        "\n{:<28} {:>9} {:>9} {:>11} {:>11}",
        "module", "x GB/s", "y GB/s", "PCCS RS%", "actual RS%"
    );
    for (i, (pu, name, _)) in modules.iter().enumerate() {
        let x = profiles[i].bw_gbps;
        let y: f64 = profiles
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, p)| p.bw_gbps)
            .sum();
        let predicted = models[i].relative_speed_pct(x, y);
        let actual = out
            .relative_speed_pct(*pu, &profiles[i])
            .expect("mix PU is placed")
            .min(102.0);
        println!("{name:<28} {x:>9.1} {y:>9.1} {predicted:>10.1} {actual:>10.1}");
    }
    println!("\nA design is viable when every module's predicted RS meets its QoS budget.");
}
