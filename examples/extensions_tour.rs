//! A tour of the reproduction's paper-Section-5 extensions: multi-MC
//! memory systems, trace-driven simulation, bandwidth phase detection, and
//! power-budgeted frequency selection.
//!
//! ```text
//! cargo run --release --example extensions_tour
//! ```

use pccs_core::PccsModel;
use pccs_dram::config::DramConfig;
use pccs_dram::policy::PolicyKind;
use pccs_dram::request::SourceId;
use pccs_dram::sim::DramSystem;
use pccs_dram::trace::{format_trace, parse_trace, ReplayMode, TraceRecord, TraceSource};
use pccs_dram::traffic::StreamTraffic;
use pccs_dram::ReqKind;
use pccs_dse::freq::profile_frequencies;
use pccs_dse::power_budget::select_under_power_budget;
use pccs_soc::kernel::KernelDesc;
use pccs_soc::soc::SocConfig;
use pccs_workloads::phases::{detect_phases, to_phased_workload};

fn main() {
    // --- 1. Multi-MC: the same traffic over 1 vs 2 controllers -----------
    println!("== multi-MC (Section 5: 'Address mapping and multi-MC') ==");
    for mcs in [1usize, 2] {
        let mut sys = DramSystem::with_controllers(DramConfig::xavier(), mcs, PolicyKind::Atlas);
        for s in 0..4 {
            sys.add_generator(
                StreamTraffic::builder(SourceId(s))
                    .demand_gbps(25.0)
                    .row_locality(0.93)
                    .window(64)
                    .seed(9 + s as u64)
                    .build(),
            );
        }
        let out = sys.run(30_000);
        let total: f64 = (0..4).map(|s| out.source_bw_gbps(SourceId(s))).sum();
        println!(
            "  {mcs} MC(s): total {total:.1} GB/s, RBH {:.1}%",
            out.row_hit_pct()
        );
    }

    // --- 2. Trace-driven simulation ---------------------------------------
    println!("\n== trace replay (Pin-style front end) ==");
    let records: Vec<TraceRecord> = (0..256)
        .map(|i| TraceRecord {
            cycle: i * 3,
            addr: i * 64,
            kind: if i % 4 == 0 {
                ReqKind::Write
            } else {
                ReqKind::Read
            },
        })
        .collect();
    let text = format_trace(&records);
    let parsed = parse_trace(&text).expect("round-trip");
    let mut sys = DramSystem::new(DramConfig::cmp_study(), PolicyKind::FrFcfs);
    sys.add_generator(TraceSource::new(SourceId(0), parsed, ReplayMode::Timed));
    let out = sys.run(5_000);
    println!(
        "  replayed {} requests, avg latency {:.0} cycles, RBH {:.1}%",
        out.completed[&SourceId(0)],
        out.avg_latency(SourceId(0)),
        out.row_hit_pct()
    );

    // --- 3. Phase detection ------------------------------------------------
    println!("\n== phase detection (multi-phase programs, Fig. 13) ==");
    let mut series = vec![25.0; 50];
    series.extend(vec![95.0; 30]);
    series.extend(vec![55.0; 40]);
    let phases = detect_phases(&series, 12.0, 3);
    for (i, p) in phases.iter().enumerate() {
        println!(
            "  phase {}: samples {}..{} mean {:.1} GB/s",
            i + 1,
            p.start,
            p.end,
            p.mean_bw
        );
    }
    let workload = to_phased_workload("traced-app", &phases);
    let model = PccsModel::xavier_gpu_paper();
    println!(
        "  piecewise RS @ 60 GB/s external: {:.1}% (vs {:.1}% from the average)",
        workload.predict_piecewise(&model, 60.0),
        workload.predict_average(&model, 60.0)
    );

    // --- 4. Power-budgeted frequency selection -----------------------------
    println!("\n== power-budgeted DVFS (Section 5: power budget) ==");
    let soc = SocConfig::xavier();
    let gpu = soc.pu_index("GPU").unwrap();
    let kernel = KernelDesc::memory_streaming("stream", 15.0);
    let freqs = [500.0, 700.0, 900.0, 1100.0, 1377.0];
    let points = profile_frequencies(&soc, gpu, &kernel, &freqs, 20_000);
    for budget in [1.0, 0.5, 0.25] {
        let choice = select_under_power_budget(&points, &model, 50.0, budget, 1377.0);
        println!(
            "  budget {:>4.0}% of peak power -> {:.0} MHz (predicted perf {:.3} lines/cycle)",
            budget * 100.0,
            choice.chosen_mhz,
            choice.predicted_perf
        );
    }
}
