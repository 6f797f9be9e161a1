//! Integration tests of the paper-Section-5 extensions: multi-MC memory
//! systems, trace-driven simulation, phase detection, and power-budgeted
//! selection — exercised together across crates.

use pccs_core::{PccsModel, SlowdownModel};
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

#[test]
fn multi_mc_contention_still_shows_three_region_flavour() {
    // A victim and an aggressor over a 2-MC Xavier memory: the victim's
    // bandwidth under growing pressure should fall then stabilize, as with
    // a single MC.
    let run = |pressure: f64| {
        let mut sys = DramSystem::with_controllers(DramConfig::xavier(), 2, PolicyKind::Atlas);
        sys.add_generator(
            StreamTraffic::builder(SourceId(0))
                .demand_gbps(60.0)
                .row_locality(0.92)
                .window(96)
                .seed(5)
                .build(),
        );
        if pressure > 0.0 {
            for s in 1..=4 {
                sys.add_generator(
                    StreamTraffic::builder(SourceId(s))
                        .demand_gbps(pressure / 4.0)
                        .row_locality(0.9)
                        .window(48)
                        .seed(40 + s as u64)
                        .build(),
                );
            }
        }
        sys.run(30_000).source_bw_gbps(SourceId(0))
    };
    let alone = run(0.0);
    let mid = run(80.0);
    let high = run(140.0);
    assert!(alone > 40.0, "standalone victim too slow: {alone:.1}");
    assert!(mid <= alone + 2.0);
    // The exact ratio depends on the generators' RNG stream; 0.5 checks
    // "falls then levels off" without pinning a particular sequence.
    assert!(
        high > mid * 0.5,
        "no stabilization: mid {mid:.1} -> high {high:.1}"
    );
}

#[test]
fn trace_replay_reproduces_generator_locality() {
    // Record a synthetic trace with strong locality, replay it, and check
    // the row-hit behaviour carries over.
    let records: Vec<TraceRecord> = (0..512)
        .map(|i| TraceRecord {
            cycle: i,
            addr: i * 64,
            kind: if i % 3 == 0 {
                ReqKind::Write
            } else {
                ReqKind::Read
            },
        })
        .collect();
    let text = format_trace(&records);
    let parsed = parse_trace(&text).expect("round trip");
    assert_eq!(parsed.len(), 512);

    let mut sys = DramSystem::new(DramConfig::cmp_study(), PolicyKind::FrFcfs);
    sys.add_generator(TraceSource::new(SourceId(0), parsed, ReplayMode::Timed));
    let out = sys.run(4_000);
    assert_eq!(out.completed[&SourceId(0)], 512);
    assert!(
        out.row_hit_pct() > 80.0,
        "sequential trace should hit rows: {:.1}%",
        out.row_hit_pct()
    );
}

#[test]
fn phases_to_prediction_pipeline() {
    // Bandwidth series -> phases -> PhasedWorkload -> prediction.
    let mut series = vec![30.0; 60];
    series.extend(vec![100.0; 40]);
    let phases = detect_phases(&series, 15.0, 3);
    assert_eq!(phases.len(), 2);
    let workload = to_phased_workload("two-phase", &phases);
    let model = PccsModel::xavier_gpu_paper();
    let rs = workload.predict_piecewise(&model, 50.0);
    assert!(rs > 0.0 && rs <= 100.0);
    // The heavy phase must pull the piecewise prediction below the pure
    // light-phase prediction.
    assert!(rs < model.relative_speed_pct(30.0, 50.0));
}

#[test]
fn power_budget_pipeline_runs_on_simulated_profiles() {
    let soc = SocConfig::xavier();
    let gpu = soc.pu_index("GPU").unwrap();
    let kernel = KernelDesc::memory_streaming("stream", 12.0);
    let freqs = [600.0, 1000.0, 1377.0];
    let points = profile_frequencies(&soc, gpu, &kernel, &freqs, 15_000);
    let model = PccsModel::xavier_gpu_paper();
    let choice = select_under_power_budget(&points, &model, 40.0, 0.5, 1377.0);
    assert!(choice.power_rel <= 0.5 + 1e-9);
    assert!(freqs.contains(&choice.chosen_mhz));
    assert_eq!(choice.candidates.len(), 3);
}
