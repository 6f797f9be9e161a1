//! Design-space exploration pipeline (Section 4.3): frequency selection
//! with a slowdown model vs simulated ground truth.

use pccs_core::PccsModel;
use pccs_dse::freq::{ground_truth_frequency, profile_frequencies, select_frequency};
use pccs_gables::GablesModel;
use pccs_soc::kernel::KernelDesc;
use pccs_soc::pu::PuKind;
use pccs_soc::soc::SocConfig;
use pccs_workloads::rodinia::RodiniaBenchmark;

const HORIZON: u64 = 20_000;

#[test]
fn frequency_profile_is_monotone_in_frequency() {
    let soc = SocConfig::xavier();
    let gpu = soc.pu_index("GPU").unwrap();
    let kernel = RodiniaBenchmark::Streamcluster.kernel(PuKind::Gpu);
    let freqs = [400.0, 800.0, 1377.0];
    let points = profile_frequencies(&soc, gpu, &kernel, &freqs, HORIZON);
    assert_eq!(points.len(), 3);
    // Higher clock never *reduces* standalone performance.
    assert!(points[1].standalone_rate >= points[0].standalone_rate * 0.95);
    assert!(points[2].standalone_rate >= points[1].standalone_rate * 0.95);
}

#[test]
fn selection_respects_the_budget_against_ground_truth() {
    let soc = SocConfig::xavier();
    let gpu = soc.pu_index("GPU").unwrap();
    let cpu = soc.pu_index("CPU").unwrap();
    let kernel = RodiniaBenchmark::Streamcluster.kernel(PuKind::Gpu);
    let freqs = [500.0, 900.0, 1377.0];
    let truth = ground_truth_frequency(&soc, gpu, cpu, &kernel, &freqs, 40.0, 0.20, HORIZON);
    // The chosen frequency is one of the candidates and its measured co-run
    // performance is within the budget of the best.
    let (_, rel) = truth
        .perf_rel
        .iter()
        .find(|&&(f, _)| f == truth.chosen_mhz)
        .copied()
        .expect("chosen frequency among candidates");
    assert!(rel >= 0.8 - 1e-9);
}

#[test]
fn pccs_guided_choice_saves_power_over_gables() {
    // Use paper-magnitude models so the comparison is about model shape,
    // not calibration noise: Gables over-clocks because it sees no
    // contention below peak. Dynamic power rises with the clock, so a
    // clock no higher than Gables' is power no higher than Gables'.
    let soc = SocConfig::xavier();
    let gpu = soc.pu_index("GPU").unwrap();
    let kernel = KernelDesc::memory_streaming("streamcluster", 22.5);
    let freqs = [500.0, 700.0, 900.0, 1100.0, 1377.0];
    let points = profile_frequencies(&soc, gpu, &kernel, &freqs, HORIZON);
    let pccs = PccsModel::xavier_gpu_paper();
    let gables = GablesModel::new(soc.peak_bw_gbps());

    let p = select_frequency(&points, &pccs, 60.0, 0.05);
    let g = select_frequency(&points, &gables, 60.0, 0.05);
    assert!(
        p.chosen_mhz <= g.chosen_mhz,
        "PCCS should never pick a higher clock than Gables under contention"
    );
}
