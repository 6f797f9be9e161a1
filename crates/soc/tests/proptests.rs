//! Property-based tests of the SoC substrate invariants.

use pccs_soc::kernel::KernelDesc;
use pccs_soc::pu::{PuConfig, PuKind};
use pccs_soc::soc::SocConfig;
use proptest::prelude::*;

fn arb_kernel() -> impl Strategy<Value = KernelDesc> {
    (0.0f64..200.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.01f64..=1.0)
        .prop_map(|(opb, loc, wr, eff)| KernelDesc::new("k", opb, loc, wr, eff))
}

proptest! {
    #[test]
    fn cycles_per_line_scales_linearly_with_intensity(
        kernel in arb_kernel(),
        flops in 1.0f64..2000.0,
        factor in 1.1f64..8.0,
    ) {
        prop_assume!(kernel.ops_per_byte > 0.0);
        let base = kernel.cycles_per_line(flops, 64);
        let heavier = KernelDesc::new(
            "k2",
            kernel.ops_per_byte * factor,
            kernel.row_locality,
            kernel.write_fraction,
            kernel.parallel_efficiency,
        );
        let scaled = heavier.cycles_per_line(flops, 64);
        prop_assert!((scaled / base - factor).abs() < 1e-9);
    }

    #[test]
    fn demand_solving_round_trips(
        flops in 1.0f64..2000.0,
        target_bpc in 0.1f64..200.0,
        eff in 0.1f64..=1.0,
    ) {
        let intensity = KernelDesc::intensity_for_demand(flops, target_bpc, eff);
        let kernel = KernelDesc::new("cal", intensity, 0.9, 0.0, eff);
        let demand = kernel.compute_limited_demand(flops, 64);
        prop_assert!((demand - target_bpc).abs() / target_bpc < 1e-9);
    }

    #[test]
    fn frequency_scaling_is_linear_in_compute_rate(
        freq in 100.0f64..3000.0,
        ratio in 0.1f64..4.0,
    ) {
        let pu = PuConfig::xavier_gpu().with_frequency(freq);
        let scaled = pu.with_frequency(freq * ratio);
        let base_rate = pu.flops_per_mem_cycle(2133.0);
        let scaled_rate = scaled.flops_per_mem_cycle(2133.0);
        prop_assert!((scaled_rate / base_rate - ratio).abs() < 1e-9);
    }

    #[test]
    fn source_ranges_partition_for_any_pu_order(swap in any::<bool>()) {
        let mut soc = SocConfig::xavier();
        if swap {
            soc.pus.swap(0, 2);
        }
        let mut covered = Vec::new();
        for i in 0..soc.pus.len() {
            let r = soc.source_range(i);
            prop_assert_eq!(r.len(), soc.pus[i].streams);
            covered.extend(r);
        }
        let total: usize = soc.pus.iter().map(|p| p.streams).sum();
        covered.sort_unstable();
        prop_assert_eq!(covered, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn peak_gflops_monotone_in_cores_and_freq(
        c1 in 1u32..512,
        c2 in 1u32..512,
        f in 100.0f64..2000.0,
    ) {
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        let a = PuConfig {
            kind: PuKind::Gpu,
            name: "a".into(),
            cores: lo,
            freq_mhz: f,
            flops_per_cycle_per_core: 2.0,
            mlp_window: 64,
            streams: 4,
        };
        let mut b = a.clone();
        b.cores = hi;
        prop_assert!(a.peak_gflops() <= b.peak_gflops());
    }
}
