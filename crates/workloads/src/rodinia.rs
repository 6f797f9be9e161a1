//! Rodinia benchmark traffic proxies.
//!
//! Each proxy assigns a benchmark the operational intensity (per PU class),
//! row locality and write mix that reproduce the bandwidth-demand class the
//! paper reports: three compute-intensive kernels (hotspot, leukocyte,
//! heartwall) and seven memory-intensive ones (streamcluster, pathfinder,
//! srad, k-means, b+tree, cfd, bfs). Intensities differ per PU class
//! because the CPU and GPU implementations of a Rodinia benchmark are
//! different programs with different standalone demands — the paper
//! likewise measures per-PU demands as model inputs.

use pccs_soc::kernel::KernelDesc;
use pccs_soc::pu::PuKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The ten Rodinia benchmarks used in the paper's evaluation (Section 4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RodiniaBenchmark {
    /// hotspot (HS) — compute intensive.
    Hotspot,
    /// leukocyte (LC) — compute intensive.
    Leukocyte,
    /// heartwall (HW) — compute intensive.
    Heartwall,
    /// streamcluster (SC) — memory intensive.
    Streamcluster,
    /// pathfinder (PF) — memory intensive.
    Pathfinder,
    /// srad — memory intensive.
    Srad,
    /// k-means (KM) — memory intensive.
    Kmeans,
    /// b+tree (BT) — memory intensive, irregular.
    Btree,
    /// CFD — memory intensive, multi-phase.
    Cfd,
    /// BFS — memory intensive, poor locality.
    Bfs,
}

impl RodiniaBenchmark {
    /// All ten benchmarks, paper order.
    pub fn all() -> [RodiniaBenchmark; 10] {
        use RodiniaBenchmark::*;
        [
            Hotspot,
            Leukocyte,
            Heartwall,
            Streamcluster,
            Pathfinder,
            Srad,
            Kmeans,
            Btree,
            Cfd,
            Bfs,
        ]
    }

    /// The five benchmarks the paper validates on the CPUs (Figures 9/11).
    pub fn cpu_suite() -> [RodiniaBenchmark; 5] {
        use RodiniaBenchmark::*;
        [Hotspot, Streamcluster, Pathfinder, Kmeans, Srad]
    }

    /// Short name used in the paper's figures.
    pub fn label(&self) -> &'static str {
        use RodiniaBenchmark::*;
        match self {
            Hotspot => "hotspot",
            Leukocyte => "leukocyte",
            Heartwall => "heartwall",
            Streamcluster => "streamcluster",
            Pathfinder => "pathfinder",
            Srad => "srad",
            Kmeans => "k-means",
            Btree => "b+tree",
            Cfd => "cfd",
            Bfs => "bfs",
        }
    }

    /// Whether the paper classes the benchmark as compute-intensive.
    pub fn is_compute_intensive(&self) -> bool {
        use RodiniaBenchmark::*;
        matches!(self, Hotspot | Leukocyte | Heartwall)
    }

    /// Parses a paper label (case-insensitive).
    pub fn from_label(label: &str) -> Option<RodiniaBenchmark> {
        let l = label.to_ascii_lowercase();
        Self::all()
            .into_iter()
            .find(|b| b.label() == l || b.short_code().eq_ignore_ascii_case(&l))
    }

    /// Two-letter code used in the paper's text (HS, LC, …).
    pub fn short_code(&self) -> &'static str {
        use RodiniaBenchmark::*;
        match self {
            Hotspot => "HS",
            Leukocyte => "LC",
            Heartwall => "HW",
            Streamcluster => "SC",
            Pathfinder => "PF",
            Srad => "SRAD",
            Kmeans => "KM",
            Btree => "BT",
            Cfd => "CFD",
            Bfs => "BFS",
        }
    }

    /// (ops-per-byte, row-locality, write-fraction) of the proxy on a PU
    /// class. Intensities are chosen so the Xavier-GPU demands land at the
    /// small (<38 GB/s), medium (40–90 GB/s) or large (>90 GB/s) levels the
    /// paper's classification implies, and the CPU demands span the CPU's
    /// minor/normal regions.
    fn traits_for(&self, pu: PuKind) -> (f64, f64, f64) {
        use RodiniaBenchmark::*;
        match pu {
            PuKind::Gpu => match self {
                Hotspot => (56.0, 0.93, 0.20),
                Leukocyte => (80.0, 0.90, 0.10),
                Heartwall => (46.0, 0.90, 0.15),
                // Calibrated so the kernel is memory-bound at the GPU's top
                // frequencies, matching the paper's Figure 15 observation
                // that streamcluster's standalone performance saturates
                // above ~900 MHz.
                Streamcluster => (15.0, 0.92, 0.25),
                Pathfinder => (25.5, 0.93, 0.30),
                Srad => (20.0, 0.91, 0.33),
                Kmeans => (18.5, 0.88, 0.25),
                Btree => (21.5, 0.62, 0.15),
                Cfd => (17.5, 0.90, 0.33),
                Bfs => (16.5, 0.38, 0.15),
            },
            PuKind::Cpu => match self {
                Hotspot => (9.0, 0.93, 0.20),
                Leukocyte => (6.5, 0.90, 0.10),
                Heartwall => (5.2, 0.90, 0.15),
                Streamcluster => (3.0, 0.92, 0.25),
                Pathfinder => (3.4, 0.93, 0.30),
                Srad => (2.9, 0.91, 0.33),
                Kmeans => (2.6, 0.88, 0.25),
                Btree => (3.2, 0.62, 0.15),
                Cfd => (2.5, 0.90, 0.33),
                Bfs => (2.4, 0.38, 0.15),
            },
            // The DLA does not run Rodinia in the paper; the proxy exists so
            // exploratory placements do not panic.
            PuKind::Dla => match self {
                b if b.is_compute_intensive() => (400.0, 0.9, 0.1),
                _ => (60.0, 0.85, 0.2),
            },
        }
    }

    /// The proxy kernel of this benchmark on a PU class.
    pub fn kernel(&self, pu: PuKind) -> KernelDesc {
        let (ops_per_byte, locality, writes) = self.traits_for(pu);
        KernelDesc::new(self.label(), ops_per_byte, locality, writes, 1.0)
    }

    /// CFD's phase structure (Section 4.1.2): one high-bandwidth kernel
    /// (K1) and three medium-bandwidth kernels (K2–K4), with standalone
    /// time shares. Demands are expressed per PU class via the per-phase
    /// kernels from [`RodiniaBenchmark::cfd_phase_kernels`].
    pub fn cfd_phase_weights() -> [f64; 4] {
        [0.34, 0.24, 0.22, 0.20]
    }

    /// The four phase kernels of CFD on a PU class: K1 is high-bandwidth,
    /// K2–K4 medium.
    pub fn cfd_phase_kernels(pu: PuKind) -> [KernelDesc; 4] {
        let scale = match pu {
            PuKind::Gpu => 1.0,
            PuKind::Cpu => 14.0,
            PuKind::Dla => 0.25,
        };
        let make = |name: &str, opb_gpu: f64, loc: f64| {
            KernelDesc::new(name, opb_gpu / scale, loc, 0.33, 1.0)
        };
        [
            // K1 demands enough bandwidth to sit deep in the intensive
            // region; K2-K4 are mid-normal-region kernels. The spread is
            // what makes the average-BW prediction underestimate the
            // slowdown (Figure 13's point).
            make("cfd-k1", 11.0, 0.90),
            make("cfd-k2", 24.0, 0.91),
            make("cfd-k3", 26.5, 0.91),
            make("cfd-k4", 22.0, 0.90),
        ]
    }
}

impl fmt::Display for RodiniaBenchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ten_present_with_unique_labels() {
        let all = RodiniaBenchmark::all();
        assert_eq!(all.len(), 10);
        let labels: std::collections::HashSet<_> = all.iter().map(|b| b.label()).collect();
        assert_eq!(labels.len(), 10);
    }

    #[test]
    fn compute_intensive_classification_matches_paper() {
        let compute: Vec<_> = RodiniaBenchmark::all()
            .into_iter()
            .filter(|b| b.is_compute_intensive())
            .collect();
        assert_eq!(compute.len(), 3);
    }

    #[test]
    fn compute_intensive_kernels_have_higher_intensity() {
        for pu in [PuKind::Cpu, PuKind::Gpu] {
            let hotspot = RodiniaBenchmark::Hotspot.kernel(pu);
            let sc = RodiniaBenchmark::Streamcluster.kernel(pu);
            assert!(hotspot.ops_per_byte > 2.0 * sc.ops_per_byte, "{pu:?}");
        }
    }

    #[test]
    fn bfs_has_poor_locality() {
        let bfs = RodiniaBenchmark::Bfs.kernel(PuKind::Gpu);
        let pf = RodiniaBenchmark::Pathfinder.kernel(PuKind::Gpu);
        assert!(bfs.row_locality < 0.5);
        assert!(pf.row_locality > 0.85);
    }

    #[test]
    fn from_label_round_trips() {
        for b in RodiniaBenchmark::all() {
            assert_eq!(RodiniaBenchmark::from_label(b.label()), Some(b));
            assert_eq!(RodiniaBenchmark::from_label(b.short_code()), Some(b));
        }
        assert_eq!(RodiniaBenchmark::from_label("nonesuch"), None);
    }

    #[test]
    fn cfd_k1_is_the_high_bandwidth_phase() {
        let ks = RodiniaBenchmark::cfd_phase_kernels(PuKind::Gpu);
        for k in &ks[1..] {
            assert!(
                ks[0].ops_per_byte < k.ops_per_byte,
                "K1 must demand the most bandwidth"
            );
        }
    }

    #[test]
    fn cfd_phase_weights_sum_to_one() {
        let s: f64 = RodiniaBenchmark::cfd_phase_weights().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cpu_suite_is_subset_of_all() {
        for b in RodiniaBenchmark::cpu_suite() {
            assert!(RodiniaBenchmark::all().contains(&b));
        }
    }
}
