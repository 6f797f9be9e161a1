//! Processing-unit (PU) models.
//!
//! A PU is characterized by the three properties that govern its behaviour
//! under memory contention (Section 2.2 of the paper):
//!
//! 1. its maximum standalone compute speed (cores × lanes × frequency),
//! 2. the bandwidth demand its kernels generate (emerges from intensity),
//! 3. its tolerance to memory latency — modelled as the number of
//!    outstanding memory requests it can sustain (MLP window). GPUs hide
//!    latency with massive thread-level parallelism; CPUs have moderate
//!    out-of-order windows; DLAs have little ("It is likely due to the lack
//!    of thread-level parallelism in DLA to hide memory latency", §4.1.2).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The class of a processing unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PuKind {
    /// General-purpose CPU complex.
    Cpu,
    /// Throughput-oriented GPU.
    Gpu,
    /// Deep-learning accelerator.
    Dla,
}

impl fmt::Display for PuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PuKind::Cpu => f.write_str("CPU"),
            PuKind::Gpu => f.write_str("GPU"),
            PuKind::Dla => f.write_str("DLA"),
        }
    }
}

/// Static configuration of one processing unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PuConfig {
    /// PU class.
    pub kind: PuKind,
    /// Display name, unique within an SoC (e.g. `"GPU"`).
    pub name: String,
    /// Number of cores (CPU cores, GPU SMs, DLA engines).
    pub cores: u32,
    /// Core clock in MHz.
    pub freq_mhz: f64,
    /// Arithmetic throughput per core per core-clock cycle (flops).
    pub flops_per_cycle_per_core: f64,
    /// Maximum outstanding memory requests (memory-level parallelism).
    pub mlp_window: usize,
    /// Number of independent memory-traffic streams the PU presents to the
    /// controller (a CPU complex issues from each core; fairness policies
    /// see these as distinct sources).
    pub streams: usize,
}

impl PuConfig {
    /// Xavier's 8-core Carmel ARMv8.2 CPU at 2265 MHz (Table 6).
    pub fn xavier_cpu() -> Self {
        Self {
            kind: PuKind::Cpu,
            name: "CPU".to_owned(),
            cores: 8,
            freq_mhz: 2265.0,
            flops_per_cycle_per_core: 8.0, // 128-bit NEON FMA
            mlp_window: 384,               // 48 in-flight lines per core incl. prefetch streams
            streams: 8,
        }
    }

    /// Xavier's 512-core Volta GPU at 1377 MHz (Table 6).
    pub fn xavier_gpu() -> Self {
        Self {
            kind: PuKind::Gpu,
            name: "GPU".to_owned(),
            cores: 512,
            freq_mhz: 1377.0,
            flops_per_cycle_per_core: 2.0, // FMA per CUDA core
            mlp_window: 1024,              // massive TLP hides memory latency
            streams: 8,
        }
    }

    /// Xavier's NVIDIA DLA at 1395.2 MHz (Table 6).
    pub fn xavier_dla() -> Self {
        Self {
            kind: PuKind::Dla,
            name: "DLA".to_owned(),
            cores: 1,
            freq_mhz: 1395.2,
            flops_per_cycle_per_core: 2048.0, // MAC array
            mlp_window: 32,                   // DMA double-buffering; still far below CPU/GPU
            streams: 1,
        }
    }

    /// Snapdragon 855's 8-core Kryo 485 CPU at 1800 MHz (Table 6).
    pub fn snapdragon_cpu() -> Self {
        Self {
            kind: PuKind::Cpu,
            name: "CPU".to_owned(),
            cores: 8,
            freq_mhz: 1800.0,
            // Sustained NEON throughput of the mixed big/mid/LITTLE Kryo
            // cluster is well below its nominal peak; this lands the
            // paper's CPU benchmarks in the normal contention region of the
            // 34 GB/s memory system, as in Table 7.
            flops_per_cycle_per_core: 3.2,
            mlp_window: 128, // bounded so CPU+GPU windows fit the MC queues
            streams: 8,
        }
    }

    /// Snapdragon 855's Adreno 640 GPU (Table 6).
    pub fn snapdragon_gpu() -> Self {
        Self {
            kind: PuKind::Gpu,
            name: "GPU".to_owned(),
            cores: 384,
            freq_mhz: 585.0,
            flops_per_cycle_per_core: 2.0,
            mlp_window: 256, // bounded so CPU+GPU windows fit the MC queues
            streams: 4,
        }
    }

    /// Peak arithmetic throughput in Gflop/s at the configured frequency.
    pub fn peak_gflops(&self) -> f64 {
        self.cores as f64 * self.flops_per_cycle_per_core * self.freq_mhz * 1.0e6 / 1.0e9
    }

    /// Aggregate flops the PU retires per *memory-controller* cycle; the
    /// executor works in the memory clock domain.
    pub fn flops_per_mem_cycle(&self, mem_clock_mhz: f64) -> f64 {
        assert!(mem_clock_mhz > 0.0, "memory clock must be positive");
        self.cores as f64 * self.flops_per_cycle_per_core * self.freq_mhz / mem_clock_mhz
    }

    /// Returns a copy clocked at `freq_mhz` (DVFS exploration, Section 4.3).
    pub fn with_frequency(&self, freq_mhz: f64) -> Self {
        assert!(freq_mhz > 0.0, "frequency must be positive");
        let mut c = self.clone();
        c.freq_mhz = freq_mhz;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_gpu_peak_flops() {
        let gpu = PuConfig::xavier_gpu();
        // 512 cores * 2 flops * 1.377 GHz ≈ 1410 Gflop/s (FP32 FMA).
        assert!((gpu.peak_gflops() - 1410.0).abs() < 10.0);
    }

    #[test]
    fn flops_per_mem_cycle_scales_with_frequency() {
        let cpu = PuConfig::xavier_cpu();
        let half = cpu.with_frequency(cpu.freq_mhz / 2.0);
        let full = cpu.flops_per_mem_cycle(2133.0);
        let halved = half.flops_per_mem_cycle(2133.0);
        assert!((halved - full / 2.0).abs() < 1e-9);
    }

    #[test]
    fn gpu_has_larger_window_than_cpu_than_dla() {
        assert!(PuConfig::xavier_gpu().mlp_window > PuConfig::xavier_cpu().mlp_window);
        assert!(PuConfig::xavier_cpu().mlp_window > PuConfig::xavier_dla().mlp_window);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn with_frequency_rejects_zero() {
        PuConfig::xavier_cpu().with_frequency(0.0);
    }

    #[test]
    fn kind_display() {
        assert_eq!(PuKind::Dla.to_string(), "DLA");
    }
}
