//! Memory-system configuration and the presets used throughout the paper.

use crate::timing::DramTiming;
use serde::{Deserialize, Serialize};

/// Configuration of a complete DRAM subsystem: geometry, clocking and the
/// controller queue.
///
/// Three presets reproduce the systems in the paper:
///
/// * [`DramConfig::cmp_study`] — the 16-core CMP simulation of Table 1
///   (DDR4-3200, 4 × 64-bit channels, 102.4 GB/s),
/// * [`DramConfig::xavier`] — NVIDIA Jetson AGX Xavier memory
///   (LPDDR4X, 8 × 32-bit channels, 136.5 GB/s, Table 6),
/// * [`DramConfig::snapdragon855`] — Qualcomm Snapdragon 855 memory
///   (LPDDR4X, 64-bit total, 34 GB/s, Table 6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Device timing parameters (command-clock cycles).
    pub timing: DramTiming,
    /// Number of independent channels.
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Data-bus width of one channel in bytes (64-bit channel = 8).
    pub channel_width_bytes: u32,
    /// Row-buffer (page) size per bank in bytes.
    pub row_bytes: u64,
    /// Command-clock frequency in MHz (data rate is twice this).
    pub clock_mhz: f64,
    /// Capacity of the controller request buffer, per channel.
    pub queue_capacity: usize,
    /// Interconnect line size in bytes (request granularity).
    pub line_bytes: u32,
}

impl DramConfig {
    /// The memory-controller simulation configuration of Table 1:
    /// DDR4-3200, 8 banks, 4 KB row buffer, single rank, 4 channels,
    /// 64-bit wide channel, 256-entry request buffer, 102.4 GB/s peak.
    pub fn cmp_study() -> Self {
        Self {
            timing: DramTiming::ddr4_3200(),
            channels: 4,
            banks_per_channel: 8,
            channel_width_bytes: 8,
            row_bytes: 4096,
            clock_mhz: 1600.0,
            queue_capacity: 256,
            line_bytes: 64,
        }
    }

    /// NVIDIA Jetson AGX Xavier memory subsystem: 256-bit LPDDR4X built from
    /// 8 × 32-bit channels at 2133 MHz (Table 6; theoretical peak
    /// 136.5 GB/s).
    pub fn xavier() -> Self {
        Self {
            timing: DramTiming::lpddr4x_4266(),
            channels: 8,
            banks_per_channel: 8,
            channel_width_bytes: 4,
            row_bytes: 2048,
            clock_mhz: 2133.0,
            queue_capacity: 256,
            line_bytes: 64,
        }
    }

    /// Qualcomm Snapdragon 855 memory subsystem: 64-bit LPDDR4X at 2133 MHz
    /// (Table 6; theoretical peak 34.1 GB/s), modelled as 2 × 32-bit
    /// channels.
    pub fn snapdragon855() -> Self {
        Self {
            timing: DramTiming::lpddr4x_4266(),
            channels: 2,
            banks_per_channel: 8,
            channel_width_bytes: 4,
            row_bytes: 2048,
            clock_mhz: 2133.0,
            queue_capacity: 256,
            line_bytes: 64,
        }
    }

    /// Theoretical peak bandwidth in GB/s:
    /// `channels × width × 2 (DDR) × clock`.
    pub fn peak_bw_gbps(&self) -> f64 {
        self.channels as f64 * self.channel_width_bytes as f64 * 2.0 * self.clock_mhz * 1.0e6
            / 1.0e9
    }

    /// Bytes one channel transfers per command-clock cycle at peak.
    pub fn channel_bytes_per_cycle(&self) -> u32 {
        self.channel_width_bytes * 2
    }

    /// Cycles of data-bus occupancy for one line transfer on one channel.
    pub fn burst_cycles(&self) -> u64 {
        u64::from(self.line_bytes.div_ceil(self.channel_bytes_per_cycle()))
    }

    /// Lines (columns) per row buffer.
    pub fn columns_per_row(&self) -> u64 {
        self.row_bytes / u64::from(self.line_bytes)
    }

    /// Number of bank groups per channel. DDR4-style devices organize
    /// banks into four groups (ACTIVATE spacing inside a group pays
    /// tRRD_L, across groups tRRD_S); devices with fewer than four banks
    /// degenerate to one bank per group.
    pub fn bank_group_count(&self) -> usize {
        self.banks_per_channel.min(4)
    }

    /// The bank group a bank index belongs to (banks interleave across
    /// groups, matching the usual consecutive-bank striping).
    pub fn bank_group(&self, bank: usize) -> usize {
        bank % self.bank_group_count()
    }

    /// Converts a bandwidth in GB/s into bytes per command-clock cycle of
    /// this memory system.
    pub fn gbps_to_bytes_per_cycle(&self, gbps: f64) -> f64 {
        gbps * 1.0e9 / (self.clock_mhz * 1.0e6)
    }

    /// Converts bytes per command-clock cycle into GB/s.
    pub fn bytes_per_cycle_to_gbps(&self, bpc: f64) -> f64 {
        bpc * self.clock_mhz * 1.0e6 / 1.0e9
    }

    /// Returns a copy with the memory clock scaled by `ratio` (e.g. 0.5 to
    /// underclock 2133 MHz to 1066 MHz), used by the linear-scaling study of
    /// Section 3.3 / Table 5.
    pub fn with_clock_ratio(&self, ratio: f64) -> Self {
        assert!(ratio > 0.0, "clock ratio must be positive");
        let mut c = self.clone();
        c.clock_mhz *= ratio;
        c
    }

    /// Returns a copy with a different channel count, used to give each
    /// controller of a multi-controller [`DramSystem`] its share of the
    /// channels.
    ///
    /// [`DramSystem`]: crate::sim::DramSystem
    pub fn with_channels(&self, channels: usize) -> Self {
        assert!(channels > 0, "at least one channel required");
        let mut c = self.clone();
        c.channels = channels;
        c
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::cmp_study()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_study_peak_matches_table1() {
        let c = DramConfig::cmp_study();
        assert!((c.peak_bw_gbps() - 102.4).abs() < 1e-9);
    }

    #[test]
    fn xavier_peak_matches_table6() {
        let c = DramConfig::xavier();
        assert!((c.peak_bw_gbps() - 136.512).abs() < 0.1);
    }

    #[test]
    fn snapdragon_peak_matches_table6() {
        let c = DramConfig::snapdragon855();
        assert!((c.peak_bw_gbps() - 34.128).abs() < 0.1);
    }

    #[test]
    fn burst_cycles_ddr4_is_4() {
        // 64-byte line on a 64-bit channel: 8 beats = 4 command cycles.
        assert_eq!(DramConfig::cmp_study().burst_cycles(), 4);
    }

    #[test]
    fn burst_cycles_lpddr4_is_8() {
        // 64-byte line on a 32-bit channel: 16 beats = 8 command cycles.
        assert_eq!(DramConfig::xavier().burst_cycles(), 8);
    }

    #[test]
    fn gbps_round_trip() {
        let c = DramConfig::cmp_study();
        let bpc = c.gbps_to_bytes_per_cycle(51.2);
        assert!((c.bytes_per_cycle_to_gbps(bpc) - 51.2).abs() < 1e-9);
    }

    #[test]
    fn clock_ratio_scales_peak() {
        let c = DramConfig::xavier();
        let half = c.with_clock_ratio(0.5);
        assert!((half.peak_bw_gbps() - c.peak_bw_gbps() / 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_clock_ratio_panics() {
        DramConfig::xavier().with_clock_ratio(0.0);
    }

    #[test]
    fn columns_per_row_cmp() {
        assert_eq!(DramConfig::cmp_study().columns_per_row(), 64);
    }
}
