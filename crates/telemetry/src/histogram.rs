//! Log-binned latency histogram.
//!
//! Bins follow the HDR scheme: values below `2^SUB_BITS` get exact
//! single-value bins, and every octave above that is split into
//! `2^SUB_BITS` sub-bins, so relative error is bounded by
//! `2^-SUB_BITS` (12.5%) at any magnitude while the whole `u64` range
//! fits in a few hundred bins.

use serde::{Deserialize, Serialize};

/// Sub-bins per octave as a power of two (8 sub-bins).
const SUB_BITS: u32 = 3;
const SUB_COUNT: u64 = 1 << SUB_BITS;
const SUB_MASK: u64 = SUB_COUNT - 1;

/// A log-binned histogram of `u64` samples (cycles, here).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Bin counts, truncated after the highest occupied bin.
    counts: Vec<u64>,
    /// Total recorded samples.
    count: u64,
    /// Sum of all samples (for exact means).
    sum: u64,
    /// Exact maximum sample.
    max: u64,
}

/// Bin index for a value.
fn bin_of(v: u64) -> usize {
    if v < SUB_COUNT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    (((msb - SUB_BITS + 1) << SUB_BITS) + ((v >> shift) & SUB_MASK) as u32) as usize
}

/// Inclusive value range `[lo, hi]` covered by a bin.
fn bin_range(bin: usize) -> (u64, u64) {
    let bin = bin as u64;
    if bin < SUB_COUNT {
        return (bin, bin);
    }
    let octave = (bin >> SUB_BITS) as u32;
    let sub = bin & SUB_MASK;
    let shift = octave - 1;
    let lo = (SUB_COUNT + sub) << shift;
    (lo, lo + (1 << shift) - 1)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bin = bin_of(value);
        if self.counts.len() <= bin {
            self.counts.resize(bin + 1, 0);
        }
        self.counts[bin] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of all samples, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at or below which `p` percent of samples fall (`p` in
    /// `[0, 100]`), or `None` when the histogram is empty. A single-sample
    /// histogram reports the exact sample (the sum) at every percentile
    /// rather than a bin midpoint; with two or more samples the result is
    /// the upper edge of the containing bin, clamped to the exact maximum.
    pub fn try_percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if self.count == 1 {
            // One sample: sum *is* that sample, exactly.
            return Some(self.sum);
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bin, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bin_range(bin).1.min(self.max));
            }
        }
        Some(self.max)
    }

    /// [`LatencyHistogram::try_percentile`] with empty mapped to 0, for
    /// callers that render tables and want a numeric placeholder.
    pub fn percentile(&self, p: f64) -> u64 {
        self.try_percentile(p).unwrap_or(0)
    }

    /// Median sample (upper bin edge).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th-percentile sample (upper bin edge).
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th-percentile sample (upper bin edge).
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Accumulates another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_bin_exactly() {
        for v in 0..16u64 {
            assert_eq!(bin_of(v) as u64, v, "value {v}");
            assert_eq!(bin_range(v as usize), (v, v));
        }
    }

    #[test]
    fn bins_are_contiguous_and_cover() {
        // Every value maps to a bin whose range contains it, and bin
        // ranges tile without gaps.
        let mut prev_hi = None;
        for bin in 0..200 {
            let (lo, hi) = bin_range(bin);
            assert!(lo <= hi);
            if let Some(p) = prev_hi {
                assert_eq!(lo, p + 1, "gap before bin {bin}");
            }
            assert_eq!(bin_of(lo), bin);
            assert_eq!(bin_of(hi), bin);
            prev_hi = Some(hi);
        }
    }

    #[test]
    fn relative_error_bounded() {
        for &v in &[17u64, 100, 999, 12_345, 1 << 20, (1 << 40) + 12_345] {
            let (lo, hi) = bin_range(bin_of(v));
            assert!(lo <= v && v <= hi);
            assert!((hi - lo) as f64 <= v as f64 / SUB_COUNT as f64 + 1.0);
        }
    }

    #[test]
    fn percentiles_on_uniform_data() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        let p50 = h.p50();
        assert!((450..=560).contains(&p50), "p50 = {p50}");
        let p95 = h.p95();
        assert!((900..=1000).contains(&p95), "p95 = {p95}");
        let p99 = h.p99();
        assert!((950..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.percentile(100.0), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0.0);
        // try_percentile distinguishes "no data" from "zero latency".
        assert_eq!(h.try_percentile(50.0), None);
        assert_eq!(h.try_percentile(95.0), None);
        assert_eq!(h.try_percentile(99.0), None);
    }

    #[test]
    fn single_sample_percentiles_are_exact() {
        let mut h = LatencyHistogram::new();
        // 12_345 sits in a log bin ~1.5k wide; the single-sample path must
        // report the sample itself, not a bin edge.
        h.record(12_345);
        assert_eq!(h.try_percentile(50.0), Some(12_345));
        assert_eq!(h.try_percentile(95.0), Some(12_345));
        assert_eq!(h.try_percentile(99.0), Some(12_345));
        assert_eq!(h.p50(), 12_345);
        assert_eq!(h.p99(), 12_345);
        assert_eq!(h.max(), 12_345);
    }

    #[test]
    fn two_sample_percentiles_split_by_rank() {
        let mut h = LatencyHistogram::new();
        // Two exact-bin samples (below 2^SUB_BITS each bin holds one
        // value), so bin edges are the samples themselves: p50's rank-1
        // lands on the low sample, p95/p99's rank-2 on the high one.
        h.record(3);
        h.record(7);
        assert_eq!(h.try_percentile(50.0), Some(3));
        assert_eq!(h.try_percentile(95.0), Some(7));
        assert_eq!(h.try_percentile(99.0), Some(7));
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for v in [1u64, 5, 100, 2000, 2000, 65_000] {
            a.record(v);
            both.record(v);
        }
        for v in [3u64, 100, 999, 1_000_000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn serde_round_trip() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 7, 8, 63, 64, 12_345] {
            h.record(v);
        }
        let text = serde_json::to_string(&h).unwrap();
        let back: LatencyHistogram = serde_json::from_str(&text).unwrap();
        assert_eq!(back, h);
    }
}
