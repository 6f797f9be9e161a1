//! Per-source and aggregate memory-system statistics.

use crate::config::DramConfig;
use crate::request::SourceId;
use crate::timing::RowOutcome;
use pccs_telemetry::LatencyHistogram;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Statistics accumulated for one traffic source.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SourceStats {
    /// Requests served.
    pub served: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Row-buffer hits observed by served requests.
    pub row_hits: u64,
    /// Row misses (bank was precharged).
    pub row_misses: u64,
    /// Row conflicts (another row was open).
    pub row_conflicts: u64,
    /// Sum of queueing + service latency over served requests, in cycles.
    pub total_latency: u64,
    /// Largest single-request latency, in cycles.
    pub max_latency: u64,
    /// Requests enqueued (may exceed `served` at the end of a run).
    pub enqueued: u64,
    /// Requests the source wanted to enqueue but could not because the
    /// controller queue was full (back-pressure).
    pub rejected: u64,
    /// Log-binned distribution of per-request latencies; `total_latency`
    /// and `max_latency` summarize the same samples.
    pub latency: LatencyHistogram,
}

impl SourceStats {
    /// Mean request latency in cycles, or 0 when nothing was served.
    pub fn avg_latency(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.served as f64
        }
    }

    /// Fraction of served requests that hit in the row buffer.
    pub fn row_hit_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.served as f64
        }
    }

    /// Latency at or below which `p` percent of requests completed
    /// (log-binned; see [`LatencyHistogram::percentile`]).
    pub fn latency_percentile(&self, p: f64) -> u64 {
        self.latency.percentile(p)
    }

    /// Like [`SourceStats::latency_percentile`] but distinguishes "no
    /// requests served" (`None`) from a genuine zero-cycle latency, and
    /// reports the exact sample when only one request was served (see
    /// [`LatencyHistogram::try_percentile`]).
    pub fn try_latency_percentile(&self, p: f64) -> Option<u64> {
        self.latency.try_percentile(p)
    }

    /// Records a served request.
    #[inline]
    pub(crate) fn record_served(&mut self, bytes: u64, outcome: RowOutcome, latency: u64) {
        self.served += 1;
        self.bytes += bytes;
        match outcome {
            RowOutcome::Hit => self.row_hits += 1,
            RowOutcome::Miss => self.row_misses += 1,
            RowOutcome::Conflict => self.row_conflicts += 1,
        }
        self.total_latency += latency;
        self.max_latency = self.max_latency.max(latency);
        self.latency.record(latency);
    }
}

/// Per-source statistics in a dense table indexed by `SourceId.0`: the
/// controller's working form of [`MemoryStats::per_source`], so counting a
/// request costs an index, not an ordered-map walk. A source has an entry
/// from its first enqueue attempt on, exactly as in the map.
#[derive(Debug, Clone, Default)]
pub(crate) struct SourceTable(Vec<Option<SourceStats>>);

impl SourceTable {
    /// Mutable access to (and creation of) one source's statistics.
    #[inline]
    pub(crate) fn source_mut(&mut self, source: SourceId) -> &mut SourceStats {
        source
            .slot(&mut self.0, None)
            .get_or_insert_with(SourceStats::default)
    }

    /// The table as the ordered map readers see.
    pub(crate) fn into_map(self) -> BTreeMap<SourceId, SourceStats> {
        self.0
            .into_iter()
            .enumerate()
            .filter_map(|(id, s)| s.map(|s| (SourceId(id), s)))
            .collect()
    }
}

/// Statistics for an entire simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MemoryStats {
    /// Per-source breakdown, ordered by source id.
    pub per_source: BTreeMap<SourceId, SourceStats>,
    /// Cycles simulated.
    pub elapsed_cycles: u64,
    /// Scheduler diagnostics, summed over channels.
    pub scheduler: SchedulerStats,
}

/// Aggregate scheduler diagnostics (summed over channels and cycles).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Channel-cycles in which a request was issued.
    pub issued: u64,
    /// Channel-cycles skipped because the data-bus backlog guard tripped.
    pub bus_blocked: u64,
    /// Channel-cycles with a non-empty queue but no issuable candidate
    /// (all target banks busy or shielded).
    pub no_candidate: u64,
    /// Channel-cycles with an empty queue.
    pub idle: u64,
    /// Peak per-channel queue occupancy observed over the run (a
    /// high-watermark, so merges take the max rather than the sum).
    pub queue_hwm: u64,
}

impl MemoryStats {
    /// Creates an empty statistics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable access to (and creation of) one source's statistics.
    pub fn source_mut(&mut self, source: SourceId) -> &mut SourceStats {
        self.per_source.entry(source).or_default()
    }

    /// Adds another controller's statistics (multi-controller systems):
    /// counts sum; latency maxima, elapsed cycles and the queue
    /// high-watermark take the max.
    pub(crate) fn merge(&mut self, other: &MemoryStats) {
        for (src, per) in &other.per_source {
            let agg = self.source_mut(*src);
            agg.served += per.served;
            agg.bytes += per.bytes;
            agg.row_hits += per.row_hits;
            agg.row_misses += per.row_misses;
            agg.row_conflicts += per.row_conflicts;
            agg.total_latency += per.total_latency;
            agg.max_latency = agg.max_latency.max(per.max_latency);
            agg.enqueued += per.enqueued;
            agg.rejected += per.rejected;
            agg.latency.merge(&per.latency);
        }
        self.elapsed_cycles = self.elapsed_cycles.max(other.elapsed_cycles);
        let (s, o) = (&mut self.scheduler, &other.scheduler);
        s.issued += o.issued;
        s.bus_blocked += o.bus_blocked;
        s.no_candidate += o.no_candidate;
        s.idle += o.idle;
        // A high-watermark merges by max: the deepest single channel queue
        // anywhere in the system, not a sum across controllers.
        s.queue_hwm = s.queue_hwm.max(o.queue_hwm);
    }

    /// Total bytes served across all sources.
    pub fn total_bytes(&self) -> u64 {
        self.per_source.values().map(|s| s.bytes).sum()
    }

    /// Total requests served across all sources.
    pub fn total_served(&self) -> u64 {
        self.per_source.values().map(|s| s.served).sum()
    }

    /// Aggregate row-buffer hit rate across all sources (fraction in 0..=1).
    pub fn row_hit_rate(&self) -> f64 {
        let served = self.total_served();
        if served == 0 {
            return 0.0;
        }
        let hits: u64 = self.per_source.values().map(|s| s.row_hits).sum();
        hits as f64 / served as f64
    }

    /// Bandwidth attained by one source in GB/s.
    pub fn source_bw_gbps(&self, source: SourceId, config: &DramConfig) -> f64 {
        if self.elapsed_cycles == 0 {
            return 0.0;
        }
        let bytes = self.per_source.get(&source).map(|s| s.bytes).unwrap_or(0);
        config.bytes_per_cycle_to_gbps(bytes as f64 / self.elapsed_cycles as f64)
    }

    /// Aggregate effective bandwidth across all sources in GB/s.
    pub fn effective_bw_gbps(&self, config: &DramConfig) -> f64 {
        if self.elapsed_cycles == 0 {
            return 0.0;
        }
        config.bytes_per_cycle_to_gbps(self.total_bytes() as f64 / self.elapsed_cycles as f64)
    }

    /// Effective bandwidth as a percentage of the theoretical peak (the
    /// "Effective BW Percentage over Peak BW" row of Table 3).
    pub fn effective_bw_pct(&self, config: &DramConfig) -> f64 {
        100.0 * self.effective_bw_gbps(config) / config.peak_bw_gbps()
    }

    /// Publishes this run's totals into the process-global metrics
    /// registry (`dram.*` names; see DESIGN.md §9). Called once at the end
    /// of a run, never from the per-cycle loop, so registry cost stays off
    /// the hot path.
    pub fn publish_metrics(&self) {
        use pccs_telemetry::metrics;
        metrics::add("dram.cycles", self.elapsed_cycles);
        metrics::add("dram.bytes", self.total_bytes());
        metrics::add("dram.requests.served", self.total_served());
        let sum = |f: fn(&SourceStats) -> u64| self.per_source.values().map(f).sum::<u64>();
        metrics::add("dram.requests.enqueued", sum(|s| s.enqueued));
        metrics::add("dram.requests.rejected", sum(|s| s.rejected));
        metrics::add("dram.row.hits", sum(|s| s.row_hits));
        metrics::add("dram.row.misses", sum(|s| s.row_misses));
        metrics::add("dram.row.conflicts", sum(|s| s.row_conflicts));
        metrics::add("dram.sched.issued", self.scheduler.issued);
        metrics::add("dram.sched.bus_blocked", self.scheduler.bus_blocked);
        metrics::add("dram.sched.no_candidate", self.scheduler.no_candidate);
        metrics::add("dram.sched.idle", self.scheduler.idle);
        metrics::observe_max("dram.queue.hwm", self.scheduler.queue_hwm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_served_accumulates() {
        let mut m = MemoryStats::new();
        m.source_mut(SourceId(0))
            .record_served(64, RowOutcome::Hit, 30);
        m.source_mut(SourceId(0))
            .record_served(64, RowOutcome::Conflict, 90);
        m.source_mut(SourceId(1))
            .record_served(64, RowOutcome::Miss, 44);
        let s0 = &m.per_source[&SourceId(0)];
        assert_eq!(s0.served, 2);
        assert_eq!(s0.bytes, 128);
        assert_eq!(s0.row_hits, 1);
        assert_eq!(s0.row_conflicts, 1);
        assert_eq!(s0.max_latency, 90);
        assert!((s0.avg_latency() - 60.0).abs() < 1e-12);
        assert_eq!(m.total_bytes(), 192);
        assert_eq!(m.total_served(), 3);
    }

    #[test]
    fn latency_histogram_tracks_served_requests() {
        let mut m = MemoryStats::new();
        for latency in [10u64, 20, 30, 40, 400] {
            m.source_mut(SourceId(0))
                .record_served(64, RowOutcome::Hit, latency);
        }
        let s = &m.per_source[&SourceId(0)];
        assert_eq!(s.latency.count(), s.served);
        assert_eq!(s.latency.max(), s.max_latency);
        assert!((s.latency.mean() - s.avg_latency()).abs() < 1e-9);
        let p50 = s.latency_percentile(50.0);
        assert!((20..=40).contains(&p50), "p50 = {p50}");
        assert_eq!(s.latency_percentile(100.0), 400);
    }

    #[test]
    fn hit_rate_aggregates_over_sources() {
        let mut m = MemoryStats::new();
        m.source_mut(SourceId(0))
            .record_served(64, RowOutcome::Hit, 1);
        m.source_mut(SourceId(1))
            .record_served(64, RowOutcome::Miss, 1);
        assert!((m.row_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_computation() {
        let c = DramConfig::cmp_study();
        let mut m = MemoryStats::new();
        // Saturate: 4 channels * 16 B/cycle = 64 B/cycle over 1000 cycles.
        m.elapsed_cycles = 1000;
        m.source_mut(SourceId(0)).bytes = 64_000;
        assert!((m.effective_bw_gbps(&c) - c.peak_bw_gbps()).abs() < 1e-9);
        assert!((m.effective_bw_pct(&c) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn publish_metrics_flushes_totals_to_registry() {
        use pccs_telemetry::metrics;
        let mut m = MemoryStats::new();
        m.elapsed_cycles = 500;
        m.source_mut(SourceId(0))
            .record_served(64, RowOutcome::Hit, 30);
        m.source_mut(SourceId(1))
            .record_served(64, RowOutcome::Conflict, 90);
        m.source_mut(SourceId(0)).enqueued = 3;
        m.scheduler.issued = 2;
        m.scheduler.queue_hwm = 7;
        // The registry is process-global and tests run concurrently, so
        // assert on deltas of handles read before and after.
        let served = metrics::counter("dram.requests.served");
        let cycles = metrics::counter("dram.cycles");
        let hwm = metrics::gauge("dram.queue.hwm");
        let (served0, cycles0) = (served.get(), cycles.get());
        m.publish_metrics();
        assert_eq!(served.get() - served0, 2);
        assert_eq!(cycles.get() - cycles0, 500);
        assert!(hwm.get() >= 7);
    }

    #[test]
    fn try_percentile_distinguishes_empty_sources() {
        let mut m = MemoryStats::new();
        assert_eq!(m.source_mut(SourceId(0)).try_latency_percentile(99.0), None);
        m.source_mut(SourceId(0))
            .record_served(64, RowOutcome::Hit, 12_345);
        let s = &m.per_source[&SourceId(0)];
        assert_eq!(s.try_latency_percentile(50.0), Some(12_345));
        assert_eq!(s.latency_percentile(50.0), 12_345);
    }

    #[test]
    fn empty_stats_are_zero() {
        let c = DramConfig::cmp_study();
        let m = MemoryStats::new();
        assert_eq!(m.row_hit_rate(), 0.0);
        assert_eq!(m.effective_bw_gbps(&c), 0.0);
        assert_eq!(m.source_bw_gbps(SourceId(9), &c), 0.0);
    }
}
