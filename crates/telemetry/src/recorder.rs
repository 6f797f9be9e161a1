//! The epoch recorder the DRAM controller drives.
//!
//! The controller calls three hooks: [`EpochRecorder::on_serve`] per
//! completed request, [`EpochRecorder::on_stall`] per channel scheduling
//! decision, and [`EpochRecorder::on_tick`] once per cycle with the
//! current queue depth; [`EpochRecorder::on_reset`] clears the history at
//! the end of a warmup window. Hooks take plain `usize` source ids and
//! telemetry-local enums so this crate stays free of any dependency on the
//! simulator crates.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Row-buffer outcome of a served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowEvent {
    /// Request hit the open row.
    Hit,
    /// Row buffer was empty; a fresh activate.
    Miss,
    /// A different row was open and had to be closed first.
    Conflict,
}

/// Outcome of one channel-scheduler decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallEvent {
    /// A command was issued.
    Issued,
    /// A candidate existed but the data bus was busy.
    BusBlocked,
    /// Requests were queued but none was ready (bank timing).
    NoCandidate,
    /// The queue was empty.
    Idle,
}

/// One epoch's worth of aggregated samples.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EpochSample {
    /// Epoch index since the last reset.
    pub epoch: u64,
    /// First cycle of the epoch (inclusive).
    pub start_cycle: u64,
    /// Last cycle of the epoch (exclusive).
    pub end_cycle: u64,
    /// Bytes served per source this epoch.
    pub bytes_per_source: BTreeMap<usize, u64>,
    /// Requests served this epoch.
    pub served: u64,
    /// Row-buffer hits this epoch.
    pub row_hits: u64,
    /// Row-buffer misses this epoch.
    pub row_misses: u64,
    /// Row-buffer conflicts this epoch.
    pub row_conflicts: u64,
    /// Channel-cycles that issued a command.
    pub issued: u64,
    /// Channel-cycles blocked on the data bus.
    pub bus_blocked: u64,
    /// Channel-cycles with queued work but no ready candidate.
    pub no_candidate: u64,
    /// Channel-cycles with an empty queue.
    pub idle: u64,
    /// Mean queued requests over the epoch's ticks.
    pub queue_depth_avg: f64,
    /// Peak queued requests over the epoch's ticks.
    pub queue_depth_max: u64,
}

impl EpochSample {
    /// Total bytes served this epoch across all sources.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_per_source.values().sum()
    }

    /// Adds another controller's sample for the same epoch (used when
    /// merging per-channel-group reports in multi-controller runs).
    fn absorb(&mut self, other: &EpochSample) {
        for (&src, &bytes) in &other.bytes_per_source {
            *self.bytes_per_source.entry(src).or_insert(0) += bytes;
        }
        self.served += other.served;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.issued += other.issued;
        self.bus_blocked += other.bus_blocked;
        self.no_candidate += other.no_candidate;
        self.idle += other.idle;
        self.queue_depth_avg += other.queue_depth_avg;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.end_cycle = self.end_cycle.max(other.end_cycle);
    }
}

/// The epoch time-series a run produced.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Epoch length in cycles.
    pub epoch_cycles: u64,
    /// Cycle at which recording (re)started.
    pub base_cycle: u64,
    /// Samples in epoch order.
    pub epochs: Vec<EpochSample>,
}

impl TelemetryReport {
    /// Total bytes across all epochs (for reconciliation against
    /// aggregate stats).
    pub fn total_bytes(&self) -> u64 {
        self.epochs.iter().map(EpochSample::total_bytes).sum()
    }

    /// Sorted set of source ids appearing anywhere in the series.
    pub fn sources(&self) -> Vec<usize> {
        let mut set = std::collections::BTreeSet::new();
        for e in &self.epochs {
            set.extend(e.bytes_per_source.keys().copied());
        }
        set.into_iter().collect()
    }

    /// Merges another report (same epoch length, e.g. from a second
    /// memory controller) by epoch index.
    pub fn merge(&mut self, other: &TelemetryReport) {
        if self.epochs.is_empty() {
            *self = other.clone();
            return;
        }
        for sample in &other.epochs {
            match self.epochs.iter_mut().find(|e| e.epoch == sample.epoch) {
                Some(existing) => existing.absorb(sample),
                None => self.epochs.push(sample.clone()),
            }
        }
        self.epochs.sort_by_key(|e| e.epoch);
    }
}

/// Accumulates events into fixed-length epochs.
#[derive(Debug, Clone)]
pub struct EpochRecorder {
    epoch_cycles: u64,
    base_cycle: u64,
    epochs: Vec<EpochSample>,
    current: EpochSample,
    ticks_in_epoch: u64,
    depth_sum: u64,
    open: bool,
}

impl EpochRecorder {
    /// A recorder sampling every `epoch_cycles` cycles (minimum 1).
    pub fn new(epoch_cycles: u64) -> Self {
        EpochRecorder {
            epoch_cycles: epoch_cycles.max(1),
            base_cycle: 0,
            epochs: Vec::new(),
            current: EpochSample::default(),
            ticks_in_epoch: 0,
            depth_sum: 0,
            open: false,
        }
    }

    /// Epoch index containing `cycle`.
    fn epoch_of(&self, cycle: u64) -> u64 {
        cycle.saturating_sub(self.base_cycle) / self.epoch_cycles
    }

    /// Closes the current epoch and opens the one containing `cycle`.
    fn roll_to(&mut self, cycle: u64) {
        let target = self.epoch_of(cycle);
        if self.open && self.current.epoch == target {
            return;
        }
        if self.open {
            self.flush_current();
        }
        self.current = EpochSample {
            epoch: target,
            start_cycle: self.base_cycle + target * self.epoch_cycles,
            end_cycle: self.base_cycle + (target + 1) * self.epoch_cycles,
            ..EpochSample::default()
        };
        self.ticks_in_epoch = 0;
        self.depth_sum = 0;
        self.open = true;
    }

    fn flush_current(&mut self) {
        if self.ticks_in_epoch > 0 {
            self.current.queue_depth_avg = self.depth_sum as f64 / self.ticks_in_epoch as f64;
        }
        self.epochs.push(std::mem::take(&mut self.current));
    }

    /// A request from `source` completed at `cycle`, moving `bytes`, with
    /// row-buffer outcome `row`.
    pub fn on_serve(&mut self, cycle: u64, source: usize, bytes: u64, row: RowEvent) {
        self.roll_to(cycle);
        *self.current.bytes_per_source.entry(source).or_insert(0) += bytes;
        self.current.served += 1;
        match row {
            RowEvent::Hit => self.current.row_hits += 1,
            RowEvent::Miss => self.current.row_misses += 1,
            RowEvent::Conflict => self.current.row_conflicts += 1,
        }
    }

    /// One channel-scheduler decision at `cycle`.
    pub fn on_stall(&mut self, cycle: u64, kind: StallEvent) {
        self.roll_to(cycle);
        match kind {
            StallEvent::Issued => self.current.issued += 1,
            StallEvent::BusBlocked => self.current.bus_blocked += 1,
            StallEvent::NoCandidate => self.current.no_candidate += 1,
            StallEvent::Idle => self.current.idle += 1,
        }
    }

    /// One controller tick at `cycle` with `queue_depth` requests queued.
    pub fn on_tick(&mut self, cycle: u64, queue_depth: usize) {
        self.roll_to(cycle);
        self.ticks_in_epoch += 1;
        self.depth_sum += queue_depth as u64;
        self.current.queue_depth_max = self.current.queue_depth_max.max(queue_depth as u64);
    }

    /// Aggregate stats were cleared at `cycle` (end of warmup): drops the
    /// epoch history so the report covers exactly the measured window.
    pub fn on_reset(&mut self, cycle: u64) {
        self.base_cycle = cycle;
        self.epochs.clear();
        self.current = EpochSample::default();
        self.ticks_in_epoch = 0;
        self.depth_sum = 0;
        self.open = false;
    }

    /// Flushes the partial epoch at the end of a run.
    pub fn finish(&mut self) {
        if self.open {
            self.flush_current();
            self.open = false;
        }
    }

    /// The accumulated epoch series.
    pub fn report(&self) -> TelemetryReport {
        TelemetryReport {
            epoch_cycles: self.epoch_cycles,
            base_cycle: self.base_cycle,
            epochs: self.epochs.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_boundaries_split_samples() {
        let mut r = EpochRecorder::new(100);
        r.on_serve(10, 0, 64, RowEvent::Hit);
        r.on_serve(99, 1, 64, RowEvent::Miss);
        r.on_serve(100, 0, 64, RowEvent::Conflict);
        r.on_serve(250, 0, 64, RowEvent::Hit);
        r.finish();
        let report = r.report();
        assert_eq!(report.epochs.len(), 3);
        assert_eq!(report.epochs[0].epoch, 0);
        assert_eq!(report.epochs[0].served, 2);
        assert_eq!(report.epochs[0].start_cycle, 0);
        assert_eq!(report.epochs[0].end_cycle, 100);
        assert_eq!(report.epochs[1].epoch, 1);
        assert_eq!(report.epochs[1].row_conflicts, 1);
        assert_eq!(report.epochs[2].epoch, 2);
        assert_eq!(report.total_bytes(), 256);
    }

    #[test]
    fn queue_depth_averages_per_epoch() {
        let mut r = EpochRecorder::new(4);
        for (cycle, depth) in [(0, 2), (1, 4), (2, 6), (3, 8), (4, 100)] {
            r.on_tick(cycle, depth);
        }
        r.finish();
        let report = r.report();
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(report.epochs[0].queue_depth_avg, 5.0);
        assert_eq!(report.epochs[0].queue_depth_max, 8);
        assert_eq!(report.epochs[1].queue_depth_max, 100);
    }

    #[test]
    fn reset_drops_history_and_rebases() {
        let mut r = EpochRecorder::new(50);
        r.on_serve(10, 0, 64, RowEvent::Hit);
        r.on_reset(120);
        r.on_serve(130, 0, 64, RowEvent::Hit);
        r.finish();
        let report = r.report();
        assert_eq!(report.base_cycle, 120);
        assert_eq!(report.epochs.len(), 1);
        assert_eq!(report.epochs[0].epoch, 0);
        assert_eq!(report.epochs[0].start_cycle, 120);
        assert_eq!(report.total_bytes(), 64);
    }

    #[test]
    fn zero_length_run_reports_empty() {
        let mut r = EpochRecorder::new(1000);
        r.finish();
        let report = r.report();
        assert!(report.epochs.is_empty());
        assert_eq!(report.total_bytes(), 0);
        assert!(report.sources().is_empty());
    }

    #[test]
    fn merge_combines_by_epoch_index() {
        let mut a = EpochRecorder::new(100);
        a.on_serve(10, 0, 64, RowEvent::Hit);
        a.on_serve(110, 0, 64, RowEvent::Hit);
        a.finish();
        let mut b = EpochRecorder::new(100);
        b.on_serve(20, 1, 32, RowEvent::Miss);
        b.finish();
        let mut report = a.report();
        report.merge(&b.report());
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(report.epochs[0].total_bytes(), 96);
        assert_eq!(report.epochs[0].row_hits, 1);
        assert_eq!(report.epochs[0].row_misses, 1);
        assert_eq!(report.sources(), vec![0, 1]);
        assert_eq!(report.total_bytes(), 160);
    }
}
