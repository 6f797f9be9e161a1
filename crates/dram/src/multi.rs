//! Multi-memory-controller SoCs.
//!
//! The paper's Discussion (Section 5) notes that its target SoCs use one
//! MC with channel interleaving, and that the model "can be extended to
//! support [multi-MC] by considering specific address mappings and
//! coordinations between MCs". This module supplies that extension for the
//! substrate: a [`MultiMcSystem`] splits the channels of a memory geometry
//! across several independent controllers, each with its *own* scheduling
//! policy instance (fairness state is per-MC, exactly the coordination gap
//! the paper highlights), while consecutive lines still interleave across
//! all channels of all MCs.

use crate::config::DramConfig;
use crate::conformance::ConformanceReport;
use crate::controller::{Completion, MemoryController};
use crate::policy::PolicyKind;
use crate::request::{MemoryRequest, SourceId};
use crate::sim::{completion_routes, deliver, MeasureWindow, SimOutcome};
use crate::stats::MemoryStats;
use crate::traffic::TrafficSource;
use pccs_telemetry::{EpochRecorder, TelemetryReport};
use std::collections::BTreeMap;

/// A memory system composed of several independent controllers.
#[derive(Debug)]
pub struct MultiMcSystem {
    total: DramConfig,
    per_mc: DramConfig,
    mcs: Vec<MemoryController>,
    generators: Vec<Box<dyn TrafficSource>>,
}

impl MultiMcSystem {
    /// Splits `total` geometry across `mc_count` controllers running
    /// `policy` (each gets an independent policy instance).
    ///
    /// # Panics
    ///
    /// Panics if `mc_count` is zero or does not divide the channel count.
    pub fn new(total: DramConfig, mc_count: usize, policy: PolicyKind) -> Self {
        assert!(mc_count > 0, "at least one controller required");
        assert_eq!(
            total.channels % mc_count,
            0,
            "channel count {} must divide evenly across {} MCs",
            total.channels,
            mc_count
        );
        let per_mc = total.with_channels(total.channels / mc_count);
        let mcs = (0..mc_count)
            .map(|_| MemoryController::new(per_mc.clone(), policy.instantiate()))
            .collect();
        Self {
            total,
            per_mc,
            mcs,
            generators: Vec::new(),
        }
    }

    /// Number of controllers.
    pub fn mc_count(&self) -> usize {
        self.mcs.len()
    }

    /// Adds a traffic source (bound to the *total* geometry, so its demand
    /// accounting sees the full system).
    pub fn add_generator<T: TrafficSource + 'static>(&mut self, mut generator: T) {
        generator.bind(&self.total);
        self.generators.push(Box::new(generator));
    }

    /// Attaches an epoch recorder to every controller; their reports are
    /// merged by epoch index into [`SimOutcome::telemetry`].
    pub fn record_epochs(&mut self, epoch_cycles: u64) {
        for mc in &mut self.mcs {
            mc.set_recorder(Box::new(EpochRecorder::new(epoch_cycles)));
        }
    }

    /// Attaches the protocol conformance sanitizer to every controller;
    /// the per-MC reports are merged into [`SimOutcome::conformance`].
    pub fn enable_conformance(&mut self) {
        let timing = self.per_mc.timing;
        for mc in &mut self.mcs {
            mc.enable_conformance(timing);
        }
    }

    /// Routes a global address: which MC, and the translated address whose
    /// *local* decode lands on the right local channel with unchanged
    /// bank/row/column coordinates. Lines interleave across MCs first, so
    /// adjacent lines hit different controllers.
    pub fn route(&self, addr: u64) -> (usize, u64) {
        route_addr(addr, &self.total, self.mcs.len())
    }

    /// Runs the system for `horizon` cycles and returns a merged outcome.
    pub fn run(self, horizon: u64) -> SimOutcome {
        let MultiMcSystem {
            total,
            mut mcs,
            mut generators,
            ..
        } = self;
        let mc_count = mcs.len();
        let routes = completion_routes(&generators);
        let mut buf: Vec<Completion> = Vec::new();
        for now in 0..horizon {
            for generator in &mut generators {
                while let Some(req) = generator.poll(now) {
                    let (mc, local_addr) = route_addr(req.addr, &total, mc_count);
                    let local = MemoryRequest {
                        addr: local_addr,
                        ..req
                    };
                    if mcs[mc].try_enqueue(local).is_err() {
                        // Hand the *original* request back for retry.
                        generator.on_reject(req);
                        break;
                    }
                }
            }
            for mc in &mut mcs {
                buf.clear();
                mc.tick_into(now, &mut buf);
                deliver(&routes, &mut generators, &buf);
            }
        }

        // Merge statistics (and telemetry reports) across controllers.
        let mut stats = MemoryStats::new();
        stats.elapsed_cycles = horizon;
        let mut telemetry: Option<TelemetryReport> = None;
        let mut conformance: Option<ConformanceReport> = None;
        for mut mc in mcs {
            if let Some(report) = mc.take_report(horizon) {
                match &mut telemetry {
                    Some(merged) => merged.merge(&report),
                    None => telemetry = Some(report),
                }
            }
            if let Some(report) = mc.conformance_report() {
                match &mut conformance {
                    Some(merged) => merged.merge(&report),
                    None => conformance = Some(report),
                }
            }
            let s = mc.into_stats();
            for (src, per) in s.per_source {
                let agg = stats.source_mut(src);
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
            stats.scheduler.issued += s.scheduler.issued;
            stats.scheduler.bus_blocked += s.scheduler.bus_blocked;
            stats.scheduler.no_candidate += s.scheduler.no_candidate;
            stats.scheduler.idle += s.scheduler.idle;
            // A high-watermark merges by max: the deepest single channel
            // queue anywhere in the system, not a sum across controllers.
            stats.scheduler.queue_hwm = stats.scheduler.queue_hwm.max(s.scheduler.queue_hwm);
        }
        stats.publish_metrics();

        let completed: BTreeMap<SourceId, u64> = generators
            .iter()
            .map(|g| (g.source_id(), g.completed()))
            .collect();
        let progress: BTreeMap<SourceId, u64> = generators
            .iter()
            .map(|g| (g.source_id(), g.progress()))
            .collect();
        let measured = MeasureWindow {
            cycles: horizon,
            progress: progress.clone(),
            bytes: stats
                .per_source
                .iter()
                .map(|(s, st)| (*s, st.bytes))
                .collect(),
        };
        SimOutcome {
            stats,
            config: total,
            horizon,
            completed,
            progress,
            measured,
            telemetry,
            conformance,
        }
    }

    /// The per-controller geometry (for inspection/tests).
    pub fn per_mc_config(&self) -> &DramConfig {
        &self.per_mc
    }
}

fn route_addr(addr: u64, total: &DramConfig, mc_count: usize) -> (usize, u64) {
    let line_bytes = u64::from(total.line_bytes);
    let offset = addr % line_bytes;
    let line = addr / line_bytes;
    let c_total = total.channels as u64;
    let mc_count = mc_count as u64;
    let per_mc_channels = c_total / mc_count;

    let global_channel = line % c_total;
    let blk = line / c_total;
    let mc = (global_channel % mc_count) as usize;
    let local_channel = global_channel / mc_count;
    let local_line = blk * per_mc_channels + local_channel;
    (mc, local_line * line_bytes + offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::StreamTraffic;

    fn stream(s: usize, gbps: f64) -> StreamTraffic {
        StreamTraffic::builder(SourceId(s))
            .demand_gbps(gbps)
            .row_locality(0.95)
            .window(64)
            .seed(31 + s as u64)
            .build()
    }

    #[test]
    fn routing_covers_all_mcs_and_local_channels() {
        let sys = MultiMcSystem::new(DramConfig::xavier(), 2, PolicyKind::FrFcfs);
        let mut seen_mc = [false; 2];
        for i in 0..64u64 {
            let (mc, local) = sys.route(i * 64);
            seen_mc[mc] = true;
            // Local decode must stay inside the per-MC geometry.
            let d = crate::mapping::AddressMapping::default().decode(local, sys.per_mc_config());
            assert!(d.channel < sys.per_mc_config().channels);
        }
        assert!(seen_mc.iter().all(|&b| b));
    }

    #[test]
    fn adjacent_lines_alternate_controllers() {
        let sys = MultiMcSystem::new(DramConfig::xavier(), 2, PolicyKind::FrFcfs);
        let (mc0, _) = sys.route(0);
        let (mc1, _) = sys.route(64);
        assert_ne!(mc0, mc1);
    }

    #[test]
    fn routing_preserves_line_offsets() {
        let sys = MultiMcSystem::new(DramConfig::xavier(), 4, PolicyKind::FrFcfs);
        let (_, base) = sys.route(12 * 64);
        let (_, offset) = sys.route(12 * 64 + 17);
        assert_eq!(offset - base, 17);
    }

    #[test]
    fn multi_mc_matches_single_mc_throughput_roughly() {
        let run_multi = |mcs: usize| {
            let mut sys = MultiMcSystem::new(DramConfig::xavier(), mcs, PolicyKind::Atlas);
            for s in 0..4 {
                sys.add_generator(stream(s, 25.0));
            }
            let out = sys.run(30_000);
            (0..4).map(|s| out.source_bw_gbps(SourceId(s))).sum::<f64>()
        };
        let one = run_multi(1);
        let four = run_multi(4);
        assert!(
            (one - four).abs() / one < 0.25,
            "1 MC: {one:.1} GB/s vs 4 MCs: {four:.1} GB/s"
        );
    }

    #[test]
    fn merged_stats_account_all_requests() {
        let mut sys = MultiMcSystem::new(DramConfig::xavier(), 2, PolicyKind::FrFcfs);
        sys.add_generator(stream(0, 40.0));
        let out = sys.run(20_000);
        let s = &out.stats.per_source[&SourceId(0)];
        assert!(s.served > 0);
        assert_eq!(
            s.served,
            s.row_hits + s.row_misses + s.row_conflicts,
            "outcome counts partition served requests"
        );
        assert_eq!(out.completed[&SourceId(0)], out.progress[&SourceId(0)]);
    }

    #[test]
    fn per_mc_reports_merge_and_reconcile() {
        let mut sys = MultiMcSystem::new(DramConfig::xavier(), 2, PolicyKind::FrFcfs);
        sys.add_generator(stream(0, 40.0));
        sys.add_generator(stream(1, 20.0));
        sys.record_epochs(2_000);
        let out = sys.run(20_000);
        let report = out.telemetry.as_ref().expect("recorders attached");
        assert_eq!(report.total_bytes(), out.stats.total_bytes());
        let sources = report.sources();
        assert!(sources.contains(&0) && sources.contains(&1));
        // Each epoch index appears once after merging.
        let mut epochs: Vec<u64> = report.epochs.iter().map(|e| e.epoch).collect();
        let before = epochs.len();
        epochs.dedup();
        assert_eq!(epochs.len(), before);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn rejects_uneven_channel_split() {
        MultiMcSystem::new(DramConfig::xavier(), 3, PolicyKind::Fcfs);
    }
}
