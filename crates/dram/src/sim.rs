//! The top-level DRAM simulation loop: traffic sources feeding a memory
//! controller for a fixed horizon.

use crate::config::DramConfig;
use crate::conformance::ConformanceReport;
use crate::controller::{Completion, MemoryController};
use crate::policy::PolicyKind;
use crate::request::SourceId;
use crate::stats::MemoryStats;
use crate::timing::DramTiming;
use crate::traffic::TrafficSource;
use pccs_telemetry::{Recorder, TelemetryReport};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A complete DRAM simulation: a controller plus a set of traffic sources.
#[derive(Debug)]
pub struct DramSystem {
    controller: MemoryController,
    generators: Vec<Box<dyn TrafficSource>>,
}

impl DramSystem {
    /// Creates a system with the given geometry and scheduling policy.
    pub fn new(config: DramConfig, policy: PolicyKind) -> Self {
        Self {
            controller: MemoryController::new(config, policy.instantiate()),
            generators: Vec::new(),
        }
    }

    /// The memory geometry.
    pub fn config(&self) -> &DramConfig {
        self.controller.config()
    }

    /// Adds a traffic source; it is bound to this system's geometry.
    pub fn add_generator<T: TrafficSource + 'static>(&mut self, mut generator: T) {
        generator.bind(self.controller.config());
        self.generators.push(Box::new(generator));
    }

    /// Attaches a telemetry recorder to the controller; its report lands
    /// in [`SimOutcome::telemetry`].
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.controller.set_recorder(recorder);
    }

    /// Attaches the DDR protocol conformance sanitizer, validating the
    /// emitted command stream against this system's own timing; the report
    /// lands in [`SimOutcome::conformance`].
    pub fn enable_conformance(&mut self) {
        let timing = self.controller.config().timing;
        self.controller.enable_conformance(timing);
    }

    /// Like [`DramSystem::enable_conformance`] but validating against an
    /// explicit `reference` timing (to audit a deliberately broken config).
    pub fn enable_conformance_against(&mut self, reference: DramTiming) {
        self.controller.enable_conformance(reference);
    }

    /// Runs the simulation for `horizon` memory-controller cycles and
    /// returns the outcome.
    pub fn run(self, horizon: u64) -> SimOutcome {
        self.run_with_warmup(0, horizon)
    }

    /// Runs for `horizon` cycles, additionally recording a measurement
    /// window that excludes the first `warmup` cycles (cold row buffers,
    /// pipeline fill). Rates derived from [`SimOutcome::measured`] are
    /// steadier than whole-run rates on short horizons.
    ///
    /// # Panics
    ///
    /// Panics if `warmup >= horizon`.
    pub fn run_with_warmup(self, warmup: u64, horizon: u64) -> SimOutcome {
        assert!(warmup < horizon, "warmup must be shorter than the horizon");
        let DramSystem {
            mut controller,
            mut generators,
        } = self;
        let config = controller.config().clone();
        let mut warmup_progress: BTreeMap<SourceId, u64> = BTreeMap::new();
        let mut warmup_bytes: BTreeMap<SourceId, u64> = BTreeMap::new();
        let routes = completion_routes(&generators);
        let mut buf: Vec<Completion> = Vec::new();
        for now in 0..horizon {
            if warmup > 0 && now == warmup {
                // Top-of-cycle snapshot, before this cycle's polls.
                for g in &generators {
                    warmup_progress.insert(g.source_id(), g.progress());
                }
                for (src, st) in &controller.stats().per_source {
                    warmup_bytes.insert(*src, st.bytes);
                }
            }
            // Let every source emit as much as it can this cycle.
            for generator in &mut generators {
                while let Some(req) = generator.poll(now) {
                    if let Err(back) = controller.try_enqueue(req) {
                        generator.on_reject(back);
                        break;
                    }
                }
            }
            // Advance the controller; deliver completions.
            buf.clear();
            controller.tick_into(now, &mut buf);
            deliver(&routes, &mut generators, &buf);
        }

        let completed: BTreeMap<SourceId, u64> = generators
            .iter()
            .map(|g| (g.source_id(), g.completed()))
            .collect();
        let progress: BTreeMap<SourceId, u64> = generators
            .iter()
            .map(|g| (g.source_id(), g.progress()))
            .collect();
        let telemetry = controller.take_report(horizon);
        let conformance = controller.conformance_report();
        let stats = controller.into_stats();
        stats.publish_metrics();
        let measured = MeasureWindow {
            cycles: horizon - warmup,
            progress: progress
                .iter()
                .map(|(s, &p)| (*s, p - warmup_progress.get(s).copied().unwrap_or(0)))
                .collect(),
            bytes: stats
                .per_source
                .iter()
                .map(|(s, st)| (*s, st.bytes - warmup_bytes.get(s).copied().unwrap_or(0)))
                .collect(),
        };
        SimOutcome {
            stats,
            config,
            horizon,
            completed,
            progress,
            measured,
            telemetry,
            conformance,
        }
    }
}

/// Which generator receives each source's completions, indexed by
/// `SourceId.0`: the first generator with that id, or `None`.
pub(crate) fn completion_routes(generators: &[Box<dyn TrafficSource>]) -> Vec<Option<usize>> {
    let mut routes = Vec::new();
    for (idx, generator) in generators.iter().enumerate() {
        generator
            .source_id()
            .slot(&mut routes, None)
            .get_or_insert(idx);
    }
    routes
}

/// Hands each completion to its source's generator along `routes`;
/// completions of sources without a generator are dropped.
pub(crate) fn deliver(
    routes: &[Option<usize>],
    generators: &mut [Box<dyn TrafficSource>],
    completions: &[Completion],
) {
    for completion in completions {
        if let Some(&Some(idx)) = routes.get(completion.source.0) {
            generators[idx].on_complete(completion);
        }
    }
}

/// The result of one [`DramSystem::run`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Controller statistics (per-source service, hit rates, latencies).
    pub stats: MemoryStats,
    /// The geometry that was simulated.
    pub config: DramConfig,
    /// Cycles simulated.
    pub horizon: u64,
    /// Requests completed per source.
    pub completed: BTreeMap<SourceId, u64>,
    /// Forward progress per source (see
    /// [`TrafficSource::progress`](crate::traffic::TrafficSource)).
    pub progress: BTreeMap<SourceId, u64>,
    /// Post-warmup measurement window (equals the whole run when no warmup
    /// was requested).
    pub measured: MeasureWindow,
    /// Epoch time-series, when a recorder was attached before the run.
    pub telemetry: Option<TelemetryReport>,
    /// Protocol conformance report, when the sanitizer was enabled before
    /// the run (see [`DramSystem::enable_conformance`]).
    pub conformance: Option<ConformanceReport>,
}

/// Per-source counts accumulated after the warmup cut-off.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MeasureWindow {
    /// Cycles in the measurement window.
    pub cycles: u64,
    /// Lines of forward progress per source within the window.
    pub progress: BTreeMap<SourceId, u64>,
    /// Bytes served per source within the window.
    pub bytes: BTreeMap<SourceId, u64>,
}

impl MeasureWindow {
    /// Work rate of a source in lines per cycle within the window.
    pub fn rate(&self, source: SourceId) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.progress.get(&source).copied().unwrap_or(0) as f64 / self.cycles as f64
    }

    /// Bandwidth of a source in bytes per cycle within the window.
    pub fn bytes_per_cycle(&self, source: SourceId) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.bytes.get(&source).copied().unwrap_or(0) as f64 / self.cycles as f64
    }
}

impl SimOutcome {
    /// Bandwidth attained by `source` in GB/s.
    pub fn source_bw_gbps(&self, source: SourceId) -> f64 {
        self.stats.source_bw_gbps(source, &self.config)
    }

    /// Aggregate effective bandwidth in GB/s.
    pub fn effective_bw_gbps(&self) -> f64 {
        self.stats.effective_bw_gbps(&self.config)
    }

    /// Effective bandwidth as % of peak (Table 3 metric).
    pub fn effective_bw_pct(&self) -> f64 {
        self.stats.effective_bw_pct(&self.config)
    }

    /// Aggregate row-buffer hit rate as % (Table 3 metric).
    pub fn row_hit_pct(&self) -> f64 {
        100.0 * self.stats.row_hit_rate()
    }

    /// Mean request latency of `source` in cycles.
    pub fn avg_latency(&self, source: SourceId) -> f64 {
        self.stats
            .per_source
            .get(&source)
            .map(|s| s.avg_latency())
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::StreamTraffic;

    fn system(policy: PolicyKind) -> DramSystem {
        DramSystem::new(DramConfig::cmp_study(), policy)
    }

    #[test]
    fn completions_route_to_the_first_generator_of_each_sparse_id() {
        let stream =
            |s| -> Box<dyn TrafficSource> { Box::new(StreamTraffic::builder(SourceId(s)).build()) };
        let generators = [stream(63), stream(0), stream(63), stream(7)];
        let routes = completion_routes(&generators);
        assert_eq!(routes.len(), 64);
        assert_eq!(
            (routes[0], routes[7], routes[63]),
            (Some(1), Some(3), Some(0))
        );
        assert_eq!(
            routes.iter().flatten().count(),
            3,
            "unclaimed ids route nowhere"
        );
    }

    #[test]
    fn closed_loop_sources_with_sparse_ids_get_their_completions() {
        let mut sys = system(PolicyKind::Atlas);
        for s in [63, 0, 7] {
            sys.add_generator(
                StreamTraffic::builder(SourceId(s))
                    .demand_gbps(30.0)
                    .window(4)
                    .build(),
            );
        }
        let out = sys.run(20_000);
        for s in [0, 7, 63] {
            let done = out.completed[&SourceId(s)];
            // A 4-deep window stalls unless its completions come back.
            assert!(done > 100, "src{s} completed {done}");
            assert!(done <= out.stats.per_source[&SourceId(s)].served);
        }
    }

    #[test]
    fn standalone_stream_achieves_its_demand() {
        let mut sys = system(PolicyKind::FrFcfs);
        sys.add_generator(
            StreamTraffic::builder(SourceId(0))
                .demand_gbps(30.0)
                .row_locality(0.95)
                .window(64)
                .build(),
        );
        let out = sys.run(100_000);
        let bw = out.source_bw_gbps(SourceId(0));
        assert!(
            (bw - 30.0).abs() < 2.0,
            "standalone 30 GB/s stream achieved {bw:.1} GB/s"
        );
    }

    #[test]
    fn demand_beyond_peak_saturates() {
        let mut sys = system(PolicyKind::FrFcfs);
        sys.add_generator(
            StreamTraffic::builder(SourceId(0))
                .demand_gbps(200.0)
                .row_locality(0.95)
                .window(256)
                .build(),
        );
        let out = sys.run(100_000);
        let bw = out.source_bw_gbps(SourceId(0));
        assert!(bw < 102.4, "cannot exceed peak");
        assert!(bw > 70.0, "should get most of peak, got {bw:.1}");
    }

    #[test]
    fn two_streams_share_bandwidth() {
        let mut sys = system(PolicyKind::FrFcfs);
        for s in 0..2 {
            sys.add_generator(
                StreamTraffic::builder(SourceId(s))
                    .demand_gbps(80.0)
                    .row_locality(0.95)
                    .window(128)
                    .build(),
            );
        }
        let out = sys.run(100_000);
        let a = out.source_bw_gbps(SourceId(0));
        let b = out.source_bw_gbps(SourceId(1));
        assert!(a + b < 102.4 + 1.0);
        assert!(a + b > 60.0, "total {:.1}", a + b);
        // FR-FCFS has no fairness control but symmetric streams should be
        // roughly balanced.
        assert!((a - b).abs() / (a + b) < 0.25, "a={a:.1} b={b:.1}");
    }

    #[test]
    fn frfcfs_beats_fcfs_on_row_hits_under_colocation() {
        let run = |policy| {
            let mut sys = system(policy);
            for s in 0..4 {
                sys.add_generator(
                    StreamTraffic::builder(SourceId(s))
                        .demand_gbps(40.0)
                        .row_locality(0.9)
                        .window(64)
                        .build(),
                );
            }
            sys.run(60_000)
        };
        let fcfs = run(PolicyKind::Fcfs);
        let fr = run(PolicyKind::FrFcfs);
        assert!(
            fr.row_hit_pct() > fcfs.row_hit_pct(),
            "FR-FCFS RBH {:.1}% should beat FCFS {:.1}%",
            fr.row_hit_pct(),
            fcfs.row_hit_pct()
        );
        assert!(fr.effective_bw_pct() > fcfs.effective_bw_pct());
    }

    #[test]
    fn atlas_protects_light_source_from_heavy_one() {
        let run = |policy| {
            let mut sys = system(policy);
            sys.add_generator(
                StreamTraffic::builder(SourceId(0))
                    .demand_gbps(15.0)
                    .row_locality(0.9)
                    .window(16)
                    .build(),
            );
            sys.add_generator(
                StreamTraffic::builder(SourceId(1))
                    .demand_gbps(150.0)
                    .row_locality(0.95)
                    .window(256)
                    .build(),
            );
            sys.run(120_000)
        };
        let atlas = run(PolicyKind::Atlas);
        let light = atlas.source_bw_gbps(SourceId(0));
        // The light source's 15 GB/s demand should be mostly satisfied
        // (less the refresh tax and its own small window's latency
        // sensitivity).
        assert!(
            light > 11.0,
            "ATLAS should nearly satisfy the light source; got {light:.1} GB/s"
        );
    }

    #[test]
    fn refresh_taxes_throughput_slightly_and_uniformly() {
        let run = |t_refi: u64| {
            let mut config = DramConfig::cmp_study();
            config.timing.t_refi = t_refi;
            let mut sys = DramSystem::new(config, PolicyKind::FrFcfs);
            for s in 0..2 {
                sys.add_generator(
                    StreamTraffic::builder(SourceId(s))
                        .demand_gbps(80.0)
                        .row_locality(0.95)
                        .window(64)
                        .build(),
                );
            }
            let out = sys.run(80_000);
            (
                out.source_bw_gbps(SourceId(0)),
                out.source_bw_gbps(SourceId(1)),
            )
        };
        let (a_off, b_off) = run(0);
        let (a_on, b_on) = run(12_480);
        let total_off = a_off + b_off;
        let total_on = a_on + b_on;
        assert!(total_on < total_off, "refresh must cost bandwidth");
        assert!(
            total_on > total_off * 0.90,
            "refresh tax too large: {total_on:.1} vs {total_off:.1}"
        );
        // Uniform: both sources lose a similar share.
        let share_off = a_off / total_off;
        let share_on = a_on / total_on;
        assert!((share_off - share_on).abs() < 0.05);
    }

    #[test]
    fn epoch_telemetry_reconciles_with_stats() {
        use pccs_telemetry::EpochRecorder;
        let mut sys = system(PolicyKind::FrFcfs);
        sys.add_generator(
            StreamTraffic::builder(SourceId(0))
                .demand_gbps(40.0)
                .row_locality(0.9)
                .window(64)
                .build(),
        );
        sys.set_recorder(Box::new(EpochRecorder::new(1000)));
        let out = sys.run(20_000);
        let report = out.telemetry.as_ref().expect("recorder attached");
        assert_eq!(report.epoch_cycles, 1000);
        assert_eq!(report.total_bytes(), out.stats.total_bytes());
        assert!(report.epochs.len() <= 20);
        // Mid-run epochs should be busy on a 40 GB/s stream.
        assert!(report.epochs.iter().any(|e| e.total_bytes() > 0));
    }

    #[test]
    fn conformance_clean_on_normal_run() {
        let mut sys = system(PolicyKind::FrFcfs);
        sys.add_generator(
            StreamTraffic::builder(SourceId(0))
                .demand_gbps(80.0)
                .row_locality(0.6)
                .window(128)
                .build(),
        );
        sys.enable_conformance();
        let out = sys.run(30_000);
        let report = out.conformance.as_ref().expect("sanitizer enabled");
        assert!(report.commands > 0);
        assert!(report.is_clean(), "{}", report.summary());
    }

    #[test]
    fn conformance_flags_broken_timing() {
        let mut config = DramConfig::cmp_study();
        // A controller scheduling with a halved tRCD emits ACT→CAS gaps the
        // reference DDR4 bin forbids.
        config.timing.t_rcd /= 2;
        let mut sys = DramSystem::new(config, PolicyKind::FrFcfs);
        sys.add_generator(
            StreamTraffic::builder(SourceId(0))
                .demand_gbps(60.0)
                .row_locality(0.2)
                .window(128)
                .build(),
        );
        sys.enable_conformance_against(crate::timing::DramTiming::ddr4_3200());
        let out = sys.run(30_000);
        let report = out.conformance.as_ref().expect("sanitizer enabled");
        assert!(!report.is_clean());
        assert!(report.per_kind.contains_key("trcd"), "{}", report.summary());
    }

    #[test]
    fn runs_without_recorder_have_no_telemetry() {
        let mut sys = system(PolicyKind::Fcfs);
        sys.add_generator(
            StreamTraffic::builder(SourceId(0))
                .demand_gbps(10.0)
                .build(),
        );
        let out = sys.run(5_000);
        assert!(out.telemetry.is_none());
    }

    #[test]
    fn outcome_reports_completed_counts() {
        let mut sys = system(PolicyKind::Sms);
        sys.add_generator(
            StreamTraffic::builder(SourceId(0))
                .demand_gbps(20.0)
                .build(),
        );
        let out = sys.run(20_000);
        assert!(out.completed[&SourceId(0)] > 0);
        assert_eq!(out.horizon, 20_000);
    }
}
