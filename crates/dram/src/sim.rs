//! The top-level DRAM simulation loop: traffic sources feeding one or more
//! memory controllers for a fixed horizon.

use crate::config::DramConfig;
use crate::conformance::ConformanceReport;
use crate::controller::{Completion, MemoryController};
use crate::policy::PolicyKind;
use crate::request::{MemoryRequest, SourceId};
use crate::stats::MemoryStats;
use crate::timing::DramTiming;
use crate::traffic::TrafficSource;
use pccs_telemetry::TelemetryReport;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A complete DRAM simulation: memory controllers plus a set of traffic
/// sources.
///
/// One controller is the paper's target SoC. Several controllers are its
/// Section 5 multi-MC extension ("considering specific address mappings
/// and coordinations between MCs"): the channels split evenly across
/// independent controllers, each with its *own* scheduling policy instance
/// (fairness state is per-MC, exactly the coordination gap the paper
/// highlights), while consecutive lines still interleave across all
/// channels of all MCs.
#[derive(Debug)]
pub struct DramSystem {
    total: DramConfig,
    controllers: Vec<MemoryController>,
    generators: Vec<Box<dyn TrafficSource>>,
}

impl DramSystem {
    /// Creates a single-controller system with the given geometry and
    /// scheduling policy.
    pub fn new(config: DramConfig, policy: PolicyKind) -> Self {
        Self::with_controllers(config, 1, policy)
    }

    /// Splits the `total` geometry across `mc_count` controllers running
    /// `policy` (each gets an independent policy instance).
    ///
    /// # Panics
    ///
    /// Panics if `mc_count` is zero or does not divide the channel count.
    pub fn with_controllers(total: DramConfig, mc_count: usize, policy: PolicyKind) -> Self {
        assert!(mc_count > 0, "at least one controller required");
        assert_eq!(
            total.channels % mc_count,
            0,
            "channel count {} must divide evenly across {} MCs",
            total.channels,
            mc_count
        );
        let per_mc = total.with_channels(total.channels / mc_count);
        let controllers = (0..mc_count)
            .map(|_| MemoryController::new(per_mc.clone(), policy.instantiate()))
            .collect();
        Self {
            total,
            controllers,
            generators: Vec::new(),
        }
    }

    /// The memory geometry, all controllers together.
    pub fn config(&self) -> &DramConfig {
        &self.total
    }

    /// Adds a traffic source; it is bound to the whole system's geometry,
    /// so its demand accounting sees every channel.
    pub fn add_generator<T: TrafficSource + 'static>(&mut self, mut generator: T) {
        generator.bind(&self.total);
        self.generators.push(Box::new(generator));
    }

    /// Attaches an epoch recorder to every controller; their reports are
    /// merged by epoch index into [`SimOutcome::telemetry`].
    pub fn record_epochs(&mut self, epoch_cycles: u64) {
        for mc in &mut self.controllers {
            mc.record_epochs(epoch_cycles);
        }
    }

    /// Attaches the DDR protocol conformance sanitizer to every
    /// controller, validating the emitted command streams against this
    /// system's own timing; the merged report lands in
    /// [`SimOutcome::conformance`].
    pub fn enable_conformance(&mut self) {
        self.enable_conformance_against(self.total.timing);
    }

    /// Like [`DramSystem::enable_conformance`] but validating against an
    /// explicit `reference` timing (to audit a deliberately broken config).
    pub fn enable_conformance_against(&mut self, reference: DramTiming) {
        for mc in &mut self.controllers {
            mc.enable_conformance(reference);
        }
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
            total,
            mut controllers,
            mut generators,
        } = self;
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
                for mc in &controllers {
                    for (src, st) in &mc.stats().per_source {
                        *warmup_bytes.entry(*src).or_insert(0) += st.bytes;
                    }
                }
            }
            // Let every source emit as much as it can this cycle.
            for generator in &mut generators {
                while let Some(req) = generator.poll(now) {
                    let (mc, addr) = route_addr(req.addr, &total, controllers.len());
                    if controllers[mc]
                        .try_enqueue(MemoryRequest { addr, ..req })
                        .is_err()
                    {
                        // Hand the *original* request back for retry.
                        generator.on_reject(req);
                        break;
                    }
                }
            }
            // Advance every controller; deliver completions.
            for mc in &mut controllers {
                buf.clear();
                mc.tick_into(now, &mut buf);
                deliver(&routes, &mut generators, &buf);
            }
        }

        let completed: BTreeMap<SourceId, u64> = generators
            .iter()
            .map(|g| (g.source_id(), g.completed()))
            .collect();
        let progress: BTreeMap<SourceId, u64> = generators
            .iter()
            .map(|g| (g.source_id(), g.progress()))
            .collect();
        // Merge across controllers; the first one's results are taken as-is.
        let mut telemetry: Option<TelemetryReport> = None;
        let mut conformance: Option<ConformanceReport> = None;
        let mut stats: Option<MemoryStats> = None;
        for mut mc in controllers {
            absorb(&mut telemetry, mc.take_report(), TelemetryReport::merge);
            absorb(
                &mut conformance,
                mc.conformance_report(),
                ConformanceReport::merge,
            );
            absorb(&mut stats, Some(mc.into_stats()), MemoryStats::merge);
        }
        let stats = stats.unwrap_or_default();
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
            config: total,
            horizon,
            completed,
            progress,
            measured,
            telemetry,
            conformance,
        }
    }
}

/// Folds `next` into `acc` with `merge`; the first value is taken as-is.
fn absorb<T>(acc: &mut Option<T>, next: Option<T>, merge: impl FnOnce(&mut T, &T)) {
    match (acc.as_mut(), next) {
        (Some(merged), Some(next)) => merge(merged, &next),
        (None, next) => *acc = next,
        (Some(_), None) => {}
    }
}

/// Which controller serves `addr` among `mc_count` splitting `total`, and
/// the controller-local address. Lines interleave across controllers
/// first, so adjacent lines hit different controllers; with one controller
/// the mapping is the identity.
pub(crate) fn route_addr(addr: u64, total: &DramConfig, mc_count: usize) -> (usize, u64) {
    if mc_count == 1 {
        return (0, addr);
    }
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

/// Which generator receives each source's completions, indexed by
/// `SourceId.0`: the first generator with that id, or `None`.
fn completion_routes(generators: &[Box<dyn TrafficSource>]) -> Vec<Option<usize>> {
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
fn deliver(
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
        let mut sys = system(PolicyKind::FrFcfs);
        sys.add_generator(
            StreamTraffic::builder(SourceId(0))
                .demand_gbps(40.0)
                .row_locality(0.9)
                .window(64)
                .build(),
        );
        sys.record_epochs(1000);
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

    #[test]
    fn one_controller_routes_by_identity() {
        let total = DramConfig::xavier();
        for addr in [0, 17, 64, 12 * 64 + 5, 1 << 33] {
            assert_eq!(route_addr(addr, &total, 1), (0, addr));
        }
    }
}
