//! Co-run simulation and achieved-relative-speed measurement.
//!
//! This module provides the measurement layer the paper obtains from real
//! hardware: standalone profiling of one kernel on one PU, and co-runs of
//! multiple kernels (or raw external pressure) across PUs sharing the
//! memory controller. Achieved relative speed (`RS`) is the ratio of work
//! rates: `(co-run lines / cycle) / (standalone lines / cycle)`.

use crate::executor::PuExecutor;
use crate::kernel::KernelDesc;
use crate::pressure::pressure_streams_seeded;
use crate::soc::SocConfig;
use pccs_dram::policy::PolicyKind;
use pccs_dram::request::SourceId;
use pccs_dram::sim::{DramSystem, SimOutcome};
use pccs_telemetry::audit::{self, AuditRecord};
use pccs_telemetry::{metrics, Profiler};

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Default simulation horizon in memory cycles; ~30 µs at 2133 MHz, enough
/// for tens of thousands of lines per PU.
pub const DEFAULT_HORIZON: u64 = 60_000;

/// Fraction of the horizon discarded as warmup before rates are measured.
pub const WARMUP_FRACTION: f64 = 0.25;

/// Measurement configuration of a co-run: horizon, warmup share, averaging
/// repetitions, and the memory-controller policy. The former free-standing
/// magic numbers [`DEFAULT_HORIZON`] and [`WARMUP_FRACTION`] are the
/// builder defaults, so callers that need different fidelity (the
/// scheduler's oracle probes, quick tests) configure it in one place
/// instead of redefining constants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoRunConfig {
    /// Simulated memory cycles per run.
    pub horizon: u64,
    /// Fraction of the horizon discarded before rates are measured.
    pub warmup_fraction: f64,
    /// Differently seeded repetitions whose rates are averaged.
    pub repeats: u32,
    /// Memory-controller scheduling policy.
    pub policy: PolicyKind,
}

impl Default for CoRunConfig {
    fn default() -> Self {
        Self {
            horizon: DEFAULT_HORIZON,
            warmup_fraction: WARMUP_FRACTION,
            repeats: 1,
            policy: PolicyKind::Atlas,
        }
    }
}

impl CoRunConfig {
    /// A short probe: quarter horizon, single repetition — what a scheduler
    /// can afford per candidate placement while staying on the measured
    /// side of the warmup knee.
    pub fn probe() -> Self {
        Self {
            horizon: 15_000,
            ..Self::default()
        }
    }

    /// Sets the horizon.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        assert!(horizon > 0, "horizon must be positive");
        self.horizon = horizon;
        self
    }

    /// Sets the warmup fraction.
    ///
    /// # Panics
    ///
    /// Panics if the fraction is outside `[0, 1)`.
    pub fn with_warmup_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&fraction),
            "warmup fraction must be in [0, 1)"
        );
        self.warmup_fraction = fraction;
        self
    }

    /// Sets the repetition count.
    ///
    /// # Panics
    ///
    /// Panics if `repeats` is zero.
    pub fn with_repeats(mut self, repeats: u32) -> Self {
        assert!(repeats >= 1, "at least one repetition required");
        self.repeats = repeats;
        self
    }

    /// Sets the memory-controller policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }
}

/// What runs on one PU during a co-run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Index of the PU in [`SocConfig::pus`].
    pub pu_idx: usize,
    /// The work placed on it.
    pub work: PlacementWork,
}

/// The work assigned to a PU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlacementWork {
    /// A kernel executed by the PU's compute model.
    Kernel(KernelDesc),
    /// Raw bandwidth pressure of the given total GB/s demand (a calibrator
    /// run open-loop, used when only the traffic matters).
    Pressure(f64),
}

impl Placement {
    /// Places `kernel` on PU `pu_idx`.
    pub fn kernel(pu_idx: usize, kernel: KernelDesc) -> Self {
        Self {
            pu_idx,
            work: PlacementWork::Kernel(kernel),
        }
    }

    /// Places a pure bandwidth demand on PU `pu_idx`.
    pub fn pressure(pu_idx: usize, gbps: f64) -> Self {
        Self {
            pu_idx,
            work: PlacementWork::Pressure(gbps),
        }
    }
}

/// The standalone execution profile of a kernel on a PU — the quantity the
/// paper obtains with NVperf/perf/Valgrind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StandaloneProfile {
    /// PU the kernel was profiled on.
    pub pu_idx: usize,
    /// Work rate in lines per memory cycle.
    pub lines_per_cycle: f64,
    /// Standalone achieved bandwidth — the kernel's *bandwidth demand* in
    /// the paper's terminology (GB/s).
    pub bw_gbps: f64,
    /// Horizon used for profiling.
    pub horizon: u64,
}

/// Errors from relative-speed accounting on a [`CoRunOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoRunError {
    /// The asked-about PU had no work placed in this co-run.
    NotPlaced {
        /// The PU index that was queried.
        pu_idx: usize,
    },
    /// The standalone profile belongs to a different PU than the one asked
    /// about — comparing them would silently mix machines.
    ProfileMismatch {
        /// PU the profile was measured on.
        profile_pu: usize,
        /// PU the caller asked about.
        pu_idx: usize,
    },
}

impl fmt::Display for CoRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoRunError::NotPlaced { pu_idx } => {
                write!(f, "PU {pu_idx} was not placed in this co-run")
            }
            CoRunError::ProfileMismatch { profile_pu, pu_idx } => write!(
                f,
                "profile belongs to PU {profile_pu} but asked about PU {pu_idx}"
            ),
        }
    }
}

impl std::error::Error for CoRunError {}

/// Per-PU measurements from one co-run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PuRunResult {
    /// Lines fully processed during the run.
    pub lines: u64,
    /// Work rate in lines per memory cycle.
    pub lines_per_cycle: f64,
    /// Achieved bandwidth in GB/s.
    pub bw_gbps: f64,
}

/// The result of a co-run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoRunOutcome {
    /// Measurements per placed PU index.
    pub per_pu: BTreeMap<usize, PuRunResult>,
    /// Cycles simulated.
    pub horizon: u64,
    /// Raw memory-system outcome (row-hit rates, latencies, …).
    pub memory: SimOutcome,
}

impl CoRunOutcome {
    /// Achieved relative speed of PU `pu_idx` against its standalone
    /// profile, as a fraction (1.0 = no slowdown).
    ///
    /// # Errors
    ///
    /// Returns [`CoRunError::NotPlaced`] if `pu_idx` had no work placed in
    /// this co-run and [`CoRunError::ProfileMismatch`] if the profile was
    /// measured on a different PU.
    pub fn relative_speed(
        &self,
        pu_idx: usize,
        standalone: &StandaloneProfile,
    ) -> Result<f64, CoRunError> {
        if standalone.pu_idx != pu_idx {
            return Err(CoRunError::ProfileMismatch {
                profile_pu: standalone.pu_idx,
                pu_idx,
            });
        }
        let r = self
            .per_pu
            .get(&pu_idx)
            .ok_or(CoRunError::NotPlaced { pu_idx })?;
        if standalone.lines_per_cycle <= 0.0 {
            return Ok(1.0);
        }
        Ok(r.lines_per_cycle / standalone.lines_per_cycle)
    }

    /// Achieved relative speed as a percentage (the paper's `RS`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CoRunOutcome::relative_speed`].
    pub fn relative_speed_pct(
        &self,
        pu_idx: usize,
        standalone: &StandaloneProfile,
    ) -> Result<f64, CoRunError> {
        Ok(100.0 * self.relative_speed(pu_idx, standalone)?)
    }
}

/// A predicted relative speed registered with [`CoRunSim::expect_rs`],
/// waiting to be resolved against the achieved rate.
#[derive(Debug, Clone)]
struct RsExpectation {
    source: String,
    workload: String,
    region: String,
    standalone: StandaloneProfile,
    predicted_rs_pct: f64,
}

/// A co-run simulation under construction.
#[derive(Debug)]
pub struct CoRunSim {
    soc: SocConfig,
    config: CoRunConfig,
    placements: Vec<Placement>,
    expectations: Vec<RsExpectation>,
    epoch: Option<u64>,
    conformance: bool,
}

impl CoRunSim {
    /// Starts a co-run on `soc` with the default fairness-controlled
    /// memory-scheduling policy (ATLAS — whose effective-bandwidth profile
    /// is closest to the paper's Xavier measurement in Table 3).
    pub fn new(soc: &SocConfig) -> Self {
        Self::with_config(soc, CoRunConfig::default())
    }

    /// Starts a co-run with an explicit measurement configuration.
    pub fn with_config(soc: &SocConfig, config: CoRunConfig) -> Self {
        Self {
            soc: soc.clone(),
            config,
            placements: Vec::new(),
            expectations: Vec::new(),
            epoch: None,
            conformance: false,
        }
    }

    /// Registers a predicted relative speed for the PU of `standalone`:
    /// when the co-run executes, the achieved RS is measured against the
    /// profile and the (prediction, ground-truth) pair lands in the
    /// process-global audit ledger ([`pccs_telemetry::audit`]) with this
    /// simulation's SoC/policy provenance attached. A no-op when
    /// the ledger is disabled or the PU ends up with no work placed.
    pub fn expect_rs(
        &mut self,
        source: &str,
        workload: &str,
        region: &str,
        standalone: StandaloneProfile,
        predicted_rs_pct: f64,
    ) -> &mut Self {
        self.expectations.push(RsExpectation {
            source: source.to_owned(),
            workload: workload.to_owned(),
            region: region.to_owned(),
            standalone,
            predicted_rs_pct,
        });
        self
    }

    /// Resolves every registered expectation against `out` and writes the
    /// pairs to the audit ledger.
    fn audit_expectations(&self, out: &CoRunOutcome) {
        if !audit::is_enabled() {
            return;
        }
        for e in &self.expectations {
            let pu_idx = e.standalone.pu_idx;
            if let Ok(achieved) = out.relative_speed_pct(pu_idx, &e.standalone) {
                audit::record(
                    AuditRecord::new(&e.source, "rs_pct", e.predicted_rs_pct, achieved)
                        .with_soc(&self.soc.slug())
                        .with_pu(&self.soc.pus[pu_idx].name)
                        .with_workload(&e.workload)
                        .with_region(&e.region)
                        .with_policy(self.config.policy.label()),
                );
            }
        }
    }

    /// Enables the DDR protocol conformance sanitizer on the underlying
    /// memory controller; the report lands in
    /// [`SimOutcome::conformance`](pccs_dram::sim::SimOutcome) of
    /// [`CoRunOutcome::memory`]. With repeats above one, the report covers
    /// the last repetition (matching [`CoRunOutcome::memory`]).
    pub fn check_conformance(&mut self) -> &mut Self {
        self.conformance = true;
        self
    }

    /// Enables epoch telemetry: the memory controller samples per-source
    /// bandwidth, queue depth, row mix, and stall breakdown every
    /// `epoch_cycles` cycles into
    /// [`SimOutcome::telemetry`](pccs_dram::sim::SimOutcome). With repeats
    /// above one, the report covers the last repetition (matching
    /// [`CoRunOutcome::memory`]).
    pub fn record_epochs(&mut self, epoch_cycles: u64) -> &mut Self {
        self.epoch = Some(epoch_cycles.max(1));
        self
    }

    /// Adds a placement.
    ///
    /// # Panics
    ///
    /// Panics if the PU index is out of range or already occupied (the
    /// paper's scope: "a PU runs only one kernel at a given time").
    pub fn place(&mut self, placement: Placement) -> &mut Self {
        assert!(
            placement.pu_idx < self.soc.pus.len(),
            "PU index {} out of range",
            placement.pu_idx
        );
        assert!(
            self.placements.iter().all(|p| p.pu_idx != placement.pu_idx),
            "PU {} already has work placed",
            placement.pu_idx
        );
        self.placements.push(placement);
        self
    }

    /// Convenience: place raw external bandwidth pressure on a PU.
    pub fn external_pressure(&mut self, pu_idx: usize, gbps: f64) -> &mut Self {
        self.place(Placement::pressure(pu_idx, gbps))
    }

    /// Runs the co-run at [`CoRunConfig::horizon`] — the single source of
    /// truth for run length. The first [`CoRunConfig::warmup_fraction`] of
    /// the horizon is excluded from the measured rates; when
    /// [`CoRunConfig::repeats`] is above one, rates are averaged over
    /// differently seeded repetitions (the returned raw
    /// [`CoRunOutcome::memory`] is from the last repetition).
    pub fn execute(&self) -> CoRunOutcome {
        self.run_at(self.config.horizon)
    }

    fn run_at(&self, horizon: u64) -> CoRunOutcome {
        assert!(horizon > 0, "horizon must be positive");
        let mut span = Profiler::scope("sim.execute");
        span.counter("placements", self.placements.len() as f64);
        span.counter("repeats", f64::from(self.config.repeats));
        span.counter("horizon", horizon as f64);
        let warmup = (horizon as f64 * self.config.warmup_fraction) as u64;
        let mut acc: BTreeMap<usize, (f64, f64, u64)> = BTreeMap::new();
        let accumulate = |acc: &mut BTreeMap<usize, (f64, f64, u64)>, memory: &SimOutcome| {
            for placement in &self.placements {
                let range = self.soc.source_range(placement.pu_idx);
                let lines: u64 = range
                    .clone()
                    .map(|s| {
                        memory
                            .measured
                            .progress
                            .get(&SourceId(s))
                            .copied()
                            .unwrap_or(0)
                    })
                    .sum();
                let bpc: f64 = range
                    .map(|s| memory.measured.bytes_per_cycle(SourceId(s)))
                    .sum();
                let bw = self.soc.dram.bytes_per_cycle_to_gbps(bpc);
                let rate = lines as f64 / memory.measured.cycles.max(1) as f64;
                let e = acc.entry(placement.pu_idx).or_insert((0.0, 0.0, 0));
                e.0 += rate;
                e.1 += bw;
                e.2 += lines;
            }
        };
        // Run repetition zero eagerly so the returned raw memory outcome is
        // always present without an unwrap on the accumulator.
        let mut memory = self.run_once(horizon, warmup, 0);
        accumulate(&mut acc, &memory);
        for rep in 1..self.config.repeats {
            memory = self.run_once(horizon, warmup, u64::from(rep));
            accumulate(&mut acc, &memory);
        }
        let n = f64::from(self.config.repeats.max(1));
        let per_pu = acc
            .into_iter()
            .map(|(pu, (rate, bw, lines))| {
                (
                    pu,
                    PuRunResult {
                        lines: lines / u64::from(self.config.repeats.max(1)),
                        lines_per_cycle: rate / n,
                        bw_gbps: bw / n,
                    },
                )
            })
            .collect();
        let out = CoRunOutcome {
            per_pu,
            horizon,
            memory,
        };
        self.audit_expectations(&out);
        out
    }

    fn run_once(&self, horizon: u64, warmup: u64, run_seed: u64) -> SimOutcome {
        let _prof = Profiler::scope("sim.rep");
        metrics::add("sim.runs", 1);
        let mut sys = DramSystem::new(self.soc.dram.clone(), self.config.policy);
        if let Some(epoch) = self.epoch {
            sys.record_epochs(epoch);
        }
        if self.conformance {
            sys.enable_conformance();
        }
        for placement in &self.placements {
            let pu = &self.soc.pus[placement.pu_idx];
            let base = self.soc.source_base(placement.pu_idx);
            match &placement.work {
                PlacementWork::Kernel(kernel) => {
                    let per_stream =
                        pu.flops_per_mem_cycle(self.soc.dram.clock_mhz) / pu.streams.max(1) as f64;
                    let mut execs = PuExecutor::streams_for_seeded(pu, kernel, base, run_seed);
                    for e in &mut execs {
                        e.set_compute_rate(per_stream);
                    }
                    for e in execs {
                        sys.add_generator(e);
                    }
                }
                PlacementWork::Pressure(gbps) => {
                    for s in pressure_streams_seeded(pu, *gbps, base, run_seed) {
                        sys.add_generator(s);
                    }
                }
            }
        }
        sys.run_with_warmup(warmup, horizon)
    }

    /// Profiles `kernel` standalone on PU `pu_idx` of `soc` — the paper's
    /// standalone bandwidth-demand measurement — under `config` (its
    /// horizon, seeded repeats and MC policy).
    pub fn standalone(
        soc: &SocConfig,
        pu_idx: usize,
        kernel: &KernelDesc,
        config: &CoRunConfig,
    ) -> StandaloneProfile {
        let mut sim = CoRunSim::with_config(soc, config.clone());
        sim.place(Placement::kernel(pu_idx, kernel.clone()));
        let out = sim.execute();
        let r = out.per_pu[&pu_idx];
        StandaloneProfile {
            pu_idx,
            lines_per_cycle: r.lines_per_cycle,
            bw_gbps: r.bw_gbps,
            horizon: config.horizon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xavier() -> SocConfig {
        SocConfig::xavier()
    }

    #[test]
    fn standalone_profile_reports_bandwidth() {
        let soc = xavier();
        let gpu = soc.pu_index("GPU").unwrap();
        let kernel = KernelDesc::memory_streaming("stream", 0.5);
        let p = CoRunSim::standalone(
            &soc,
            gpu,
            &kernel,
            &CoRunConfig::default().with_horizon(30_000),
        );
        assert!(p.bw_gbps > 20.0, "got {}", p.bw_gbps);
        assert!(p.lines_per_cycle > 0.0);
    }

    #[test]
    fn corun_slows_down_a_memory_bound_kernel() {
        let soc = xavier();
        let gpu = soc.pu_index("GPU").unwrap();
        let cpu = soc.pu_index("CPU").unwrap();
        let kernel = KernelDesc::memory_streaming("stream", 0.5);
        let standalone = CoRunSim::standalone(
            &soc,
            gpu,
            &kernel,
            &CoRunConfig::default().with_horizon(40_000),
        );

        let mut sim = CoRunSim::with_config(&soc, CoRunConfig::default().with_horizon(40_000));
        sim.place(Placement::kernel(gpu, kernel));
        sim.external_pressure(cpu, 80.0);
        let out = sim.execute();
        let rs = out.relative_speed(gpu, &standalone).unwrap();
        assert!(rs < 0.97, "expected a slowdown, rs = {rs:.3}");
        assert!(rs > 0.2, "slowdown implausibly large, rs = {rs:.3}");
    }

    #[test]
    fn compute_bound_kernel_barely_slows() {
        let soc = xavier();
        let gpu = soc.pu_index("GPU").unwrap();
        let cpu = soc.pu_index("CPU").unwrap();
        let kernel = KernelDesc::compute_bound("hot", 200.0);
        let standalone = CoRunSim::standalone(
            &soc,
            gpu,
            &kernel,
            &CoRunConfig::default().with_horizon(40_000),
        );

        let mut sim = CoRunSim::with_config(&soc, CoRunConfig::default().with_horizon(40_000));
        sim.place(Placement::kernel(gpu, kernel));
        sim.external_pressure(cpu, 60.0);
        let out = sim.execute();
        let rs = out.relative_speed(gpu, &standalone).unwrap();
        assert!(rs > 0.85, "compute-bound kernel slowed to {rs:.3}");
    }

    #[test]
    fn more_pressure_means_more_slowdown() {
        let soc = xavier();
        let gpu = soc.pu_index("GPU").unwrap();
        let cpu = soc.pu_index("CPU").unwrap();
        let kernel = KernelDesc::memory_streaming("stream", 1.0);
        let standalone = CoRunSim::standalone(
            &soc,
            gpu,
            &kernel,
            &CoRunConfig::default().with_horizon(30_000),
        );
        let rs_at = |gbps: f64| {
            let mut sim = CoRunSim::with_config(&soc, CoRunConfig::default().with_horizon(30_000));
            sim.place(Placement::kernel(gpu, kernel.clone()));
            sim.external_pressure(cpu, gbps);
            sim.execute().relative_speed(gpu, &standalone).unwrap()
        };
        let low = rs_at(20.0);
        let high = rs_at(100.0);
        assert!(
            high <= low + 0.03,
            "rs should not increase with pressure: low={low:.3} high={high:.3}"
        );
    }

    #[test]
    fn epoch_telemetry_flows_through_corun() {
        let soc = xavier();
        let gpu = soc.pu_index("GPU").unwrap();
        let cpu = soc.pu_index("CPU").unwrap();
        let mut sim = CoRunSim::with_config(&soc, CoRunConfig::default().with_horizon(20_000));
        sim.place(Placement::kernel(
            gpu,
            KernelDesc::memory_streaming("stream", 0.5),
        ));
        sim.external_pressure(cpu, 40.0);
        sim.record_epochs(2_000);
        let out = sim.execute();
        let report = out.memory.telemetry.as_ref().expect("epochs recorded");
        assert_eq!(report.epoch_cycles, 2_000);
        assert_eq!(report.total_bytes(), out.memory.stats.total_bytes());
        assert!(!report.sources().is_empty());
    }

    #[test]
    fn config_defaults_match_the_former_constants() {
        let cfg = CoRunConfig::default();
        assert_eq!(cfg.horizon, DEFAULT_HORIZON);
        assert!((cfg.warmup_fraction - WARMUP_FRACTION).abs() < 1e-12);
        assert_eq!(cfg.repeats, 1);
        assert_eq!(cfg.policy, PolicyKind::Atlas);
        let probe = CoRunConfig::probe();
        assert!(probe.horizon < cfg.horizon);
    }

    #[test]
    fn configured_run_matches_explicit_horizon() {
        let soc = xavier();
        let gpu = soc.pu_index("GPU").unwrap();
        let kernel = KernelDesc::memory_streaming("stream", 0.5);
        let cfg = CoRunConfig::probe();
        let a = CoRunSim::standalone(&soc, gpu, &kernel, &cfg);
        let b = CoRunSim::standalone(
            &soc,
            gpu,
            &kernel,
            &CoRunConfig::default().with_horizon(cfg.horizon),
        );
        assert!((a.lines_per_cycle - b.lines_per_cycle).abs() < 1e-12);
        assert_eq!(a.horizon, cfg.horizon);
    }

    #[test]
    fn corun_types_cross_threads() {
        fn assert_send<T: Send>() {}
        assert_send::<CoRunSim>();
        assert_send::<CoRunOutcome>();
        assert_send::<StandaloneProfile>();
    }

    #[test]
    #[should_panic(expected = "warmup fraction")]
    fn config_rejects_full_warmup() {
        let _ = CoRunConfig::default().with_warmup_fraction(1.0);
    }

    #[test]
    #[should_panic(expected = "already has work")]
    fn double_placement_panics() {
        let soc = xavier();
        let mut sim = CoRunSim::new(&soc);
        sim.place(Placement::pressure(0, 10.0));
        sim.place(Placement::pressure(0, 10.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_pu_index_panics() {
        let soc = xavier();
        CoRunSim::new(&soc).place(Placement::pressure(9, 10.0));
    }

    #[test]
    fn relative_speed_requires_placement() {
        let soc = xavier();
        let gpu = soc.pu_index("GPU").unwrap();
        let kernel = KernelDesc::memory_streaming("k", 1.0);
        let standalone = CoRunSim::standalone(
            &soc,
            gpu,
            &kernel,
            &CoRunConfig::default().with_horizon(5_000),
        );
        let mut sim = CoRunSim::with_config(&soc, CoRunConfig::default().with_horizon(5_000));
        sim.external_pressure(0, 10.0);
        let out = sim.execute();
        assert_eq!(
            out.relative_speed(gpu, &standalone),
            Err(CoRunError::NotPlaced { pu_idx: gpu })
        );
        let wrong_pu = StandaloneProfile {
            pu_idx: 0,
            ..standalone
        };
        assert_eq!(
            out.relative_speed(gpu, &wrong_pu),
            Err(CoRunError::ProfileMismatch {
                profile_pu: 0,
                pu_idx: gpu
            })
        );
        assert!(CoRunError::NotPlaced { pu_idx: gpu }
            .to_string()
            .contains("not placed"));
    }

    #[test]
    fn expectations_resolve_into_the_audit_ledger() {
        let soc = xavier();
        let gpu = soc.pu_index("GPU").unwrap();
        let cpu = soc.pu_index("CPU").unwrap();
        let kernel = KernelDesc::memory_streaming("stream", 0.5);
        let standalone = CoRunSim::standalone(
            &soc,
            gpu,
            &kernel,
            &CoRunConfig::default().with_horizon(20_000),
        );
        let mut sim = CoRunSim::with_config(&soc, CoRunConfig::default().with_horizon(20_000));
        sim.place(Placement::kernel(gpu, kernel));
        sim.external_pressure(cpu, 60.0);
        sim.expect_rs("corun-test", "stream", "normal", standalone, 80.0);

        // Disabled ledger: the expectation is dropped silently.
        audit::set_enabled(false);
        let before = audit::snapshot().len();
        sim.execute();
        assert_eq!(audit::snapshot().len(), before);

        audit::set_enabled(true);
        let out = sim.execute();
        audit::set_enabled(false);
        let recs: Vec<_> = audit::snapshot()
            .into_iter()
            .filter(|r| r.source == "corun-test")
            .collect();
        assert_eq!(recs.len(), 1, "one expectation, one record");
        let r = &recs[0];
        assert_eq!((r.soc.as_str(), r.pu.as_str()), ("xavier", "GPU"));
        assert_eq!((r.region.as_str(), r.unit.as_str()), ("normal", "rs_pct"));
        assert_eq!(r.policy, "ATLAS");
        assert!((r.predicted - 80.0).abs() < 1e-12);
        let achieved = out.relative_speed_pct(gpu, &standalone).unwrap();
        assert!((r.achieved - achieved).abs() < 1e-12);
    }

    #[test]
    fn conformance_flows_through_corun() {
        let soc = xavier();
        let gpu = soc.pu_index("GPU").unwrap();
        let cpu = soc.pu_index("CPU").unwrap();
        let mut sim = CoRunSim::with_config(&soc, CoRunConfig::default().with_horizon(15_000));
        sim.place(Placement::kernel(
            gpu,
            KernelDesc::memory_streaming("stream", 0.5),
        ));
        sim.external_pressure(cpu, 40.0);
        sim.check_conformance();
        let out = sim.execute();
        let report = out.memory.conformance.as_ref().expect("sanitizer on");
        assert!(report.commands > 0);
        assert!(report.is_clean(), "{}", report.summary());
    }
}
