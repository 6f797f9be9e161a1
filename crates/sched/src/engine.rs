//! The scheduling engine: replays a job stream against the co-run
//! simulator under a placement policy.
//!
//! Execution is quasi-static: placements are fixed between scheduling
//! events (arrivals, phase boundaries, completions), so the engine probes
//! the co-run simulator once per event for the sustained work rate of every
//! resident PU and advances time analytically to the next event. All rate
//! probes go through a shared cache keyed by the placement set, which is
//! what makes the oracle policy affordable: its candidate probes and the
//! engine's own measurements share the same simulations.
//!
//! The replay core — `InFlight` jobs, `build_input`, `any_free` and
//! `advance` — is public because the online serving loop (`pccs-serve`)
//! runs on it too; only arrival handling and completion bookkeeping differ
//! between the two engines.

use crate::error::SchedError;
use crate::job::Job;
use crate::policy::{
    DecisionInput, PendingJob, PhaseEstimate, PlacementOption, Policy, Probe, PuSlot, Resident,
};
use crate::report::{DecisionRecord, JobOutcome, ScheduleReport};
use pccs_soc::corun::{CoRunConfig, CoRunSim, Placement};
use pccs_soc::kernel::KernelDesc;
use pccs_soc::soc::SocConfig;
use pccs_telemetry::audit::{self, AuditRecord};
use pccs_telemetry::{metrics, Profiler};
use std::collections::BTreeMap;

/// Floor for measured rates, lines per cycle.
pub const MIN_RATE: f64 = 1e-9;

/// Work below this many lines counts as finished.
const WORK_EPSILON: f64 = 1e-6;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Measurement configuration of the rate probes (short horizons keep
    /// decisions cheap; the cache keeps them from repeating).
    pub probe: CoRunConfig,
    /// Upper bound on scheduling events before the engine declares a
    /// livelock (defensive; never reached by the bundled policies).
    pub max_steps: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            probe: CoRunConfig::probe(),
            max_steps: 100_000,
        }
    }
}

impl SchedConfig {
    /// A faster preset for tests and smoke runs: shorter probe horizon.
    pub fn quick() -> Self {
        Self {
            probe: CoRunConfig::probe().with_horizon(8_000),
            ..Self::default()
        }
    }
}

/// Exact identity of a kernel in the probe caches: its interned name and
/// the bits of its four parameters. Two kernels share a key exactly when
/// they are equal (`KernelDesc: PartialEq`), so distinct kernels never
/// alias onto one cached simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct KernelKey {
    name: usize,
    params: [u64; 4],
}

/// The engine's probe: co-run rate measurements through [`CoRunSim`],
/// cached by placement set.
#[derive(Debug)]
pub struct SimProbe<'a> {
    soc: &'a SocConfig,
    config: CoRunConfig,
    /// Interned kernel names; a name's id is its insertion index.
    names: BTreeMap<String, usize>,
    /// Co-run rates keyed by the placement set, sorted by PU.
    corun_cache: BTreeMap<Vec<(usize, KernelKey)>, BTreeMap<usize, f64>>,
    standalone_cache: BTreeMap<(usize, KernelKey), (f64, f64)>,
}

impl<'a> SimProbe<'a> {
    /// A probe against `soc` at the given measurement fidelity.
    pub fn new(soc: &'a SocConfig, config: CoRunConfig) -> Self {
        Self {
            soc,
            config,
            names: BTreeMap::new(),
            corun_cache: BTreeMap::new(),
            standalone_cache: BTreeMap::new(),
        }
    }

    fn key(&mut self, kernel: &KernelDesc) -> KernelKey {
        let name = match self.names.get(kernel.name.as_str()) {
            Some(&id) => id,
            None => {
                let id = self.names.len();
                self.names.insert(kernel.name.clone(), id);
                id
            }
        };
        KernelKey {
            name,
            params: [
                kernel.ops_per_byte.to_bits(),
                kernel.row_locality.to_bits(),
                kernel.write_fraction.to_bits(),
                kernel.parallel_efficiency.to_bits(),
            ],
        }
    }

    /// Standalone (work rate in lines/cycle, bandwidth demand in GB/s) of
    /// `kernel` on PU `pu_idx`; cached.
    pub fn standalone(&mut self, pu_idx: usize, kernel: &KernelDesc) -> (f64, f64) {
        let key = (pu_idx, self.key(kernel));
        if let Some(hit) = self.standalone_cache.get(&key) {
            return *hit;
        }
        let profile = CoRunSim::standalone_with(self.soc, pu_idx, kernel, &self.config);
        let result = (profile.lines_per_cycle, profile.bw_gbps);
        self.standalone_cache.insert(key, result);
        result
    }
}

impl Probe for SimProbe<'_> {
    fn corun_rates(&mut self, placements: &[(usize, KernelDesc)]) -> BTreeMap<usize, f64> {
        let mut key = Vec::with_capacity(placements.len());
        for (pu, kernel) in placements {
            key.push((*pu, self.key(kernel)));
        }
        key.sort_unstable();
        if let Some(hit) = self.corun_cache.get(&key) {
            return hit.clone();
        }
        let mut sim = CoRunSim::with_config(self.soc, self.config.clone());
        for (pu, kernel) in placements {
            sim.place(Placement::kernel(*pu, kernel.clone()));
        }
        let out = sim.execute();
        let rates: BTreeMap<usize, f64> = out
            .per_pu
            .iter()
            .map(|(pu, r)| (*pu, r.lines_per_cycle))
            .collect();
        self.corun_cache.insert(key, rates.clone());
        rates
    }
}

/// A job in flight on one PU, carrying caller data (`tag`) to its
/// completion. Both the offline replay and the serving loop run on it.
#[derive(Debug)]
pub struct InFlight<T> {
    /// The job.
    pub job: Job,
    /// The PU it occupies.
    pub pu_idx: usize,
    /// Index of its current phase.
    phase: usize,
    /// Work left in the current phase, lines.
    remaining_lines: f64,
    /// Placement time, cycles.
    pub start: f64,
    /// Caller data: placement provenance, request membership, ...
    pub tag: T,
}

impl<T> InFlight<T> {
    /// `job` placed on PU `pu_idx` at cycle `start`, at the top of its
    /// first phase.
    pub fn new(job: Job, pu_idx: usize, start: f64, tag: T) -> Self {
        let remaining_lines = job.phases[0].work_lines;
        Self {
            job,
            pu_idx,
            phase: 0,
            remaining_lines,
            start,
            tag,
        }
    }

    /// The kernel of the current phase on this job's PU.
    pub fn kernel<'k>(&'k self, soc: &SocConfig) -> &'k KernelDesc {
        self.job.phases[self.phase]
            .kernel_for(soc.pus[self.pu_idx].kind)
            .expect("placement was validated against eligibility")
    }

    /// Cycles until the job finishes at standalone rates: the current
    /// phase's remaining work plus every later phase.
    pub fn drain_cycles(&self, probe: &mut SimProbe, soc: &SocConfig) -> f64 {
        let (rate, _) = probe.standalone(self.pu_idx, self.kernel(soc));
        let mut left = self.remaining_lines / rate.max(MIN_RATE);
        for ph in &self.job.phases[self.phase + 1..] {
            let k = ph
                .kernel_for(soc.pus[self.pu_idx].kind)
                .expect("placement was validated against eligibility");
            let (rate, _) = probe.standalone(self.pu_idx, k);
            left += ph.work_lines / rate.max(MIN_RATE);
        }
        left
    }
}

/// Placement provenance a replayed job carries to completion, where it
/// resolves into an audit-ledger pair.
#[derive(Debug)]
struct Placed {
    predicted_cost: f64,
    placed_by: &'static str,
    region: &'static str,
}

/// Standalone execution time of `job` on PU `pu_idx`, summed over phases.
fn standalone_cycles(probe: &mut SimProbe, soc: &SocConfig, job: &Job, pu_idx: usize) -> f64 {
    job.phases
        .iter()
        .map(|ph| {
            let kernel = ph
                .kernel_for(soc.pus[pu_idx].kind)
                .expect("caller checked eligibility");
            let (rate, _) = probe.standalone(pu_idx, kernel);
            ph.work_lines / rate.max(MIN_RATE)
        })
        .sum()
}

/// Whether some PU of `soc` has no job in flight.
pub fn any_free<T>(soc: &SocConfig, running: &[InFlight<T>]) -> bool {
    (0..soc.pus.len()).any(|i| running.iter().all(|r| r.pu_idx != i))
}

/// The policy's decision snapshot at cycle `now`: every PU's slot, the
/// queued jobs with their per-PU standalone estimates, and the residents.
pub fn build_input<'j, T>(
    probe: &mut SimProbe,
    soc: &SocConfig,
    now: f64,
    queue: impl IntoIterator<Item = &'j Job>,
    running: &[InFlight<T>],
) -> DecisionInput {
    let slots: Vec<PuSlot> = soc
        .pus
        .iter()
        .enumerate()
        .map(|(pu_idx, pu)| {
            let resident = running.iter().find(|r| r.pu_idx == pu_idx);
            PuSlot {
                pu_idx,
                kind: pu.kind,
                name: pu.name.clone(),
                free: resident.is_none(),
                est_free_in: resident.map_or(0.0, |r| r.drain_cycles(probe, soc)),
            }
        })
        .collect();
    let queue: Vec<PendingJob> = queue
        .into_iter()
        .map(|job| {
            let options: Vec<PlacementOption> = soc
                .pus
                .iter()
                .enumerate()
                .filter(|(_, pu)| job.runs_on(pu.kind))
                .map(|(pu_idx, pu)| {
                    let phases: Vec<PhaseEstimate> = job
                        .phases
                        .iter()
                        .map(|ph| {
                            let kernel = ph.kernel_for(pu.kind).expect("runs_on checked").clone();
                            let (rate, bw) = probe.standalone(pu_idx, &kernel);
                            PhaseEstimate {
                                kernel,
                                work_lines: ph.work_lines,
                                standalone_rate: rate,
                                demand_gbps: bw,
                            }
                        })
                        .collect();
                    let standalone_cycles = phases
                        .iter()
                        .map(|p| p.work_lines / p.standalone_rate.max(MIN_RATE))
                        .sum();
                    PlacementOption {
                        pu_idx,
                        standalone_cycles,
                        phases,
                    }
                })
                .collect();
            PendingJob {
                job_id: job.id,
                name: job.name.clone(),
                arrival: job.arrival,
                deadline: job.deadline,
                priority: job.priority,
                options,
            }
        })
        .collect();
    let residents: Vec<Resident> = running
        .iter()
        .map(|r| {
            let kernel = r.kernel(soc).clone();
            let (rate, bw) = probe.standalone(r.pu_idx, &kernel);
            Resident {
                pu_idx: r.pu_idx,
                job_id: r.job.id,
                kernel,
                demand_gbps: bw,
                standalone_rate: rate,
                remaining_lines: r.remaining_lines,
            }
        })
        .collect();
    DecisionInput {
        now,
        slots,
        queue,
        residents,
    }
}

/// Runs the current placement from `*now` to its next event. Measures the
/// co-run rates of `running`, steps `*now` to the first phase boundary or
/// completion, or to `until` when that comes first and lies ahead, and
/// moves jobs past phase boundaries. Returns the finished jobs, removed
/// from `running`, in placement order.
///
/// `running` must not be empty.
pub fn advance<T>(
    probe: &mut SimProbe,
    soc: &SocConfig,
    running: &mut Vec<InFlight<T>>,
    now: &mut f64,
    until: f64,
) -> Vec<InFlight<T>> {
    let placements: Vec<(usize, KernelDesc)> = running
        .iter()
        .map(|r| (r.pu_idx, r.kernel(soc).clone()))
        .collect();
    let rates = probe.corun_rates(&placements);
    let rate_of = |pu_idx: usize| rates.get(&pu_idx).copied().unwrap_or(0.0).max(MIN_RATE);
    let mut dt = f64::INFINITY;
    for r in running.iter() {
        dt = dt.min(r.remaining_lines / rate_of(r.pu_idx));
    }
    let ahead = until - *now;
    if ahead > 0.0 {
        dt = dt.min(ahead);
    }
    *now += dt;
    let mut finished = Vec::new();
    let mut idx = 0;
    while idx < running.len() {
        let r = &mut running[idx];
        r.remaining_lines -= rate_of(r.pu_idx) * dt;
        if r.remaining_lines > WORK_EPSILON {
            idx += 1;
        } else if r.phase + 1 < r.job.phases.len() {
            r.phase += 1;
            r.remaining_lines = r.job.phases[r.phase].work_lines;
            idx += 1;
        } else {
            finished.push(running.remove(idx));
        }
    }
    finished
}

/// Replays `jobs` on `soc` under `policy` and reports the schedule.
///
/// The engine guarantees progress: when a policy declines to place anything
/// while the whole machine is idle, [`DecisionInput::fallback`] is placed
/// instead (recorded with policy `"forced"`).
///
/// # Errors
///
/// Returns [`SchedError::DuplicateJobId`] when two jobs share an id, and
/// [`SchedError::UnschedulableJob`] when a job cannot run on any PU of
/// `soc` (e.g. a DLA-only job on the Snapdragon preset).
///
/// # Panics
///
/// Panics if the engine exceeds [`SchedConfig::max_steps`] without
/// finishing (defensive livelock bound; never reached by bundled policies).
pub fn run_schedule(
    soc: &SocConfig,
    mix_name: &str,
    jobs: &[Job],
    policy: &mut dyn Policy,
    cfg: &SchedConfig,
) -> Result<ScheduleReport, SchedError> {
    let mut ids: Vec<usize> = jobs.iter().map(|j| j.id).collect();
    ids.sort_unstable();
    for w in ids.windows(2) {
        if w[0] == w[1] {
            return Err(SchedError::DuplicateJobId { id: w[0] });
        }
    }
    for job in jobs {
        if !soc.pus.iter().any(|pu| job.runs_on(pu.kind)) {
            return Err(SchedError::UnschedulableJob {
                job: job.name.clone(),
                soc: soc.name.clone(),
            });
        }
    }
    let mut span = Profiler::scope("sched.replay");
    span.counter("jobs", jobs.len() as f64);

    let mut probe = SimProbe::new(soc, cfg.probe.clone());
    let mut arrivals: Vec<Job> = jobs.to_vec();
    arrivals.sort_by_key(|j| (j.arrival, j.id));
    let mut queue: Vec<Job> = Vec::new();
    let mut running: Vec<InFlight<Placed>> = Vec::new();
    let mut outcomes: Vec<JobOutcome> = Vec::new();
    let mut decisions: Vec<DecisionRecord> = Vec::new();
    let mut now = 0.0_f64;
    let mut steps = 0usize;

    while !(arrivals.is_empty() && queue.is_empty() && running.is_empty()) {
        steps += 1;
        assert!(
            steps <= cfg.max_steps,
            "scheduler exceeded {} events without finishing (policy {})",
            cfg.max_steps,
            policy.name()
        );
        // Admit arrivals due by now.
        while arrivals.first().is_some_and(|j| (j.arrival as f64) <= now) {
            queue.push(arrivals.remove(0));
        }
        // Let the policy place onto free PUs. Progress guarantee: when its
        // picks leave the machine idle, the fallback pick runs instead.
        if !queue.is_empty() && any_free(soc, &running) {
            let input = build_input(&mut probe, soc, now, &queue, &running);
            let fallback = input.fallback().map(|a| (a, true));
            let decided = policy.decide(&input, &mut probe);
            for (a, forced) in decided.into_iter().map(|a| (a, false)).chain(fallback) {
                if forced && !running.is_empty() {
                    break;
                }
                let Some(pos) = queue.iter().position(|j| j.id == a.job_id) else {
                    continue; // unknown job; ignore
                };
                let valid = a.pu_idx < soc.pus.len()
                    && running.iter().all(|r| r.pu_idx != a.pu_idx)
                    && queue[pos].runs_on(soc.pus[a.pu_idx].kind);
                if !valid {
                    continue; // policies may only place eligible jobs on free PUs
                }
                let placed_by = if forced { "forced" } else { policy.name() };
                let job = queue.remove(pos);
                decisions.push(DecisionRecord {
                    at_cycle: now,
                    policy: placed_by.to_owned(),
                    job: job.name.clone(),
                    job_id: job.id,
                    pu: soc.pus[a.pu_idx].name.clone(),
                    pu_idx: a.pu_idx,
                    predicted_cost: a.predicted_cost,
                    queue_depth: queue.len(),
                });
                let first_kernel = job.phases[0]
                    .kernel_for(soc.pus[a.pu_idx].kind)
                    .expect("eligibility validated above");
                let (_, demand) = probe.standalone(a.pu_idx, first_kernel);
                let tag = Placed {
                    predicted_cost: a.predicted_cost,
                    placed_by,
                    region: policy.region_label(a.pu_idx, demand),
                };
                running.push(InFlight::new(job, a.pu_idx, now, tag));
            }
        }
        if running.is_empty() {
            // Nothing to execute: jump to the next arrival.
            match arrivals.first() {
                Some(next) => now = now.max(next.arrival as f64),
                None => break,
            }
            continue;
        }
        // Advance to the next event: a phase/job completion or an arrival.
        let until = arrivals.first().map_or(f64::INFINITY, |j| j.arrival as f64);
        for r in advance(&mut probe, soc, &mut running, &mut now, until) {
            let standalone = standalone_cycles(&mut probe, soc, &r.job, r.pu_idx);
            let residence = (now - r.start).max(1.0);
            if audit::is_enabled() {
                audit::record(
                    AuditRecord::new("sched", "cycles", r.tag.predicted_cost, residence)
                        .with_soc(&soc.slug())
                        .with_pu(&soc.pus[r.pu_idx].name)
                        .with_workload(&r.job.name)
                        .with_region(r.tag.region)
                        .with_policy(r.tag.placed_by),
                );
            }
            outcomes.push(JobOutcome {
                job_id: r.job.id,
                name: r.job.name.clone(),
                pu: soc.pus[r.pu_idx].name.clone(),
                pu_idx: r.pu_idx,
                arrival: r.job.arrival,
                start: r.start,
                finish: now,
                standalone_cycles: standalone,
                achieved_rs_pct: 100.0 * standalone / residence,
                deadline: r.job.deadline,
                missed_deadline: r.job.deadline.is_some_and(|d| now > d as f64),
            });
        }
    }
    span.counter("events", steps as f64);
    span.counter("decisions", decisions.len() as f64);
    let makespan = outcomes.iter().map(|o| o.finish).fold(0.0, f64::max);
    metrics::add("sched.jobs", jobs.len() as u64);
    metrics::add("sched.decisions", decisions.len() as u64);
    Ok(ScheduleReport {
        policy: policy.name().to_owned(),
        soc: soc.name.clone(),
        mix: mix_name.to_owned(),
        makespan,
        jobs: outcomes,
        decisions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobPhase;
    use crate::policy::{ObliviousGreedy, PccsPolicy, RoundRobin};
    use pccs_core::PccsModel;
    use pccs_soc::pu::PuKind;

    fn small_job(id: usize, arrival: u64, opb: f64, lines: f64) -> Job {
        Job::new(
            id,
            format!("job{id}"),
            arrival,
            vec![JobPhase::uniform(
                "main",
                lines,
                KernelDesc::memory_streaming(format!("k{id}"), opb),
            )],
        )
    }

    #[test]
    fn single_job_runs_to_completion() {
        let soc = SocConfig::xavier();
        let jobs = vec![small_job(0, 0, 1.0, 4_000.0)];
        let mut policy = ObliviousGreedy;
        let r = run_schedule(&soc, "unit", &jobs, &mut policy, &SchedConfig::quick()).unwrap();
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(r.decisions.len(), 1);
        assert!(r.makespan > 0.0);
        assert!(r.jobs[0].finish > r.jobs[0].start);
        // A sole resident suffers no contention.
        assert!(
            r.jobs[0].achieved_rs_pct > 90.0,
            "{}",
            r.jobs[0].achieved_rs_pct
        );
    }

    #[test]
    fn late_arrival_starts_no_earlier_than_it_arrives() {
        let soc = SocConfig::xavier();
        let jobs = vec![
            small_job(0, 0, 1.0, 3_000.0),
            small_job(1, 50_000, 1.0, 3_000.0),
        ];
        let mut policy = RoundRobin::default();
        let r = run_schedule(&soc, "unit", &jobs, &mut policy, &SchedConfig::quick()).unwrap();
        assert_eq!(r.jobs.len(), 2);
        let late = r.jobs.iter().find(|j| j.job_id == 1).unwrap();
        assert!(late.start >= 50_000.0);
    }

    #[test]
    fn one_job_per_pu_at_any_time() {
        let soc = SocConfig::xavier();
        let jobs: Vec<Job> = (0..5).map(|i| small_job(i, 0, 2.0, 2_000.0)).collect();
        let mut policy = RoundRobin::default();
        let r = run_schedule(&soc, "unit", &jobs, &mut policy, &SchedConfig::quick()).unwrap();
        assert_eq!(r.jobs.len(), 5);
        for pu in 0..soc.pus.len() {
            let mut spans: Vec<(f64, f64)> = r
                .jobs
                .iter()
                .filter(|j| j.pu_idx == pu)
                .map(|j| (j.start, j.finish))
                .collect();
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in spans.windows(2) {
                assert!(w[1].0 >= w[0].1 - 1e-6, "overlap on PU {pu}: {w:?}");
            }
        }
    }

    #[test]
    fn probe_caches_corun_measurements() {
        let soc = SocConfig::xavier();
        let mut probe = SimProbe::new(&soc, CoRunConfig::probe().with_horizon(6_000));
        let k = KernelDesc::memory_streaming("s", 1.0);
        let a = probe.corun_rates(&[(1, k.clone())]);
        let b = probe.corun_rates(&[(1, k.clone())]);
        assert_eq!(a, b);
        assert_eq!(probe.corun_cache.len(), 1);
        let (rate, bw) = probe.standalone(1, &k);
        assert!(rate > 0.0 && bw > 0.0);
    }

    #[test]
    fn completions_resolve_predictions_into_the_audit_ledger() {
        let soc = SocConfig::xavier();
        let jobs = vec![
            small_job(9301, 0, 1.0, 3_000.0),
            small_job(9302, 0, 0.2, 3_000.0),
        ];
        let mut policy = PccsPolicy::new(vec![
            Box::new(PccsModel::xavier_cpu_paper()),
            Box::new(PccsModel::xavier_gpu_paper()),
            Box::new(PccsModel::xavier_dla_paper()),
        ]);
        audit::set_enabled(true);
        let r = run_schedule(&soc, "audit", &jobs, &mut policy, &SchedConfig::quick()).unwrap();
        audit::set_enabled(false);
        // Filter by this test's unique job names: the ledger is
        // process-global and other tests may run concurrently.
        let recs: Vec<_> = audit::snapshot()
            .into_iter()
            .filter(|rec| rec.workload == "job9301" || rec.workload == "job9302")
            .collect();
        assert_eq!(r.jobs.len(), 2);
        assert_eq!(recs.len(), 2, "one audit pair per completed job");
        for rec in &recs {
            assert_eq!(
                (rec.source.as_str(), rec.unit.as_str()),
                ("sched", "cycles")
            );
            assert_eq!(rec.soc, "xavier");
            assert!(rec.predicted > 0.0 && rec.achieved > 0.0);
            assert!(rec.policy == "pccs" || rec.policy == "forced");
            if rec.policy == "pccs" {
                assert_ne!(rec.region, "-", "model-guided policy attributes a region");
            }
        }
    }

    /// A policy that never places anything.
    struct Declines;

    impl Policy for Declines {
        fn name(&self) -> &'static str {
            "declines"
        }

        fn decide(&mut self, _: &DecisionInput, _: &mut dyn Probe) -> Vec<crate::Assignment> {
            Vec::new()
        }
    }

    #[test]
    fn an_idle_machine_forces_the_fastest_standalone_option() {
        let soc = SocConfig::xavier();
        let jobs = vec![
            small_job(0, 0, 0.5, 3_000.0),
            small_job(1, 0, 4.0, 2_000.0),
            small_job(2, 40_000, 1.0, 2_500.0),
        ];
        let cfg = SchedConfig::quick();
        let r = run_schedule(&soc, "unit", &jobs, &mut Declines, &cfg).unwrap();
        assert_eq!(r.jobs.len(), jobs.len(), "every job completes");
        assert_eq!(r.decisions.len(), jobs.len());
        let mut probe = SimProbe::new(&soc, cfg.probe.clone());
        for d in &r.decisions {
            assert_eq!(d.policy, "forced");
            let job = jobs.iter().find(|j| j.id == d.job_id).unwrap();
            let (best_pu, best) = (0..soc.pus.len())
                .map(|pu| (pu, standalone_cycles(&mut probe, &soc, job, pu)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            assert_eq!((d.pu_idx, d.predicted_cost), (best_pu, best), "{d:?}");
        }
    }

    #[test]
    fn impossible_job_is_a_typed_error() {
        let soc = SocConfig::snapdragon855();
        let job = small_job(0, 0, 1.0, 100.0).with_eligible(vec![PuKind::Dla]);
        let mut policy = ObliviousGreedy;
        let err =
            run_schedule(&soc, "unit", &[job], &mut policy, &SchedConfig::quick()).unwrap_err();
        assert_eq!(
            err,
            SchedError::UnschedulableJob {
                job: "job0".into(),
                soc: soc.name.clone(),
            }
        );
        assert!(err.to_string().contains("cannot run on any PU"));
    }

    #[test]
    fn duplicate_ids_are_a_typed_error() {
        let soc = SocConfig::xavier();
        let jobs = vec![small_job(3, 0, 1.0, 100.0), small_job(3, 10, 1.0, 100.0)];
        let mut policy = ObliviousGreedy;
        let err =
            run_schedule(&soc, "unit", &jobs, &mut policy, &SchedConfig::quick()).unwrap_err();
        assert_eq!(err, SchedError::DuplicateJobId { id: 3 });
    }
}
