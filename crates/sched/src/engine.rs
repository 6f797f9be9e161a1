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
//! The replay core — `ResolvedJob`s and their `Queued` views, `InFlight`
//! jobs, `build_input`, `any_free` and `advance` — is public because the
//! online serving loop (`pccs-serve`) runs on it too; only arrival
//! handling and completion bookkeeping differ between the two engines.
//! Its steady path clones no job or kernel and looks up no name: kernels
//! are interned when a job enters the engine, the decision snapshot
//! borrows from the jobs and is refilled in place each round, and co-run
//! rates are read from the cache without copying.

use crate::error::SchedError;
use crate::job::Job;
use crate::policy::{DecisionInput, PhaseEstimate, Policy, Probe, PuSlot, Resident};
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

/// Exact identity of a kernel in the probe's interner: its interned name
/// and the bits of its four parameters. Two kernels share a key exactly
/// when they are equal (`KernelDesc: PartialEq`), so distinct kernels
/// never alias onto one cached simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct KernelKey {
    name: usize,
    params: [u64; 4],
}

/// Dense id of a kernel interned by a [`SimProbe`]: two kernels get the
/// same id exactly when they are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct KernelId(usize);

/// The engine's probe: co-run rate measurements through [`CoRunSim`],
/// cached by placement set.
///
/// Kernels are interned once, when a job enters the engine
/// ([`ResolvedJob::new`]); decision rounds and time advances then look
/// standalone profiles and co-run rates up by [`KernelId`], with no name
/// lookup. The interner and both caches grow only with the number of
/// distinct kernels (and placement sets of them).
#[derive(Debug)]
pub struct SimProbe<'a> {
    soc: &'a SocConfig,
    config: CoRunConfig,
    /// Interned kernel names; a name's id is its insertion index.
    names: BTreeMap<String, usize>,
    /// Interned kernels; a kernel's id indexes `kernels`.
    ids: BTreeMap<KernelKey, KernelId>,
    kernels: Vec<KernelDesc>,
    /// Standalone (work rate, bandwidth demand) by `[kernel id][pu]`,
    /// measured on first use.
    standalone_cache: Vec<Vec<Option<(f64, f64)>>>,
    /// Placement sets, sorted by PU, → index into `corun_rates`.
    corun_cache: BTreeMap<Vec<(usize, KernelId)>, usize>,
    /// Co-run rates by PU, one entry per cached placement set.
    corun_rates: Vec<BTreeMap<usize, f64>>,
    /// Scratch: the placement set of the current co-run lookup, in the
    /// caller's order and sorted by PU.
    placed: Vec<(usize, KernelId)>,
    sorted: Vec<(usize, KernelId)>,
}

impl<'a> SimProbe<'a> {
    /// A probe against `soc` at the given measurement fidelity.
    pub fn new(soc: &'a SocConfig, config: CoRunConfig) -> Self {
        Self {
            soc,
            config,
            names: BTreeMap::new(),
            ids: BTreeMap::new(),
            kernels: Vec::new(),
            standalone_cache: Vec::new(),
            corun_cache: BTreeMap::new(),
            corun_rates: Vec::new(),
            placed: Vec::new(),
            sorted: Vec::new(),
        }
    }

    /// The id of `kernel`, interning it on first sight.
    pub fn intern(&mut self, kernel: &KernelDesc) -> KernelId {
        let name = match self.names.get(kernel.name.as_str()) {
            Some(&id) => id,
            None => {
                let id = self.names.len();
                self.names.insert(kernel.name.clone(), id);
                id
            }
        };
        let key = KernelKey {
            name,
            params: [
                kernel.ops_per_byte.to_bits(),
                kernel.row_locality.to_bits(),
                kernel.write_fraction.to_bits(),
                kernel.parallel_efficiency.to_bits(),
            ],
        };
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = KernelId(self.kernels.len());
        self.ids.insert(key, id);
        self.kernels.push(kernel.clone());
        self.standalone_cache.push(vec![None; self.soc.pus.len()]);
        id
    }

    /// Standalone (work rate in lines/cycle, bandwidth demand in GB/s) of
    /// `kernel` on PU `pu_idx`; cached.
    pub fn standalone(&mut self, pu_idx: usize, kernel: &KernelDesc) -> (f64, f64) {
        let id = self.intern(kernel);
        self.standalone_of(pu_idx, id)
    }

    /// [`SimProbe::standalone`] of an interned kernel.
    pub fn standalone_of(&mut self, pu_idx: usize, id: KernelId) -> (f64, f64) {
        if let Some(hit) = self.standalone_cache[id.0][pu_idx] {
            return hit;
        }
        let profile = CoRunSim::standalone(self.soc, pu_idx, &self.kernels[id.0], &self.config);
        let result = (profile.lines_per_cycle, profile.bw_gbps);
        self.standalone_cache[id.0][pu_idx] = Some(result);
        result
    }

    /// Co-run rates of interned (PU, kernel) placements, by PU; simulated
    /// in the given placement order on the set's first lookup, borrowed
    /// from the cache after that.
    pub fn corun_rates_of(
        &mut self,
        placements: impl IntoIterator<Item = (usize, KernelId)>,
    ) -> &BTreeMap<usize, f64> {
        self.placed.clear();
        self.placed.extend(placements);
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.placed);
        self.sorted.sort_unstable();
        let hit = self.corun_cache.get(self.sorted.as_slice()).copied();
        let idx = hit.unwrap_or_else(|| {
            let mut sim = CoRunSim::with_config(self.soc, self.config.clone());
            for &(pu, id) in &self.placed {
                sim.place(Placement::kernel(pu, self.kernels[id.0].clone()));
            }
            let out = sim.execute();
            let rates = out
                .per_pu
                .iter()
                .map(|(pu, r)| (*pu, r.lines_per_cycle))
                .collect();
            self.corun_rates.push(rates);
            self.corun_cache
                .insert(self.sorted.clone(), self.corun_rates.len() - 1);
            self.corun_rates.len() - 1
        });
        &self.corun_rates[idx]
    }
}

impl Probe for SimProbe<'_> {
    fn corun_rates(&mut self, placements: &[(usize, KernelDesc)]) -> BTreeMap<usize, f64> {
        let ids: Vec<(usize, KernelId)> = placements
            .iter()
            .map(|(pu, kernel)| (*pu, self.intern(kernel)))
            .collect();
        self.corun_rates_of(ids).clone()
    }
}

/// A job with each phase's kernel resolved, per PU of the SoC, to its
/// probe id. Resolved once when the job enters an engine, so decision
/// rounds neither clone kernels nor look them up by name.
#[derive(Debug)]
pub struct ResolvedJob<'j> {
    /// The job.
    pub job: &'j Job,
    /// `[pu_idx]` → each phase's (kernel, id) on that PU, or `None` where
    /// the job cannot run.
    per_pu: Vec<Option<Vec<(&'j KernelDesc, KernelId)>>>,
}

impl<'j> ResolvedJob<'j> {
    /// Resolves `job` against the PUs of `soc`, interning its kernels.
    pub fn new(probe: &mut SimProbe, soc: &SocConfig, job: &'j Job) -> Self {
        let per_pu = soc
            .pus
            .iter()
            .map(|pu| {
                if !job.runs_on(pu.kind) {
                    return None;
                }
                job.phases
                    .iter()
                    .map(|ph| {
                        ph.kernel_for(pu.kind)
                            .map(|kernel| (kernel, probe.intern(kernel)))
                    })
                    .collect()
            })
            .collect();
        Self { job, per_pu }
    }

    /// Each phase's (kernel, id) on PU `pu_idx`, or `None` when the job
    /// cannot run there (or the SoC has no such PU).
    pub fn on(&self, pu_idx: usize) -> Option<&[(&'j KernelDesc, KernelId)]> {
        self.per_pu.get(pu_idx)?.as_deref()
    }
}

/// A queued job as a decision round sees it: a resolved job whose every
/// phase carries `scale` times its work, under its own identity. A plain
/// job has scale 1; a serving bundle of `n` same-class requests is the
/// class template at scale `n`.
#[derive(Debug, Clone, Copy)]
pub struct Queued<'j> {
    /// The job the phases, name and priority come from.
    pub job: &'j ResolvedJob<'j>,
    /// Multiplier on every phase's work.
    pub scale: f64,
    /// Id the policy's assignments name.
    pub id: usize,
    /// Arrival time, cycles.
    pub arrival: u64,
    /// Deadline, if any.
    pub deadline: Option<u64>,
}

impl<'j> Queued<'j> {
    /// `job` as it stands: scale 1, its own id, arrival and deadline.
    pub fn plain(job: &'j ResolvedJob<'j>) -> Self {
        Self {
            job,
            scale: 1.0,
            id: job.job.id,
            arrival: job.job.arrival,
            deadline: job.job.deadline,
        }
    }
}

/// A job in flight on one PU, carrying caller data (`tag`) to its
/// completion. Both the offline replay and the serving loop run on it.
#[derive(Debug)]
pub struct InFlight<'j, T> {
    /// The job its phases come from.
    pub job: &'j Job,
    /// The queued id it was placed under.
    pub id: usize,
    /// Multiplier on every phase's work.
    scale: f64,
    /// Each phase's (kernel, id) on `pu_idx`.
    kernels: &'j [(&'j KernelDesc, KernelId)],
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

impl<'j, T> InFlight<'j, T> {
    /// `queued` placed on PU `pu_idx` at cycle `start`, at the top of its
    /// first phase; `None` when the job cannot run on that PU.
    pub fn new(queued: Queued<'j>, pu_idx: usize, start: f64, tag: T) -> Option<Self> {
        let kernels = queued.job.on(pu_idx)?;
        let job = queued.job.job;
        Some(Self {
            job,
            id: queued.id,
            scale: queued.scale,
            kernels,
            pu_idx,
            phase: 0,
            remaining_lines: job.phases[0].work_lines * queued.scale,
            start,
            tag,
        })
    }

    /// Work of phase `phase`, lines.
    fn work(&self, phase: usize) -> f64 {
        self.job.phases[phase].work_lines * self.scale
    }

    /// The kernel of the current phase on this job's PU.
    pub fn kernel(&self) -> &'j KernelDesc {
        self.kernels[self.phase].0
    }

    /// The probe id of [`InFlight::kernel`].
    pub fn kernel_id(&self) -> KernelId {
        self.kernels[self.phase].1
    }

    /// Cycles until the job finishes at standalone rates: the current
    /// phase's remaining work plus every later phase.
    pub fn drain_cycles(&self, probe: &mut SimProbe) -> f64 {
        let (rate, _) = probe.standalone_of(self.pu_idx, self.kernel_id());
        let mut left = self.remaining_lines / rate.max(MIN_RATE);
        for phase in self.phase + 1..self.kernels.len() {
            let (rate, _) = probe.standalone_of(self.pu_idx, self.kernels[phase].1);
            left += self.work(phase) / rate.max(MIN_RATE);
        }
        left
    }

    /// Standalone execution time of the whole job on its PU, summed over
    /// phases.
    pub fn standalone_cycles(&self, probe: &mut SimProbe) -> f64 {
        (0..self.kernels.len())
            .map(|phase| {
                let (rate, _) = probe.standalone_of(self.pu_idx, self.kernels[phase].1);
                self.work(phase) / rate.max(MIN_RATE)
            })
            .sum()
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

/// Whether some PU of `soc` has no job in flight.
pub fn any_free<T>(soc: &SocConfig, running: &[InFlight<T>]) -> bool {
    (0..soc.pus.len()).any(|i| running.iter().all(|r| r.pu_idx != i))
}

/// The `i`-th entry of `v`: the one an earlier round left there, with its
/// allocations, or a fresh default appended.
fn reuse<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if i == v.len() {
        v.push(T::default());
    }
    &mut v[i]
}

/// Rebuilds `input` as the policy's decision snapshot at cycle `now`:
/// every PU's slot, the queued jobs with their per-PU standalone
/// estimates, and the residents. The snapshot borrows names and kernels
/// from `soc` and the jobs, and refills the vectors `input` kept from the
/// previous round, so a steady-state round allocates nothing.
pub fn build_input<'a, T>(
    input: &mut DecisionInput<'a>,
    probe: &mut SimProbe,
    soc: &'a SocConfig,
    now: f64,
    queue: impl IntoIterator<Item = Queued<'a>>,
    running: &[InFlight<'a, T>],
) {
    input.now = now;
    input.slots.clear();
    for (pu_idx, pu) in soc.pus.iter().enumerate() {
        let resident = running.iter().find(|r| r.pu_idx == pu_idx);
        input.slots.push(PuSlot {
            pu_idx,
            kind: pu.kind,
            name: &pu.name,
            free: resident.is_none(),
            est_free_in: resident.map_or(0.0, |r| r.drain_cycles(probe)),
        });
    }
    let mut queued = 0;
    for q in queue {
        let pending = reuse(&mut input.queue, queued);
        queued += 1;
        pending.job_id = q.id;
        pending.name = &q.job.job.name;
        pending.arrival = q.arrival;
        pending.deadline = q.deadline;
        pending.priority = q.job.job.priority;
        let mut options = 0;
        for pu_idx in 0..soc.pus.len() {
            let Some(kernels) = q.job.on(pu_idx) else {
                continue;
            };
            let option = reuse(&mut pending.options, options);
            options += 1;
            option.pu_idx = pu_idx;
            option.phases.clear();
            for (ph, &(kernel, id)) in q.job.job.phases.iter().zip(kernels) {
                let (rate, bw) = probe.standalone_of(pu_idx, id);
                option.phases.push(PhaseEstimate {
                    kernel,
                    work_lines: ph.work_lines * q.scale,
                    standalone_rate: rate,
                    demand_gbps: bw,
                });
            }
            option.standalone_cycles = option
                .phases
                .iter()
                .map(|p| p.work_lines / p.standalone_rate.max(MIN_RATE))
                .sum();
        }
        pending.options.truncate(options);
    }
    input.queue.truncate(queued);
    input.residents.clear();
    for r in running {
        let (rate, bw) = probe.standalone_of(r.pu_idx, r.kernel_id());
        input.residents.push(Resident {
            pu_idx: r.pu_idx,
            job_id: r.id,
            kernel: r.kernel(),
            demand_gbps: bw,
            standalone_rate: rate,
            remaining_lines: r.remaining_lines,
        });
    }
}

/// Runs the current placement from `*now` to its next event. Measures the
/// co-run rates of `running`, steps `*now` to the first phase boundary or
/// completion, or to `until` when that comes first and lies ahead, and
/// moves jobs past phase boundaries. Appends the finished jobs, removed
/// from `running`, to `finished` in placement order.
///
/// `running` must not be empty.
pub fn advance<'j, T>(
    probe: &mut SimProbe,
    running: &mut Vec<InFlight<'j, T>>,
    now: &mut f64,
    until: f64,
    finished: &mut Vec<InFlight<'j, T>>,
) {
    let rates = probe.corun_rates_of(running.iter().map(|r| (r.pu_idx, r.kernel_id())));
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
    let mut idx = 0;
    while idx < running.len() {
        let r = &mut running[idx];
        r.remaining_lines -= rate_of(r.pu_idx) * dt;
        if r.remaining_lines > WORK_EPSILON {
            idx += 1;
        } else if r.phase + 1 < r.kernels.len() {
            r.phase += 1;
            r.remaining_lines = r.work(r.phase);
            idx += 1;
        } else {
            finished.push(running.remove(idx));
        }
    }
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
    let resolved: Vec<ResolvedJob> = jobs
        .iter()
        .map(|job| ResolvedJob::new(&mut probe, soc, job))
        .collect();
    // Indices into `resolved`, in arrival order; `next` is the first
    // that has not arrived yet.
    let mut arrivals: Vec<usize> = (0..jobs.len()).collect();
    arrivals.sort_by_key(|&j| (jobs[j].arrival, jobs[j].id));
    let mut next = 0usize;
    let arrives = |i: usize| arrivals.get(i).map(|&j| jobs[j].arrival as f64);
    let mut queue: Vec<usize> = Vec::new();
    let mut input = DecisionInput::default();
    let mut running: Vec<InFlight<Placed>> = Vec::new();
    let mut finished: Vec<InFlight<Placed>> = Vec::new();
    let mut outcomes: Vec<JobOutcome> = Vec::new();
    let mut decisions: Vec<DecisionRecord> = Vec::new();
    let mut now = 0.0_f64;
    let mut steps = 0usize;

    while !(next == arrivals.len() && queue.is_empty() && running.is_empty()) {
        steps += 1;
        assert!(
            steps <= cfg.max_steps,
            "scheduler exceeded {} events without finishing (policy {})",
            cfg.max_steps,
            policy.name()
        );
        // Admit arrivals due by now.
        while arrives(next).is_some_and(|t| t <= now) {
            queue.push(arrivals[next]);
            next += 1;
        }
        // Let the policy place onto free PUs. Progress guarantee: when its
        // picks leave the machine idle, the fallback pick runs instead.
        if !queue.is_empty() && any_free(soc, &running) {
            let queued = queue.iter().map(|&j| Queued::plain(&resolved[j]));
            build_input(&mut input, &mut probe, soc, now, queued, &running);
            let fallback = input.fallback().map(|a| (a, true));
            let decided = policy.decide(&input, &mut probe);
            for (a, forced) in decided.into_iter().map(|a| (a, false)).chain(fallback) {
                if forced && !running.is_empty() {
                    break;
                }
                let Some(pos) = queue.iter().position(|&j| jobs[j].id == a.job_id) else {
                    continue; // unknown job; ignore
                };
                let job = &resolved[queue[pos]];
                // Policies may only place eligible jobs on free PUs of
                // the SoC (`on` is `None` for the others).
                let Some(kernels) = job.on(a.pu_idx) else {
                    continue;
                };
                if running.iter().any(|r| r.pu_idx == a.pu_idx) {
                    continue;
                }
                let placed_by = if forced { "forced" } else { policy.name() };
                queue.remove(pos);
                decisions.push(DecisionRecord {
                    at_cycle: now,
                    policy: placed_by.to_owned(),
                    job: job.job.name.clone(),
                    job_id: job.job.id,
                    pu: soc.pus[a.pu_idx].name.clone(),
                    pu_idx: a.pu_idx,
                    predicted_cost: a.predicted_cost,
                    queue_depth: queue.len(),
                });
                let (_, demand) = probe.standalone_of(a.pu_idx, kernels[0].1);
                let tag = Placed {
                    predicted_cost: a.predicted_cost,
                    placed_by,
                    region: policy.region_label(a.pu_idx, demand),
                };
                // `new` is `Some`: eligibility was checked above.
                running.extend(InFlight::new(Queued::plain(job), a.pu_idx, now, tag));
            }
        }
        if running.is_empty() {
            // Nothing to execute: jump to the next arrival.
            match arrives(next) {
                Some(t) => now = now.max(t),
                None => break,
            }
            continue;
        }
        // Advance to the next event: a phase/job completion or an arrival.
        let until = arrives(next).unwrap_or(f64::INFINITY);
        advance(&mut probe, &mut running, &mut now, until, &mut finished);
        for r in finished.drain(..) {
            let standalone = r.standalone_cycles(&mut probe);
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
            let mut standalone_cycles = |pu: usize| -> f64 {
                job.phases
                    .iter()
                    .map(|ph| {
                        let kernel = ph.kernel_for(soc.pus[pu].kind).unwrap();
                        ph.work_lines / probe.standalone(pu, kernel).0.max(MIN_RATE)
                    })
                    .sum()
            };
            let (best_pu, best) = (0..soc.pus.len())
                .map(|pu| (pu, standalone_cycles(pu)))
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
