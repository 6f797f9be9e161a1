//! Placement policies.
//!
//! A policy sees a snapshot of the system — free and busy PUs, the queue of
//! arrived jobs with per-PU standalone estimates, and the kernels currently
//! resident — and returns placement assignments. Four policies are
//! provided, in increasing order of contention awareness:
//!
//! * [`RoundRobin`] — cycles through the PUs, ignoring both speed and
//!   contention;
//! * [`ObliviousGreedy`] — picks the PU with the fastest *standalone* time,
//!   the classic heterogeneity-aware but contention-oblivious baseline;
//! * [`PccsPolicy`] — scores each candidate placement with the PCCS
//!   slowdown model (Section 1 of the paper: "a scheduler can use the model
//!   to decide which processor runs which kernel"): predicted finish time
//!   of the candidate plus the predicted delay inflicted on residents;
//! * [`OraclePolicy`] — the same decision structure, but costs come from
//!   short co-run simulations instead of model predictions — an upper
//!   bound on what contention-aware placement can achieve.

use pccs_core::{PccsModel, SlowdownModel};
use pccs_soc::kernel::KernelDesc;
use pccs_soc::pu::PuKind;
use pccs_soc::soc::SocConfig;
use pccs_workloads::calibrate::{build_models, CalibrationConfig};
use std::collections::BTreeMap;

/// Floor for predicted relative speeds, to keep costs finite.
const MIN_RS_PCT: f64 = 0.5;

/// Floor for measured rates in lines per cycle.
const MIN_RATE: f64 = 1e-9;

/// One PU as the policy sees it.
#[derive(Debug, Clone)]
pub struct PuSlot {
    /// Index into [`SocConfig::pus`].
    pub pu_idx: usize,
    /// PU class.
    pub kind: PuKind,
    /// PU display name.
    pub name: String,
    /// Whether the PU is idle.
    pub free: bool,
    /// Estimated cycles until the PU frees (0 when free), from the
    /// residents' remaining work at standalone rates — an optimistic,
    /// contention-oblivious estimate available to every policy.
    pub est_free_in: f64,
}

/// Standalone estimates of one phase of a candidate job on one PU.
#[derive(Debug, Clone)]
pub struct PhaseEstimate {
    /// The kernel the phase runs on this PU.
    pub kernel: KernelDesc,
    /// Work in lines.
    pub work_lines: f64,
    /// Measured standalone work rate on this PU, lines per cycle.
    pub standalone_rate: f64,
    /// Measured standalone bandwidth demand on this PU, GB/s — the model
    /// input `x` of the paper.
    pub demand_gbps: f64,
}

/// A candidate (job, PU) pairing with its standalone profile.
#[derive(Debug, Clone)]
pub struct PlacementOption {
    /// Index of the PU.
    pub pu_idx: usize,
    /// Total standalone execution time across phases, cycles.
    pub standalone_cycles: f64,
    /// Per-phase estimates.
    pub phases: Vec<PhaseEstimate>,
}

impl PlacementOption {
    /// Time-weighted mean standalone bandwidth demand across phases, GB/s —
    /// the single-number pressure this job adds to co-runners.
    pub fn mean_demand_gbps(&self) -> f64 {
        let mut weighted = 0.0;
        let mut time = 0.0;
        for ph in &self.phases {
            let t = ph.work_lines / ph.standalone_rate.max(MIN_RATE);
            weighted += ph.demand_gbps * t;
            time += t;
        }
        if time <= 0.0 {
            0.0
        } else {
            weighted / time
        }
    }
}

/// An arrived, not-yet-placed job.
#[derive(Debug, Clone)]
pub struct PendingJob {
    /// Job id.
    pub job_id: usize,
    /// Job name.
    pub name: String,
    /// Arrival time, cycles.
    pub arrival: u64,
    /// Deadline, if any.
    pub deadline: Option<u64>,
    /// Priority (larger first).
    pub priority: u32,
    /// One option per eligible PU (free or busy), ordered by PU index.
    pub options: Vec<PlacementOption>,
}

impl PendingJob {
    /// The option targeting PU `pu_idx`, if the job is eligible there.
    pub fn option_for(&self, pu_idx: usize) -> Option<&PlacementOption> {
        self.options.iter().find(|o| o.pu_idx == pu_idx)
    }
}

/// A job currently executing on a PU.
#[derive(Debug, Clone)]
pub struct Resident {
    /// The PU it occupies.
    pub pu_idx: usize,
    /// Job id.
    pub job_id: usize,
    /// The kernel of its current phase on that PU.
    pub kernel: KernelDesc,
    /// Standalone bandwidth demand of that kernel on that PU, GB/s.
    pub demand_gbps: f64,
    /// Standalone work rate on that PU, lines per cycle.
    pub standalone_rate: f64,
    /// Remaining work of the current phase, lines.
    pub remaining_lines: f64,
}

/// The scheduling snapshot a policy decides on.
#[derive(Debug, Clone)]
pub struct DecisionInput {
    /// Current time, cycles.
    pub now: f64,
    /// All PUs of the SoC.
    pub slots: Vec<PuSlot>,
    /// Arrived, unplaced jobs in arrival order.
    pub queue: Vec<PendingJob>,
    /// Jobs currently executing.
    pub residents: Vec<Resident>,
}

impl DecisionInput {
    /// The slot of PU `pu_idx`.
    ///
    /// # Panics
    ///
    /// Panics if the index is not a PU of the snapshot.
    pub fn slot(&self, pu_idx: usize) -> &PuSlot {
        self.slots
            .iter()
            .find(|s| s.pu_idx == pu_idx)
            .unwrap_or_else(|| panic!("no slot for PU {pu_idx}"))
    }

    /// Queue positions sorted for service: priority descending, then
    /// arrival, then id — the order every bundled policy scans in.
    pub fn service_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.queue.len()).collect();
        order.sort_by(|&a, &b| {
            let (ja, jb) = (&self.queue[a], &self.queue[b]);
            jb.priority
                .cmp(&ja.priority)
                .then(ja.arrival.cmp(&jb.arrival))
                .then(ja.job_id.cmp(&jb.job_id))
        });
        order
    }

    /// The pick an idle machine falls back on when a policy places nothing:
    /// the first job in service order on its fastest standalone PU, costed
    /// at that standalone time. `None` when the queue is empty.
    pub fn fallback(&self) -> Option<Assignment> {
        let job = &self.queue[*self.service_order().first()?];
        let option = job
            .options
            .iter()
            .min_by(|a, b| a.standalone_cycles.total_cmp(&b.standalone_cycles))?;
        Some(Assignment {
            job_id: job.job_id,
            pu_idx: option.pu_idx,
            predicted_cost: option.standalone_cycles,
        })
    }
}

/// A placement decision: run `job_id` on `pu_idx` now.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// The job to place.
    pub job_id: usize,
    /// The PU to place it on.
    pub pu_idx: usize,
    /// The cost the policy predicted for this placement (policy-specific
    /// units; recorded for decision telemetry).
    pub predicted_cost: f64,
}

/// Measurement access a policy may use: short co-run simulations of
/// candidate placements ("what rate would each PU sustain?"). Results are
/// cached by the engine, so repeated probes of the same placement set are
/// free.
pub trait Probe {
    /// Simulated co-run of the given (PU, kernel) placements; returns the
    /// sustained work rate of each placed PU in lines per cycle.
    fn corun_rates(&mut self, placements: &[(usize, KernelDesc)]) -> BTreeMap<usize, f64>;
}

/// A placement policy.
pub trait Policy {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Decides which queued jobs to place on which free PUs. Returning no
    /// assignment for a job means it waits for a better slot.
    fn decide(&mut self, input: &DecisionInput, probe: &mut dyn Probe) -> Vec<Assignment>;

    /// The contention-region label of a standalone demand on PU `pu_idx`
    /// under this policy's model view, used as audit-ledger provenance.
    /// Model-free policies report `"-"`.
    fn region_label(&self, _pu_idx: usize, _demand_gbps: f64) -> &'static str {
        "-"
    }
}

/// Tracks how long each busy PU is expected to stay busy during one
/// decision round: the engine's optimistic estimate, plus the standalone
/// time of every job assigned to or queued behind the PU this round.
struct Backlog<'a> {
    input: &'a DecisionInput,
    extra: BTreeMap<usize, f64>,
}

impl<'a> Backlog<'a> {
    fn new(input: &'a DecisionInput) -> Self {
        Self {
            input,
            extra: BTreeMap::new(),
        }
    }

    /// Estimated cycles until PU `pu_idx` has drained its (round-local)
    /// backlog.
    fn until_free(&self, pu_idx: usize) -> f64 {
        self.input.slot(pu_idx).est_free_in + self.extra.get(&pu_idx).copied().unwrap_or(0.0)
    }

    /// The cheapest wait-then-run-alone estimate among the job's options on
    /// PUs outside `free`: `(pu, est_free + standalone)`.
    fn best_wait(&self, job: &PendingJob, free: &[usize]) -> Option<(usize, f64)> {
        job.options
            .iter()
            .filter(|o| !free.contains(&o.pu_idx))
            .map(|o| (o.pu_idx, self.until_free(o.pu_idx) + o.standalone_cycles))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Charges `cycles` of additional busy time onto PU `pu_idx`.
    fn charge(&mut self, pu_idx: usize, cycles: f64) {
        *self.extra.entry(pu_idx).or_insert(0.0) += cycles;
    }

    /// Lets `job` wait: charges its standalone time onto the PU it would
    /// queue on, so later jobs in the round see the longer line.
    fn charge_wait(&mut self, job: &PendingJob, free: &[usize]) {
        if let Some((pu, _)) = self.best_wait(job, free) {
            let std = job
                .option_for(pu)
                .expect("best_wait picked one of the job's options")
                .standalone_cycles;
            self.charge(pu, std);
        }
    }
}

/// Contention- and speed-oblivious baseline: each job takes the next
/// eligible free PU in a rotating scan.
#[derive(Debug, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl Policy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn decide(&mut self, input: &DecisionInput, _probe: &mut dyn Probe) -> Vec<Assignment> {
        let mut free: Vec<usize> = input
            .slots
            .iter()
            .filter(|s| s.free)
            .map(|s| s.pu_idx)
            .collect();
        let mut out = Vec::new();
        for qi in input.service_order() {
            let job = &input.queue[qi];
            let n = input.slots.len();
            let chosen = (0..n)
                .map(|step| input.slots[(self.cursor + step) % n].pu_idx)
                .find(|pu| free.contains(pu) && job.option_for(*pu).is_some());
            if let Some(pu) = chosen {
                let opt = job.option_for(pu).expect("option checked above");
                out.push(Assignment {
                    job_id: job.job_id,
                    pu_idx: pu,
                    predicted_cost: opt.standalone_cycles,
                });
                free.retain(|p| *p != pu);
                self.cursor = (self.cursor + 1) % n;
            }
        }
        out
    }
}

/// Heterogeneity-aware, contention-oblivious greedy: each job takes the
/// free eligible PU with the shortest *standalone* execution time, and
/// waits for a busy PU only when even the optimistic wait-then-run estimate
/// beats the best free option. This is the strongest scheduler one can
/// build without a contention model.
#[derive(Debug, Default)]
pub struct ObliviousGreedy;

impl Policy for ObliviousGreedy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn decide(&mut self, input: &DecisionInput, _probe: &mut dyn Probe) -> Vec<Assignment> {
        let mut free: Vec<usize> = input
            .slots
            .iter()
            .filter(|s| s.free)
            .map(|s| s.pu_idx)
            .collect();
        let mut backlog = Backlog::new(input);
        let mut out = Vec::new();
        for qi in input.service_order() {
            let job = &input.queue[qi];
            let best_free = job
                .options
                .iter()
                .filter(|o| free.contains(&o.pu_idx))
                .min_by(|a, b| a.standalone_cycles.total_cmp(&b.standalone_cycles));
            let Some(opt) = best_free else {
                backlog.charge_wait(job, &free);
                continue;
            };
            let wait = backlog.best_wait(job, &free);
            if wait.is_some_and(|(_, w)| w < opt.standalone_cycles) {
                backlog.charge_wait(job, &free);
                continue; // waiting for a faster PU beats running here now
            }
            out.push(Assignment {
                job_id: job.job_id,
                pu_idx: opt.pu_idx,
                predicted_cost: opt.standalone_cycles,
            });
            backlog.charge(opt.pu_idx, opt.standalone_cycles);
            free.retain(|p| *p != opt.pu_idx);
        }
        out
    }
}

/// A resident as tracked while a contention-aware policy builds up a
/// multi-assignment round: real residents plus jobs assigned earlier in the
/// same round.
#[derive(Debug, Clone)]
struct VirtualResident {
    pu_idx: usize,
    kernel: KernelDesc,
    demand_gbps: f64,
    standalone_rate: f64,
    remaining_std_cycles: f64,
}

/// Scores one candidate placement given the virtual resident set; lower is
/// better. Units are cycles (candidate finish time plus the delay inflicted
/// on residents).
trait PlacementScorer {
    fn score(
        &mut self,
        virt: &[VirtualResident],
        opt: &PlacementOption,
        probe: &mut dyn Probe,
    ) -> f64;
}

/// Folds the contention-window bound into a candidate's finish estimate:
/// residents eventually finish, so contended rates apply only while the
/// longest-running resident (`window` standalone cycles) is still around;
/// after that the candidate runs alone.
fn windowed_finish(contended: f64, standalone: f64, window: f64) -> f64 {
    if contended <= window || contended <= 0.0 {
        contended
    } else {
        // Fraction `window / contended` of the work completes during the
        // window; the rest proceeds at standalone speed.
        window + standalone * (1.0 - window / contended)
    }
}

/// The longest remaining standalone time among residents — the contention
/// window a candidate faces.
fn resident_window(virt: &[VirtualResident]) -> f64 {
    virt.iter()
        .map(|r| r.remaining_std_cycles)
        .fold(0.0, f64::max)
}

/// The shared decision loop of the contention-aware policies: repeatedly
/// pick the globally cheapest (job, free PU) pairing, let a job wait when
/// the optimistic wait-then-run-alone estimate beats its best immediate
/// placement, and fold each assignment into the virtual resident set so
/// later pairings in the same round see its pressure.
fn guided_decide(
    input: &DecisionInput,
    probe: &mut dyn Probe,
    scorer: &mut dyn PlacementScorer,
) -> Vec<Assignment> {
    let mut virt: Vec<VirtualResident> = input
        .residents
        .iter()
        .map(|r| VirtualResident {
            pu_idx: r.pu_idx,
            kernel: r.kernel.clone(),
            demand_gbps: r.demand_gbps,
            standalone_rate: r.standalone_rate,
            remaining_std_cycles: r.remaining_lines / r.standalone_rate.max(MIN_RATE),
        })
        .collect();
    let mut free: Vec<usize> = input
        .slots
        .iter()
        .filter(|s| s.free)
        .map(|s| s.pu_idx)
        .collect();
    let mut backlog = Backlog::new(input);
    let mut remaining: Vec<usize> = input.service_order();
    let mut out = Vec::new();
    while !remaining.is_empty() && !free.is_empty() {
        // Globally cheapest placement among remaining jobs × free PUs.
        let mut best: Option<(usize, usize, f64)> = None; // (queue idx, pu, cost)
        for &qi in &remaining {
            for opt in &input.queue[qi].options {
                if !free.contains(&opt.pu_idx) {
                    continue;
                }
                let cost = scorer.score(&virt, opt, probe);
                if best.is_none_or(|(_, _, c)| cost < c) {
                    best = Some((qi, opt.pu_idx, cost));
                }
            }
        }
        let Some((qi, pu, cost)) = best else { break };
        let job = &input.queue[qi];
        remaining.retain(|&r| r != qi);
        // Would this job rather wait for a busy PU to free?
        let wait = backlog.best_wait(job, &free);
        if wait.is_some_and(|(_, w)| w < cost) {
            backlog.charge_wait(job, &free);
            continue; // job waits; try the next-cheapest pairing
        }
        let opt = job.option_for(pu).expect("cost came from this option");
        let first = &opt.phases[0];
        virt.push(VirtualResident {
            pu_idx: pu,
            kernel: first.kernel.clone(),
            demand_gbps: opt.mean_demand_gbps(),
            standalone_rate: first.standalone_rate,
            remaining_std_cycles: opt.standalone_cycles,
        });
        backlog.charge(pu, opt.standalone_cycles);
        free.retain(|p| *p != pu);
        out.push(Assignment {
            job_id: job.job_id,
            pu_idx: pu,
            predicted_cost: cost,
        });
    }
    out
}

/// Scores placements with per-PU PCCS slowdown models.
struct ModelScorer<'a> {
    models: &'a [Box<dyn SlowdownModel>],
}

impl PlacementScorer for ModelScorer<'_> {
    fn score(
        &mut self,
        virt: &[VirtualResident],
        opt: &PlacementOption,
        _probe: &mut dyn Probe,
    ) -> f64 {
        let external: f64 = virt.iter().map(|r| r.demand_gbps).sum();
        let model = &self.models[opt.pu_idx];
        // Predicted finish time of the candidate: contended while residents
        // last, standalone after.
        let mut contended = 0.0;
        let mut standalone = 0.0;
        for ph in &opt.phases {
            let rs = model
                .relative_speed_pct(ph.demand_gbps, external)
                .max(MIN_RS_PCT);
            let std = ph.work_lines / ph.standalone_rate.max(MIN_RATE);
            contended += std * 100.0 / rs;
            standalone += std;
        }
        let finish = windowed_finish(contended, standalone, resident_window(virt));
        // Predicted delay inflicted on each resident while the candidate
        // overlaps it.
        let added = opt.mean_demand_gbps();
        let mut delay = 0.0;
        for r in virt {
            let m = &self.models[r.pu_idx];
            let ext_old = (external - r.demand_gbps).max(0.0);
            let rs_old = m.relative_speed_pct(r.demand_gbps, ext_old).max(MIN_RS_PCT);
            let rs_new = m
                .relative_speed_pct(r.demand_gbps, ext_old + added)
                .max(MIN_RS_PCT);
            let overlap = r.remaining_std_cycles.min(finish);
            delay += (overlap * (100.0 / rs_new - 100.0 / rs_old)).max(0.0);
        }
        finish + delay
    }
}

/// The PCCS-guided policy: placements minimize predicted completion cost
/// (candidate finish plus resident delays) under the per-PU slowdown
/// models.
pub struct PccsPolicy {
    models: Vec<Box<dyn SlowdownModel>>,
}

impl std::fmt::Debug for PccsPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PccsPolicy")
            .field("models", &self.models.len())
            .finish()
    }
}

impl PccsPolicy {
    /// A policy from one slowdown model per PU, indexed like
    /// [`SocConfig::pus`].
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn new(models: Vec<Box<dyn SlowdownModel>>) -> Self {
        assert!(!models.is_empty(), "one model per PU required");
        Self { models }
    }

    /// The policy armed with the paper's published Xavier model parameters
    /// ([`paper_models`]). Those parameters describe the real Jetson AGX
    /// Xavier; against the repository's simulator, the models that
    /// [`build_models`] calibrates are the faithful choice.
    pub fn paper_xavier(soc: &SocConfig) -> Self {
        Self::new(boxed_models(&paper_models(soc)))
    }
}

/// One slowdown model per PU from the paper's published Xavier parameters
/// (Table 7), mapped by PU class — no calibration cost, suitable for
/// benchmarks.
pub fn paper_models(soc: &SocConfig) -> Vec<PccsModel> {
    soc.pus
        .iter()
        .map(|pu| match pu.kind {
            PuKind::Cpu => PccsModel::xavier_cpu_paper(),
            PuKind::Gpu => PccsModel::xavier_gpu_paper(),
            PuKind::Dla => PccsModel::xavier_dla_paper(),
        })
        .collect()
}

/// Boxes concrete per-PU models for a [`PccsPolicy`] or an admission
/// controller.
pub fn boxed_models(models: &[PccsModel]) -> Vec<Box<dyn SlowdownModel>> {
    models
        .iter()
        .map(|m| Box::new(m.clone()) as Box<dyn SlowdownModel>)
        .collect()
}

/// The calibration sweep used when a policy is constructed through
/// [`all_policies`] or [`policy_by_name`]: the paper's demand/pressure
/// grids at a shortened horizon, single repeat — accurate enough to rank
/// placements, cheap enough for interactive use.
pub fn default_calibration() -> CalibrationConfig {
    CalibrationConfig {
        horizon: 20_000,
        repeats: 1,
        ..CalibrationConfig::default()
    }
}

impl Policy for PccsPolicy {
    fn name(&self) -> &'static str {
        "pccs"
    }

    fn region_label(&self, pu_idx: usize, demand_gbps: f64) -> &'static str {
        self.models
            .get(pu_idx)
            .map_or("-", |m| m.region_label(demand_gbps))
    }

    fn decide(&mut self, input: &DecisionInput, probe: &mut dyn Probe) -> Vec<Assignment> {
        for slot in &input.slots {
            assert!(
                slot.pu_idx < self.models.len(),
                "no model for PU {}",
                slot.pu_idx
            );
        }
        let mut scorer = ModelScorer {
            models: &self.models,
        };
        guided_decide(input, probe, &mut scorer)
    }
}

/// Scores placements by short co-run simulations.
#[derive(Debug, Default)]
struct SimScorer;

impl PlacementScorer for SimScorer {
    fn score(
        &mut self,
        virt: &[VirtualResident],
        opt: &PlacementOption,
        probe: &mut dyn Probe,
    ) -> f64 {
        let base: Vec<(usize, KernelDesc)> =
            virt.iter().map(|r| (r.pu_idx, r.kernel.clone())).collect();
        let base_rates = if base.is_empty() {
            BTreeMap::new()
        } else {
            probe.corun_rates(&base)
        };
        // Measured finish time of the candidate: contended while residents
        // last, standalone after.
        let mut contended = 0.0;
        let mut standalone = 0.0;
        let mut first_rates = None;
        for (i, ph) in opt.phases.iter().enumerate() {
            let mut placements = base.clone();
            placements.push((opt.pu_idx, ph.kernel.clone()));
            let rates = probe.corun_rates(&placements);
            if i == 0 {
                first_rates = Some(rates.clone());
            }
            let rate = rates.get(&opt.pu_idx).copied().unwrap_or(0.0).max(MIN_RATE);
            contended += ph.work_lines / rate;
            standalone += ph.work_lines / ph.standalone_rate.max(MIN_RATE);
        }
        let finish = windowed_finish(contended, standalone, resident_window(virt));
        // Measured delay inflicted on the residents while the candidate's
        // first phase overlaps them.
        let first_rates = first_rates.expect("options have at least one phase");
        let mut delay = 0.0;
        for r in virt {
            let rate_old = base_rates
                .get(&r.pu_idx)
                .copied()
                .unwrap_or(r.standalone_rate)
                .max(MIN_RATE);
            let rate_new = first_rates
                .get(&r.pu_idx)
                .copied()
                .unwrap_or(rate_old)
                .max(MIN_RATE);
            let slow_old = r.standalone_rate / rate_old;
            let slow_new = r.standalone_rate / rate_new;
            let overlap = r.remaining_std_cycles.min(finish);
            delay += (overlap * (slow_new - slow_old)).max(0.0);
        }
        finish + delay
    }
}

/// The oracle: the same decision structure as [`PccsPolicy`], with costs
/// measured by short co-run simulations of every candidate placement —
/// scheduling with perfect (if expensively obtained) contention knowledge.
#[derive(Debug, Default)]
pub struct OraclePolicy;

impl Policy for OraclePolicy {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn decide(&mut self, input: &DecisionInput, probe: &mut dyn Probe) -> Vec<Assignment> {
        let mut scorer = SimScorer;
        guided_decide(input, probe, &mut scorer)
    }
}

/// All four bundled policies, in report order: the two oblivious baselines,
/// then the model-guided policy, then the oracle.
///
/// # Panics
///
/// Panics if calibrating the PCCS policy's models fails — on the bundled
/// SoC presets it does not.
pub fn all_policies(soc: &SocConfig) -> Vec<Box<dyn Policy>> {
    ["round-robin", "greedy", "pccs", "oracle"]
        .iter()
        .map(|name| policy_by_name(soc, name).expect("bundled policy"))
        .collect()
}

/// A policy by CLI name (`round-robin`/`rr`, `greedy`, `pccs`, `oracle`).
/// The PCCS policy gets models calibrated by [`build_models`] under
/// [`default_calibration`].
///
/// # Panics
///
/// Panics if that calibration fails — on the bundled SoC presets it does
/// not.
pub fn policy_by_name(soc: &SocConfig, name: &str) -> Option<Box<dyn Policy>> {
    match name.to_ascii_lowercase().as_str() {
        "round-robin" | "rr" => Some(Box::new(RoundRobin::default())),
        "greedy" | "oblivious" => Some(Box::new(ObliviousGreedy)),
        "pccs" => {
            let models =
                build_models(soc, &default_calibration()).unwrap_or_else(|e| panic!("{e}"));
            Some(Box::new(PccsPolicy::new(boxed_models(&models))))
        }
        "oracle" => Some(Box::new(OraclePolicy)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NoProbe;
    impl Probe for NoProbe {
        fn corun_rates(&mut self, placements: &[(usize, KernelDesc)]) -> BTreeMap<usize, f64> {
            // A crude stand-in: every placed PU sustains rate 1 divided by
            // the number of co-runners (pure bandwidth sharing).
            let n = placements.len() as f64;
            placements.iter().map(|(pu, _)| (*pu, 1.0 / n)).collect()
        }
    }

    fn slot(pu_idx: usize, kind: PuKind, free: bool) -> PuSlot {
        PuSlot {
            pu_idx,
            kind,
            name: format!("{kind}"),
            free,
            est_free_in: if free { 0.0 } else { 10_000.0 },
        }
    }

    fn pending(job_id: usize, arrival: u64, options: Vec<(usize, f64, f64)>) -> PendingJob {
        PendingJob {
            job_id,
            name: format!("job{job_id}"),
            arrival,
            deadline: None,
            priority: 0,
            options: options
                .into_iter()
                .map(|(pu_idx, cycles, demand)| PlacementOption {
                    pu_idx,
                    standalone_cycles: cycles,
                    phases: vec![PhaseEstimate {
                        kernel: KernelDesc::memory_streaming("k", 1.0),
                        work_lines: cycles,
                        standalone_rate: 1.0,
                        demand_gbps: demand,
                    }],
                })
                .collect(),
        }
    }

    fn two_pu_input(queue: Vec<PendingJob>) -> DecisionInput {
        DecisionInput {
            now: 0.0,
            slots: vec![slot(0, PuKind::Cpu, true), slot(1, PuKind::Gpu, true)],
            queue,
            residents: vec![],
        }
    }

    #[test]
    fn round_robin_cycles_pus() {
        let mut rr = RoundRobin::default();
        let input = two_pu_input(vec![
            pending(0, 0, vec![(0, 100.0, 10.0), (1, 100.0, 10.0)]),
            pending(1, 1, vec![(0, 100.0, 10.0), (1, 100.0, 10.0)]),
        ]);
        let a = rr.decide(&input, &mut NoProbe);
        assert_eq!(a.len(), 2);
        assert_ne!(a[0].pu_idx, a[1].pu_idx);
    }

    #[test]
    fn greedy_picks_fastest_standalone() {
        let mut g = ObliviousGreedy;
        let input = two_pu_input(vec![pending(0, 0, vec![(0, 900.0, 10.0), (1, 80.0, 60.0)])]);
        let a = g.decide(&input, &mut NoProbe);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].pu_idx, 1, "GPU is 10x faster standalone");
    }

    #[test]
    fn greedy_waits_for_a_much_faster_busy_pu() {
        let mut g = ObliviousGreedy;
        let input = DecisionInput {
            now: 0.0,
            slots: vec![
                slot(0, PuKind::Cpu, true),
                PuSlot {
                    est_free_in: 50.0,
                    ..slot(1, PuKind::Gpu, false)
                },
            ],
            queue: vec![pending(0, 0, vec![(0, 10_000.0, 10.0), (1, 80.0, 60.0)])],
            residents: vec![],
        };
        let a = g.decide(&input, &mut NoProbe);
        assert!(a.is_empty(), "waiting 50 cycles beats 10k on the CPU");
    }

    #[test]
    fn backlog_makes_successive_waiters_queue_deeper() {
        // Two jobs that would both wait on the same busy GPU: the second
        // must see the first's standalone time added to the wait estimate.
        let input = DecisionInput {
            now: 0.0,
            slots: vec![PuSlot {
                est_free_in: 100.0,
                ..slot(1, PuKind::Gpu, false)
            }],
            queue: vec![
                pending(0, 0, vec![(1, 80.0, 10.0)]),
                pending(1, 1, vec![(1, 80.0, 10.0)]),
            ],
            residents: vec![],
        };
        let mut backlog = Backlog::new(&input);
        assert_eq!(backlog.best_wait(&input.queue[0], &[]).unwrap().1, 180.0);
        backlog.charge_wait(&input.queue[0], &[]);
        assert_eq!(backlog.best_wait(&input.queue[1], &[]).unwrap().1, 260.0);
    }

    #[test]
    fn windowed_finish_interpolates() {
        // Entirely inside the contention window.
        assert!((windowed_finish(100.0, 80.0, 200.0) - 100.0).abs() < 1e-12);
        // Half the work contended at 2x slowdown, half standalone.
        let f = windowed_finish(200.0, 100.0, 100.0);
        assert!((f - 150.0).abs() < 1e-12);
        // No residents: standalone.
        assert!((windowed_finish(100.0, 100.0, 0.0) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn pccs_avoids_crowding_a_saturated_bus() {
        // Two long memory hogs and two free PUs: the PCCS policy should
        // place the first and let the second wait out the heavy contention
        // it would cause. The oblivious greedy packs both immediately.
        let hog = |id: usize| pending(id, 0, vec![(0, 10_000.0, 120.0), (1, 10_000.0, 120.0)]);
        let input = two_pu_input(vec![hog(0), hog(1)]);
        let mut pccs = PccsPolicy::paper_xavier(&SocConfig::xavier());
        let a = pccs.decide(&input, &mut NoProbe);
        assert_eq!(a.len(), 1, "second hog should wait, got {a:?}");
        let mut g = ObliviousGreedy;
        let b = g.decide(&input, &mut NoProbe);
        assert_eq!(b.len(), 2, "greedy is oblivious and packs both");
    }

    #[test]
    fn oracle_uses_probe_measurements() {
        let input = two_pu_input(vec![pending(
            0,
            0,
            vec![(0, 500.0, 20.0), (1, 500.0, 20.0)],
        )]);
        let mut oracle = OraclePolicy;
        let a = oracle.decide(&input, &mut NoProbe);
        assert_eq!(a.len(), 1);
        // Sole job, sole resident set: measured rate 1.0 → cost = work/rate.
        assert!((a[0].predicted_cost - 500.0).abs() < 1e-6);
    }

    #[test]
    fn priority_outranks_arrival() {
        let mut early = pending(0, 0, vec![(1, 100.0, 10.0)]);
        early.priority = 0;
        let mut urgent = pending(1, 5, vec![(1, 100.0, 10.0)]);
        urgent.priority = 1;
        let input = two_pu_input(vec![early, urgent]);
        let order = input.service_order();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn mean_demand_weights_by_phase_time() {
        let opt = PlacementOption {
            pu_idx: 0,
            standalone_cycles: 300.0,
            phases: vec![
                PhaseEstimate {
                    kernel: KernelDesc::memory_streaming("a", 1.0),
                    work_lines: 100.0,
                    standalone_rate: 1.0,
                    demand_gbps: 10.0,
                },
                PhaseEstimate {
                    kernel: KernelDesc::memory_streaming("b", 1.0),
                    work_lines: 200.0,
                    standalone_rate: 1.0,
                    demand_gbps: 70.0,
                },
            ],
        };
        // (10*100 + 70*200) / 300 = 50.
        assert!((opt.mean_demand_gbps() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn policy_by_name_resolves_aliases() {
        let soc = SocConfig::xavier();
        for name in ["rr", "round-robin", "greedy", "pccs", "oracle"] {
            assert!(policy_by_name(&soc, name).is_some(), "{name}");
        }
        assert!(policy_by_name(&soc, "fifo").is_none());
    }
}
