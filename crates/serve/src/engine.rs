//! The serving loop: a discrete-event scheduler for open-loop request
//! streams.
//!
//! Each run is a pipeline of arrivals → admission → batching → placement →
//! SLO accounting, replayed against the `pccs-soc` co-run simulator on
//! the offline `pccs-sched` engine's replay core (its in-flight jobs,
//! decision snapshots and rate-measured advance):
//!
//! 1. the arrival process is expanded up front from its seed;
//! 2. at every arrival, admission control predicts the request's finish
//!    with the per-PU PCCS models and sheds it if the policy says so;
//! 3. pending requests coalesce into same-class bundles;
//! 4. a `pccs-sched` placement policy decides where bundles run, probing
//!    the co-run simulator through the shared rate cache;
//! 5. completions feed per-class latency histograms, the epoch-boundary
//!    metric publishes, and the drift monitor that recalibrates the
//!    admission model when predictions go stale.
//!
//! Everything downstream of the seed is deterministic, so a run is a pure
//! function of `(soc, classes, config)` — the property the byte-identical
//! JSONL tests pin down.

use crate::admission::{AdmissionController, AdmissionPolicy, CandidateService, PuLoad};
use crate::arrivals::ArrivalProcess;
use crate::batch::{BatchConfig, Bundle, Bundles, PendingRequest};
use crate::error::ServeError;
use crate::recalibrate::DriftMonitor;
use crate::report::{RequestOutcome, ServeReport};
use crate::request::RequestClass;
use crate::slo::{miss_rate_pct, SloAccountant};
use pccs_core::SlowdownModel;
use pccs_sched::engine::{
    advance, any_free, build_input, InFlight, Queued, ResolvedJob, SimProbe, MIN_RATE,
};
use pccs_sched::policy::{DecisionInput, Policy};
use pccs_soc::corun::CoRunConfig;
use pccs_soc::soc::SocConfig;
use pccs_telemetry::audit::AuditRecord;
use pccs_telemetry::Profiler;

/// Serving-loop configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The arrival process driving the run.
    pub arrivals: ArrivalProcess,
    /// Cycles of arrivals to generate; in-flight work drains past this.
    pub duration: u64,
    /// Arrival-process seed (the run's only randomness).
    pub seed: u64,
    /// Admission policy.
    pub admission: AdmissionPolicy,
    /// Request batching parameters.
    pub batch: BatchConfig,
    /// SLO metrics publish period, cycles.
    pub epoch: u64,
    /// Measurement configuration of the co-run rate probes.
    pub probe: CoRunConfig,
    /// Upper bound on serving events before the engine declares a
    /// livelock (defensive; never reached by the bundled policies).
    pub max_events: usize,
    /// Drift-monitor sliding-window length, observations per PU.
    pub drift_window: usize,
    /// Relative drift that triggers a recalibration.
    pub drift_bound: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            arrivals: ArrivalProcess::Poisson {
                rate_per_mcycle: 8.0,
            },
            duration: 2_000_000,
            seed: 42,
            admission: AdmissionPolicy::Open,
            batch: BatchConfig::default(),
            epoch: 250_000,
            probe: CoRunConfig::probe(),
            max_events: 1_000_000,
            drift_window: 8,
            drift_bound: 0.3,
        }
    }
}

impl ServeConfig {
    /// A faster preset for tests and smoke runs: shorter duration and
    /// probe horizon.
    pub fn quick() -> Self {
        Self {
            duration: 600_000,
            epoch: 100_000,
            probe: CoRunConfig::probe().with_horizon(8_000),
            ..Self::default()
        }
    }
}

/// Per-(class, PU) standalone estimates and resolved class templates,
/// computed once per run — request classes are templates, so every
/// request of a class shares them.
struct ClassProfile<'c> {
    /// `[class_idx][pu_idx]` → (standalone cycles, mean demand GB/s), or
    /// `None` when the class cannot run there.
    table: Vec<Vec<Option<(f64, f64)>>>,
    /// `[class_idx]` → admission candidates for one request.
    candidates: Vec<Vec<CandidateService>>,
    /// `[class_idx]` → one queued request's standalone time spread over
    /// its eligible PUs: the optimistic backlog share admission charges
    /// for pending work.
    backlog_share: Vec<Vec<(usize, f64)>>,
    /// `[class_idx]` → the class template, resolved for the probe.
    templates: Vec<ResolvedJob<'c>>,
}

impl<'c> ClassProfile<'c> {
    fn build(probe: &mut SimProbe, soc: &SocConfig, classes: &'c [RequestClass]) -> Self {
        let templates: Vec<ResolvedJob> = classes
            .iter()
            .map(|class| ResolvedJob::new(probe, soc, &class.template))
            .collect();
        let table: Vec<Vec<Option<(f64, f64)>>> = templates
            .iter()
            .map(|template| {
                (0..soc.pus.len())
                    .map(|pu_idx| {
                        let kernels = template.on(pu_idx)?;
                        let mut std_cycles = 0.0;
                        let mut weighted_bw = 0.0;
                        for (ph, &(_, id)) in template.job.phases.iter().zip(kernels) {
                            let (rate, bw) = probe.standalone_of(pu_idx, id);
                            let t = ph.work_lines / rate.max(MIN_RATE);
                            std_cycles += t;
                            weighted_bw += bw * t;
                        }
                        let demand = if std_cycles > 0.0 {
                            weighted_bw / std_cycles
                        } else {
                            0.0
                        };
                        Some((std_cycles, demand))
                    })
                    .collect()
            })
            .collect();
        let candidates = table
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .filter_map(|(pu_idx, entry)| {
                        entry.map(|(standalone_cycles, demand_gbps)| CandidateService {
                            pu_idx,
                            standalone_cycles,
                            demand_gbps,
                        })
                    })
                    .collect()
            })
            .collect();
        let backlog_share = table
            .iter()
            .map(|row| {
                let eligible: Vec<(usize, f64)> = row
                    .iter()
                    .enumerate()
                    .filter_map(|(pu, e)| e.map(|(std, _)| (pu, std)))
                    .collect();
                let n = eligible.len().max(1) as f64;
                eligible
                    .into_iter()
                    .map(|(pu, std)| (pu, std / n))
                    .collect()
            })
            .collect();
        Self {
            table,
            candidates,
            backlog_share,
            templates,
        }
    }

    /// `bundle` as a queued job: its class template at the bundle's size.
    fn queued(&self, bundle: &Bundle) -> Queued<'_> {
        Queued {
            job: &self.templates[bundle.class_idx],
            scale: bundle.size() as f64,
            id: bundle.id,
            arrival: bundle.arrival,
            deadline: bundle.deadline,
        }
    }
}

/// What a bundle in flight carries to completion.
#[derive(Debug)]
struct BundleTag {
    /// Member request ids, in arrival order.
    members: Vec<usize>,
    /// Index into the run's class list.
    class_idx: usize,
    /// Admission-model predicted contended service time at placement,
    /// compared with observed residence by the drift monitor.
    predicted_service: f64,
}

/// The bandwidth pressure residents on *other* PUs put on `pu_idx`.
fn external_pressure(probe: &mut SimProbe, running: &[InFlight<BundleTag>], pu_idx: usize) -> f64 {
    running
        .iter()
        .filter(|r| r.pu_idx != pu_idx)
        .map(|r| probe.standalone_of(r.pu_idx, r.kernel_id()).1)
        .sum()
}

/// Serves the request classes on `soc` under `policy`, with admission
/// control driven by `models` (one per PU).
///
/// # Errors
///
/// Returns a [`ServeError`] when the class list is empty, a class cannot
/// run anywhere on `soc`, or the arrival process is misconfigured.
///
/// # Panics
///
/// Panics if `models` does not cover every PU or the engine exceeds
/// [`ServeConfig::max_events`] without finishing (defensive livelock
/// bound).
pub fn run_serve(
    soc: &SocConfig,
    classes: &[RequestClass],
    policy: &mut dyn Policy,
    models: Vec<Box<dyn SlowdownModel>>,
    cfg: &ServeConfig,
) -> Result<ServeReport, ServeError> {
    if classes.is_empty() {
        return Err(ServeError::EmptyClasses);
    }
    assert!(
        models.len() >= soc.pus.len(),
        "one admission model per PU required"
    );
    for class in classes {
        if !soc.pus.iter().any(|pu| class.runs_on(pu.kind)) {
            return Err(ServeError::UnschedulableClass {
                class: class.name.clone(),
                soc: soc.name.clone(),
            });
        }
    }
    let arrivals = cfg.arrivals.generate(classes, cfg.duration, cfg.seed)?;
    let mut span = Profiler::scope("serve.run");
    span.counter("arrivals", arrivals.len() as f64);

    let mut probe = SimProbe::new(soc, cfg.probe.clone());
    let profile = ClassProfile::build(&mut probe, soc, classes);
    let mut admission = AdmissionController::new(cfg.admission, models);
    let mut drift = DriftMonitor::new(soc.pus.len(), cfg.drift_window, cfg.drift_bound);
    let class_names: Vec<&str> = classes.iter().map(|c| c.name.as_str()).collect();
    let mut slo = SloAccountant::new(&class_names);
    let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(arrivals.len());
    let mut pending: Vec<PendingRequest> = Vec::new();
    // Per-round scratch, refilled in place: admission's view of the PUs,
    // the bundles, the policy's snapshot, and the finished bundles.
    let mut loads: Vec<PuLoad> = Vec::with_capacity(soc.pus.len());
    let mut bundles = Bundles::default();
    let mut input = DecisionInput::default();
    let mut running: Vec<InFlight<BundleTag>> = Vec::new();
    let mut finished: Vec<InFlight<BundleTag>> = Vec::new();
    let mut arrival_cursor = 0usize;
    let mut decisions = 0usize;
    let mut now = 0.0_f64;
    let epoch = cfg.epoch.max(1) as f64;
    let mut next_epoch = epoch;
    let mut steps = 0usize;

    while arrival_cursor < arrivals.len() || !pending.is_empty() || !running.is_empty() {
        steps += 1;
        assert!(
            steps <= cfg.max_events,
            "serving loop exceeded {} events without finishing (policy {})",
            cfg.max_events,
            policy.name()
        );
        // Admit arrivals due by now.
        while arrivals
            .get(arrival_cursor)
            .is_some_and(|a| (a.at as f64) <= now)
        {
            let event = arrivals[arrival_cursor];
            arrival_cursor += 1;
            let id = outcomes.len();
            let class = &classes[event.class_idx];
            slo.offered(event.class_idx);
            let deadline = class.relative_deadline.map(|d| event.at + d);
            // What admission sees: per-PU drain time of committed work
            // (residents plus an optimistic share of the pending backlog)
            // and the external bandwidth pressure on each PU.
            loads.clear();
            for pu_idx in 0..soc.pus.len() {
                let busy_until = running
                    .iter()
                    .find(|r| r.pu_idx == pu_idx)
                    .map_or(now, |r| now + r.drain_cycles(&mut probe));
                let external_gbps = external_pressure(&mut probe, &running, pu_idx);
                loads.push(PuLoad {
                    busy_until,
                    external_gbps,
                });
            }
            for req in &pending {
                for &(pu, share) in &profile.backlog_share[req.class_idx] {
                    loads[pu].busy_until += share;
                }
            }
            let candidates = &profile.candidates[event.class_idx];
            let decision = admission.assess(now, deadline, candidates, &loads);
            slo.admitted(event.class_idx, decision.admit);
            outcomes.push(RequestOutcome {
                id,
                class: class.name.clone(),
                arrival: event.at,
                admitted: decision.admit,
                predicted_finish: decision.predicted_finish,
                predicted_miss: decision.predicted_miss,
                finish: 0.0,
                latency: 0.0,
                deadline,
                missed: false,
                pu: "-".to_owned(),
                batch_size: 0,
            });
            if decision.admit {
                pending.push(PendingRequest {
                    id,
                    class_idx: event.class_idx,
                    arrival: event.at,
                    deadline,
                });
            }
        }
        // Batch pending requests and let the policy place bundles.
        // Progress guarantee: when its picks leave the machine idle, the
        // fallback pick runs instead.
        if !pending.is_empty() && any_free(soc, &running) {
            bundles.form(&pending, classes.len(), &cfg.batch);
            let queued = bundles.iter().map(|b| profile.queued(b));
            build_input(&mut input, &mut probe, soc, now, queued, &running);
            let fallback = input.fallback().map(|a| (a, true));
            let decided = policy.decide(&input, &mut probe);
            for (a, forced) in decided.into_iter().map(|a| (a, false)).chain(fallback) {
                if forced && !running.is_empty() {
                    break;
                }
                let Some(bundle) = bundles.iter().find(|b| b.id == a.job_id) else {
                    continue; // unknown bundle; ignore
                };
                let members = bundles.members(bundle);
                // `on` is `None` for PUs off the SoC or not eligible.
                let valid = profile.templates[bundle.class_idx].on(a.pu_idx).is_some()
                    && running.iter().all(|r| r.pu_idx != a.pu_idx)
                    // Guard double-assignment of one bundle in a round.
                    && members.iter().all(|id| pending.iter().any(|p| p.id == *id));
                if !valid {
                    continue;
                }
                let predicted_service = bundle_service_prediction(
                    &admission, &profile, &mut probe, &running, bundle, a.pu_idx,
                );
                pending.retain(|p| !members.contains(&p.id));
                let tag = BundleTag {
                    members: members.to_vec(),
                    class_idx: bundle.class_idx,
                    predicted_service,
                };
                // `new` is `Some`: eligibility was checked above.
                running.extend(InFlight::new(profile.queued(bundle), a.pu_idx, now, tag));
                decisions += 1;
            }
        }
        if running.is_empty() {
            // Nothing executing: jump to the next arrival.
            let Some(next) = arrivals.get(arrival_cursor) else {
                break;
            };
            now = now.max(next.at as f64);
            while now >= next_epoch {
                slo.publish_epoch();
                next_epoch += epoch;
            }
            continue;
        }
        // Advance to the next event: completion, arrival, or epoch.
        let ahead = |t: f64| if t - now > 0.0 { t } else { f64::INFINITY };
        let next_arrival = arrivals
            .get(arrival_cursor)
            .map_or(f64::INFINITY, |a| a.at as f64);
        let until = ahead(next_arrival).min(ahead(next_epoch));
        advance(&mut probe, &mut running, &mut now, until, &mut finished);
        while now >= next_epoch {
            slo.publish_epoch();
            next_epoch += epoch;
        }
        for done in finished.drain(..) {
            let observed = (now - done.start).max(1.0);
            let pu_name = &soc.pus[done.pu_idx].name;
            let class_idx = done.tag.class_idx;
            let predicted = done.tag.predicted_service;
            // Resolve the admission prediction into an audit pair; the
            // drift monitor is the windowed view over the same stream.
            let refreshed = drift.observe_audited(done.pu_idx, predicted, observed, || {
                let demand = profile.table[class_idx][done.pu_idx].map_or(0.0, |(_, bw)| bw);
                AuditRecord::new("serve", "cycles", predicted, observed)
                    .with_soc(&soc.slug())
                    .with_pu(pu_name)
                    .with_workload(&classes[class_idx].name)
                    .with_region(admission.region_label(done.pu_idx, demand))
                    .with_policy(policy.name())
            });
            if let Some(factor) = refreshed {
                admission.set_correction(done.pu_idx, factor);
            }
            let batch_size = done.tag.members.len();
            for &member in &done.tag.members {
                let o = &mut outcomes[member];
                o.finish = now;
                o.latency = now - o.arrival as f64;
                o.missed = o.deadline.is_some_and(|d| now > d as f64);
                o.pu.clone_from(pu_name);
                o.batch_size = batch_size;
                slo.completed(class_idx, o.latency, o.missed);
            }
        }
    }
    // A final epoch flushes whatever the last boundary missed.
    slo.publish_epoch();
    span.counter("events", steps as f64);
    span.counter("decisions", decisions as f64);
    span.counter("recalibrations", drift.recalibrations() as f64);

    let makespan = outcomes.iter().map(|o| o.finish).fold(0.0, f64::max);
    let totals = slo.totals();
    let merged = slo.merged_latency();
    Ok(ServeReport {
        soc: soc.name.clone(),
        policy: policy.name().to_owned(),
        admission: admission.policy().describe(),
        arrivals: cfg.arrivals.describe(),
        seed: cfg.seed,
        duration: cfg.duration,
        makespan,
        offered: totals[0],
        admitted: totals[1],
        shed: totals[2],
        completed: totals[3],
        missed: totals[4],
        decisions,
        recalibrations: drift.recalibrations(),
        throughput_per_mcycle: if makespan > 0.0 {
            totals[3] as f64 * 1.0e6 / makespan
        } else {
            0.0
        },
        p50_latency: merged.try_percentile(50.0).unwrap_or(0),
        p95_latency: merged.try_percentile(95.0).unwrap_or(0),
        p99_latency: merged.try_percentile(99.0).unwrap_or(0),
        miss_rate_pct: miss_rate_pct(totals[0], totals[4], totals[2]),
        classes: slo.summaries(),
        outcomes,
    })
}

/// The admission model's contended-service prediction for `bundle` on
/// `pu_idx` under the current residents' pressure — linear in the batch
/// size because bundle traffic is member traffic summed.
fn bundle_service_prediction(
    admission: &AdmissionController,
    profile: &ClassProfile,
    probe: &mut SimProbe,
    running: &[InFlight<BundleTag>],
    bundle: &Bundle,
    pu_idx: usize,
) -> f64 {
    let Some((std_one, demand)) = profile.table[bundle.class_idx][pu_idx] else {
        return 0.0;
    };
    let candidate = CandidateService {
        pu_idx,
        standalone_cycles: std_one * bundle.size() as f64,
        demand_gbps: demand,
    };
    let load = PuLoad {
        busy_until: 0.0,
        external_gbps: external_pressure(probe, running, pu_idx),
    };
    admission.predicted_service(&candidate, &load)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::contended_classes;
    use pccs_sched::policy::{boxed_models, paper_models, ObliviousGreedy};

    fn quick_cfg(rate: f64, duration: u64) -> ServeConfig {
        ServeConfig {
            arrivals: ArrivalProcess::Poisson {
                rate_per_mcycle: rate,
            },
            duration,
            ..ServeConfig::quick()
        }
    }

    #[test]
    fn every_offered_request_is_accounted_for() {
        let soc = SocConfig::xavier();
        let classes = contended_classes();
        let mut policy = ObliviousGreedy;
        let report = run_serve(
            &soc,
            &classes,
            &mut policy,
            boxed_models(&paper_models(&soc)),
            &quick_cfg(6.0, 400_000),
        )
        .unwrap();
        assert!(report.offered > 0, "no arrivals in 400k cycles at rate 6");
        assert_eq!(report.offered, report.admitted + report.shed);
        assert_eq!(report.admitted, report.completed); // open admission drains
        assert_eq!(report.outcomes.len(), report.offered);
        for o in &report.outcomes {
            if o.admitted {
                assert!(
                    o.finish >= o.arrival as f64,
                    "request {} time-travels",
                    o.id
                );
                assert!(o.batch_size >= 1);
                assert_ne!(o.pu, "-");
            }
        }
        assert!(report.makespan > 0.0);
        assert!(report.p99_latency >= report.p50_latency);
    }

    #[test]
    fn an_idle_machine_forces_progress_when_the_policy_declines() {
        use pccs_sched::policy::{Assignment, DecisionInput, Probe};
        struct Declines;
        impl Policy for Declines {
            fn name(&self) -> &'static str {
                "declines"
            }
            fn decide(&mut self, _: &DecisionInput, _: &mut dyn Probe) -> Vec<Assignment> {
                Vec::new()
            }
        }
        let soc = SocConfig::xavier();
        let report = run_serve(
            &soc,
            &contended_classes(),
            &mut Declines,
            boxed_models(&paper_models(&soc)),
            &quick_cfg(6.0, 300_000),
        )
        .unwrap();
        assert!(report.offered > 0);
        assert_eq!(report.admitted, report.offered); // open admission
        assert_eq!(report.completed, report.admitted, "every request completes");
        assert!(report.decisions > 0);
    }

    #[test]
    fn unschedulable_class_is_a_typed_error() {
        use pccs_soc::pu::PuKind;
        let soc = SocConfig::snapdragon855();
        let mut classes = contended_classes();
        // Pin a class to the DLA, which the Snapdragon preset lacks.
        classes[1].template = classes[1].template.clone().with_eligible(vec![PuKind::Dla]);
        let mut policy = ObliviousGreedy;
        let err = run_serve(
            &soc,
            &classes,
            &mut policy,
            boxed_models(&paper_models(&soc)),
            &ServeConfig::quick(),
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::UnschedulableClass { .. }));
        assert!(err.to_string().contains("alexnet"));
    }

    #[test]
    fn empty_class_list_is_a_typed_error() {
        let soc = SocConfig::xavier();
        let mut policy = ObliviousGreedy;
        let err = run_serve(
            &soc,
            &[],
            &mut policy,
            boxed_models(&paper_models(&soc)),
            &ServeConfig::quick(),
        )
        .unwrap_err();
        assert_eq!(err, ServeError::EmptyClasses);
    }

    #[test]
    fn strict_admission_only_admits_requests_predicted_in_time() {
        let soc = SocConfig::xavier();
        let classes = contended_classes();
        let mut policy = ObliviousGreedy;
        let cfg = ServeConfig {
            admission: AdmissionPolicy::Strict,
            ..quick_cfg(30.0, 400_000)
        };
        let report = run_serve(
            &soc,
            &classes,
            &mut policy,
            boxed_models(&paper_models(&soc)),
            &cfg,
        )
        .unwrap();
        for o in &report.outcomes {
            if o.admitted {
                if let Some(d) = o.deadline {
                    assert!(
                        o.predicted_finish <= d as f64,
                        "request {} admitted with predicted finish {} past deadline {}",
                        o.id,
                        o.predicted_finish,
                        d
                    );
                }
            }
        }
    }

    #[test]
    fn same_seed_reproduces_byte_identical_reports() {
        let soc = SocConfig::xavier();
        let classes = contended_classes();
        let cfg = quick_cfg(8.0, 300_000);
        let run = || {
            let mut policy = ObliviousGreedy;
            run_serve(
                &soc,
                &classes,
                &mut policy,
                boxed_models(&paper_models(&soc)),
                &cfg,
            )
            .unwrap()
        };
        let a = serde_json::to_string(&run()).unwrap();
        let b = serde_json::to_string(&run()).unwrap();
        assert_eq!(a, b);
    }
}
