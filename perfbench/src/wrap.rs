//! Timing wrappers that delegate unchanged: a [`Policy`] wrapper, the
//! [`Probe`] wrapper it hands to the inner policy, a [`SlowdownModel`]
//! wrapper for the admission models, and an [`Experiment`] wrapper that
//! records one span per sweep cell. They only observe, so a traced run does
//! the same simulated work as an untraced one.

use crate::trace::{SpanId, Tracer};
use pccs_core::SlowdownModel;
use pccs_experiments::error::Result;
use pccs_experiments::{Context, Experiment};
use pccs_sched::policy::{Assignment, DecisionInput, Policy, Probe};
use pccs_soc::kernel::KernelDesc;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What a [`TimedPolicy`] measured.
#[derive(Debug, Clone, Default)]
pub struct PolicyStats {
    /// Per `decide` call: wall nanoseconds minus the time spent in probes.
    pub decide_self_ns: Vec<u64>,
    /// Probe calls made by the policy.
    pub probe_calls: u64,
    /// Nanoseconds spent in those probes.
    pub probe_ns: u64,
}

/// Times every `decide` call of the wrapped policy, recording a
/// `sched.decide` span with `sched.probe` children.
#[derive(Debug)]
pub struct TimedPolicy<P> {
    inner: P,
    tracer: Tracer,
    /// Span the decisions nest under (the serving run).
    pub parent: Option<SpanId>,
    /// Measurements so far.
    pub stats: PolicyStats,
}

impl<P: Policy> TimedPolicy<P> {
    /// Wraps `inner`, recording spans into `tracer`.
    pub fn new(inner: P, tracer: Tracer) -> Self {
        Self {
            inner,
            tracer,
            parent: None,
            stats: PolicyStats::default(),
        }
    }
}

impl<P: Policy> Policy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, input: &DecisionInput, probe: &mut dyn Probe) -> Vec<Assignment> {
        let (inner, stats, tracer) = (&mut self.inner, &mut self.stats, &self.tracer);
        tracer.span("sched.decide", self.parent, |id| {
            let t0 = Instant::now();
            let mut timed = TimedProbe {
                inner: probe,
                tracer,
                parent: id,
                calls: 0,
                ns: 0,
            };
            let out = inner.decide(input, &mut timed);
            let total = ns_since(t0);
            stats.probe_calls += timed.calls;
            stats.probe_ns += timed.ns;
            stats.decide_self_ns.push(total.saturating_sub(timed.ns));
            out
        })
    }

    fn region_label(&self, pu_idx: usize, demand_gbps: f64) -> &'static str {
        self.inner.region_label(pu_idx, demand_gbps)
    }
}

/// Counts and times the co-run probes a policy makes during one decision.
pub struct TimedProbe<'a> {
    inner: &'a mut dyn Probe,
    tracer: &'a Tracer,
    parent: Option<SpanId>,
    /// Probe calls so far.
    pub calls: u64,
    /// Nanoseconds spent in them.
    pub ns: u64,
}

impl Probe for TimedProbe<'_> {
    fn corun_rates(&mut self, placements: &[(usize, KernelDesc)]) -> BTreeMap<usize, f64> {
        let tracer = self.tracer;
        tracer.span("sched.probe", self.parent, |_| {
            let t0 = Instant::now();
            let rates = self.inner.corun_rates(placements);
            self.ns += ns_since(t0);
            self.calls += 1;
            rates
        })
    }
}

/// Shared counters of the [`TimedModel`]s of one run.
#[derive(Debug, Default)]
pub struct PredictStats {
    /// Predictions made.
    pub calls: AtomicU64,
    /// Nanoseconds spent making them.
    pub ns: AtomicU64,
    /// Predictions outside `[0, 100]` % or not finite.
    pub out_of_range: AtomicU64,
}

/// Counts, times and range-checks every prediction of the wrapped model.
pub struct TimedModel {
    inner: Box<dyn SlowdownModel>,
    stats: Arc<PredictStats>,
}

impl TimedModel {
    /// Wraps each model, all sharing `stats`.
    pub fn wrap_all(
        models: Vec<Box<dyn SlowdownModel>>,
        stats: &Arc<PredictStats>,
    ) -> Vec<Box<dyn SlowdownModel>> {
        models
            .into_iter()
            .map(|inner| {
                let timed: Box<dyn SlowdownModel> = Box::new(TimedModel {
                    inner,
                    stats: Arc::clone(stats),
                });
                timed
            })
            .collect()
    }

    fn timed(&self, predict: impl FnOnce() -> f64) -> f64 {
        let t0 = Instant::now();
        let value = predict();
        self.stats.ns.fetch_add(ns_since(t0), Ordering::Relaxed);
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        value
    }
}

impl SlowdownModel for TimedModel {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn relative_speed_pct(&self, demand_gbps: f64, external_gbps: f64) -> f64 {
        let rs = self.timed(|| self.inner.relative_speed_pct(demand_gbps, external_gbps));
        if !(0.0..=100.0).contains(&rs) {
            self.stats.out_of_range.fetch_add(1, Ordering::Relaxed);
        }
        rs
    }

    fn region_label(&self, demand_gbps: f64) -> &'static str {
        self.inner.region_label(demand_gbps)
    }

    fn slowdown(&self, demand_gbps: f64, external_gbps: f64) -> f64 {
        self.timed(|| self.inner.slowdown(demand_gbps, external_gbps))
    }
}

/// Runs an experiment unchanged, recording a span per sweep cell under
/// `parent`, named `cell.<label>`.
pub struct TracedExperiment<'t, E: Experiment> {
    inner: E,
    tracer: &'t Tracer,
    parent: Option<SpanId>,
    label: fn(&E::Cell) -> String,
}

impl<'t, E: Experiment> TracedExperiment<'t, E> {
    /// Wraps `inner`; `label` names each cell's span.
    pub fn new(
        inner: E,
        tracer: &'t Tracer,
        parent: Option<SpanId>,
        label: fn(&E::Cell) -> String,
    ) -> Self {
        Self {
            inner,
            tracer,
            parent,
            label,
        }
    }
}

impl<E: Experiment + Sync> Experiment for TracedExperiment<'_, E> {
    type Prep = E::Prep;
    type Cell = E::Cell;
    type CellOut = E::CellOut;
    type Output = E::Output;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare(&self, ctx: &Context) -> Result<(Self::Prep, Vec<Self::Cell>)> {
        self.inner.prepare(ctx)
    }

    fn run_cell(
        &self,
        ctx: &Context,
        prep: &Self::Prep,
        cell: &Self::Cell,
    ) -> Result<Self::CellOut> {
        let name = format!("cell.{}", (self.label)(cell));
        self.tracer
            .span(&name, self.parent, |_| self.inner.run_cell(ctx, prep, cell))
    }

    fn merge(
        &self,
        ctx: &Context,
        prep: Self::Prep,
        cells: Vec<Self::CellOut>,
    ) -> Result<Self::Output> {
        self.inner.merge(ctx, prep, cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccs_core::PccsModel;

    #[test]
    fn timed_model_delegates_and_counts() {
        let stats = Arc::new(PredictStats::default());
        let plain = PccsModel::xavier_gpu_paper();
        let models = TimedModel::wrap_all(vec![Box::new(plain.clone())], &stats);
        for &(x, y) in &[(10.0, 20.0), (60.0, 90.0), (120.0, 130.0)] {
            assert_eq!(
                models[0].relative_speed_pct(x, y),
                plain.relative_speed_pct(x, y)
            );
        }
        assert_eq!(models[0].region_label(60.0), plain.region_label(60.0));
        assert_eq!(stats.calls.load(Ordering::Relaxed), 3);
        assert_eq!(stats.out_of_range.load(Ordering::Relaxed), 0);
    }
}
