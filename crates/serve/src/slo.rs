//! SLO accounting: per-class latency histograms and deadline-miss rates.
//!
//! The accountant records every request's fate into per-class
//! `pccs-telemetry` latency histograms and, at every epoch boundary of
//! the serving loop, publishes the counters accumulated since the last
//! boundary into the process-global metrics registry (`serve.*`). The
//! final per-class summaries become the [`ClassSlo`] rows of the run
//! report.

use crate::report::ClassSlo;
use pccs_telemetry::metrics::{self, Counter, Gauge};
use pccs_telemetry::LatencyHistogram;

/// Per-class tallies.
#[derive(Debug, Default)]
struct ClassStats {
    latency: LatencyHistogram,
    /// `latency`'s p99 as of the last epoch boundary.
    p99: u64,
    /// Whether `latency` changed since `p99` was computed.
    p99_stale: bool,
    offered: usize,
    admitted: usize,
    shed: usize,
    completed: usize,
    missed: usize,
}

/// Records request fates and publishes SLO metrics at epoch boundaries.
///
/// Classes are addressed by their index in the run's class list. Classes
/// that share a name share one tally, as their report rows do.
#[derive(Debug)]
pub struct SloAccountant {
    /// Class names, in class-list order.
    names: Vec<String>,
    /// `[class_idx]` → index into `stats`: the first class of that name.
    tally: Vec<usize>,
    stats: Vec<ClassStats>,
    /// Counter values already published to the metrics registry, so each
    /// epoch publishes only the delta.
    published: [usize; 5],
    /// The worst p99 already observed on the max-gauge.
    published_p99: u64,
    epochs: u64,
    /// Registry handles, resolved once when the accountant is built:
    /// `<prefix>.{offered, admitted, shed, completed, missed}`,
    /// `<prefix>.epochs` and the max-gauge `<prefix>.p99_latency`.
    counters: [Counter; 5],
    epoch_counter: Counter,
    p99_gauge: Gauge,
}

impl SloAccountant {
    /// An empty accountant for the named classes, publishing under the
    /// `serve.*` metric names.
    pub fn new<S: AsRef<str>>(classes: &[S]) -> Self {
        Self::with_prefix("serve", classes)
    }

    /// An empty accountant for the named classes, publishing under
    /// `<prefix>.*` metric names (tests use a unique prefix because the
    /// registry is process-global).
    pub fn with_prefix<S: AsRef<str>>(prefix: &str, classes: &[S]) -> Self {
        let names: Vec<String> = classes.iter().map(|c| c.as_ref().to_owned()).collect();
        let tally = names
            .iter()
            .enumerate()
            .map(|(i, name)| names[..i].iter().position(|n| n == name).unwrap_or(i))
            .collect();
        let stats = names.iter().map(|_| ClassStats::default()).collect();
        // Metric names are built from `prefix` (`serve` in production), so
        // the registry-drift rule can't see them here; the directive
        // declares them instead.
        // pccs-lint: publishes(serve.offered, serve.admitted, serve.shed, serve.completed, serve.missed, serve.epochs, serve.p99_latency)
        let counter = |name: &str| metrics::counter(&format!("{prefix}.{name}"));
        Self {
            names,
            tally,
            stats,
            published: [0; 5],
            published_p99: 0,
            epochs: 0,
            counters: ["offered", "admitted", "shed", "completed", "missed"].map(counter),
            epoch_counter: counter("epochs"),
            p99_gauge: metrics::gauge(&format!("{prefix}.p99_latency")),
        }
    }

    /// Records an arrival of class `class_idx`.
    pub fn offered(&mut self, class_idx: usize) {
        self.stats(class_idx).offered += 1;
    }

    /// Records the admission verdict for a request of class `class_idx`.
    pub fn admitted(&mut self, class_idx: usize, admit: bool) {
        let stats = self.stats(class_idx);
        if admit {
            stats.admitted += 1;
        } else {
            stats.shed += 1;
        }
    }

    /// Records a completion of class `class_idx`: latency in cycles and
    /// whether the deadline was missed.
    pub fn completed(&mut self, class_idx: usize, latency: f64, missed: bool) {
        let stats = self.stats(class_idx);
        stats.completed += 1;
        stats.latency.record(latency.max(0.0) as u64);
        if missed {
            stats.missed += 1;
        }
        stats.p99_stale = true;
    }

    /// Publishes the counters accumulated since the last boundary to the
    /// metrics registry, plus the worst per-class p99 seen so far as a
    /// max-gauge. Called by the engine at every epoch boundary and once at
    /// the end of the run. A class's p99 is recomputed only when one of its
    /// requests completed since the last boundary, and a counter or the
    /// gauge is written only when its value moves.
    pub fn publish_epoch(&mut self) {
        self.epochs += 1;
        let totals = self.totals();
        for (i, counter) in self.counters.iter().enumerate() {
            if totals[i] != self.published[i] {
                counter.add((totals[i] - self.published[i]) as u64);
            }
        }
        self.published = totals;
        self.epoch_counter.add(1);
        let mut worst_p99 = 0;
        for s in &mut self.stats {
            if s.p99_stale {
                s.p99 = s.latency.p99();
                s.p99_stale = false;
            }
            worst_p99 = worst_p99.max(s.p99);
        }
        if worst_p99 > self.published_p99 {
            self.p99_gauge.observe(worst_p99);
            self.published_p99 = worst_p99;
        }
    }

    /// Epoch boundaries published so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// `[offered, admitted, shed, completed, missed]` across classes.
    pub fn totals(&self) -> [usize; 5] {
        let mut t = [0; 5];
        for s in &self.stats {
            t[0] += s.offered;
            t[1] += s.admitted;
            t[2] += s.shed;
            t[3] += s.completed;
            t[4] += s.missed;
        }
        t
    }

    /// The latency histogram of all classes merged.
    pub fn merged_latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for s in &self.stats {
            merged.merge(&s.latency);
        }
        merged
    }

    /// Final per-class SLO rows, one per class in class-list order
    /// (classes that saw no traffic still get a row).
    pub fn summaries(&self) -> Vec<ClassSlo> {
        self.names
            .iter()
            .zip(&self.tally)
            .map(|(name, &t)| {
                let s = &self.stats[t];
                ClassSlo {
                    class: name.clone(),
                    offered: s.offered,
                    admitted: s.admitted,
                    shed: s.shed,
                    completed: s.completed,
                    missed: s.missed,
                    p50_latency: s.latency.try_percentile(50.0).unwrap_or(0),
                    p95_latency: s.latency.try_percentile(95.0).unwrap_or(0),
                    p99_latency: s.latency.try_percentile(99.0).unwrap_or(0),
                    mean_latency: s.latency.mean(),
                    miss_rate_pct: miss_rate_pct(s.offered, s.missed, s.shed),
                }
            })
            .collect()
    }

    fn stats(&mut self, class_idx: usize) -> &mut ClassStats {
        &mut self.stats[self.tally[class_idx]]
    }
}

/// Deadline misses plus sheds as a percentage of offered requests: a shed
/// request never meets its SLO, so it counts against the miss rate.
pub fn miss_rate_pct(offered: usize, missed: usize, shed: usize) -> f64 {
    if offered == 0 {
        return 0.0;
    }
    100.0 * (missed + shed) as f64 / offered as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn tallies_flow_into_summaries() {
        let mut slo = SloAccountant::new(&["mnist", "alexnet"]);
        for _ in 0..4 {
            slo.offered(0);
        }
        slo.admitted(0, true);
        slo.admitted(0, true);
        slo.admitted(0, true);
        slo.admitted(0, false);
        slo.completed(0, 1_000.0, false);
        slo.completed(0, 3_000.0, true);
        let rows = slo.summaries();
        assert_eq!(rows.len(), 2);
        let m = &rows[0];
        assert_eq!(m.class, "mnist");
        assert_eq!((m.offered, m.admitted, m.shed), (4, 3, 1));
        assert_eq!((m.completed, m.missed), (2, 1));
        assert!(m.p50_latency >= 1_000 && m.p99_latency >= m.p50_latency);
        // 1 miss + 1 shed out of 4 offered.
        assert!((m.miss_rate_pct - 50.0).abs() < 1e-9);
        let a = &rows[1];
        assert_eq!(a.class, "alexnet");
        assert_eq!(a.offered, 0);
        assert_eq!(a.miss_rate_pct, 0.0);
    }

    #[test]
    fn classes_sharing_a_name_share_a_tally() {
        let mut slo = SloAccountant::new(&["a", "b", "a"]);
        slo.offered(0);
        slo.offered(2);
        slo.offered(1);
        let rows = slo.summaries();
        let offered: Vec<(&str, usize)> =
            rows.iter().map(|r| (r.class.as_str(), r.offered)).collect();
        assert_eq!(offered, [("a", 2), ("b", 1), ("a", 2)]);
        assert_eq!(slo.totals()[0], 3);
    }

    #[test]
    fn epoch_publishing_emits_deltas_not_totals() {
        // A unique prefix keeps this test isolated from concurrent tests
        // publishing into the process-global registry.
        let mut slo = SloAccountant::with_prefix("test.slo.unit", &["a"]);
        slo.offered(0);
        slo.admitted(0, true);
        slo.publish_epoch();
        assert_eq!(metrics::counter("test.slo.unit.offered").get(), 1);
        slo.offered(0);
        slo.admitted(0, false);
        slo.publish_epoch();
        assert_eq!(metrics::counter("test.slo.unit.offered").get(), 2);
        assert_eq!(metrics::counter("test.slo.unit.shed").get(), 1);
        assert_eq!(metrics::counter("test.slo.unit.epochs").get(), 2);
        assert_eq!(slo.epochs(), 2);
    }

    /// One scripted epoch: arrivals as (class, admitted), completions as
    /// (class, latency, missed).
    type Epoch = (Vec<(usize, bool)>, Vec<(usize, f64, bool)>);

    #[test]
    fn handle_publishing_matches_per_epoch_recomputation() {
        const PREFIX: &str = "test.slo.handles";
        let classes = ["a", "b"];
        let script: Vec<Epoch> = vec![
            // Class a's first completion is slow: its p99 starts high.
            (
                vec![(0, true), (0, true), (0, false)],
                vec![(0, 90_000.0, true)],
            ),
            // Arrivals without completions: nothing to recompute.
            (vec![(1, true), (1, true)], vec![]),
            // Enough fast completions to pull class a's p99 down.
            (
                vec![(0, true); 200],
                (0..200).map(|_| (0, 1_000.0, false)).collect(),
            ),
            // An empty epoch.
            (vec![], vec![]),
            (vec![], vec![(1, 2_000.0, false)]),
            // Class b's p99 rises past every earlier one.
            (vec![(1, false)], vec![(1, 150_000.0, true)]),
        ];
        let mut slo = SloAccountant::with_prefix(PREFIX, &classes);
        // The reference recomputes everything from scratch every epoch.
        let mut hist = [LatencyHistogram::new(), LatencyHistogram::new()];
        let mut totals = [0u64; 5];
        let mut gauge = 0u64;
        let mut p99_of_a = Vec::new();
        for (epoch, (arrivals, completions)) in script.iter().enumerate() {
            for &(class, admit) in arrivals {
                slo.offered(class);
                slo.admitted(class, admit);
                totals[0] += 1;
                totals[if admit { 1 } else { 2 }] += 1;
            }
            for &(class, latency, missed) in completions {
                slo.completed(class, latency, missed);
                hist[class].record(latency as u64);
                totals[3] += 1;
                totals[4] += u64::from(missed);
            }
            slo.publish_epoch();
            let worst = hist
                .iter()
                .filter(|h| h.count() > 0)
                .map(LatencyHistogram::p99)
                .max()
                .unwrap_or(0);
            gauge = gauge.max(worst);
            p99_of_a.push(hist[0].p99());
            let mut expected: BTreeMap<String, u64> =
                ["offered", "admitted", "shed", "completed", "missed"]
                    .iter()
                    .zip(totals)
                    .map(|(name, v)| (format!("{PREFIX}.{name}"), v))
                    .collect();
            expected.insert(format!("{PREFIX}.epochs"), epoch as u64 + 1);
            expected.insert(format!("{PREFIX}.p99_latency"), gauge);
            let published: BTreeMap<String, u64> = metrics::snapshot()
                .into_iter()
                .filter(|(name, _)| name.starts_with(&format!("{PREFIX}.")))
                .collect();
            assert_eq!(published, expected, "after epoch {epoch}");
        }
        assert!(
            p99_of_a[2] < p99_of_a[0],
            "class a's p99 fell: {p99_of_a:?}"
        );
        assert!(gauge > p99_of_a[0], "class b's p99 became the worst");
        let rows = slo.summaries();
        for (row, h) in rows.iter().zip(&hist) {
            assert_eq!(row.p99_latency, h.p99(), "class {}", row.class);
        }
    }

    #[test]
    fn merged_latency_spans_classes() {
        let mut slo = SloAccountant::new(&["a", "b"]);
        slo.completed(0, 100.0, false);
        slo.completed(1, 5_000.0, false);
        let merged = slo.merged_latency();
        assert_eq!(merged.count(), 2);
        assert!(merged.max() >= 5_000);
    }
}
