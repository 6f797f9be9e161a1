//! The metric tables, medians, the output digest and the result line.
//!
//! The tables here are the benchmark's contract with `BENCHMARK.json`: a
//! run without tracing reports every [`END_TO_END`] metric and a traced run
//! every [`PER_LAYER`] metric, by these names and units.

use std::collections::BTreeMap;
use std::fmt::Write;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of a run without tracing: what a user of the workload sees.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("sim_cycles_per_s", "1/s", "higher"),
    m("requests_per_s", "1/s", "higher"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Metrics of a traced run, one group per layer (crate).
pub const PER_LAYER: &[MetricDef] = &[
    // dram
    m("dram.cycles", "count", "lower"),
    m("dram.requests.served", "count", "higher"),
    m("dram.requests.rejected", "count", "lower"),
    m("dram.queue.hwm", "count", "lower"),
    m("dram.sched.issued", "count", "higher"),
    m("dram.sched.no_candidate", "count", "lower"),
    m("dram.sched.bus_blocked", "count", "lower"),
    m("dram.sched.idle", "count", "lower"),
    m("dram.row_hit_ratio", "ratio", "higher"),
    m("dram.issue_ratio", "ratio", "higher"),
    m("dram.host_ns_per_cycle", "ns", "lower"),
    // soc + workloads
    m("calibrate.gpu_s", "s", "lower"),
    m("calibrate.cpu_s", "s", "lower"),
    m("calibrate.dla_s", "s", "lower"),
    m("sim.runs", "count", "lower"),
    m("calibrate.ms_per_run", "ms", "lower"),
    m("calibrate.cpu_util_pct", "%", "higher"),
    // core
    m("core.fit_us", "us", "lower"),
    m("core.predictions", "count", "lower"),
    m("core.predict_ns", "ns", "lower"),
    // experiments
    m("validate.s", "s", "lower"),
    m("validate.cpu_util_pct", "%", "higher"),
    m("sweep.cells", "count", "higher"),
    m("sweep.steals", "count", "higher"),
    m("profile_cache.hits", "count", "higher"),
    m("profile_cache.misses", "count", "lower"),
    m("profile_cache.hit_ratio", "ratio", "higher"),
    m("mc.fcfs_s", "s", "lower"),
    m("mc.frfcfs_s", "s", "lower"),
    m("mc.atlas_s", "s", "lower"),
    m("mc.tcm_s", "s", "lower"),
    m("mc.sms_s", "s", "lower"),
    m("mc.cpu_util_pct", "%", "higher"),
    // sched
    m("sched.decisions", "count", "lower"),
    m("sched.decide_us_p50", "us", "lower"),
    m("sched.decide_us_p99", "us", "lower"),
    m("sched.probe_calls", "count", "lower"),
    m("sched.probe_s", "s", "lower"),
    // serve
    m("serve.run_s", "s", "lower"),
    m("serve.loop_self_s", "s", "lower"),
    m("serve.us_per_request", "us", "lower"),
    m("serve.sim_runs", "count", "lower"),
    m("serve.offered", "count", "higher"),
    m("serve.admitted", "count", "higher"),
    m("serve.shed", "count", "lower"),
    m("serve.completed", "count", "higher"),
    m("serve.missed", "count", "lower"),
    m("serve.epochs", "count", "higher"),
    m("serve.recalibrations", "count", "lower"),
    // telemetry
    m("tracing_overhead_pct", "%", "lower"),
];

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => {
            let rank = p.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a over the exact bits of every value fed to it: two runs
/// digest equal only if every simulated output and count is identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a float by its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Feeds a string, length-prefixed so concatenations cannot collide.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics, each
/// with its value in full precision and its unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, def) in defs.iter().enumerate() {
        let value = values.get(def.name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_and_unit_fits_the_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "bad name {}", def.name);
            assert!(valid_unit(def.unit), "bad unit {}", def.unit);
            assert!(matches!(def.better, "lower" | "higher"));
            assert!(seen.insert(def.name), "duplicate {}", def.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn charset_rejects_bad_names() {
        assert!(valid_name("dram.sched.issued"));
        assert!(valid_name("9lives"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("") && !valid_unit("a b"));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                def.name, def.unit, def.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 100.0), 5.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn digest_distinguishes_values_and_boundaries() {
        let digest = |parts: &[&str]| {
            let mut d = Digest::default();
            parts.iter().for_each(|p| d.str(p));
            d.value()
        };
        assert_eq!(digest(&["ab", "c"]), digest(&["ab", "c"]));
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.f64(0.1 + 0.2);
        b.f64(0.3);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn result_line_has_every_metric_with_its_unit() {
        let values = BTreeMap::from([("wall_s", 1.25), ("setup_s", f64::NAN)]);
        let line = result_line(true, 3, 0, END_TO_END, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }
}
