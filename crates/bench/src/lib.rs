//! Benchmark harness: fixed workloads behind `pccs bench` and the
//! deterministic-schema `BENCH_<host>_<date>.json` baseline trajectory.
//!
//! [`run_all`] executes five fixed workloads and reports throughput
//! numbers every later change can be compared against (methodology in
//! DESIGN.md §9):
//!
//! - `corun_contended` — a GPU streamcluster kernel under CPU bandwidth
//!   pressure on the Xavier preset, the paper's canonical co-run. Reports
//!   simulated **cycles/sec** (best of N repetitions) plus the
//!   metrics-registry overhead measured by re-running with publication
//!   disabled.
//! - `lint_workspace` — the full `pccs lint` analysis of this repository.
//!   Reports lines/sec.
//! - `sched_replay` — the contended job mix replayed under the
//!   contention-oblivious greedy policy. Reports makespan cycles/sec and
//!   the decision count.
//! - `serve_replay` — the online serving loop (`pccs-serve`) driving the
//!   contended request classes through a Poisson arrival stream under the
//!   greedy policy. Reports makespan cycles/sec, completed requests/sec,
//!   and the p99 completion latency.
//! - `sweep_oblivious` — the oblivious-placement experiment sweep at quick
//!   fidelity across all cores. Reports **cells/sec**.
//!
//! The report's *structure* — schema tag, workload names, metric names —
//! is byte-identical across reruns; only the measured values vary. That
//! is what lets `scripts/check.sh` validate any emitted file with
//! [`validate`] and lets humans diff two baselines line by line.
//!
//! The separate `benches/` directory holds the Criterion microbenches;
//! this library is the macro-level harness behind `pccs bench`.
//!
//! The sibling [`accuracy`] module is the same idea pointed at model
//! quality instead of throughput: `pccs audit` baselines
//! (`ACCURACY_<host>_<date>.json`) and the CI accuracy gate.

/// Model-accuracy baselines and the CI accuracy gate (`pccs audit`).
pub mod accuracy;

use pccs_experiments::context::{Context, Quality};
use pccs_experiments::oblivious;
use pccs_sched::engine::{run_schedule, SchedConfig};
use pccs_sched::mixes;
use pccs_sched::policy::ObliviousGreedy;
use pccs_serve::request::contended_classes;
use pccs_serve::{boxed_models, paper_models, run_serve, ServeConfig};
use pccs_soc::corun::{CoRunSim, Placement, DEFAULT_HORIZON};
use pccs_soc::soc::SocConfig;
use pccs_telemetry::export::csv_field;
use pccs_telemetry::{metrics, Profiler};
use pccs_workloads::rodinia::RodiniaBenchmark;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::Path;
// Wall-clock timing is the measurement itself here; it never feeds
// simulation state.
use std::time::Instant;

/// Schema tag every report carries; bump when the structure changes.
pub const SCHEMA: &str = "pccs-bench/v1";

/// Metric names a valid report must carry in its `metrics` section.
/// These are counters the three fixed workloads always touch; a missing
/// name means instrumentation regressed somewhere upstream.
pub const REQUIRED_METRICS: &[&str] = &[
    "dram.bytes",
    "dram.cycles",
    "dram.queue.hwm",
    "dram.requests.enqueued",
    "dram.requests.rejected",
    "dram.requests.served",
    "dram.row.conflicts",
    "dram.row.hits",
    "dram.row.misses",
    "dram.sched.bus_blocked",
    "dram.sched.idle",
    "dram.sched.issued",
    "dram.sched.no_candidate",
    "profile_cache.misses",
    "sched.decisions",
    "sched.jobs",
    "serve.admitted",
    "serve.completed",
    "serve.epochs",
    "serve.missed",
    "serve.offered",
    "serve.p99_latency",
    "serve.shed",
    "sim.runs",
    "sweep.cells",
];

/// The five fixed workload names, in report (sorted) order. Reports may
/// carry more (older baselines hold workloads since retired); validation
/// only requires these.
pub const WORKLOADS: &[&str] = &[
    "corun_contended",
    "lint_workspace",
    "sched_replay",
    "serve_replay",
    "sweep_oblivious",
];

/// Measured numbers for one fixed workload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadMetrics {
    /// Best (minimum) wall-clock seconds over the repetitions.
    pub wall_secs: f64,
    /// Repetitions run (the reported wall time is the best of these).
    pub iterations: u64,
    /// Simulated cycles covered by one repetition, for cycle-based
    /// workloads.
    pub cycles: Option<u64>,
    /// Simulated cycles per wall-clock second, for cycle-based workloads.
    pub cycles_per_sec: Option<f64>,
    /// Sweep cells completed, for sweep workloads.
    pub cells: Option<u64>,
    /// Sweep cells per wall-clock second, for sweep workloads.
    pub cells_per_sec: Option<f64>,
    /// Workload-specific extras (overhead percentages, decision counts,
    /// allocation proxies), keyed by stable names.
    pub extra: BTreeMap<String, f64>,
}

/// One benchmark baseline: what ran, where, and how fast.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BenchReport {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Sanitized host name the run executed on.
    pub host: String,
    /// UTC date of the run, `YYYY-MM-DD`.
    pub date: String,
    /// Whether the quick (smoke) workload sizes were used.
    pub quick: bool,
    /// Per-workload measurements, keyed by workload name.
    pub workloads: BTreeMap<String, WorkloadMetrics>,
    /// Snapshot of every metric the run published (names sorted).
    pub metrics: BTreeMap<String, u64>,
}

impl BenchReport {
    /// The canonical file name for this report:
    /// `BENCH_<host>_<date>.json`.
    pub fn filename(&self) -> String {
        format!("BENCH_{}_{}.json", self.host, self.date)
    }

    /// The report as a JSON value (sorted keys, deterministic structure).
    pub fn to_json(&self) -> Value {
        self.to_value()
    }

    /// A per-workload CSV companion (one row per workload, fields escaped
    /// via [`csv_field`]).
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("workload,wall_secs,iterations,cycles,cycles_per_sec,cells,cells_per_sec\n");
        for (name, w) in &self.workloads {
            let opt_u = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_default();
            let opt_f = |v: Option<f64>| v.map(|x| format!("{x:.1}")).unwrap_or_default();
            let _ = writeln!(
                out,
                "{},{:.4},{},{},{},{},{}",
                csv_field(name),
                w.wall_secs,
                w.iterations,
                opt_u(w.cycles),
                opt_f(w.cycles_per_sec),
                opt_u(w.cells),
                opt_f(w.cells_per_sec)
            );
        }
        out
    }
}

/// Validates a parsed report against the [`SCHEMA`] contract: schema tag,
/// host/date, every fixed workload with positive wall time, the
/// throughput figure each workload promises (cycles/sec, cells/sec, or
/// lines/sec), the registry-overhead measurement, and every
/// [`REQUIRED_METRICS`] name.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate(report: &Value) -> Result<(), String> {
    let obj = report
        .as_object()
        .ok_or_else(|| "report is not a JSON object".to_owned())?;
    match obj.get("schema").and_then(Value::as_str) {
        Some(tag) if tag == SCHEMA => {}
        Some(tag) => return Err(format!("schema is '{tag}', expected '{SCHEMA}'")),
        None => return Err("missing schema tag".to_owned()),
    }
    for key in ["host", "date"] {
        match obj.get(key).and_then(Value::as_str) {
            Some(s) if !s.is_empty() => {}
            _ => return Err(format!("missing or empty '{key}'")),
        }
    }
    let workloads = obj
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or_else(|| "missing workloads object".to_owned())?;
    for name in WORKLOADS {
        let w = workloads
            .get(*name)
            .and_then(Value::as_object)
            .ok_or_else(|| format!("missing workload '{name}'"))?;
        match w.get("wall_secs").and_then(Value::as_f64) {
            Some(secs) if secs > 0.0 => {}
            _ => return Err(format!("workload '{name}': wall_secs must be positive")),
        }
    }
    let per_sec = |workload: &str, key: &str| -> Result<(), String> {
        let value = workloads
            .get(workload)
            .and_then(|w| w.get(key))
            .and_then(Value::as_f64);
        match value {
            Some(v) if v > 0.0 => Ok(()),
            _ => Err(format!("workload '{workload}': {key} must be positive")),
        }
    };
    per_sec("corun_contended", "cycles_per_sec")?;
    per_sec("sched_replay", "cycles_per_sec")?;
    per_sec("serve_replay", "cycles_per_sec")?;
    per_sec("sweep_oblivious", "cells_per_sec")?;
    let lint_rate = workloads
        .get("lint_workspace")
        .and_then(|w| w.get("extra"))
        .and_then(|e| e.get("lines_per_sec"))
        .and_then(Value::as_f64);
    match lint_rate {
        Some(r) if r > 0.0 => {}
        _ => return Err("lint_workspace missing positive extra.lines_per_sec".to_owned()),
    }
    let overhead = workloads
        .get("corun_contended")
        .and_then(|w| w.get("extra"))
        .and_then(|e| e.get("metrics_overhead_pct"))
        .and_then(Value::as_f64);
    if overhead.is_none() {
        return Err("corun_contended missing extra.metrics_overhead_pct".to_owned());
    }
    let metrics_obj = obj
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or_else(|| "missing metrics object".to_owned())?;
    for name in REQUIRED_METRICS {
        if !metrics_obj.contains_key(*name) {
            return Err(format!("missing required metric '{name}'"));
        }
    }
    Ok(())
}

/// The host name, from `$HOSTNAME` or `/etc/hostname`, sanitized to
/// `[A-Za-z0-9._-]` so it is safe inside a file name.
pub fn hostname() -> String {
    let raw = std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.trim().is_empty())
        .or_else(|| std::fs::read_to_string("/etc/hostname").ok())
        .unwrap_or_default();
    let cleaned: String = raw
        .trim()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "unknown-host".to_owned()
    } else {
        cleaned
    }
}

/// Today's UTC date as `YYYY-MM-DD`, computed from the Unix time with the
/// civil-from-days algorithm (no external time crate).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    civil_date((secs / 86_400) as i64)
}

/// `YYYY-MM-DD` for a day count since 1970-01-01 (Howard Hinnant's
/// `civil_from_days`, valid for the full `i64` day range we care about).
fn civil_date(days: i64) -> String {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// The canonical contended co-run of the `corun_contended` workload:
/// streamcluster on the GPU with 40 GB/s of CPU pressure.
pub fn contended_sim(soc: &SocConfig, horizon: u64) -> CoRunSim {
    let gpu = soc.pu_index("GPU").unwrap_or(0);
    let cpu = soc.pu_index("CPU").unwrap_or(0);
    let kernel = RodiniaBenchmark::Streamcluster.kernel(soc.pus[gpu].kind);
    let mut sim = CoRunSim::new(soc);
    sim.horizon(horizon);
    sim.place(Placement::kernel(gpu, kernel));
    sim.external_pressure(cpu, 40.0);
    sim
}

/// Best (minimum) wall-clock seconds for `body` over N repetitions —
/// the measurement primitive every fixed workload shares.
pub fn best_of<F: FnMut()>(iterations: u64, mut body: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iterations {
        let t = Instant::now();
        body();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn run_corun_contended(soc: &SocConfig, quick: bool) -> WorkloadMetrics {
    let horizon = if quick {
        DEFAULT_HORIZON / 4
    } else {
        DEFAULT_HORIZON
    };
    let iterations = if quick { 2 } else { 5 };
    let sim = contended_sim(soc, horizon);
    // Measured configuration: registry publication on — the normal
    // operating mode, so the headline number includes instrumentation.
    metrics::set_enabled(true);
    let wall_on = best_of(iterations, || {
        let _ = sim.execute();
    });
    // Overhead probe: identical runs with every publish call gated off.
    metrics::set_enabled(false);
    let wall_off = best_of(iterations, || {
        let _ = sim.execute();
    });
    metrics::set_enabled(true);
    let overhead_pct = if wall_off > 0.0 {
        (wall_on / wall_off - 1.0) * 100.0
    } else {
        0.0
    };
    let mut extra = BTreeMap::new();
    extra.insert("metrics_overhead_pct".to_owned(), overhead_pct);
    // Allocation proxy: requests admitted to controller queues — the
    // dominant per-event heap traffic in the simulator.
    let enqueued = metrics::counter("dram.requests.enqueued").get();
    extra.insert("alloc_proxy_enqueued".to_owned(), enqueued as f64);
    WorkloadMetrics {
        wall_secs: wall_on,
        iterations,
        cycles: Some(horizon),
        cycles_per_sec: Some(horizon as f64 / wall_on.max(f64::MIN_POSITIVE)),
        cells: None,
        cells_per_sec: None,
        extra,
    }
}

fn run_sched_replay(soc: &SocConfig, quick: bool) -> WorkloadMetrics {
    let mix = mixes::mix("contended").expect("bundled 'contended' mix");
    let cfg = if quick {
        SchedConfig::quick()
    } else {
        SchedConfig::default()
    };
    let decisions_before = metrics::counter("sched.decisions").get();
    let mut policy = ObliviousGreedy;
    let t = Instant::now();
    let report = run_schedule(soc, &mix.name, &mix.jobs, &mut policy, &cfg)
        .expect("bundled mix is schedulable");
    let wall = t.elapsed().as_secs_f64();
    let decisions = metrics::counter("sched.decisions").get() - decisions_before;
    let makespan = report.makespan.max(1.0) as u64;
    let mut extra = BTreeMap::new();
    extra.insert("decisions".to_owned(), decisions as f64);
    extra.insert("jobs".to_owned(), report.jobs.len() as f64);
    WorkloadMetrics {
        wall_secs: wall,
        iterations: 1,
        cycles: Some(makespan),
        cycles_per_sec: Some(makespan as f64 / wall.max(f64::MIN_POSITIVE)),
        cells: None,
        cells_per_sec: None,
        extra,
    }
}

fn run_serve_replay(soc: &SocConfig, quick: bool) -> WorkloadMetrics {
    let classes = contended_classes();
    let cfg = if quick {
        ServeConfig::quick()
    } else {
        ServeConfig::default()
    };
    let mut policy = ObliviousGreedy;
    let models = boxed_models(&paper_models(soc));
    let t = Instant::now();
    let report = run_serve(soc, &classes, &mut policy, models, &cfg)
        .expect("bundled request classes are servable");
    let wall = t.elapsed().as_secs_f64();
    let makespan = report.makespan.max(1.0) as u64;
    let mut extra = BTreeMap::new();
    extra.insert(
        "requests_per_sec".to_owned(),
        report.completed as f64 / wall.max(f64::MIN_POSITIVE),
    );
    extra.insert("p99_latency_cycles".to_owned(), report.p99_latency as f64);
    extra.insert("offered".to_owned(), report.offered as f64);
    WorkloadMetrics {
        wall_secs: wall,
        iterations: 1,
        cycles: Some(makespan),
        cycles_per_sec: Some(makespan as f64 / wall.max(f64::MIN_POSITIVE)),
        cells: None,
        cells_per_sec: None,
        extra,
    }
}

fn run_sweep_oblivious() -> WorkloadMetrics {
    // Quick fidelity in both bench modes: the cell count is what this
    // workload scales by, and quick keeps `pccs bench` usable in CI.
    let mut ctx = Context::new(Quality::Quick);
    let cells_before = metrics::counter("sweep.cells").get();
    let t = Instant::now();
    let result = oblivious::run(&mut ctx);
    let wall = t.elapsed().as_secs_f64();
    let cells = metrics::counter("sweep.cells").get() - cells_before;
    let mut extra = BTreeMap::new();
    extra.insert(
        "succeeded".to_owned(),
        if result.is_ok() { 1.0 } else { 0.0 },
    );
    WorkloadMetrics {
        wall_secs: wall,
        iterations: 1,
        cycles: None,
        cycles_per_sec: None,
        cells: Some(cells),
        cells_per_sec: Some(cells as f64 / wall.max(f64::MIN_POSITIVE)),
        extra,
    }
}

/// The linter's own throughput: the full two-phase workspace analysis
/// (`pccs lint`) over this repository, reported in lines per second.
/// Tracking it as a fixed workload keeps the CI gate's cost visible —
/// a rule whose reference search goes quadratic shows up here first.
fn run_lint_workspace(quick: bool) -> WorkloadMetrics {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate lives two levels below the repo root");
    let iterations = if quick { 1 } else { 3 };
    let mut report = None;
    let wall = best_of(iterations, || {
        report = Some(pccs_analysis::lint_workspace(root).expect("workspace walk succeeds"));
    });
    let report = report.expect("at least one timed iteration");
    let lines = report.lines_scanned as f64;
    let mut extra = BTreeMap::new();
    extra.insert("files_scanned".to_owned(), report.files_scanned as f64);
    extra.insert("lines".to_owned(), lines);
    extra.insert(
        "lines_per_sec".to_owned(),
        lines / wall.max(f64::MIN_POSITIVE),
    );
    extra.insert("findings".to_owned(), report.findings.len() as f64);
    WorkloadMetrics {
        wall_secs: wall,
        iterations,
        cycles: None,
        cycles_per_sec: None,
        cells: None,
        cells_per_sec: None,
        extra,
    }
}

/// Runs the fixed workloads and assembles the baseline report.
///
/// Resets the metrics registry first so the report's `metrics` section
/// covers exactly this run, and leaves the registry enabled afterwards.
/// `quick` shrinks horizons and repetitions for CI smoke use.
pub fn run_all(quick: bool) -> BenchReport {
    metrics::set_enabled(true);
    metrics::reset();
    Profiler::disable();
    let soc = SocConfig::xavier();
    let mut workloads = BTreeMap::new();
    workloads.insert(
        "corun_contended".to_owned(),
        run_corun_contended(&soc, quick),
    );
    workloads.insert("lint_workspace".to_owned(), run_lint_workspace(quick));
    workloads.insert("sched_replay".to_owned(), run_sched_replay(&soc, quick));
    workloads.insert("serve_replay".to_owned(), run_serve_replay(&soc, quick));
    workloads.insert("sweep_oblivious".to_owned(), run_sweep_oblivious());
    BenchReport {
        schema: SCHEMA.to_owned(),
        host: hostname(),
        date: today_utc(),
        quick,
        workloads,
        metrics: metrics::snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_matches_known_days() {
        assert_eq!(civil_date(0), "1970-01-01");
        // 2026-08-08 is day 20_673 (1_786_492_800 / 86_400).
        assert_eq!(civil_date(20_673), "2026-08-08");
        // Leap day.
        assert_eq!(civil_date(11_016), "2000-02-29");
    }

    #[test]
    fn hostname_is_sanitized() {
        let h = hostname();
        assert!(!h.is_empty());
        assert!(h
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_'));
    }

    #[test]
    fn validate_rejects_broken_reports() {
        assert!(validate(&Value::Null).is_err());
        let mut obj = BTreeMap::new();
        obj.insert(
            "schema".to_owned(),
            Value::String("pccs-bench/v0".to_owned()),
        );
        assert!(validate(&Value::Object(obj)).is_err());
    }

    #[test]
    fn committed_baseline_still_validates() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_vm_2026-08-08.json");
        let text = std::fs::read_to_string(&path).expect("committed baseline is readable");
        let report: Value = serde_json::from_str(&text).expect("committed baseline parses");
        validate(&report).expect("committed baseline validates");
    }

    #[test]
    fn csv_header_matches_row_arity() {
        let report = BenchReport {
            schema: SCHEMA.to_owned(),
            host: "h".to_owned(),
            date: "2026-08-08".to_owned(),
            quick: true,
            workloads: BTreeMap::from([(
                "w,1".to_owned(),
                WorkloadMetrics {
                    wall_secs: 0.5,
                    iterations: 1,
                    cycles: Some(100),
                    cycles_per_sec: Some(200.0),
                    cells: None,
                    cells_per_sec: None,
                    extra: BTreeMap::new(),
                },
            )]),
            metrics: BTreeMap::new(),
        };
        let csv = report.to_csv();
        let mut lines = csv.lines();
        let header_cols = lines.next().unwrap().split(',').count();
        let row = pccs_telemetry::export::csv_split(lines.next().unwrap());
        assert_eq!(row.len(), header_cols);
        assert_eq!(row[0], "w,1");
    }
}
