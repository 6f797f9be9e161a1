//! Model-accuracy audit harness behind `pccs audit`, plus the metrics
//! registry every publish site reconciles against.
//!
//! The [`accuracy`] module replays the validation figures with the
//! prediction-audit ledger on and writes the `ACCURACY_<host>_<date>.json`
//! baseline the CI accuracy gate compares against (DESIGN.md §12). This
//! crate root holds what that harness shares: the host/date stamp of a
//! baseline file name, the best-of-N timing primitive, and the canonical
//! contended co-run.
//!
//! Speed is measured by one benchmark, `perfbench/` (declared in
//! `BENCHMARK.json`; see `perfbench/README.md`), not by this crate.

#![warn(missing_docs, unreachable_pub)]

/// Model-accuracy baselines and the CI accuracy gate (`pccs audit`).
pub mod accuracy;

use pccs_soc::corun::{CoRunConfig, CoRunSim, Placement};
use pccs_soc::soc::SocConfig;
use pccs_workloads::rodinia::RodiniaBenchmark;
// Wall-clock timing is the measurement itself here; it never feeds
// simulation state.
use std::time::Instant;

/// The registry of metric names the workspace publishes. The
/// `metrics-registry-drift` lint reconciles it with the publish sites in
/// both directions: a name published in `telemetry`, `dram`, `sched`,
/// `serve` or `soc` must be listed here, and every name listed here must
/// be published somewhere.
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

/// The host name, from `$HOSTNAME` or `/etc/hostname`, sanitized to
/// `[A-Za-z0-9._-]` so it is safe inside a file name.
pub(crate) fn hostname() -> String {
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
pub(crate) fn today_utc() -> String {
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

/// The canonical contended co-run: streamcluster on the GPU with 40 GB/s
/// of CPU pressure, the paper's motivating case.
pub fn contended_sim(soc: &SocConfig, horizon: u64) -> CoRunSim {
    let gpu = soc.pu_index("GPU").unwrap_or(0);
    let cpu = soc.pu_index("CPU").unwrap_or(0);
    let kernel = RodiniaBenchmark::Streamcluster.kernel(soc.pus[gpu].kind);
    let mut sim = CoRunSim::with_config(soc, CoRunConfig::default().with_horizon(horizon));
    sim.place(Placement::kernel(gpu, kernel));
    sim.external_pressure(cpu, 40.0);
    sim
}

/// Best (minimum) wall-clock seconds for `body` over N repetitions.
pub(crate) fn best_of<F: FnMut()>(iterations: u64, mut body: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iterations {
        let t = Instant::now();
        body();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
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
}
