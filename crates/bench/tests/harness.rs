//! End-to-end check of the `pccs bench` harness.
//!
//! One test function on purpose: the harness drives the process-global
//! metrics registry (reset + enable/disable), so concurrent test threads
//! would race on it.

use pccs_bench::{contended_sim, run_all, validate};
use pccs_soc::corun::DEFAULT_HORIZON;
use pccs_soc::SocConfig;
use pccs_telemetry::metrics;

#[test]
fn quick_bench_is_schema_valid_deterministic_and_cheap() {
    let first = run_all(true);
    let second = run_all(true);

    // Both runs pass the schema contract `scripts/check.sh` enforces.
    validate(&first.to_json()).expect("first run validates");
    validate(&second.to_json()).expect("second run validates");

    // Structure is byte-identical across reruns: same workload names,
    // same extra keys per workload, same metric names. Values may vary.
    let names = |r: &pccs_bench::BenchReport| -> Vec<String> {
        let mut n: Vec<String> = r.workloads.keys().cloned().collect();
        for (w, m) in &r.workloads {
            n.extend(m.extra.keys().map(|k| format!("{w}.extra.{k}")));
        }
        n.extend(r.metrics.keys().cloned());
        n
    };
    assert_eq!(names(&first), names(&second));
    assert_eq!(first.schema, second.schema);

    // The registry overhead stays a reported number; what keeps it small
    // is that the co-run publishes once per run, never per simulated
    // cycle. Checked deterministically: the contended co-run makes the
    // same number of registry writes at two horizons.
    assert!(first.workloads["corun_contended"].extra["metrics_overhead_pct"].is_finite());
    let soc = SocConfig::xavier();
    let writes_over = |horizon: u64| {
        let sim = contended_sim(&soc, horizon);
        let before = metrics::writes();
        let _ = sim.execute();
        metrics::writes() - before
    };
    let short = writes_over(DEFAULT_HORIZON / 8);
    let long = writes_over(DEFAULT_HORIZON / 2);
    assert!(short > 0, "the co-run publishes nothing");
    assert_eq!(
        short,
        long,
        "registry writes grew with simulated cycles ({short} at {} vs {long} at {} cycles)",
        DEFAULT_HORIZON / 8,
        DEFAULT_HORIZON / 2
    );

    // Throughput numbers exist and are positive.
    assert!(first.workloads["corun_contended"].cycles_per_sec.unwrap() > 0.0);
    assert!(first.workloads["sweep_oblivious"].cells_per_sec.unwrap() > 0.0);
    assert!(first.workloads["sched_replay"].cycles_per_sec.unwrap() > 0.0);
    assert!(first.workloads["lint_workspace"].extra["lines_per_sec"] > 0.0);

    // The harness leaves the registry enabled for whoever runs next.
    assert!(pccs_telemetry::metrics::is_enabled());
}
