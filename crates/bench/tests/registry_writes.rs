//! The metrics registry stays off the per-cycle path: a simulator
//! accumulates into its own stats and publishes once per run, so the
//! number of registry writes a co-run makes does not grow with the
//! cycles it simulates (DESIGN.md §9.1).
//!
//! Checked on a count, not a wall time, so the test is deterministic.
//! One test function on purpose: `metrics::writes()` is process-global,
//! and a concurrent test publishing between the two reads would skew it.

use pccs_bench::contended_sim;
use pccs_soc::corun::DEFAULT_HORIZON;
use pccs_soc::SocConfig;
use pccs_telemetry::metrics;

#[test]
fn contended_corun_registry_writes_do_not_grow_with_cycles() {
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
}
