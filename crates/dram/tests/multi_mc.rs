//! Contention over a multi-controller memory system (the paper's
//! Section 5 multi-MC extension): the victim's bandwidth under growing
//! pressure keeps the single-MC shape.

use pccs_dram::config::DramConfig;
use pccs_dram::policy::PolicyKind;
use pccs_dram::request::SourceId;
use pccs_dram::sim::DramSystem;
use pccs_dram::traffic::StreamTraffic;

#[test]
fn multi_mc_contention_still_shows_three_region_flavour() {
    // A victim and an aggressor over a 2-MC Xavier memory: the victim's
    // bandwidth under growing pressure should fall then stabilize, as with
    // a single MC.
    let run = |pressure: f64| {
        let mut sys = DramSystem::with_controllers(DramConfig::xavier(), 2, PolicyKind::Atlas);
        sys.add_generator(
            StreamTraffic::builder(SourceId(0))
                .demand_gbps(60.0)
                .row_locality(0.92)
                .window(96)
                .seed(5)
                .build(),
        );
        if pressure > 0.0 {
            for s in 1..=4 {
                sys.add_generator(
                    StreamTraffic::builder(SourceId(s))
                        .demand_gbps(pressure / 4.0)
                        .row_locality(0.9)
                        .window(48)
                        .seed(40 + s as u64)
                        .build(),
                );
            }
        }
        sys.run(30_000).source_bw_gbps(SourceId(0))
    };
    let alone = run(0.0);
    let mid = run(80.0);
    let high = run(140.0);
    assert!(alone > 40.0, "standalone victim too slow: {alone:.1}");
    assert!(mid <= alone + 2.0);
    // The exact ratio depends on the generators' RNG stream; 0.5 checks
    // "falls then levels off" without pinning a particular sequence.
    assert!(
        high > mid * 0.5,
        "no stabilization: mid {mid:.1} -> high {high:.1}"
    );
}
