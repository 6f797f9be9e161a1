//! Golden-file test for the Chrome/Perfetto exporter.
//!
//! The golden fixture pins the exporter's byte-level output for a fixed
//! span/counter input: event order, metadata records, key order, and
//! number formatting. Any intentional format change must regenerate the
//! fixture (`UPDATE_GOLDEN=1 cargo test -p pccs-telemetry --test
//! perfetto_golden`) and the diff reviews as part of the change.

use pccs_telemetry::perfetto::{check_trace, trace_json, CounterSample};
use pccs_telemetry::{ProfSpan, Profiler};
use std::path::PathBuf;

fn fixed_spans() -> Vec<ProfSpan> {
    let span = |name: &str, lane: u32, depth: u32, start_us: u64, dur_us: u64| ProfSpan {
        name: name.to_owned(),
        lane,
        depth,
        start_us,
        dur_us,
        self_us: dur_us,
        counters: Vec::new(),
    };
    vec![
        span("repro.oblivious", 0, 0, 0, 100),
        span("sweep.oblivious", 0, 1, 5, 90),
        span("sim.execute", 0, 2, 10, 40),
        span("sim.rep", 0, 3, 12, 8),
        span("cell.oblivious", 1, 0, 6, 80),
        span("sim.execute", 1, 1, 8, 60),
    ]
}

fn fixed_counters() -> Vec<CounterSample> {
    let sample = |track: &str, ts_us: u64, value: f64| CounterSample {
        track: track.to_owned(),
        ts_us,
        value,
    };
    vec![
        sample("dram.cycles", 50, 120_000.0),
        sample("dram.requests.served", 50, 4_096.0),
        sample("sweep.cells", 95, 24.0),
    ]
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("perfetto_trace.json")
}

#[test]
fn exporter_output_matches_golden_fixture() {
    let text = trace_json(&fixed_spans(), &fixed_counters());

    // The fixture must itself be a healthy trace with the shape the
    // acceptance criteria describe: one process, two lanes, spans nested
    // three-plus deep, and counter tracks present.
    let check = check_trace(&text).expect("generated trace validates");
    assert_eq!(check.lanes, 2);
    assert_eq!(check.max_depth, 4);
    assert_eq!(check.counter_tracks, 3);
    // 6 spans * 2 + 3 counters + 3 metadata (process name + 2 lane names).
    assert_eq!(check.events, 18);

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        text,
        golden,
        "exporter output diverged from {}; regenerate with UPDATE_GOLDEN=1 if intentional",
        path.display()
    );
}

#[test]
fn live_multithreaded_profile_exports_healthy_trace() {
    // Drive the real profiler across threads and validate the export the
    // same way `pccs trace-check` does. This is the only test in this
    // binary touching the global profiler.
    Profiler::enable();
    {
        let _outer = Profiler::scope("outer");
        let threads: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(|| {
                    let _w = Profiler::scope("worker");
                    let _inner = Profiler::scope("inner");
                    let _leaf = Profiler::scope("leaf");
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
    Profiler::disable();
    let spans = Profiler::drain();
    let text = trace_json(&spans, &[]);
    let check = check_trace(&text).expect("live trace validates");
    // Main lane plus two worker lanes, each worker nesting three deep.
    assert!(check.lanes >= 3, "lanes = {}", check.lanes);
    assert!(check.max_depth >= 3, "max_depth = {}", check.max_depth);
}
