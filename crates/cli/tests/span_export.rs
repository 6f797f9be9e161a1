//! `--metrics-out` renders profiler spans, with their counters and their
//! lane/depth placement, as JSONL `span` lines.

use serde::Value;
use std::path::PathBuf;
use std::process::Command;

#[test]
fn sched_metrics_out_carries_the_replay_span() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("span_export_sched.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_pccs"))
        .args(["sched", "--quick", "--metrics-out"])
        .arg(&path)
        .output()
        .expect("pccs runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let spans: Vec<Value> = text
        .lines()
        .map(|line| serde_json::from_str::<Value>(line).expect("each line is JSON"))
        .filter(|v| v.get("type").and_then(Value::as_str) == Some("span"))
        .collect();
    let replay: Vec<&Value> = spans
        .iter()
        .filter(|v| v.get("name").and_then(Value::as_str) == Some("sched.replay"))
        .collect();
    assert_eq!(replay.len(), 1, "one sched.replay span: {text}");
    let replay = replay[0];
    for field in ["lane", "depth", "start_us", "dur_us", "self_us"] {
        assert!(
            replay.get(field).and_then(Value::as_u64).is_some(),
            "integer `{field}` on {replay:?}"
        );
    }
    let counters: Vec<&str> = replay
        .get("counters")
        .and_then(Value::as_array)
        .expect("counters array")
        .iter()
        .map(|pair| {
            pair.as_array()
                .and_then(|p| p.first())
                .and_then(Value::as_str)
                .expect("[name, value] pair")
        })
        .collect();
    assert_eq!(counters, ["jobs", "events", "decisions"]);
    // The co-run probes the replay makes nest under it.
    assert!(
        spans.iter().any(|v| {
            v.get("name").and_then(Value::as_str) == Some("sim.execute")
                && v.get("depth").and_then(Value::as_u64) > Some(0)
        }),
        "nested sim.execute spans: {text}"
    );
}
