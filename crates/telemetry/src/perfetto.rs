//! Chrome/Perfetto trace exporter and validator.
//!
//! [`trace_json`] turns recorded [`ProfSpan`]s and [`CounterSample`]s into
//! the Chrome Trace Event Format (the JSON flavor `ui.perfetto.dev` and
//! `chrome://tracing` both load): each span becomes a `B`/`E` duration
//! pair on `pid` 1 with `tid` = lane + 1, each lane gets a `thread_name`
//! metadata record, and counter samples become `C` events that Perfetto
//! renders as counter tracks. Each lane's spans are emitted depth-first in
//! start order, so `B`/`E` pairs nest exactly as the scopes did even when
//! several open and close within one microsecond — the well-nested,
//! non-decreasing order [`check_trace`] verifies.
//!
//! [`check_trace`] is the other half: it re-parses an exported trace and
//! checks structural health (valid JSON, balanced `B`/`E` pairs per tid,
//! monotonic timestamps per lane) and reports nesting depth and counter
//! track counts, so both the golden test and `pccs trace-check` share one
//! verdict.

use crate::profiler::ProfSpan;
use serde::{Number, Value};
use std::collections::BTreeMap;

/// One sample on a named counter track.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Track name (e.g. `dram.requests.served`).
    pub track: String,
    /// Microseconds on the profiler timebase ([`crate::Profiler::now_us`]).
    pub ts_us: u64,
    /// Sampled value.
    pub value: f64,
}

/// The tid counter tracks are attached to (span lanes start at tid 1).
const COUNTER_TID: u64 = 0;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect::<BTreeMap<String, Value>>(),
    )
}

fn string(s: &str) -> Value {
    Value::String(s.to_owned())
}

fn uint(u: u64) -> Value {
    Value::Number(Number::U(u))
}

/// Renders spans and counter samples as a Chrome Trace Event Format JSON
/// document. Deterministic for a fixed input: counter samples come first
/// in timestamp order, then each lane's spans depth-first in
/// `(start, depth, end)` order, and object keys are emitted in `BTreeMap`
/// order.
pub fn trace_json(spans: &[ProfSpan], counters: &[CounterSample]) -> String {
    let mut lanes: Vec<u32> = spans.iter().map(|s| s.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let mut samples: Vec<&CounterSample> = counters.iter().collect();
    samples.sort_by_key(|s| s.ts_us);
    let mut events: Vec<Value> = Vec::new();
    events.push(obj(vec![
        ("args", obj(vec![("name", string("pccs"))])),
        ("name", string("process_name")),
        ("ph", string("M")),
        ("pid", uint(1)),
        ("tid", uint(COUNTER_TID)),
    ]));
    for &lane in &lanes {
        let label = if lane == 0 {
            "lane-0 (main)".to_owned()
        } else {
            format!("lane-{lane}")
        };
        events.push(obj(vec![
            ("args", obj(vec![("name", string(&label))])),
            ("name", string("thread_name")),
            ("ph", string("M")),
            ("pid", uint(1)),
            ("tid", uint(u64::from(lane) + 1)),
        ]));
    }
    for sample in samples {
        events.push(obj(vec![
            (
                "args",
                obj(vec![("value", Value::Number(Number::F(sample.value)))]),
            ),
            ("name", string(&sample.track)),
            ("ph", string("C")),
            ("pid", uint(1)),
            ("tid", uint(COUNTER_TID)),
            ("ts", uint(sample.ts_us)),
        ]));
    }
    for lane in lanes {
        let mut on_lane: Vec<&ProfSpan> = spans.iter().filter(|s| s.lane == lane).collect();
        on_lane.sort_by_key(|s| (s.start_us, s.depth, s.start_us + s.dur_us));
        // A span closes once the next span in start order is no deeper:
        // scopes nest, so it cannot be that span's ancestor.
        let mut open: Vec<&ProfSpan> = Vec::new();
        for span in on_lane {
            while let Some(top) = open.pop_if(|top| top.depth >= span.depth) {
                events.push(span_event(top, "E", top.start_us + top.dur_us));
            }
            events.push(span_event(span, "B", span.start_us));
            open.push(span);
        }
        for top in open.into_iter().rev() {
            events.push(span_event(top, "E", top.start_us + top.dur_us));
        }
    }

    let document = obj(vec![
        ("displayTimeUnit", string("ms")),
        ("traceEvents", Value::Array(events)),
    ]);
    let mut out = String::new();
    document.render(&mut out);
    out
}

/// A `B` or `E` event of `span` at `ts`.
fn span_event(span: &ProfSpan, ph: &str, ts: u64) -> Value {
    obj(vec![
        ("name", string(&span.name)),
        ("ph", string(ph)),
        ("pid", uint(1)),
        ("tid", uint(u64::from(span.lane) + 1)),
        ("ts", uint(ts)),
    ])
}

/// Counter samples from a metrics-registry snapshot, one point per metric
/// at `ts_us`. Sampling the registry at phase boundaries turns cumulative
/// counters into step curves in the trace viewer.
pub fn counters_from_snapshot(snapshot: &BTreeMap<String, u64>, ts_us: u64) -> Vec<CounterSample> {
    snapshot
        .iter()
        .map(|(name, value)| CounterSample {
            track: name.clone(),
            ts_us,
            value: *value as f64,
        })
        .collect()
}

/// Structural summary of a validated trace, from [`check_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCheck {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Distinct tids carrying `B`/`E` span events.
    pub lanes: usize,
    /// Deepest observed `B` nesting across all lanes.
    pub max_depth: usize,
    /// Distinct counter track names (`ph == "C"`).
    pub counter_tracks: usize,
}

/// Parses a Chrome Trace Event Format document and verifies it is
/// structurally sound: valid JSON, every `E` closes the matching open `B`
/// on its tid, no span left open at the end, and timestamps are
/// non-decreasing per tid in file order. Returns the observed shape or a
/// description of the first violation.
pub fn check_trace(text: &str) -> Result<TraceCheck, String> {
    let document = serde_json::from_str::<Value>(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = document
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing traceEvents array".to_owned())?;

    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut span_tids: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    let mut tracks: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut max_depth = 0usize;

    for (index, event) in events.iter().enumerate() {
        let ph = event.get("ph").and_then(Value::as_str).unwrap_or("");
        if ph == "M" {
            continue;
        }
        let name = event
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {index}: missing name"))?;
        let tid = event
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {index}: missing tid"))?;
        let ts = event
            .get("ts")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {index}: missing or non-integer ts"))?;
        if let Some(prev) = last_ts.get(&tid) {
            if ts < *prev {
                return Err(format!(
                    "event {index}: ts {ts} goes backwards on tid {tid} (prev {prev})"
                ));
            }
        }
        last_ts.insert(tid, ts);
        match ph {
            "B" => {
                span_tids.insert(tid);
                let stack = stacks.entry(tid).or_default();
                stack.push(name.to_owned());
                max_depth = max_depth.max(stack.len());
            }
            "E" => {
                let stack = stacks.entry(tid).or_default();
                match stack.pop() {
                    Some(open) if open == name => {}
                    Some(open) => {
                        return Err(format!(
                            "event {index}: E \"{name}\" closes open span \"{open}\" on tid {tid}"
                        ));
                    }
                    None => {
                        return Err(format!(
                            "event {index}: E \"{name}\" with no open span on tid {tid}"
                        ));
                    }
                }
            }
            "C" => {
                tracks.insert(name.to_owned());
            }
            other => {
                return Err(format!("event {index}: unsupported phase \"{other}\""));
            }
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("span \"{open}\" left open on tid {tid}"));
        }
    }
    Ok(TraceCheck {
        events: events.len(),
        lanes: span_tids.len(),
        max_depth,
        counter_tracks: tracks.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, lane: u32, depth: u32, start_us: u64, dur_us: u64) -> ProfSpan {
        ProfSpan {
            name: name.to_owned(),
            lane,
            depth,
            start_us,
            dur_us,
            self_us: dur_us,
            counters: Vec::new(),
        }
    }

    #[test]
    fn export_then_check_round_trips() {
        let spans = vec![
            span("outer", 0, 0, 0, 100),
            span("mid", 0, 1, 10, 50),
            span("leaf", 0, 2, 20, 10),
            span("worker", 1, 0, 5, 40),
        ];
        let counters = vec![
            CounterSample {
                track: "dram.cycles".to_owned(),
                ts_us: 50,
                value: 1000.0,
            },
            CounterSample {
                track: "dram.requests.served".to_owned(),
                ts_us: 50,
                value: 64.0,
            },
        ];
        let text = trace_json(&spans, &counters);
        let check = check_trace(&text).expect("trace must validate");
        assert_eq!(check.lanes, 2);
        assert_eq!(check.max_depth, 3);
        assert_eq!(check.counter_tracks, 2);
        // 4 spans * 2 + 2 counters + 3 metadata (process + 2 lanes).
        assert_eq!(check.events, 13);
        // Determinism: same input, same bytes.
        assert_eq!(text, trace_json(&spans, &counters));
    }

    #[test]
    fn zero_width_adjacency_stays_well_nested() {
        // Sibling B at the same ts as the previous sibling's E: E must be
        // emitted first or the stack check would interleave them.
        let spans = vec![
            span("parent", 0, 0, 0, 20),
            span("a", 0, 1, 0, 10),
            span("b", 0, 1, 10, 10),
        ];
        let text = trace_json(&spans, &[]);
        let check = check_trace(&text).expect("adjacent siblings must nest");
        assert_eq!(check.max_depth, 2);
    }

    #[test]
    fn zero_duration_stack_stays_well_nested() {
        // Sub-microsecond scopes round to dur 0; depth-first emission
        // keeps each E after its own B and its children's.
        let spans = vec![
            span("w", 1, 0, 7, 0),
            span("inner", 1, 1, 7, 0),
            span("leaf", 1, 2, 7, 0),
        ];
        let check = check_trace(&trace_json(&spans, &[])).expect("zero-width stack must nest");
        assert_eq!(check.max_depth, 3);
    }

    #[test]
    fn check_rejects_unbalanced_and_backwards() {
        let unbalanced = r#"{"traceEvents":[
            {"name":"a","ph":"B","pid":1,"tid":1,"ts":0}
        ]}"#;
        assert!(check_trace(unbalanced).is_err());
        let backwards = r#"{"traceEvents":[
            {"name":"a","ph":"B","pid":1,"tid":1,"ts":10},
            {"name":"a","ph":"E","pid":1,"tid":1,"ts":5}
        ]}"#;
        assert!(check_trace(backwards).is_err());
        let mismatched = r#"{"traceEvents":[
            {"name":"a","ph":"B","pid":1,"tid":1,"ts":0},
            {"name":"b","ph":"E","pid":1,"tid":1,"ts":5}
        ]}"#;
        assert!(check_trace(mismatched).is_err());
        assert!(check_trace("not json").is_err());
    }
}
