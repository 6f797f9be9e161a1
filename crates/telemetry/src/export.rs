//! Exporters: JSONL event stream, CSV time-series, and a human-readable
//! per-source summary table.

use crate::{ProfSpan, RunManifest, TelemetryReport};
use serde::{Serialize, Value};
use std::fmt::Write as _;

/// Wraps a serialized record in `{"type": tag, ...}` form; non-object
/// payloads land under a `"data"` key.
fn tagged(tag: &str, value: Value) -> Value {
    let mut map = match value {
        Value::Object(map) => map,
        other => {
            let mut map = std::collections::BTreeMap::new();
            map.insert("data".to_owned(), other);
            map
        }
    };
    map.insert("type".to_owned(), Value::String(tag.to_owned()));
    Value::Object(map)
}

/// Renders the run as a JSONL event stream: one `manifest` line, one
/// `epoch` line per sample, one `span` line per profiler span.
pub fn jsonl_events(
    manifest: Option<&RunManifest>,
    report: Option<&TelemetryReport>,
    spans: &[ProfSpan],
) -> String {
    let mut out = String::new();
    if let Some(m) = manifest {
        let mut line = String::new();
        tagged("manifest", m.to_value()).render(&mut line);
        out.push_str(&line);
        out.push('\n');
    }
    if let Some(r) = report {
        for sample in &r.epochs {
            let mut line = String::new();
            let mut v = tagged("epoch", sample.to_value());
            if let Value::Object(map) = &mut v {
                map.insert(
                    "epoch_cycles".to_owned(),
                    serde::Value::Number(serde::Number::U(r.epoch_cycles)),
                );
            }
            v.render(&mut line);
            out.push_str(&line);
            out.push('\n');
        }
    }
    for span in spans {
        let mut line = String::new();
        tagged("span", span.to_value()).render(&mut line);
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Renders arbitrary serializable records as a tagged JSONL stream: one
/// `{"type": tag, ...}` line per record. Used for event streams the
/// simulators do not know about — e.g. the scheduling runtime's
/// per-decision records — so they compose with [`jsonl_events`] output in
/// the same file.
pub fn jsonl_records<T: Serialize>(tag: &str, rows: &[T]) -> String {
    let mut out = String::new();
    for row in rows {
        let mut line = String::new();
        tagged(tag, row.to_value()).render(&mut line);
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Renders the epoch time-series as CSV: one row per epoch, one
/// `bytes_src<N>` column per source seen anywhere in the run.
pub fn csv_timeseries(report: &TelemetryReport) -> String {
    let sources = report.sources();
    let mut out = String::new();
    out.push_str("epoch,start_cycle,end_cycle,total_bytes");
    for src in &sources {
        let _ = write!(out, ",bytes_src{src}");
    }
    out.push_str(
        ",served,row_hits,row_misses,row_conflicts,\
         issued,bus_blocked,no_candidate,idle,queue_depth_avg,queue_depth_max\n",
    );
    for e in &report.epochs {
        let _ = write!(
            out,
            "{},{},{},{}",
            e.epoch,
            e.start_cycle,
            e.end_cycle,
            e.total_bytes()
        );
        for src in &sources {
            let _ = write!(
                out,
                ",{}",
                e.bytes_per_source.get(src).copied().unwrap_or(0)
            );
        }
        let _ = writeln!(
            out,
            ",{},{},{},{},{},{},{},{},{:.2},{}",
            e.served,
            e.row_hits,
            e.row_misses,
            e.row_conflicts,
            e.issued,
            e.bus_blocked,
            e.no_candidate,
            e.idle,
            e.queue_depth_avg,
            e.queue_depth_max
        );
    }
    out
}

/// Quotes a CSV field per RFC 4180 when it contains a comma, quote, or
/// newline; passes every other string through untouched. All CSV writers
/// in the workspace route string-typed fields through this, so labels
/// like `corun(cpu,gpu)` survive a round trip through a CSV parser.
pub fn csv_field(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        field.to_owned()
    }
}

/// Splits one CSV line produced by this module back into fields,
/// reversing [`csv_field`]'s quoting. Only used by round-trip tests and
/// the trace tooling; not a general CSV parser (no embedded newlines
/// across physical lines).
pub fn csv_split(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut chars = line.chars().peekable();
    let mut quoted = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    current.push('"');
                } else {
                    quoted = false;
                }
            }
            '"' if current.is_empty() => quoted = true,
            ',' if !quoted => fields.push(std::mem::take(&mut current)),
            _ => current.push(c),
        }
    }
    fields.push(current);
    fields
}

/// Renders the per-source summary as CSV (same columns as
/// [`render_summary`], machine-readable, labels escaped via
/// [`csv_field`]).
pub fn csv_summary(rows: &[SummaryRow]) -> String {
    let mut out = String::new();
    out.push_str("source,served,bytes,bw_gbps,avg_latency,p50,p95,p99,max,enqueued,rejected\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{:.2},{:.1},{},{},{},{},{},{}",
            csv_field(&r.label),
            r.served,
            r.bytes,
            r.bw_gbps,
            r.avg_latency,
            r.p50,
            r.p95,
            r.p99,
            r.max_latency,
            r.enqueued,
            r.rejected
        );
    }
    out
}

/// One row of the per-source summary table. Built by the caller from
/// simulator stats (this crate does not know the simulator types).
#[derive(Debug, Clone, Default)]
pub struct SummaryRow {
    /// Row label (source name or id).
    pub label: String,
    /// Requests served.
    pub served: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Achieved bandwidth in GB/s.
    pub bw_gbps: f64,
    /// Mean service latency in cycles.
    pub avg_latency: f64,
    /// Median latency in cycles.
    pub p50: u64,
    /// 95th-percentile latency in cycles.
    pub p95: u64,
    /// 99th-percentile latency in cycles.
    pub p99: u64,
    /// Maximum latency in cycles.
    pub max_latency: u64,
    /// Requests accepted into the controller queue.
    pub enqueued: u64,
    /// Requests refused at the queue (back-pressure).
    pub rejected: u64,
}

/// Renders aligned per-source rows with a totals line.
pub fn render_summary(rows: &[SummaryRow]) -> String {
    const HEADERS: [&str; 11] = [
        "source", "served", "bytes", "GB/s", "avg", "p50", "p95", "p99", "max", "enqueued",
        "rejected",
    ];
    let mut cells: Vec<[String; 11]> = rows
        .iter()
        .map(|r| {
            [
                r.label.clone(),
                r.served.to_string(),
                r.bytes.to_string(),
                format!("{:.2}", r.bw_gbps),
                format!("{:.1}", r.avg_latency),
                r.p50.to_string(),
                r.p95.to_string(),
                r.p99.to_string(),
                r.max_latency.to_string(),
                r.enqueued.to_string(),
                r.rejected.to_string(),
            ]
        })
        .collect();
    if rows.len() > 1 {
        let sum = |f: fn(&SummaryRow) -> u64| rows.iter().map(f).sum::<u64>();
        cells.push([
            "total".to_owned(),
            sum(|r| r.served).to_string(),
            sum(|r| r.bytes).to_string(),
            format!("{:.2}", rows.iter().map(|r| r.bw_gbps).sum::<f64>()),
            "-".to_owned(),
            "-".to_owned(),
            "-".to_owned(),
            "-".to_owned(),
            rows.iter()
                .map(|r| r.max_latency)
                .max()
                .unwrap_or(0)
                .to_string(),
            sum(|r| r.enqueued).to_string(),
            sum(|r| r.rejected).to_string(),
        ]);
    }
    let mut widths: Vec<usize> = HEADERS.iter().map(|h| h.len()).collect();
    for row in &cells {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, (h, w)) in HEADERS.iter().zip(widths.iter()).enumerate() {
        if i > 0 {
            out.push_str("  ");
        }
        let _ = write!(out, "{h:>w$}");
    }
    out.push('\n');
    for row in &cells {
        for (i, (cell, w)) in row.iter().zip(widths.iter()).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{cell:>w$}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpochRecorder, RowEvent, StallEvent};

    fn sample_report() -> TelemetryReport {
        let mut r = EpochRecorder::new(100);
        r.on_serve(10, 0, 64, RowEvent::Hit);
        r.on_serve(20, 1, 64, RowEvent::Miss);
        r.on_stall(20, StallEvent::Issued);
        r.on_tick(20, 3);
        r.on_serve(150, 0, 64, RowEvent::Conflict);
        r.finish();
        r.report()
    }

    #[test]
    fn jsonl_lines_parse_and_tag() {
        let manifest = RunManifest::new("test", "0.0.0", "unit");
        let report = sample_report();
        let spans = vec![ProfSpan {
            name: "phase".to_owned(),
            lane: 0,
            depth: 0,
            start_us: 1,
            dur_us: 5,
            self_us: 5,
            counters: vec![("n".to_owned(), 2.0)],
        }];
        let text = jsonl_events(Some(&manifest), Some(&report), &spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + report.epochs.len() + 1);
        let mut kinds = Vec::new();
        for line in &lines {
            let v: serde::Value = serde_json::from_str(line).unwrap();
            let obj = v.as_object().unwrap();
            kinds.push(obj["type"].as_str().unwrap().to_owned());
        }
        assert_eq!(kinds[0], "manifest");
        assert!(kinds[1..=report.epochs.len()].iter().all(|k| k == "epoch"));
        assert_eq!(kinds.last().unwrap(), "span");
    }

    #[test]
    fn records_tag_every_line() {
        #[derive(Serialize)]
        struct Decision {
            job: String,
            pu: u64,
        }
        let rows = vec![
            Decision {
                job: "resnet".to_owned(),
                pu: 1,
            },
            Decision {
                job: "vgg".to_owned(),
                pu: 2,
            },
        ];
        let text = jsonl_records("decision", &rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v: serde::Value = serde_json::from_str(line).unwrap();
            let obj = v.as_object().unwrap();
            assert_eq!(obj["type"].as_str().unwrap(), "decision");
            assert!(obj.contains_key("job") && obj.contains_key("pu"));
        }
    }

    #[test]
    fn csv_has_per_source_columns_and_reconciles() {
        let report = sample_report();
        let csv = csv_timeseries(&report);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("bytes_src0"));
        assert!(header.contains("bytes_src1"));
        assert!(header.contains("queue_depth_avg"));
        let mut total = 0u64;
        for line in lines {
            let total_bytes: u64 = line.split(',').nth(3).unwrap().parse().unwrap();
            total += total_bytes;
        }
        assert_eq!(total, report.total_bytes());
    }

    #[test]
    fn csv_fields_escape_and_round_trip() {
        let nasty = [
            "plain",
            "with,comma",
            "with\"quote",
            "both,\"of,them\"",
            "line\nbreak",
            "",
        ];
        for label in nasty {
            let row = SummaryRow {
                label: label.to_owned(),
                served: 1,
                bytes: 64,
                ..SummaryRow::default()
            };
            let csv = csv_summary(&[row]);
            let data_line = csv.lines().nth(1).unwrap_or_default();
            // An escaped newline keeps the field on one logical row
            // spanning two physical lines; rejoin for the check.
            let logical = if label.contains('\n') {
                let mut lines = csv.lines().skip(1);
                format!("{}\n{}", lines.next().unwrap(), lines.next().unwrap())
            } else {
                data_line.to_owned()
            };
            let fields = csv_split(&logical);
            assert_eq!(fields[0], label, "label {label:?} must round-trip");
            assert_eq!(fields[1], "1");
            assert_eq!(fields.len(), 11);
        }
    }

    #[test]
    fn jsonl_is_deterministic_with_sorted_keys() {
        let report = sample_report();
        let spans = vec![ProfSpan {
            name: "phase".to_owned(),
            lane: 0,
            depth: 0,
            start_us: 1,
            dur_us: 5,
            self_us: 5,
            counters: vec![],
        }];
        let a = jsonl_events(None, Some(&report), &spans);
        let b = jsonl_events(None, Some(&report), &spans);
        assert_eq!(a, b, "same input must serialize to identical bytes");
        // Keys within every line come out of a BTreeMap, i.e. sorted —
        // the property that guards against iteration-order drift.
        for line in a.lines() {
            let keys: Vec<String> = {
                let v: serde::Value = serde_json::from_str(line).unwrap();
                v.as_object().unwrap().keys().cloned().collect()
            };
            let mut sorted = keys.clone();
            sorted.sort();
            assert_eq!(keys, sorted, "keys must be sorted in {line}");
            let reparsed: serde::Value = serde_json::from_str(line).unwrap();
            let mut rendered = String::new();
            reparsed.render(&mut rendered);
            assert_eq!(rendered, *line, "parse/render round trip");
        }
    }

    #[test]
    fn summary_table_aligns_and_totals() {
        let rows = vec![
            SummaryRow {
                label: "cpu".to_owned(),
                served: 10,
                bytes: 640,
                bw_gbps: 1.5,
                avg_latency: 20.0,
                p50: 18,
                p95: 40,
                p99: 44,
                max_latency: 50,
                enqueued: 12,
                rejected: 2,
            },
            SummaryRow {
                label: "gpu".to_owned(),
                served: 5,
                bytes: 320,
                bw_gbps: 0.7,
                avg_latency: 35.0,
                p50: 30,
                p95: 70,
                p99: 80,
                max_latency: 90,
                enqueued: 5,
                rejected: 0,
            },
        ];
        let table = render_summary(&rows);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("p95"));
        assert!(lines[3].contains("total"));
        assert!(lines[3].contains("960"));
        assert!(lines[3].contains("90"));
    }
}
