//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, a parent and the workload it belongs
//! to. Spans are kept in memory while the run measures and written out as
//! JSONL when it ends, so the write never lands inside a timed phase. The
//! self time of a span is its duration minus the part of its interval that
//! its child spans cover; children that overlap each other (cells running
//! on two workers) are merged first, so parallel work is not subtracted
//! twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `calibrate.gpu` or `sched.decide`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span this call ran inside, if any.
    pub parent: Option<SpanId>,
    /// Workload id.
    pub workload: &'static str,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    workload: &'static str,
    spans: Mutex<Vec<Span>>,
}

/// A span recorder; the disabled tracer records nothing and costs one
/// branch per call. Cloning shares the recorder, so worker threads can
/// record into the same span list.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::default()
    }

    /// A recording tracer for `workload`.
    pub fn on(workload: &'static str) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                origin: Instant::now(),
                workload,
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's id
    /// (or `None` when tracing is off) so it can parent nested spans.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let Some(inner) = &self.inner else {
            return f(None);
        };
        let start_ns = elapsed_ns(inner.origin);
        let id = {
            let mut spans = inner.spans.lock().expect("span list");
            spans.push(Span {
                name: name.to_owned(),
                start_ns,
                end_ns: start_ns,
                parent,
                workload: inner.workload,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end_ns = elapsed_ns(inner.origin);
        inner.spans.lock().expect("span list")[id].end_ns = end_ns;
        out
    }

    /// A copy of every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map(|inner| inner.spans.lock().expect("span list").clone())
            .unwrap_or_default()
    }
}

fn elapsed_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Length of the union of `intervals` after clipping each to `[lo, hi)`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.filter(|&p| p < spans.len()) {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration_ns() - covered_ns(span.start_ns, span.end_ns, kids))
        .collect()
}

/// Per span name: (calls, total ns, self ns).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name.clone()).or_default();
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += self_ns;
    }
    out
}

/// Writes one JSON object per span, with its self time, to `path`.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (span, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"workload\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            span.name, span.workload, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            workload: "test",
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two cells on two workers overlap in [20, 40).
        let spans = vec![
            span("sweep", 0, 100, None),
            span("cell", 10, 40, Some(0)),
            span("cell", 20, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 50]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span("p", 10, 50, None),
            span("early", 0, 20, Some(0)),
            span("late", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn nested_children_are_not_grandchildren_of_the_root() {
        // Grandchildren count against their own parent only.
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 0, 50, Some(0)),
            span("grandchild", 0, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 0, 50]);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("root", 0, 100, None),
            span("cell", 0, 30, Some(0)),
            span("cell", 30, 50, Some(0)),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(totals["cell"], (2, 50, 50));
        assert_eq!(totals["root"], (1, 100, 50));
    }

    #[test]
    fn tracer_records_nesting_and_off_records_nothing() {
        let tracer = Tracer::on("test");
        tracer.span("outer", None, |outer| {
            tracer.span("inner", outer, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::off();
        assert_eq!(off.span("x", None, |id| id), None);
        assert!(off.spans().is_empty());
    }
}
