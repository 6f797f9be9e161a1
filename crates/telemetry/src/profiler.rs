//! Hierarchical scoped profiler with per-thread lanes and self-time.
//!
//! [`Profiler::scope`] opens a phase that records itself when the guard
//! drops, with any counters attached via [`ProfScope::counter`]. The
//! profiler tracks *nesting*: each thread keeps a stack of open scopes, so
//! a recorded [`ProfSpan`] knows its depth, its lane (a small integer
//! assigned to each thread on first use), and its **self time** — the
//! span's duration minus the time spent inside child spans. That is what
//! lets the Perfetto exporter ([`crate::perfetto`]) lay spans out in
//! per-worker lanes, what makes the [`summary`] table answer "where did
//! the time actually go" rather than "what enclosed what", and what the
//! JSONL exporter ([`crate::export::jsonl_events`]) writes as `span`
//! lines.
//!
//! Disabled by default: a scope costs one relaxed atomic load and
//! allocates nothing until [`Profiler::enable`] is called. Timing uses the
//! monotonic clock ([`std::time::Instant`]) only; this crate is
//! intentionally outside the determinism-linted set, so simulation results
//! can never depend on it.

use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

fn spans() -> &'static Mutex<Vec<ProfSpan>> {
    static SPANS: OnceLock<Mutex<Vec<ProfSpan>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Whole microseconds from the profiler epoch to `at`.
fn micros_since_epoch(at: Instant) -> u64 {
    at.duration_since(epoch())
        .as_micros()
        .min(u128::from(u64::MAX)) as u64
}

thread_local! {
    static LANE: Cell<Option<u32>> = const { Cell::new(None) };
    // One u64 of accumulated child time per open scope on this thread.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn lane_id() -> u32 {
    LANE.with(|lane| match lane.get() {
        Some(id) => id,
        None => {
            let id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
            lane.set(Some(id));
            id
        }
    })
}

/// One completed profiler scope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfSpan {
    /// Phase name.
    pub name: String,
    /// Lane (thread) the scope ran on; lane 0 is the first thread that
    /// opened a scope, usually the main thread.
    pub lane: u32,
    /// Nesting depth at open time: 0 for a top-level scope on its lane.
    pub depth: u32,
    /// Microseconds from profiler epoch to scope open.
    pub start_us: u64,
    /// Total scope duration in microseconds: whole microseconds to scope
    /// close minus `start_us`, so a child's `[start_us, start_us +
    /// dur_us]` always lies within its parent's.
    pub dur_us: u64,
    /// Duration minus time spent in child scopes, in microseconds.
    pub self_us: u64,
    /// Counters attached during the scope, in attachment order.
    pub counters: Vec<(String, f64)>,
}

/// The global hierarchical profiler.
pub struct Profiler;

impl Profiler {
    /// Turns profiling on.
    pub fn enable() {
        epoch();
        ENABLED.store(true, Ordering::Relaxed);
    }

    /// Turns profiling off (already-recorded spans are kept).
    pub fn disable() {
        ENABLED.store(false, Ordering::Relaxed);
    }

    /// Whether scopes are currently recorded.
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Microseconds elapsed since the profiler epoch; the timebase shared
    /// by every [`ProfSpan`], so callers can stamp counter samples onto
    /// the same axis.
    pub fn now_us() -> u64 {
        micros_since_epoch(Instant::now())
    }

    /// Opens a scope; it records itself when dropped. Free when profiling
    /// is disabled.
    pub fn scope(name: &str) -> ProfScope {
        if !Self::is_enabled() {
            return ProfScope { inner: None };
        }
        let lane = lane_id();
        let depth = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let depth = open.len() as u32;
            open.push(0);
            depth
        });
        ProfScope {
            inner: Some(ScopeInner {
                name: name.to_owned(),
                lane,
                depth,
                started: Instant::now(),
                counters: Vec::new(),
            }),
        }
    }

    /// Takes all recorded spans, leaving the log empty.
    pub fn drain() -> Vec<ProfSpan> {
        std::mem::take(&mut *spans().lock().expect("profiler log poisoned"))
    }
}

struct ScopeInner {
    name: String,
    lane: u32,
    depth: u32,
    started: Instant,
    counters: Vec<(String, f64)>,
}

/// Guard returned by [`Profiler::scope`]; records the span on drop.
pub struct ProfScope {
    inner: Option<ScopeInner>,
}

impl ProfScope {
    /// Attaches a named counter to the span (no-op when disabled).
    pub fn counter(&mut self, name: &str, value: f64) {
        if let Some(inner) = &mut self.inner {
            inner.counters.push((name.to_owned(), value));
        }
    }
}

impl Drop for ProfScope {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        // Truncate both ends on the shared timebase rather than the start
        // and the duration separately, which could render a sub-µs parent
        // as ending before its child starts.
        let start_us = micros_since_epoch(inner.started);
        let dur_us = Profiler::now_us().saturating_sub(start_us);
        let child_us = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let child_us = open.pop().unwrap_or(0);
            if let Some(parent) = open.last_mut() {
                *parent += dur_us;
            }
            child_us
        });
        let span = ProfSpan {
            name: inner.name,
            lane: inner.lane,
            depth: inner.depth,
            start_us,
            dur_us,
            self_us: dur_us.saturating_sub(child_us),
            counters: inner.counters,
        };
        spans().lock().expect("profiler log poisoned").push(span);
    }
}

/// Per-phase aggregate over a set of recorded spans.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Phase name.
    pub name: String,
    /// Number of recorded scopes with this name.
    pub calls: u64,
    /// Sum of total durations, microseconds.
    pub total_us: u64,
    /// Sum of self times, microseconds.
    pub self_us: u64,
}

/// Aggregates spans into per-name call/total/self rows, sorted by name so
/// repeated exports of the same spans are byte-identical.
pub fn summary(spans: &[ProfSpan]) -> Vec<PhaseStats> {
    let mut by_name: std::collections::BTreeMap<&str, PhaseStats> =
        std::collections::BTreeMap::new();
    for span in spans {
        let entry = by_name.entry(&span.name).or_insert_with(|| PhaseStats {
            name: span.name.clone(),
            calls: 0,
            total_us: 0,
            self_us: 0,
        });
        entry.calls += 1;
        entry.total_us += span.dur_us;
        entry.self_us += span.self_us;
    }
    by_name.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profiler is process-global and tests run concurrently, so every
    // test that enables it holds this lock; no other test in this crate
    // enables it.
    static GLOBAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn span_lifecycle() {
        let _guard = exclusive();
        assert!(!Profiler::is_enabled());
        {
            let mut off = Profiler::scope("ignored-while-disabled");
            off.counter("points", 1.0);
            assert!(off.inner.is_none(), "a disabled scope holds nothing");
        }
        Profiler::enable();
        {
            let mut fit = Profiler::scope("fit");
            fit.counter("points", 12.0);
            fit.counter("rows", 3.0);
        }
        Profiler::disable();
        {
            let _off = Profiler::scope("ignored-again");
        }
        let recorded = Profiler::drain();
        let fit: Vec<_> = recorded.iter().filter(|s| s.name == "fit").collect();
        assert_eq!(fit.len(), 1);
        assert_eq!(
            fit[0].counters,
            vec![("points".to_owned(), 12.0), ("rows".to_owned(), 3.0)],
            "counters attach in order"
        );
        assert!(!recorded.iter().any(|s| s.name.starts_with("ignored")));
        assert!(Profiler::drain().is_empty(), "drain empties the log");
    }

    #[test]
    fn nesting_self_time_and_summary() {
        let _guard = exclusive();
        Profiler::enable();
        {
            let mut outer = Profiler::scope("outer");
            outer.counter("points", 12.0);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = Profiler::scope("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        Profiler::disable();
        let recorded = Profiler::drain();
        let outer = recorded.iter().find(|s| s.name == "outer").expect("outer");
        let inner = recorded.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.lane, inner.lane);
        assert!(outer.dur_us >= inner.dur_us);
        // Outer self time excludes inner's full duration.
        assert!(outer.self_us <= outer.dur_us - inner.dur_us);
        // Counters stay on the scope that set them.
        assert_eq!(outer.counters, vec![("points".to_owned(), 12.0)]);
        assert!(inner.counters.is_empty());

        let agg = summary(&recorded);
        let names: Vec<&str> = agg.iter().map(|p| p.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        let outer_agg = agg.iter().find(|p| p.name == "outer").expect("agg");
        assert_eq!(outer_agg.calls, 1);
        assert!(outer_agg.self_us <= outer_agg.total_us);
    }

    #[test]
    fn lanes_differ_across_threads() {
        let here = lane_id();
        let there = std::thread::spawn(lane_id).join().expect("join");
        assert_ne!(here, there);
    }
}
