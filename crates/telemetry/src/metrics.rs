//! Process-global metrics registry: named monotonic counters and
//! high-watermark gauges.
//!
//! The registry is the workspace-wide "what happened" ledger: the DRAM
//! simulator, the sweep runner, the profile cache, and the scheduling
//! replay engine all publish into it under stable dotted names (the full
//! name table lives in DESIGN.md §9). It is deliberately *not* a hot-path
//! structure: simulators accumulate into their own local stats structs and
//! publish once per run, so the per-event cost of the registry is zero and
//! the per-run cost is a handful of short mutex-guarded name lookups.
//!
//! Values are plain `u64`s behind relaxed atomics. A *counter* only ever
//! grows ([`Counter::add`]); a *gauge* keeps the maximum observed value
//! ([`Gauge::observe`]). Both share one namespace — a name's semantics are
//! fixed by its writers and documented in the name table.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Publish calls that reached the registry; see [`writes`].
static WRITES: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<BTreeMap<String, Arc<AtomicU64>>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Arc<AtomicU64>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn cell(name: &str) -> Arc<AtomicU64> {
    let mut map = registry().lock().expect("metrics registry poisoned");
    if let Some(found) = map.get(name) {
        return Arc::clone(found);
    }
    let fresh = Arc::new(AtomicU64::new(0));
    map.insert(name.to_owned(), Arc::clone(&fresh));
    fresh
}

/// How many counter adds and gauge observations reached the registry
/// since the process started.
/// Not itself a metric: it is the deterministic cost of publication,
/// which must not grow with simulated cycles.
pub fn writes() -> u64 {
    WRITES.load(Ordering::Relaxed)
}

/// A handle to a monotonic counter. Cheap to clone; increments are relaxed
/// atomic adds with no lock. Acquire once, publish many times.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        WRITES.fetch_add(1, Ordering::Relaxed);
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A handle to a high-watermark gauge: [`Gauge::observe`] keeps the
/// maximum value seen.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Raises the gauge to `value` if it is above the current watermark.
    pub fn observe(&self, value: u64) {
        WRITES.fetch_add(1, Ordering::Relaxed);
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// The current watermark.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The counter registered under `name` (created on first use).
pub fn counter(name: &str) -> Counter {
    Counter(cell(name))
}

/// The high-watermark gauge registered under `name` (created on first use).
pub fn gauge(name: &str) -> Gauge {
    Gauge(cell(name))
}

/// One-shot convenience: `counter(name).add(delta)` without keeping the
/// handle. Costs one registry lock; fine at publish-once-per-run sites.
pub fn add(name: &str, delta: u64) {
    counter(name).add(delta);
}

/// One-shot convenience: `gauge(name).observe(value)`.
pub fn observe_max(name: &str, value: u64) {
    gauge(name).observe(value);
}

/// A sorted snapshot of every registered metric and its current value.
/// Key order is `BTreeMap` order, so two snapshots of the same registry
/// always serialize identically.
pub fn snapshot() -> BTreeMap<String, u64> {
    registry()
        .lock()
        .expect("metrics registry poisoned")
        .iter()
        .map(|(name, value)| (name.clone(), value.load(Ordering::Relaxed)))
        .collect()
}

/// Zeroes every registered metric, keeping the names, so a following
/// [`snapshot`] covers exactly one measured run.
pub fn reset() {
    for value in registry()
        .lock()
        .expect("metrics registry poisoned")
        .values()
    {
        value.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test for the whole lifecycle: the registry is process-global and
    // tests run concurrently, so use names no other test touches and never
    // call reset() here.
    #[test]
    fn counters_gauges_and_snapshots() {
        let c = counter("test.metrics.counter");
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);
        // Same name resolves to the same cell.
        add("test.metrics.counter", 6);
        assert_eq!(counter("test.metrics.counter").get(), 10);

        let g = gauge("test.metrics.gauge");
        g.observe(7);
        g.observe(3);
        assert_eq!(g.get(), 7);
        observe_max("test.metrics.gauge", 9);
        assert_eq!(g.get(), 9);

        let snap = snapshot();
        assert_eq!(snap.get("test.metrics.counter"), Some(&10));
        assert_eq!(snap.get("test.metrics.gauge"), Some(&9));
        // Snapshot keys are sorted (BTreeMap order).
        let keys: Vec<&String> = snap.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
