//! Telemetry layer for the PCCS simulators.
//!
//! Three pieces, all optional and allocation-free on the hot path when
//! disabled:
//!
//! - [`EpochRecorder`] — the hooks the DRAM controller drives when epoch
//!   telemetry is on (off, the controller holds no recorder at all):
//!   per-source bandwidth, queue depth, row-buffer outcome mix, and the
//!   scheduler stall breakdown sampled every N cycles into a
//!   [`TelemetryReport`].
//! - [`LatencyHistogram`] — log-binned latency distribution with
//!   p50/p95/p99/max, embedded in the DRAM per-source stats.
//! - [`export`] — JSONL event stream (manifest, epoch and [`Profiler`]
//!   span lines), CSV time-series, and human-readable summary-table
//!   renderers, plus the [`RunManifest`] provenance record.
//!
//! The performance-observability layer (DESIGN.md §9) adds three more:
//!
//! - [`metrics`] — process-global registry of named counters and
//!   high-watermark gauges; simulators publish local stats into it once
//!   per run.
//! - [`Profiler`] — the one span mechanism: hierarchical scoped profiler
//!   with per-thread lanes, nesting depth, self-time, and counters per
//!   phase, for model construction, co-runs, sweeps and experiments.
//! - [`perfetto`] — Chrome/Perfetto `trace.json` exporter for profiler
//!   spans and counter tracks, plus the structural validator behind
//!   `pccs trace-check`.
//!
//! The model-observability layer (DESIGN.md §12) adds one more:
//!
//! - [`audit`] — process-global prediction-audit ledger of (prediction,
//!   ground-truth) pairs with SoC/PU/region/policy provenance,
//!   plus the accuracy scorecards behind `pccs audit`.

#![warn(missing_docs, unreachable_pub)]

mod histogram;
mod manifest;
mod profiler;
mod recorder;

/// Prediction-audit ledger: (prediction, ground-truth) pairs with
/// provenance, plus accuracy scorecards sliced per SoC × PU × region ×
/// policy.
pub mod audit;
/// Exporters: JSONL event stream, CSV time-series, and a human-readable.
pub mod export;
/// Process-global metrics registry: named counters and watermark gauges.
pub mod metrics;
/// Chrome/Perfetto trace exporter and structural validator.
pub mod perfetto;

pub use histogram::LatencyHistogram;
pub use manifest::RunManifest;
pub use profiler::{summary as profiler_summary, PhaseStats, ProfScope, ProfSpan, Profiler};
pub use recorder::{EpochRecorder, EpochSample, RowEvent, StallEvent, TelemetryReport};
