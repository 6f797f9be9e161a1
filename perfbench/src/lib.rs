//! The repository benchmark of the PCCS reproduction.
//!
//! It drives three workloads through the workspace's public entry points
//! and measures them from outside: wall and CPU time around each call,
//! `/proc/self` for CPU time and peak memory, and the process-global
//! `pccs_telemetry::metrics` registry read around each measured phase. A
//! traced run adds spans and timing wrappers around the calls into each
//! layer. See `README.md` in this directory for the metric table.

pub mod procfs;
pub mod report;
pub mod trace;
pub mod workloads;
pub mod wrap;
