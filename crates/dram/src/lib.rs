//! Cycle-level DRAM and memory-controller simulator for the PCCS reproduction.
//!
//! This crate reimplements the apparatus of Section 2.3 of the PCCS paper
//! (MICRO'21): a detailed DRAM timing model (banks, rows, channels, address
//! mapping) behind a memory controller that can be configured with one of the
//! five scheduling policies studied in the paper (Table 2):
//!
//! * [`policy::Fcfs`] — first-come-first-serve,
//! * [`policy::FrFcfs`] — first-ready FCFS (row-hit prioritization),
//! * [`policy::Atlas`] — adaptive per-thread least-attained-service,
//! * [`policy::Tcm`] — thread cluster memory scheduling,
//! * [`policy::Sms`] — staged memory scheduling.
//!
//! The paper uses Ramulator + Pin for this study; we substitute a bank-state
//! timing model driven by synthetic traffic generators
//! ([`traffic::StreamTraffic`]), which is sufficient to reproduce row-buffer
//! hit-rate and effective-bandwidth differences between the policies
//! (Table 3) and the achieved-relative-speed curves of Figure 5.
//!
//! # Example
//!
//! ```
//! use pccs_dram::config::DramConfig;
//! use pccs_dram::policy::PolicyKind;
//! use pccs_dram::sim::{DramSystem, SimOutcome};
//! use pccs_dram::traffic::StreamTraffic;
//! use pccs_dram::request::SourceId;
//!
//! let config = DramConfig::cmp_study();
//! let mut system = DramSystem::new(config, PolicyKind::FrFcfs);
//! system.add_generator(StreamTraffic::builder(SourceId(0))
//!     .demand_gbps(30.0)
//!     .row_locality(0.9)
//!     .build());
//! let outcome: SimOutcome = system.run(100_000);
//! let achieved = outcome.source_bw_gbps(SourceId(0));
//! assert!(achieved > 0.0);
//! ```

/// Bank state machine.
pub mod bank;
/// Memory-system configuration and the presets used throughout the paper.
pub mod config;
/// DDR protocol conformance sanitizer.
pub mod conformance;
/// The memory controller: per-channel request queues, bank state, and the.
pub mod controller;
/// Physical-address-to-DRAM-coordinate mapping.
pub mod mapping;
/// Multi-memory-controller SoCs. Not yet wired into the SoC models —
/// kept for the chiplet-topology roadmap item.
pub mod multi; // pccs-lint: allow(dead-pub-item)
/// Memory-controller scheduling policies (Table 2 of the paper).
pub mod policy;
/// Memory request and address types.
pub mod request;
/// The top-level DRAM simulation loop: traffic sources feeding a memory.
pub mod sim;
/// Per-source and aggregate memory-system statistics.
pub mod stats;
/// DRAM device timing parameters.
pub mod timing;
/// Trace-driven simulation support.
pub mod trace;
/// Synthetic traffic generators.
pub mod traffic;

pub use config::DramConfig;
pub use conformance::{ConformanceChecker, ConformanceReport};
pub use policy::PolicyKind;
pub use request::{MemoryRequest, ReqKind, SourceId};
pub use sim::{DramSystem, SimOutcome};
