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

#![warn(missing_docs, unreachable_pub)]

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
/// Memory-controller scheduling policies (Table 2 of the paper).
pub mod policy;
/// Memory request and address types.
pub mod request;
/// The top-level DRAM simulation loop: traffic sources feeding one or more
/// memory controllers.
pub mod sim;
/// Per-source and aggregate memory-system statistics.
pub mod stats;
/// DRAM device timing parameters.
pub mod timing;
/// Synthetic traffic generators.
pub mod traffic;

pub use config::DramConfig;
pub use conformance::{ConformanceChecker, ConformanceReport};
pub use policy::PolicyKind;
pub use request::{MemoryRequest, ReqKind, SourceId};
pub use sim::{DramSystem, SimOutcome};

/// The multi-controller [`DramSystem`] (the paper's Section 5 multi-MC
/// extension): address routing and merged results.
#[cfg(test)]
mod multi {
    mod tests {
        use crate::config::DramConfig;
        use crate::policy::PolicyKind;
        use crate::request::SourceId;
        use crate::sim::{route_addr, DramSystem};
        use crate::traffic::StreamTraffic;

        fn stream(s: usize, gbps: f64) -> StreamTraffic {
            StreamTraffic::builder(SourceId(s))
                .demand_gbps(gbps)
                .row_locality(0.95)
                .window(64)
                .seed(31 + s as u64)
                .build()
        }

        #[test]
        fn routing_covers_all_mcs_and_local_channels() {
            let total = DramConfig::xavier();
            let per_mc = total.with_channels(total.channels / 2);
            let mut seen_mc = [false; 2];
            for i in 0..64u64 {
                let (mc, local) = route_addr(i * 64, &total, 2);
                seen_mc[mc] = true;
                // Local decode must stay inside the per-MC geometry.
                let d = crate::mapping::AddressMapping::default().decode(local, &per_mc);
                assert!(d.channel < per_mc.channels);
            }
            assert!(seen_mc.iter().all(|&b| b));
        }

        #[test]
        fn adjacent_lines_alternate_controllers() {
            let total = DramConfig::xavier();
            let (mc0, _) = route_addr(0, &total, 2);
            let (mc1, _) = route_addr(64, &total, 2);
            assert_ne!(mc0, mc1);
        }

        #[test]
        fn routing_preserves_line_offsets() {
            let total = DramConfig::xavier();
            let (_, base) = route_addr(12 * 64, &total, 4);
            let (_, offset) = route_addr(12 * 64 + 17, &total, 4);
            assert_eq!(offset - base, 17);
        }

        #[test]
        fn multi_mc_matches_single_mc_throughput_roughly() {
            let run_multi = |mcs: usize| {
                let mut sys =
                    DramSystem::with_controllers(DramConfig::xavier(), mcs, PolicyKind::Atlas);
                for s in 0..4 {
                    sys.add_generator(stream(s, 25.0));
                }
                let out = sys.run(30_000);
                (0..4).map(|s| out.source_bw_gbps(SourceId(s))).sum::<f64>()
            };
            let one = run_multi(1);
            let four = run_multi(4);
            assert!(
                (one - four).abs() / one < 0.25,
                "1 MC: {one:.1} GB/s vs 4 MCs: {four:.1} GB/s"
            );
        }

        #[test]
        fn merged_stats_account_all_requests() {
            let mut sys = DramSystem::with_controllers(DramConfig::xavier(), 2, PolicyKind::FrFcfs);
            sys.add_generator(stream(0, 40.0));
            let out = sys.run(20_000);
            let s = &out.stats.per_source[&SourceId(0)];
            assert!(s.served > 0);
            assert_eq!(
                s.served,
                s.row_hits + s.row_misses + s.row_conflicts,
                "outcome counts partition served requests"
            );
            assert_eq!(out.completed[&SourceId(0)], out.progress[&SourceId(0)]);
        }

        #[test]
        fn per_mc_reports_merge_and_reconcile() {
            let mut sys = DramSystem::with_controllers(DramConfig::xavier(), 2, PolicyKind::FrFcfs);
            sys.add_generator(stream(0, 40.0));
            sys.add_generator(stream(1, 20.0));
            sys.record_epochs(2_000);
            let out = sys.run(20_000);
            let report = out.telemetry.as_ref().expect("recorders attached");
            assert_eq!(report.total_bytes(), out.stats.total_bytes());
            let sources = report.sources();
            assert!(sources.contains(&0) && sources.contains(&1));
            // Each epoch index appears once after merging.
            let mut epochs: Vec<u64> = report.epochs.iter().map(|e| e.epoch).collect();
            let before = epochs.len();
            epochs.dedup();
            assert_eq!(epochs.len(), before);
        }

        #[test]
        #[should_panic(expected = "divide evenly")]
        fn rejects_uneven_channel_split() {
            DramSystem::with_controllers(DramConfig::xavier(), 3, PolicyKind::Fcfs);
        }
    }
}
