//! Regeneration of every table and figure in the PCCS paper's evaluation.
//!
//! Each `figN`/`tableN` module reproduces one artifact:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig2`] | Fig. 2 — % of requested bandwidth met under external pressure |
//! | [`fig3`] | Fig. 3 — synthetic kernels under pressure, three demand classes |
//! | [`fig5`] | Fig. 5 + Tables 1–3 — five MC scheduling policies on the CMP config |
//! | [`fig6`] | Fig. 6 — the three-region model chart |
//! | [`table5`] | Table 5 — linear parameter scaling across memory clocks |
//! | [`table7`] | Table 7 — constructed model parameters for all five PUs |
//! | [`validate`] | Figs. 8–12 — per-benchmark prediction vs actual, PCCS vs Gables |
//! | [`fig13`] | Fig. 13 — CFD with average vs piecewise bandwidth |
//! | [`fig14`] | Fig. 14 + Table 8 — eleven 3-PU co-run workloads |
//! | [`table9`] | Table 9 + Fig. 15 — GPU frequency selection use case |
//! | [`table10`] | Table 10 — related-work model comparison (accuracy × cost) |
//! | [`oblivious`] | §3.2 — source-obliviousness validation |
//! | [`sched_study`] | scheduling runtime — placement policies on job mixes (`pccs-sched`) |
//!
//! Every module implements the [`runner::Experiment`] trait — enumerate
//! independent sweep cells, run each, merge — and [`runner::SweepRunner`]
//! fans the cells over worker threads with byte-identical output for any
//! thread count. Standalone profiles are memoized across experiments in
//! [`cache::ProfileCache`], shared through the [`context::Context`].
//!
//! All experiments run against the simulated SoCs of `pccs-soc` (see
//! DESIGN.md for the hardware-substitution rationale). The `repro` binary
//! drives them: `repro --quick fig3 table7`, `repro validate --jobs 4`,
//! or `repro all`.

#![warn(missing_docs, unreachable_pub)]

/// Cross-experiment memoization of standalone profiles.
pub mod cache;
/// Shared experiment context: SoC presets, measurement quality, and caches.
pub mod context;
/// Typed failures of the experiment harness.
pub mod error;
/// Figure 13: predicting the multi-phase CFD program with (a) its average.
pub mod fig13;
/// Figure 14 (with Table 8): the eleven real 3-PU co-run workloads —.
pub mod fig14;
/// Figure 2: the percentage of requested memory bandwidth that is met on a.
pub mod fig2;
/// Figure 3: achieved relative speed of synthetic kernels under external.
pub mod fig3;
/// Figure 5 and Table 3: the memory-controller policy study on the 16-core.
pub mod fig5;
/// Figure 6: the three-region interference-classification chart, rendered.
pub mod fig6;
/// Validation of the source-obliviousness insight (Section 3.2).
pub mod oblivious;
/// The unified experiment API and its parallel sweep engine.
pub mod runner;
/// The scheduling study: every bundled placement policy replayed on every.
pub mod sched_study;
/// The serving study: latency-throughput curves of the online serving loop.
pub mod serve_study;
/// Minimal text-table rendering for experiment reports.
pub mod table;
/// Table 10: the related-work comparison, made quantitative.
pub mod table10;
/// Table 5: linear bandwidth scaling of the PCCS parameters (Section 3.3).
pub mod table5;
/// Table 7: constructed PCCS model parameters for every PU of both SoCs.
pub mod table7;
/// Table 9 and Figure 15: the SoC-design use case — selecting the lowest.
pub mod table9;
/// Figures 8–12: empirical validation of the slowdown model on benchmark.
pub mod validate;

pub use cache::{CacheStats, ProfileCache};
pub use context::{Context, Quality};
pub use error::ExperimentError;
pub use runner::{Experiment, SweepRunner};
pub use table::TextTable;
