//! `pccs-serve` — online, event-driven inference serving on heterogeneous
//! SoCs, with PCCS-guided admission control, batching, and SLO accounting.
//!
//! Where `pccs-sched` replays a fixed job mix offline, this crate serves an
//! *open-loop* request stream: arrivals keep coming whether or not the
//! machine keeps up, so the interesting quantities are tail latency and
//! deadline-miss rate as functions of the offered rate. The pipeline:
//!
//! - [`arrivals`] expands an [`ArrivalProcess`] (Poisson, bursty MMPP, or a
//!   replayed trace file) into a deterministic event list from a seed;
//! - [`admission`] predicts each request's finish with per-PU PCCS slowdown
//!   models and sheds requests its policy expects to miss their deadline;
//! - [`batch`] coalesces admitted same-class requests into bundles;
//! - the [`engine`] places bundles with any `pccs-sched` [`Policy`] against
//!   the `pccs-soc` co-run simulator;
//! - [`slo`] keeps per-class latency histograms and publishes `serve.*`
//!   metrics at epoch boundaries;
//! - [`recalibrate`] watches observed-vs-predicted service drift and
//!   refreshes the admission model's correction factors online.
//!
//! ```
//! use pccs_serve::{boxed_models, paper_models, run_serve, ServeConfig};
//! use pccs_serve::request::contended_classes;
//! use pccs_sched::policy::ObliviousGreedy;
//! use pccs_soc::soc::SocConfig;
//!
//! let soc = SocConfig::xavier();
//! let classes = contended_classes();
//! let mut policy = ObliviousGreedy;
//! let models = boxed_models(&paper_models(&soc));
//! let report = run_serve(&soc, &classes, &mut policy, models, &ServeConfig::quick())
//!     .expect("bundled classes are servable on Xavier");
//! assert_eq!(report.offered, report.admitted + report.shed);
//! ```
//!
//! [`ArrivalProcess`]: arrivals::ArrivalProcess
//! [`Policy`]: pccs_sched::policy::Policy

#![warn(missing_docs, unreachable_pub)]

/// Deadline-aware admission control on PCCS finish predictions.
pub mod admission;
/// Deterministic open-loop arrival processes (Poisson, bursty, trace).
pub mod arrivals;
/// Same-class request batching into placement bundles.
pub mod batch;
/// The discrete-event serving loop and its configuration.
pub mod engine;
/// Typed serving failures.
pub mod error;
/// Online observed-vs-predicted drift tracking and recalibration.
pub mod recalibrate;
/// Serving reports: per-request outcomes and per-class SLO summaries.
pub mod report;
/// The bundled request classes and their deadlines.
pub mod request;
/// Per-class latency accounting and `serve.*` metric publication.
pub mod slo;

pub use admission::{AdmissionController, AdmissionPolicy};
pub use arrivals::ArrivalProcess;
pub use batch::BatchConfig;
pub use engine::{run_serve, ServeConfig};
pub use error::ServeError;
pub use pccs_sched::policy::{boxed_models, paper_models};
pub use recalibrate::DriftMonitor;
pub use report::{ClassSlo, RequestOutcome, ServeReport};
pub use request::RequestClass;
pub use slo::SloAccountant;
