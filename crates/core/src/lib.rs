//! PCCS: the processor-centric contention-aware slowdown model (the primary
//! contribution of the MICRO'21 paper, Section 3).
//!
//! The crate is pure math — it consumes only plain calibration data and
//! produces slowdown predictions — so it can be paired with any substrate:
//! the simulated SoCs of `pccs-soc`, real hardware profiles, or
//! hand-written tables.
//!
//! # The three-region model
//!
//! A kernel's standalone bandwidth demand `x` places it in one of three
//! contention regions (Equation 1):
//!
//! * **Minor** (`x ≤ normal_bw`) — external pressure barely matters
//!   (Equation 2),
//! * **Normal** (`normal_bw < x ≤ intensive_bw`) — flat, then a linear drop
//!   once total demand crosses `TBWDC`, then flat again past the contention
//!   balance point `CBP` (Equation 3),
//! * **Intensive** (`x > intensive_bw`) — the drop starts immediately with a
//!   steeper rate (Equations 4–5).
//!
//! # Example
//!
//! ```
//! use pccs_core::{PccsModel, SlowdownModel};
//!
//! // Xavier GPU parameters (Table 7 of the paper).
//! let model = PccsModel::xavier_gpu_paper();
//! // streamcluster demands ~60 GB/s; predict under 50 GB/s external load.
//! let rs = model.relative_speed_pct(60.0, 50.0);
//! assert!(rs > 0.0 && rs <= 100.0);
//! ```

#![warn(missing_docs, unreachable_pub)]

/// Model construction from calibration measurements (Section 3.2).
pub mod builder;
/// Error types for model construction.
pub mod error;
/// The three-region slowdown model (Equations 2–5 of the paper) and its.
pub mod model;
/// Multi-phase program handling (Section 3.2, "Handling multi-phase.
pub mod phased;
/// Contention-region classification (Equation 1 of the paper).
pub mod region;
/// The common interface of co-run slowdown models.
pub mod traits;

pub use builder::{CalibrationData, ModelBuilder};
pub use error::ModelBuildError;
pub use model::PccsModel;
pub use phased::PhasedWorkload;
pub use region::Region;
pub use traits::SlowdownModel;
