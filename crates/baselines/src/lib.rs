//! Related-work slowdown models, reproducing the approaches the paper
//! compares against in its Table 10:
//!
//! | Model | Interference model | Needs per-app co-runs? |
//! |---|---|---|
//! | [`BubbleUp`] | empirical per-app sensitivity curve | yes (one curve per app) |
//! | [`CorunTable`] | lookup table of measured co-runs | yes (a full grid per app pair) |
//! | [`EspRegression`] | linear regression on co-run samples | yes (training set) |
//! | `GablesModel` (in `pccs-gables`) | analytical roofline share | no |
//! | `PccsModel` (in `pccs-core`) | empirical + analytical, processor-centric | **no** |
//!
//! The point the paper makes — and that the Table 10 experiment in
//! `pccs-experiments` quantifies — is the *measurement cost* axis: the
//! first three models predict well but require co-run measurements of each
//! application of interest, which is exactly what is impossible at SoC
//! design time for future workloads. PCCS needs only calibrator runs.

#![warn(missing_docs, unreachable_pub)]

/// Bubble-up (Mars et al., MICRO'11): an empirically measured per-application.
pub mod bubbleup;
/// ESP-style interference prediction (Mishra et al., ICAC'17): a black-box.
pub mod esp;
/// Co-run lookup table (Zhu et al., IPDPS'17): predictions read directly.
pub mod lookup;

pub use bubbleup::BubbleUp;
pub use esp::EspRegression;
pub use lookup::CorunTable;
