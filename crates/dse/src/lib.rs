//! Pre-silicon SoC design-space exploration with slowdown models
//! (Section 4.3 of the PCCS paper): PU frequency selection.
//!
//! The exploration loop: for each candidate PU frequency, obtain the
//! kernel's standalone performance and bandwidth demand (by profiling a
//! reclocked existing system — here, the simulator), feed the demand into
//! a [`SlowdownModel`](pccs_core::SlowdownModel) to predict its co-run
//! relative speed under the expected external bandwidth demand, and pick
//! the lowest frequency whose *co-run* performance is within the allowed
//! slowdown of the best achievable. A model that overestimates
//! co-run performance (Gables under contention) makes the architect buy
//! frequency that contention then wastes; PCCS's accuracy is what avoids
//! the over-provisioning (Table 9, Figure 15).
//!
//! # Example
//!
//! ```no_run
//! use pccs_soc::{SocConfig, KernelDesc};
//! use pccs_core::PccsModel;
//! use pccs_dse::freq::{profile_frequencies, select_frequency};
//!
//! let soc = SocConfig::xavier();
//! let gpu = soc.pu_index("GPU").unwrap();
//! let kernel = KernelDesc::memory_streaming("streamcluster", 22.5);
//! let freqs: Vec<f64> = (5..=13).map(|i| i as f64 * 100.0).collect();
//! let points = profile_frequencies(&soc, gpu, &kernel, &freqs, 30_000);
//! let model = PccsModel::xavier_gpu_paper();
//! let sel = select_frequency(&points, &model, 40.0, 0.05);
//! println!("clock the GPU at {} MHz", sel.chosen_mhz);
//! ```

#![warn(missing_docs, unreachable_pub)]

/// PU frequency selection under a co-run slowdown constraint (Section 4.3,
/// Table 9, Figure 15).
pub mod freq;

pub use freq::{
    ground_truth_frequency, profile_frequencies, select_frequency, FrequencyPoint,
    FrequencySelection,
};
