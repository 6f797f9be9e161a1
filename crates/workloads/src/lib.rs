//! Workload proxies and the processor-centric calibration pipeline.
//!
//! The paper evaluates PCCS on Rodinia benchmarks (CPU/GPU) and ImageNet
//! CNN inference (DLA), and constructs its models with roofline-toolkit
//! calibrator kernels. None of those binaries can run on the simulated SoC
//! substrate, so this crate provides *traffic proxies*: per-benchmark
//! operational intensity, row locality and write mix chosen so each proxy
//! lands in the bandwidth-demand class the paper reports for it
//! (compute-intensive: hotspot, leukocyte, heartwall; memory-intensive:
//! streamcluster, pathfinder, srad, k-means, b+tree, cfd, bfs). PCCS only
//! consumes a kernel's standalone bandwidth demand (plus per-phase split),
//! so demand-class fidelity is the property that matters.
//!
//! The [`calibrate`] module implements Section 3.2's construction loop:
//! sweep calibrators × external pressures on the simulator, collect the
//! `rela[i][j]` matrix, and hand it to
//! [`pccs_core::ModelBuilder`].
//!
//! # Example
//!
//! ```no_run
//! use pccs_soc::SocConfig;
//! use pccs_workloads::calibrate::{CalibrationConfig, build_model};
//!
//! let soc = SocConfig::xavier();
//! let gpu = soc.pu_index("GPU").unwrap();
//! let cpu = soc.pu_index("CPU").unwrap();
//! let (model, _data) = build_model(&soc, gpu, cpu, &CalibrationConfig::default())?;
//! println!("GPU normal BW boundary: {:.1} GB/s", model.normal_bw);
//! # Ok::<(), pccs_core::ModelBuildError>(())
//! ```

#![warn(missing_docs, unreachable_pub)]

/// The processor-centric model-construction pipeline (Section 3.2).
pub mod calibrate;
/// DNN inference traffic proxies for the DLA.
pub mod dnn;
/// DNN layer graphs: per-layer compute and traffic accounting.
pub mod layers;
/// The eleven three-PU co-run workloads of Table 8.
pub mod mixes;
/// Rodinia benchmark traffic proxies.
pub mod rodinia;

pub use calibrate::{build_model, CalibrationConfig};
pub use dnn::DnnModel;
pub use mixes::{WorkloadMix, TABLE8_MIXES};
pub use rodinia::RodiniaBenchmark;
