//! Heterogeneous shared-memory SoC (HSM-SoC) simulator for the PCCS
//! reproduction.
//!
//! The PCCS paper profiles two physical SoCs (NVIDIA Jetson AGX Xavier and
//! Qualcomm Snapdragon 855). This crate substitutes them with a simulator in
//! which each processing unit (PU) is a compute-coupled traffic generator
//! feeding the shared detailed memory system of [`pccs_dram`]:
//!
//! * a [`pu::PuConfig`] captures a PU's compute throughput, clock frequency
//!   and memory-level parallelism (outstanding-request window);
//! * a [`kernel::KernelDesc`] captures a kernel's operational intensity
//!   (flops per byte), row locality and write mix;
//! * an [`executor::PuExecutor`] runs a kernel on a PU: it issues line-sized
//!   memory requests under the PU's window and consumes returned lines with
//!   the PU's compute throughput, so the kernel's *standalone bandwidth
//!   demand emerges* from intensity × compute rate, exactly as with the
//!   paper's roofline-toolkit calibrators;
//! * [`corun::CoRunSim`] places kernels on PUs, co-runs them over the shared
//!   memory controller, and measures achieved relative speed (the paper's
//!   `RS` metric).
//!
//! The SoC presets in [`soc::SocConfig`] reproduce Table 6 of the paper.
//!
//! # Example: a standalone and a contended run
//!
//! ```
//! use pccs_soc::soc::SocConfig;
//! use pccs_soc::kernel::KernelDesc;
//! use pccs_soc::corun::{CoRunConfig, CoRunSim, Placement};
//!
//! let soc = SocConfig::xavier();
//! let kernel = KernelDesc::memory_streaming("stream", 0.25);
//! let gpu = soc.pu_index("GPU").unwrap();
//!
//! // Standalone profile.
//! let config = CoRunConfig::default().with_horizon(60_000);
//! let profile = CoRunSim::standalone(&soc, gpu, &kernel, &config);
//! assert!(profile.bw_gbps > 0.0);
//!
//! // Same kernel under 40 GB/s of external pressure from the CPU complex.
//! let mut sim = CoRunSim::with_config(&soc, config);
//! sim.place(Placement::kernel(gpu, kernel));
//! sim.external_pressure(soc.pu_index("CPU").unwrap(), 40.0);
//! let outcome = sim.execute();
//! let rs = outcome.relative_speed(gpu, &profile).unwrap();
//! assert!(rs > 0.0 && rs <= 1.05);
//! ```

#![warn(missing_docs, unreachable_pub)]

/// Co-run simulation and achieved-relative-speed measurement.
pub mod corun;
/// The PU executor: a compute-coupled traffic source.
pub mod executor;
/// Kernel descriptors.
pub mod kernel;
/// External memory-pressure generation.
pub mod pressure;
/// Processing-unit (PU) models.
pub mod pu;
/// Whole-SoC configuration: a set of PUs sharing one memory subsystem.
pub mod soc;

pub use corun::{CoRunOutcome, CoRunSim, Placement, StandaloneProfile};
pub use kernel::KernelDesc;
pub use pu::{PuConfig, PuKind};
pub use soc::SocConfig;
