//! The PU executor: a compute-coupled traffic source.
//!
//! One [`PuExecutor`] models a single memory stream of a PU running a
//! kernel. A PU with `streams > 1` (e.g. an 8-core CPU complex) is
//! instantiated as that many executors, each carrying `1/streams` of the
//! PU's compute throughput and outstanding-request window; the memory
//! controller's fairness policies see them as distinct sources, just as a
//! real MC sees per-core ports.
//!
//! The executor issues 64-byte line requests while its window allows, and a
//! modelled compute engine consumes returned lines at
//! [`KernelDesc::cycles_per_line`]. The kernel's standalone bandwidth
//! demand therefore *emerges* from operational intensity and the PU's
//! compute rate — low-intensity kernels are limited by the memory system,
//! high-intensity kernels by compute — which mirrors how the paper's
//! roofline calibrators behave on silicon.
//!
//! [`PuExecutor`]: crate::executor::PuExecutor

use crate::kernel::KernelDesc;
use crate::pu::PuConfig;
use pccs_dram::config::DramConfig;
use pccs_dram::controller::Completion;
use pccs_dram::request::{MemoryRequest, ReqKind, SourceId};
use pccs_dram::traffic::{AddressWalker, TrafficSource};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// How many lines of fetched-but-unprocessed data an executor may buffer
/// beyond its request window.
const RUNAHEAD_LINES: u64 = 8;

/// One memory stream of a PU running a kernel. Implements
/// [`TrafficSource`]; its [`TrafficSource::progress`] reports fully
/// *processed* (fetched + computed) lines.
#[derive(Debug)]
pub struct PuExecutor {
    source: SourceId,
    kernel: KernelDesc,
    window: usize,
    flops_per_mem_cycle: f64,
    region_bytes: u64,

    cycles_per_line: f64,
    line_bytes: u64,
    outstanding: usize,
    issued: u64,
    completed: u64,
    consumed: u64,
    compute_free: f64,
    pending_data: VecDeque<u64>,
    last_cycle: Option<u64>,
    walker: Option<AddressWalker>,
    retry: Option<MemoryRequest>,
    rng: SmallRng,
}

impl PuExecutor {
    /// Creates the executors for every stream of `pu` running `kernel`,
    /// with source ids `base_source .. base_source + pu.streams`.
    pub fn streams_for(pu: &PuConfig, kernel: &KernelDesc, base_source: usize) -> Vec<PuExecutor> {
        Self::streams_for_seeded(pu, kernel, base_source, 0)
    }

    /// Like [`PuExecutor::streams_for`] with an extra seed perturbation, so
    /// repeated runs sample different address phases (measurement
    /// averaging).
    pub fn streams_for_seeded(
        pu: &PuConfig,
        kernel: &KernelDesc,
        base_source: usize,
        run_seed: u64,
    ) -> Vec<PuExecutor> {
        let streams = pu.streams.max(1);
        let window = (pu.mlp_window / streams).max(1);
        (0..streams)
            .map(|s| PuExecutor {
                source: SourceId(base_source + s),
                kernel: kernel.clone(),
                window,
                flops_per_mem_cycle: 0.0, // filled by bind via pu rate
                region_bytes: 128 << 20,
                cycles_per_line: 0.0,
                line_bytes: 64,
                outstanding: 0,
                issued: 0,
                completed: 0,
                consumed: 0,
                compute_free: 0.0,
                pending_data: VecDeque::new(),
                last_cycle: None,
                walker: None,
                retry: None,
                rng: SmallRng::seed_from_u64(
                    0xd1b5_4a32_d192_ed03
                        ^ run_seed.wrapping_mul(0x2545_f491_4f6c_dd1d)
                        ^ ((base_source + s) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                ),
            })
            .map(|mut e| {
                e.flops_per_mem_cycle = f64::NAN; // must be set before bind
                e
            })
            .collect()
    }

    /// Creates one executor explicitly (single-stream PU or tests).
    pub fn single(
        source: SourceId,
        pu: &PuConfig,
        kernel: &KernelDesc,
        mem_clock_mhz: f64,
    ) -> PuExecutor {
        let mut v = Self::streams_for(pu, kernel, source.0);
        let mut e = v.swap_remove(0);
        e.set_compute_rate(pu.flops_per_mem_cycle(mem_clock_mhz) / pu.streams.max(1) as f64);
        e
    }

    /// Sets the per-stream compute rate in flops per memory cycle. Must be
    /// called before the executor is bound/used.
    pub fn set_compute_rate(&mut self, flops_per_mem_cycle: f64) {
        assert!(
            flops_per_mem_cycle > 0.0 && flops_per_mem_cycle.is_finite(),
            "compute rate must be positive and finite"
        );
        self.flops_per_mem_cycle = flops_per_mem_cycle;
    }

    fn advance_compute(&mut self, cycle: u64) {
        let end = (cycle + 1) as f64;
        while self.compute_free < end {
            let Some(&ready) = self.pending_data.front() else {
                break;
            };
            let start = self.compute_free.max(ready as f64);
            if start >= end {
                break;
            }
            self.compute_free = start + self.cycles_per_line;
            self.pending_data.pop_front();
            self.consumed += 1;
        }
    }
}

impl TrafficSource for PuExecutor {
    fn source_id(&self) -> SourceId {
        self.source
    }

    fn bind(&mut self, config: &DramConfig) {
        assert!(
            self.flops_per_mem_cycle.is_finite(),
            "set_compute_rate must be called before binding a PuExecutor"
        );
        self.line_bytes = u64::from(config.line_bytes);
        self.cycles_per_line = self
            .kernel
            .cycles_per_line(self.flops_per_mem_cycle, config.line_bytes);
        let region_base = self.source.0 as u64 * self.region_bytes;
        self.walker = Some(AddressWalker::new(
            region_base,
            self.region_bytes,
            self.line_bytes,
            self.kernel.row_locality,
        ));
    }

    fn poll(&mut self, cycle: u64) -> Option<MemoryRequest> {
        if self.last_cycle != Some(cycle) {
            self.last_cycle = Some(cycle);
            self.advance_compute(cycle);
        }
        if self.retry.is_some() {
            return self.retry.take();
        }
        if self.outstanding >= self.window {
            return None;
        }
        // Don't run ahead of the compute engine indefinitely.
        if self.issued - self.consumed >= self.window as u64 + RUNAHEAD_LINES {
            return None;
        }

        let addr = self
            .walker
            .as_mut()
            // Lifecycle contract: `add_generator` always binds before the
            // first poll; returning None here would silently mask a misuse.
            .expect("bind must be called before poll") // pccs-lint: allow(hot-path-panic)
            .next_addr(&mut self.rng);

        let id = self.issued;
        self.issued += 1;
        self.outstanding += 1;
        let kind =
            if self.kernel.write_fraction > 0.0 && self.rng.gen_bool(self.kernel.write_fraction) {
                ReqKind::Write
            } else {
                ReqKind::Read
            };
        let mut req = MemoryRequest::read(id, self.source, addr, cycle);
        req.kind = kind;
        req.bytes = self.line_bytes as u32;
        Some(req)
    }

    fn on_reject(&mut self, req: MemoryRequest) {
        self.retry = Some(req);
    }

    fn on_complete(&mut self, completion: &Completion) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.completed += 1;
        self.pending_data.push_back(completion.finish);
    }

    fn completed(&self) -> u64 {
        self.completed
    }

    fn issued(&self) -> u64 {
        self.issued
    }

    fn progress(&self) -> u64 {
        self.consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccs_dram::policy::PolicyKind;
    use pccs_dram::sim::DramSystem;

    fn xavier_mem() -> DramConfig {
        DramConfig::xavier()
    }

    fn run_single(kernel: KernelDesc, horizon: u64) -> (f64, u64) {
        let config = xavier_mem();
        let pu = crate::pu::PuConfig::xavier_gpu();
        let mut sys = DramSystem::new(config.clone(), PolicyKind::Atlas);
        let per_stream = pu.flops_per_mem_cycle(config.clock_mhz) / pu.streams as f64;
        let mut execs = PuExecutor::streams_for(&pu, &kernel, 0);
        for e in &mut execs {
            e.set_compute_rate(per_stream);
        }
        for e in execs {
            sys.add_generator(e);
        }
        let out = sys.run(horizon);
        let bw: f64 = (0..pu.streams)
            .map(|s| out.source_bw_gbps(SourceId(s)))
            .sum();
        let progress: u64 = (0..pu.streams).map(|s| out.progress[&SourceId(s)]).sum();
        (bw, progress)
    }

    #[test]
    fn low_intensity_kernel_is_memory_bound() {
        // Intensity ~0: demand unbounded -> achieved BW approaches peak.
        let (bw, _) = run_single(KernelDesc::new("copy", 0.01, 0.95, 0.3, 1.0), 40_000);
        assert!(bw > 80.0, "streaming kernel should near peak, got {bw:.1}");
    }

    #[test]
    fn high_intensity_kernel_uses_little_bandwidth() {
        let (bw, progress) = run_single(KernelDesc::new("compute", 100.0, 0.9, 0.1, 1.0), 40_000);
        assert!(bw < 30.0, "compute-bound kernel demanded {bw:.1} GB/s");
        assert!(progress > 0);
    }

    #[test]
    fn intensity_controls_demand_monotonically() {
        let bws: Vec<f64> = [2.0, 8.0, 32.0]
            .iter()
            .map(|&i| run_single(KernelDesc::new("k", i, 0.92, 0.3, 1.0), 30_000).0)
            .collect();
        assert!(bws[0] > bws[1] && bws[1] > bws[2], "bws = {bws:?}");
    }

    #[test]
    fn progress_tracks_completed_when_compute_is_instant() {
        let config = xavier_mem();
        let pu = crate::pu::PuConfig::xavier_dla();
        let kernel = KernelDesc::new("fast", 0.001, 0.9, 0.0, 1.0);
        let mut e = PuExecutor::single(SourceId(0), &pu, &kernel, config.clock_mhz);
        e.bind(&config);
        let mut sys = DramSystem::new(config, PolicyKind::FrFcfs);
        // Re-create via streams_for to use add_generator's bind path.
        let mut execs = PuExecutor::streams_for(&pu, &kernel, 0);
        execs[0].set_compute_rate(pu.flops_per_mem_cycle(2133.0));
        let ex = execs.swap_remove(0);
        sys.add_generator(ex);
        let out = sys.run(20_000);
        let completed = out.completed[&SourceId(0)];
        let progress = out.progress[&SourceId(0)];
        assert!(completed > 0);
        assert!(
            progress + 2 >= completed,
            "progress {progress} vs completed {completed}"
        );
    }

    #[test]
    fn streams_for_splits_window() {
        let pu = crate::pu::PuConfig::xavier_cpu();
        let execs = PuExecutor::streams_for(&pu, &KernelDesc::memory_streaming("k", 1.0), 10);
        assert_eq!(execs.len(), pu.streams);
        assert_eq!(execs[0].window, pu.mlp_window / pu.streams);
        assert_eq!(execs[0].source, SourceId(10));
        assert_eq!(execs.last().unwrap().source, SourceId(10 + pu.streams - 1));
    }

    #[test]
    #[should_panic(expected = "set_compute_rate")]
    fn binding_without_rate_panics() {
        let pu = crate::pu::PuConfig::xavier_gpu();
        let mut execs = PuExecutor::streams_for(&pu, &KernelDesc::memory_streaming("k", 1.0), 0);
        execs[0].bind(&xavier_mem());
    }
}
