//! The processor-centric model-construction pipeline (Section 3.2).
//!
//! For a target PU, a set of calibrator kernels with increasing standalone
//! bandwidth demand is profiled standalone and then co-run against
//! increasing external bandwidth demands generated by another PU. The
//! resulting `rela[i][j]` matrix feeds
//! [`pccs_core::ModelBuilder`], which extracts the PCCS parameters.
//!
//! No co-runs of *applications* are ever measured — only calibrators — yet
//! the produced model applies to arbitrary applications. That is the
//! paper's central methodological claim, and the integration tests of this
//! workspace exercise it end to end.

use pccs_core::{CalibrationData, ModelBuildError, ModelBuilder, PccsModel};
use pccs_soc::corun::{CoRunConfig, CoRunSim, Placement, StandaloneProfile};
use pccs_soc::kernel::KernelDesc;
use pccs_soc::soc::SocConfig;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Parameters of a calibration sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationConfig {
    /// Requested calibrator demands (GB/s). Empty = the paper's default
    /// grid: 10 levels from ~7 % to ~73 % of the SoC peak (10…100 GB/s on
    /// Xavier).
    pub demands_gbps: Vec<f64>,
    /// External demand levels (GB/s). Empty = 10 %…100 % of peak in 10 %
    /// steps, the paper's external-pressure grid.
    pub external_gbps: Vec<f64>,
    /// Simulation horizon per measurement, in memory cycles.
    pub horizon: u64,
    /// Differently seeded repetitions averaged per measurement.
    pub repeats: u32,
    /// Worker threads for the sweep (0 = all available cores).
    pub threads: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            demands_gbps: Vec::new(),
            external_gbps: Vec::new(),
            horizon: 40_000,
            repeats: 2,
            threads: 0,
        }
    }
}

impl CalibrationConfig {
    /// A reduced grid for quick tests: 5 demand × 5 pressure levels and a
    /// short horizon.
    pub fn quick() -> Self {
        Self {
            demands_gbps: Vec::new(),
            external_gbps: Vec::new(),
            horizon: 20_000,
            repeats: 1,
            threads: 0,
        }
    }

    fn resolve_demands(&self, peak: f64) -> Vec<f64> {
        if !self.demands_gbps.is_empty() {
            return self.demands_gbps.clone();
        }
        // Sweep demands up to 110 % of the peak so the standalone axis
        // covers every demand an application can realize (the top rows
        // saturate and are deduplicated by the sweep).
        (1..=10).map(|i| peak * 0.11 * i as f64).collect()
    }

    fn resolve_external(&self, peak: f64) -> Vec<f64> {
        if !self.external_gbps.is_empty() {
            return self.external_gbps.clone();
        }
        // The paper sweeps 10 %…100 % of peak in 10 % steps; a finer
        // 15-level grid sharpens the breakpoint fits on PUs whose whole
        // dropping phase spans only a few of the coarser cells (the DLA).
        (1..=15).map(|i| peak / 15.0 * i as f64).collect()
    }
}

/// The paper's pressure-PU convention (§4.1.1): "For the CPU model, we
/// create the external pressure using the GPU; for the GPU and DLA models,
/// we create the external pressure using the CPU". Every model this
/// workspace constructs, and every co-run that checks one, uses this PU.
///
/// # Errors
///
/// Returns the name of the PU the convention needs but `soc` lacks: its
/// CPU, or for a CPU target its GPU.
pub fn pressure_pu(soc: &SocConfig, target_pu: usize) -> Result<usize, &'static str> {
    let cpu = soc.pu_index("CPU").ok_or("CPU")?;
    if target_pu == cpu {
        soc.pu_index("GPU").ok_or("GPU")
    } else {
        Ok(cpu)
    }
}

/// Builds the calibrator kernel whose compute-limited demand on PU
/// `pu_idx` of `soc` is `demand_gbps` — the paper's variable
/// operational-intensity streaming kernel.
///
/// # Panics
///
/// Panics if the PU index is out of range or the demand is not positive.
pub fn calibrator_kernel(soc: &SocConfig, pu_idx: usize, demand_gbps: f64) -> KernelDesc {
    assert!(pu_idx < soc.pus.len(), "PU index out of range");
    assert!(demand_gbps > 0.0, "demand must be positive");
    let pu = &soc.pus[pu_idx];
    let flops = pu.flops_per_mem_cycle(soc.dram.clock_mhz);
    let bpc = soc.dram.gbps_to_bytes_per_cycle(demand_gbps);
    let intensity = KernelDesc::intensity_for_demand(flops, bpc, 1.0);
    KernelDesc::new(
        format!("calibrator-{demand_gbps:.0}GBps"),
        intensity,
        0.92,
        0.3,
        1.0,
    )
}

/// Runs the full calibration sweep of `target_pu` using `pressure_pu` as
/// the external traffic generator, and returns the validated matrix
/// (demands default to 11 %…110 % of peak; pressures to 10 %…100 %).
///
/// Calibrators whose *achieved* standalone bandwidth no longer increases
/// (because the PU saturated) are dropped, keeping the standalone axis
/// strictly increasing as [`CalibrationData`] requires.
///
/// # Errors
///
/// Propagates [`ModelBuildError`] if the measured matrix fails validation
/// (e.g. the PU saturates so early that fewer than two distinct demand
/// levels remain).
pub fn sweep(
    soc: &SocConfig,
    target_pu: usize,
    pressure_pu: usize,
    cfg: &CalibrationConfig,
) -> Result<CalibrationData, ModelBuildError> {
    assert!(
        target_pu != pressure_pu,
        "pressure PU must differ from target"
    );
    let peak = soc.peak_bw_gbps();
    let demands = cfg.resolve_demands(peak);
    let externals = cfg.resolve_external(peak);
    let mut span = pccs_telemetry::Profiler::scope("calibrate.sweep");
    span.counter("demand_levels", demands.len() as f64);
    span.counter("external_levels", externals.len() as f64);

    // Standalone profiles, in parallel over demand levels.
    let config = CoRunConfig::default()
        .with_horizon(cfg.horizon)
        .with_repeats(cfg.repeats);
    let profiles: Vec<(KernelDesc, StandaloneProfile)> =
        parallel_map(cfg.threads, &demands, |_, &d| {
            let kernel = calibrator_kernel(soc, target_pu, d);
            let profile = CoRunSim::standalone(soc, target_pu, &kernel, &config);
            (kernel, profile)
        });

    // Keep only strictly-increasing achieved bandwidths.
    let mut kept: Vec<(KernelDesc, StandaloneProfile)> = Vec::new();
    for (kernel, profile) in profiles {
        let ok = kept
            .last()
            .is_none_or(|(_, prev)| profile.bw_gbps > prev.bw_gbps + 0.5);
        if ok {
            kept.push((kernel, profile));
        }
    }

    // Co-run grid, parallel over (kernel, pressure) cells.
    let cells: Vec<(usize, usize)> = (0..kept.len())
        .flat_map(|i| (0..externals.len()).map(move |j| (i, j)))
        .collect();
    let rs_cells: Vec<f64> = parallel_map(cfg.threads, &cells, |_, &(i, j)| {
        let (kernel, profile) = &kept[i];
        let mut sim = CoRunSim::with_config(soc, config.clone());
        sim.place(Placement::kernel(target_pu, kernel.clone()));
        sim.external_pressure(pressure_pu, externals[j]);
        let out = sim.execute();
        out.relative_speed_pct(target_pu, profile)
            .expect("target PU is placed")
            .clamp(0.5, 100.0)
    });

    let m = externals.len();
    let rela: Vec<Vec<f64>> = (0..kept.len())
        .map(|i| rs_cells[i * m..(i + 1) * m].to_vec())
        .collect();
    let std_bw: Vec<f64> = kept.iter().map(|(_, p)| p.bw_gbps).collect();
    CalibrationData::new(std_bw, externals, rela, peak)
}

/// End-to-end model construction: sweep then extract.
///
/// # Errors
///
/// Returns a [`ModelBuildError`] when the sweep matrix fails validation or
/// extraction fails.
pub fn build_model(
    soc: &SocConfig,
    target_pu: usize,
    pressure_pu: usize,
    cfg: &CalibrationConfig,
) -> Result<(PccsModel, CalibrationData), ModelBuildError> {
    let _span = pccs_telemetry::Profiler::scope("calibrate.build_model");
    let data = sweep(soc, target_pu, pressure_pu, cfg)?;
    let model = ModelBuilder::new(data.clone()).build()?;
    Ok((model, data))
}

/// One calibrated model per PU of `soc`, in PU order: each PU swept under
/// pressure from its [`pressure_pu`] and folded into a three-region model
/// (the paper's §4.1 offline profiling step). Scheduling and serving arm
/// their PCCS policy and admission control with this set.
///
/// # Errors
///
/// Names the SoC and PU when the pressure PU is missing or a sweep fails
/// validation — on the bundled SoC presets neither happens.
pub fn build_models(soc: &SocConfig, cfg: &CalibrationConfig) -> Result<Vec<PccsModel>, String> {
    (0..soc.pus.len())
        .map(|pu_idx| {
            let pressure = pressure_pu(soc, pu_idx)
                .map_err(|missing| format!("{} has no {missing} to apply pressure", soc.name))?;
            build_model(soc, pu_idx, pressure, cfg)
                .map(|(model, _)| model)
                .map_err(|e| format!("calibrating {}/PU{pu_idx} failed: {e}", soc.name))
        })
        .collect()
}

/// The worker count a `jobs`/`threads` setting asks for: the setting
/// itself, or every available core for `0` (one if that cannot be read).
pub fn worker_count(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Maps `f` over `items` on up to `threads` scoped worker threads
/// (resolved by [`worker_count`], so `0` means all cores), preserving
/// order. Workers claim the next unevaluated item from a shared cursor, so
/// cheap and expensive items spread evenly however they are laid out. `f`
/// also receives the index of the worker running it (`0` when the map runs
/// serially on the calling thread). The calibration sweeps and the
/// experiment harness's sweep runner both run on this one pool.
pub fn parallel_map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let threads = worker_count(threads).min(items.len());
    if threads <= 1 {
        return items.iter().map(|item| f(0, item)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for worker in 0..threads {
            let (cursor, slots, f) = (&cursor, &slots, &f);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(worker, item);
                *slots[i].lock().expect("result slot") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every item claimed by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrator_demand_solves_intensity() {
        let soc = SocConfig::xavier();
        let gpu = soc.pu_index("GPU").unwrap();
        let k40 = calibrator_kernel(&soc, gpu, 40.0);
        let k80 = calibrator_kernel(&soc, gpu, 80.0);
        // Higher demand = lower intensity.
        assert!(k80.ops_per_byte < k40.ops_per_byte);
        let pu = &soc.pus[gpu];
        let bpc = k40.compute_limited_demand(pu.flops_per_mem_cycle(soc.dram.clock_mhz), 64);
        let gbps = soc.dram.bytes_per_cycle_to_gbps(bpc);
        assert!((gbps - 40.0).abs() < 1e-6);
    }

    #[test]
    fn pressure_pu_convention_matches_paper() {
        let soc = SocConfig::xavier();
        let cpu = soc.pu_index("CPU").unwrap();
        let gpu = soc.pu_index("GPU").unwrap();
        let dla = soc.pu_index("DLA").unwrap();
        assert_eq!(pressure_pu(&soc, cpu), Ok(gpu));
        assert_eq!(pressure_pu(&soc, gpu), Ok(cpu));
        assert_eq!(pressure_pu(&soc, dla), Ok(cpu));
        let mut no_gpu = soc.clone();
        no_gpu.pus.retain(|pu| pu.name != "GPU");
        let cpu = no_gpu.pu_index("CPU").unwrap();
        assert_eq!(pressure_pu(&no_gpu, cpu), Err("GPU"));
    }

    #[test]
    fn zero_workers_means_all_cores() {
        assert!(worker_count(0) >= 1);
        assert_eq!(worker_count(3), 3);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..37).collect();
        let doubled = parallel_map(4, &items, |_, &x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_evaluates_each_item_once_in_order() {
        let items: Vec<usize> = (0..9).collect();
        for threads in [2, 9, 16] {
            let calls: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
            let out = parallel_map(threads, &items, |worker, &i| {
                assert!(worker < threads.min(items.len()), "worker {worker}");
                calls[i].fetch_add(1, Ordering::Relaxed);
                i * 10
            });
            assert_eq!(
                out,
                (0..9).map(|i| i * 10).collect::<Vec<_>>(),
                "{threads} threads"
            );
            for (i, c) in calls.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "item {i}, {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_map_single_thread_fallback() {
        let items = [1, 2, 3];
        let serial = parallel_map(1, &items, |worker, &x| {
            assert_eq!(worker, 0, "a serial map runs on worker 0");
            x + 1
        });
        assert_eq!(serial, vec![2, 3, 4]);
        let empty: [i32; 0] = [];
        assert!(parallel_map(4, &empty, |_, &x| x).is_empty());
    }

    #[test]
    fn quick_sweep_produces_valid_matrix() {
        let soc = SocConfig::xavier();
        let gpu = soc.pu_index("GPU").unwrap();
        let cpu = soc.pu_index("CPU").unwrap();
        let cfg = CalibrationConfig {
            demands_gbps: vec![20.0, 60.0, 110.0],
            external_gbps: vec![30.0, 70.0, 110.0],
            horizon: 15_000,
            repeats: 1,
            threads: 0,
        };
        let data = sweep(&soc, gpu, cpu, &cfg).expect("sweep should validate");
        assert!(data.rows() >= 2);
        assert_eq!(data.cols(), 3);
        // Relative speed weakly decreases along each row (allowing noise).
        for row in &data.rela {
            assert!(row[0] + 8.0 >= row[row.len() - 1]);
        }
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn sweep_rejects_same_pu() {
        let soc = SocConfig::xavier();
        let _ = sweep(&soc, 0, 0, &CalibrationConfig::quick());
    }
}
