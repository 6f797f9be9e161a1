//! Shared experiment context: SoC presets, measurement quality, and caches
//! of constructed PCCS models and standalone profiles (construction and
//! profiling are the expensive steps, and several experiments share them).
//!
//! The context is `Sync`: model and profile caches sit behind mutexes so
//! [`crate::runner::SweepRunner`] workers can share one context by
//! reference. Experiment entry points still take `&mut Context` for API
//! uniformity, but all methods below only need `&self`.

use crate::cache::{CacheStats, ProfileCache};
use crate::error::ExperimentError;
use pccs_core::{CalibrationData, PccsModel, SlowdownModel};
use pccs_gables::GablesModel;
use pccs_soc::corun::{CoRunConfig, CoRunSim, Placement, StandaloneProfile};
use pccs_soc::kernel::KernelDesc;
use pccs_soc::soc::SocConfig;
use pccs_workloads::calibrate::{build_model, pressure_pu, worker_count, CalibrationConfig};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Measurement fidelity of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quality {
    /// Short horizons, single repetition, coarse grids — for tests and
    /// smoke runs (minutes → seconds).
    Quick,
    /// The defaults used for the numbers reported in EXPERIMENTS.md.
    Full,
}

/// Shared state across experiments.
#[derive(Debug)]
pub struct Context {
    /// Fidelity preset.
    pub quality: Quality,
    /// The NVIDIA Jetson AGX Xavier model (Table 6).
    pub xavier: SocConfig,
    /// The Qualcomm Snapdragon 855 model (Table 6).
    pub snapdragon: SocConfig,
    /// Worker threads for sweep cells and calibration (0 = all cores).
    jobs: usize,
    models: Mutex<BTreeMap<(String, usize), (PccsModel, CalibrationData)>>,
    profiles: ProfileCache,
}

impl Context {
    /// Creates a context at the given fidelity, using every available core.
    pub fn new(quality: Quality) -> Self {
        Self {
            quality,
            xavier: SocConfig::xavier(),
            snapdragon: SocConfig::snapdragon855(),
            jobs: 0,
            models: Mutex::new(BTreeMap::new()),
            profiles: ProfileCache::new(),
        }
    }

    /// Sets the worker-thread count for sweeps and calibration; `0` means
    /// all available cores, `1` forces today's serial behaviour.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// The co-run measurement configuration at this fidelity: the single
    /// source of truth for the horizon, repeats, and MC policy every
    /// sweep measurement uses (and the provenance the audit ledger
    /// records).
    pub fn corun_config(&self) -> CoRunConfig {
        CoRunConfig::default()
            .with_horizon(self.horizon())
            .with_repeats(self.repeats())
    }

    /// The resolved worker-thread count (always ≥ 1).
    pub fn jobs(&self) -> usize {
        worker_count(self.jobs)
    }

    /// Simulation horizon in memory cycles.
    pub fn horizon(&self) -> u64 {
        match self.quality {
            Quality::Quick => 24_000,
            Quality::Full => 60_000,
        }
    }

    /// Differently seeded repetitions averaged per measurement.
    pub fn repeats(&self) -> u32 {
        match self.quality {
            Quality::Quick => 1,
            Quality::Full => 3,
        }
    }

    /// The calibration-sweep configuration at this fidelity.
    pub fn calibration_config(&self) -> CalibrationConfig {
        CalibrationConfig {
            horizon: self.horizon(),
            repeats: self.repeats(),
            threads: self.jobs,
            ..CalibrationConfig::default()
        }
    }

    /// The index of the PU named `name` on `soc`, as a typed error instead
    /// of a panic when the preset lacks it (e.g. asking the Snapdragon for
    /// a DLA). Every experiment resolves its PU names through this.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::MissingPu`] naming the SoC, the missing
    /// PU, and the PUs that do exist.
    pub fn require_pu(soc: &SocConfig, name: &str) -> Result<usize, ExperimentError> {
        soc.pu_index(name)
            .ok_or_else(|| ExperimentError::missing_pu(soc, name))
    }

    /// The constructed PCCS model of PU `pu_idx` on `soc` (cached).
    ///
    /// # Panics
    ///
    /// Panics if the calibration sweep fails validation — on the bundled
    /// SoC presets it does not.
    pub fn pccs_model(&self, soc: &SocConfig, pu_idx: usize) -> PccsModel {
        self.model_and_data(soc, pu_idx).0
    }

    /// The cached PCCS model of every PU of `soc`, boxed in PU order — the
    /// set a [`pccs_sched::policy::PccsPolicy`] and serving admission
    /// control take.
    pub fn pccs_models(&self, soc: &SocConfig) -> Vec<Box<dyn SlowdownModel>> {
        (0..soc.pus.len())
            .map(|pu| Box::new(self.pccs_model(soc, pu)) as Box<dyn SlowdownModel>)
            .collect()
    }

    /// The constructed model together with its calibration matrix (cached).
    ///
    /// Construction runs outside the cache lock so two workers can build
    /// *different* models concurrently; two workers racing on the *same*
    /// cold key both build and the results are identical (deterministic
    /// sweep), so the outcome never depends on the interleaving.
    pub fn model_and_data(&self, soc: &SocConfig, pu_idx: usize) -> (PccsModel, CalibrationData) {
        let key = (soc.name.clone(), pu_idx);
        if let Some(found) = self.models.lock().expect("model cache").get(&key) {
            return found.clone();
        }
        let pressure = pressure_pu(soc, pu_idx).expect("SoC lacks the pressure PU");
        let cfg = self.calibration_config();
        let built = build_model(soc, pu_idx, pressure, &cfg)
            .unwrap_or_else(|e| panic!("model construction failed for {}/{pu_idx}: {e}", soc.name));
        self.models
            .lock()
            .expect("model cache")
            .insert(key, built.clone());
        built
    }

    /// The Gables baseline for `soc`.
    pub fn gables(&self, soc: &SocConfig) -> GablesModel {
        GablesModel::new(soc.peak_bw_gbps())
    }

    /// Standalone profile of `kernel` on `soc`/`pu_idx` at this fidelity,
    /// memoized in the shared [`ProfileCache`].
    pub fn standalone(
        &self,
        soc: &SocConfig,
        pu_idx: usize,
        kernel: &KernelDesc,
    ) -> StandaloneProfile {
        let cfg = self.corun_config();
        self.profiles.standalone(soc, pu_idx, kernel, &cfg)
    }

    /// Hit/miss counters of the shared standalone-profile cache.
    pub fn profile_cache_stats(&self) -> CacheStats {
        self.profiles.stats()
    }

    /// Measured (simulated) relative speed, in percent, of `kernel` on
    /// `pu_idx` under `external_gbps` of pressure from the paper's
    /// pressure PU.
    pub fn actual_rs_pct(
        &self,
        soc: &SocConfig,
        pu_idx: usize,
        kernel: &KernelDesc,
        standalone: &StandaloneProfile,
        external_gbps: f64,
    ) -> f64 {
        let pressure = pressure_pu(soc, pu_idx).expect("SoC lacks the pressure PU");
        let mut sim = CoRunSim::with_config(soc, self.corun_config());
        sim.place(Placement::kernel(pu_idx, kernel.clone()));
        sim.external_pressure(pressure, external_gbps);
        let out = sim.execute();
        out.relative_speed_pct(pu_idx, standalone)
            .expect("kernel PU is placed")
            .min(102.0)
    }

    /// The paper's external-pressure grid: 10 %…100 % of the SoC peak in
    /// 10 % steps (§4.1.1); halved resolution in quick mode.
    pub fn external_grid(&self, soc: &SocConfig) -> Vec<f64> {
        let peak = soc.peak_bw_gbps();
        let steps: Vec<usize> = match self.quality {
            Quality::Quick => vec![2, 4, 6, 8, 10],
            Quality::Full => (1..=10).collect(),
        };
        steps.into_iter().map(|i| peak * i as f64 / 10.0).collect()
    }

    /// Mean absolute error between two equally long series, in percentage
    /// points.
    ///
    /// # Panics
    ///
    /// Panics if the series lengths differ or are empty.
    pub fn mean_abs_error(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "series lengths differ");
        assert!(!a.is_empty(), "empty series");
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_scales_fidelity() {
        let quick = Context::new(Quality::Quick);
        let full = Context::new(Quality::Full);
        assert!(quick.horizon() < full.horizon());
        assert!(quick.repeats() <= full.repeats());
        assert!(quick.external_grid(&quick.xavier).len() < full.external_grid(&full.xavier).len());
    }

    #[test]
    fn jobs_resolve_to_at_least_one() {
        let ctx = Context::new(Quality::Quick);
        assert!(ctx.jobs() >= 1);
        assert_eq!(ctx.with_jobs(3).jobs(), 3);
    }

    #[test]
    fn context_is_shareable_across_threads() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<Context>();
    }

    #[test]
    fn standalone_requests_are_memoized() {
        let ctx = Context::new(Quality::Quick);
        let gpu = ctx.xavier.pu_index("GPU").unwrap();
        let kernel = KernelDesc::memory_streaming("stream", 0.5);
        let first = ctx.standalone(&ctx.xavier, gpu, &kernel);
        let second = ctx.standalone(&ctx.xavier, gpu, &kernel);
        assert_eq!(first, second);
        let stats = ctx.profile_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn mean_abs_error_basic() {
        let e = Context::mean_abs_error(&[100.0, 90.0], &[95.0, 95.0]);
        assert!((e - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn mean_abs_error_rejects_mismatch() {
        Context::mean_abs_error(&[1.0], &[1.0, 2.0]);
    }
}
