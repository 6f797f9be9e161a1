//! Cross-experiment memoization of standalone profiles.
//!
//! Several reproduction artifacts profile the *same* kernel standalone on
//! the *same* PU at the *same* fidelity — `validate` and `table5` both walk
//! the Table-2 benchmark suite, `fig13` and `table9` both re-profile the
//! mix members, and so on. Each standalone profile is a full co-run
//! simulation, so re-deriving them dominates `repro all` wall-clock.
//! [`ProfileCache`] memoizes [`StandaloneProfile`] results behind a mutex so
//! concurrent sweep workers (see [`crate::runner`]) share one pool.
//!
//! # Keying
//!
//! The cache key is the **full serialized** `SocConfig` and `KernelDesc`
//! plus the measurement configuration — not the SoC *name*. Experiments
//! such as `table5` and the DSE sweeps re-clock a preset via
//! `SocConfig::with_pu`/`with_frequency` without renaming it, so a
//! name-based key would silently alias physically different machines.
//! Serialized-exact keys cost a few hundred bytes per entry and make
//! collisions impossible.
//!
//! [`StandaloneProfile`]: pccs_soc::corun::StandaloneProfile

use pccs_soc::corun::{CoRunConfig, CoRunSim, StandaloneProfile};
use pccs_soc::kernel::KernelDesc;
use pccs_soc::soc::SocConfig;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Exact cache key: serialized machine + kernel + measurement config.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ProfileKey {
    /// `serde_json` serialization of the full [`SocConfig`].
    soc: String,
    pu_idx: usize,
    /// `serde_json` serialization of the [`KernelDesc`].
    kernel: String,
    /// `serde_json` serialization of the [`CoRunConfig`] (horizon, warmup,
    /// repeats, policy).
    config: String,
}

impl ProfileKey {
    fn new(soc: &SocConfig, pu_idx: usize, kernel: &KernelDesc, config: &CoRunConfig) -> Self {
        Self {
            soc: serde_json::to_string(soc).expect("SocConfig serializes"),
            pu_idx,
            kernel: serde_json::to_string(kernel).expect("KernelDesc serializes"),
            config: serde_json::to_string(config).expect("CoRunConfig serializes"),
        }
    }
}

/// Hit/miss counters of a [`ProfileCache`], for telemetry and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in percent; 0 when the cache was never queried.
    pub fn hit_rate_pct(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe memo table for standalone profiles.
///
/// Lookups are exact (see the module docs on keying) and the underlying
/// simulation is deterministic, so a hit is bit-identical to a re-run. Two
/// workers racing on the same cold key may both simulate — the second
/// insert overwrites with an identical value, so results never depend on
/// the interleaving; only the miss counter can over-count under contention.
#[derive(Debug, Default)]
pub struct ProfileCache {
    entries: Mutex<BTreeMap<ProfileKey, StandaloneProfile>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ProfileCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The standalone profile of `kernel` on `soc`/`pu_idx` under `config`,
    /// simulated on first request and memoized after.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned by a panicking worker.
    pub fn standalone(
        &self,
        soc: &SocConfig,
        pu_idx: usize,
        kernel: &KernelDesc,
        config: &CoRunConfig,
    ) -> StandaloneProfile {
        let key = ProfileKey::new(soc, pu_idx, kernel, config);
        if let Some(found) = self.entries.lock().expect("profile cache").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *found;
        }
        // Simulate outside the lock so distinct cold keys fill in parallel.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let profile = CoRunSim::standalone(soc, pu_idx, kernel, config);
        self.entries
            .lock()
            .expect("profile cache")
            .insert(key, profile);
        profile
    }

    /// Counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct memoized profiles.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned by a panicking worker.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("profile cache").len()
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_requests_hit() {
        let cache = ProfileCache::new();
        let soc = SocConfig::xavier();
        let gpu = soc.pu_index("GPU").unwrap();
        let kernel = KernelDesc::memory_streaming("stream", 0.5);
        let cfg = CoRunConfig::default().with_horizon(20_000);

        let first = cache.standalone(&soc, gpu, &kernel, &cfg);
        let second = cache.standalone(&soc, gpu, &kernel, &cfg);
        assert_eq!(first, second);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
        assert!((cache.stats().hit_rate_pct() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn reclocked_soc_is_a_distinct_key() {
        let cache = ProfileCache::new();
        let soc = SocConfig::xavier();
        let gpu = soc.pu_index("GPU").unwrap();
        let kernel = KernelDesc::memory_streaming("stream", 0.5);
        let cfg = CoRunConfig::default().with_horizon(20_000);

        cache.standalone(&soc, gpu, &kernel, &cfg);
        // Re-clock the GPU without renaming the SoC: must be a fresh miss,
        // not a poisoned hit on the nominal profile. Derate far enough that
        // the slowed GPU is demand-bound (a mild derate still saturates the
        // memory ceiling and would yield an identical profile).
        let slow = soc.with_pu(
            gpu,
            soc.pus[gpu].with_frequency(soc.pus[gpu].freq_mhz * 0.1),
        );
        let slowed = cache.standalone(&slow, gpu, &kernel, &cfg);
        assert_eq!(cache.stats().misses, 2);
        assert_ne!(slowed, cache.standalone(&soc, gpu, &kernel, &cfg));
    }

    #[test]
    fn distinct_configs_do_not_alias() {
        let cache = ProfileCache::new();
        let soc = SocConfig::xavier();
        let gpu = soc.pu_index("GPU").unwrap();
        let kernel = KernelDesc::memory_streaming("stream", 0.5);

        cache.standalone(
            &soc,
            gpu,
            &kernel,
            &CoRunConfig::default().with_horizon(20_000),
        );
        cache.standalone(
            &soc,
            gpu,
            &kernel,
            &CoRunConfig::default().with_horizon(24_000),
        );
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
    }

    #[test]
    fn cache_is_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<ProfileCache>();
    }
}
