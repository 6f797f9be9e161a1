//! The unified experiment API and its parallel sweep engine.
//!
//! Every reproduction artifact is the same shape: enumerate a grid of
//! independent *cells* (a benchmark, a pressure level, a clock ratio, a
//! policy…), simulate each cell, and merge the per-cell results into one
//! serializable figure/table. [`Experiment`] names that shape once, and
//! [`SweepRunner`] fans the cells out over `std::thread::scope` workers.
//!
//! # Determinism
//!
//! Cells are independent and every simulation is seeded, so the merge sees
//! the same per-cell results in the same order regardless of the worker
//! count: `--jobs N` output is byte-identical to `--jobs 1`. The runner
//! guarantees this by writing each cell's result into its own slot
//! (work-stealing over an atomic index, order-preserving collection) rather
//! than collecting in completion order.
//!
//! # Adding a new figure/table
//!
//! 1. Define the output struct (serializable) and a marker type.
//! 2. Implement [`Experiment`]: `prepare` builds shared state (models,
//!    standalone profiles — route them through [`Context::standalone`] so
//!    the profile cache deduplicates across experiments) and the cell list;
//!    `run_cell` simulates one cell; `merge` assembles the output.
//! 3. Keep a `pub fn run(ctx: &mut Context) -> Result<Output>` wrapper that
//!    calls [`run_experiment`], and register it in `bin/repro.rs`.

use crate::context::Context;
use crate::error::Result;
use pccs_telemetry::{metrics, Profiler};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One reproduction artifact as a parallel sweep: shared preparation, an
/// enumerated grid of independent cells, a per-cell simulation, and a merge
/// into one serializable output.
pub trait Experiment {
    /// Shared read-only state built once before the sweep (models,
    /// standalone profiles, grids).
    type Prep: Send + Sync;
    /// One independent unit of simulation work.
    type Cell: Send + Sync;
    /// The result of simulating one cell.
    type CellOut: Send;
    /// The merged artifact, serializable for `--metrics-out`.
    type Output: serde::Serialize;

    /// Stable name used for telemetry spans and progress lines.
    fn name(&self) -> &'static str;

    /// Builds the shared state and enumerates the sweep cells.
    ///
    /// # Errors
    ///
    /// Returns an error when the experiment's inputs are invalid for the
    /// context (e.g. a PU missing from the SoC preset).
    fn prepare(&self, ctx: &Context) -> Result<(Self::Prep, Vec<Self::Cell>)>;

    /// Simulates one cell. Must not depend on any other cell's result —
    /// the runner may execute cells concurrently and in any order.
    ///
    /// # Errors
    ///
    /// Returns an error when the cell references inputs the context cannot
    /// resolve.
    fn run_cell(
        &self,
        ctx: &Context,
        prep: &Self::Prep,
        cell: &Self::Cell,
    ) -> Result<Self::CellOut>;

    /// Merges the per-cell results — delivered in cell-enumeration order —
    /// into the final artifact.
    ///
    /// # Errors
    ///
    /// Returns an error when the merged artifact cannot be assembled.
    fn merge(
        &self,
        ctx: &Context,
        prep: Self::Prep,
        cells: Vec<Self::CellOut>,
    ) -> Result<Self::Output>;
}

/// Fans [`Experiment`] cells out over scoped worker threads.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// Creates a runner with `jobs` workers; `0` means all available cores.
    pub fn new(jobs: usize) -> Self {
        Self { jobs }
    }

    /// The resolved worker count (always ≥ 1).
    pub fn jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }

    /// Runs `exp` to completion: prepare → sweep cells → merge.
    ///
    /// The sweep is recorded as a `sweep.<name>` telemetry span carrying
    /// the cell count, worker count, and the profile-cache hits/misses the
    /// experiment generated.
    ///
    /// # Errors
    ///
    /// Propagates the first failing stage; the earliest-enumerated failing
    /// cell wins so the reported error does not depend on thread timing.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (the panic is propagated).
    pub fn run<E: Experiment + Sync>(&self, exp: &E, ctx: &Context) -> Result<E::Output> {
        let mut span = Profiler::scope(&format!("sweep.{}", exp.name()));
        let cache_before = ctx.profile_cache_stats();
        let (prep, cells) = exp.prepare(ctx)?;
        let workers = self.jobs().min(cells.len().max(1));
        span.counter("cells", cells.len() as f64);
        span.counter("jobs", workers as f64);
        let cell_scope = format!("cell.{}", exp.name());

        let outs: Vec<Result<E::CellOut>> = if workers <= 1 {
            cells
                .iter()
                .map(|cell| {
                    let _cell_prof = Profiler::scope(&cell_scope);
                    exp.run_cell(ctx, &prep, cell)
                })
                .collect()
        } else {
            // Work-stealing over an atomic cursor: workers grab the next
            // unclaimed cell and write its result into that cell's slot, so
            // collection order equals enumeration order no matter which
            // worker finishes first.
            let cursor = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<Result<E::CellOut>>>> =
                cells.iter().map(|_| Mutex::new(None)).collect();
            // Cells claimed by each worker; cells that did not go to worker
            // 0 count as "steals" in the published sweep metrics.
            let claimed: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
            std::thread::scope(|scope| {
                // Shadow the shared state as references so the `move`
                // closures (which need `worker` by value) only copy &-refs.
                let (cursor, cells, slots) = (&cursor, &cells, &slots);
                let (claimed, cell_scope, prep) = (&claimed, &cell_scope, &prep);
                for worker_claimed in claimed.iter().take(workers) {
                    scope.spawn(move || loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        worker_claimed.fetch_add(1, Ordering::Relaxed);
                        let _cell_prof = Profiler::scope(cell_scope);
                        let out = exp.run_cell(ctx, prep, cell);
                        *slots[i].lock().expect("cell slot") = Some(out);
                    });
                }
            });
            let stolen: usize = claimed
                .iter()
                .skip(1)
                .map(|c| c.load(Ordering::Relaxed))
                .sum();
            metrics::add("sweep.steals", stolen as u64);
            slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("cell slot")
                        .expect("every cell claimed by a worker")
                })
                .collect()
        };
        metrics::add("sweep.cells", cells.len() as u64);
        metrics::observe_max("sweep.workers", workers as u64);

        let mut results = Vec::with_capacity(outs.len());
        for out in outs {
            results.push(out?);
        }

        let cache_after = ctx.profile_cache_stats();
        let (cache_hits, cache_misses) = (
            cache_after.hits - cache_before.hits,
            cache_after.misses - cache_before.misses,
        );
        metrics::add("profile_cache.hits", cache_hits);
        metrics::add("profile_cache.misses", cache_misses);
        span.counter("profile_cache_hits", cache_hits as f64);
        span.counter("profile_cache_misses", cache_misses as f64);
        exp.merge(ctx, prep, results)
    }
}

/// Runs `exp` with the context's configured worker count — the single entry
/// point the per-module `run()` wrappers delegate to.
///
/// # Errors
///
/// Propagates the experiment's first failing stage.
pub fn run_experiment<E: Experiment + Sync>(exp: &E, ctx: &Context) -> Result<E::Output> {
    SweepRunner::new(ctx.jobs()).run(exp, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Quality;
    use crate::error::ExperimentError;

    /// Squares each cell; merge sums the squares. Exercises ordering and
    /// the parallel path with more cells than workers.
    struct Squares {
        n: usize,
    }

    impl Experiment for Squares {
        type Prep = ();
        type Cell = usize;
        type CellOut = usize;
        type Output = Vec<usize>;

        fn name(&self) -> &'static str {
            "squares"
        }

        fn prepare(&self, _ctx: &Context) -> Result<((), Vec<usize>)> {
            Ok(((), (0..self.n).collect()))
        }

        fn run_cell(&self, _ctx: &Context, _prep: &(), cell: &usize) -> Result<usize> {
            Ok(cell * cell)
        }

        fn merge(&self, _ctx: &Context, _prep: (), cells: Vec<usize>) -> Result<Vec<usize>> {
            Ok(cells)
        }
    }

    /// Fails on one specific cell.
    struct FailAt {
        at: usize,
    }

    impl Experiment for FailAt {
        type Prep = ();
        type Cell = usize;
        type CellOut = usize;
        type Output = Vec<usize>;

        fn name(&self) -> &'static str {
            "fail-at"
        }

        fn prepare(&self, _ctx: &Context) -> Result<((), Vec<usize>)> {
            Ok(((), (0..8).collect()))
        }

        fn run_cell(&self, _ctx: &Context, _prep: &(), cell: &usize) -> Result<usize> {
            if *cell == self.at {
                Err(ExperimentError::UnknownMix {
                    mix: format!("cell {cell}"),
                    available: vec![],
                })
            } else {
                Ok(*cell)
            }
        }

        fn merge(&self, _ctx: &Context, _prep: (), cells: Vec<usize>) -> Result<Vec<usize>> {
            Ok(cells)
        }
    }

    #[test]
    fn parallel_matches_serial_in_order() {
        let ctx = Context::new(Quality::Quick);
        let exp = Squares { n: 23 };
        let serial = SweepRunner::new(1).run(&exp, &ctx).unwrap();
        let parallel = SweepRunner::new(4).run(&exp, &ctx).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial, (0..23).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_sweep_merges_nothing() {
        let ctx = Context::new(Quality::Quick);
        let out = SweepRunner::new(4).run(&Squares { n: 0 }, &ctx).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn first_cell_error_wins_regardless_of_jobs() {
        let ctx = Context::new(Quality::Quick);
        for jobs in [1, 4] {
            let err = SweepRunner::new(jobs)
                .run(&FailAt { at: 3 }, &ctx)
                .unwrap_err();
            assert!(err.to_string().contains("cell 3"), "jobs={jobs}: {err}");
        }
    }

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        assert!(SweepRunner::new(0).jobs() >= 1);
        assert_eq!(SweepRunner::new(5).jobs(), 5);
    }
}
