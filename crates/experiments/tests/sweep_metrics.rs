//! The sweep runner's published counts. `sweep.cells` adds every swept
//! cell and `sweep.workers` keeps the widest pool a sweep used, whatever
//! the worker count; `sweep.steals` (cells that did not go to worker 0)
//! appears only once a sweep runs in parallel. This file holds a single
//! test so no other sweep in the process moves the global registry under
//! it.

use pccs_experiments::error::Result;
use pccs_experiments::{Context, Experiment, Quality, SweepRunner};
use pccs_telemetry::metrics;

/// Five cells that each return their own index.
struct Five;

impl Experiment for Five {
    type Prep = ();
    type Cell = usize;
    type CellOut = usize;
    type Output = Vec<usize>;

    fn name(&self) -> &'static str {
        "five"
    }

    fn prepare(&self, _ctx: &Context) -> Result<((), Vec<usize>)> {
        Ok(((), (0..5).collect()))
    }

    fn run_cell(&self, _ctx: &Context, _prep: &(), cell: &usize) -> Result<usize> {
        Ok(*cell)
    }

    fn merge(&self, _ctx: &Context, _prep: (), cells: Vec<usize>) -> Result<Vec<usize>> {
        Ok(cells)
    }
}

fn read(name: &str) -> u64 {
    metrics::snapshot().get(name).copied().unwrap_or(0)
}

#[test]
fn sweeps_publish_cell_and_worker_counts() {
    let ctx = Context::new(Quality::Quick);
    // (jobs, resolved workers): a pool never outgrows the cell count.
    for (i, (jobs, workers)) in [(1, 1), (3, 3), (8, 5)].into_iter().enumerate() {
        let out = SweepRunner::new(jobs).run(&Five, &ctx).unwrap();
        assert_eq!(out, vec![0, 1, 2, 3, 4], "jobs={jobs}");
        assert_eq!(read("sweep.cells"), 5 * (i as u64 + 1), "jobs={jobs}");
        assert_eq!(read("sweep.workers"), workers, "jobs={jobs}");
        if jobs == 1 {
            assert!(!metrics::snapshot().contains_key("sweep.steals"));
        } else {
            assert!(read("sweep.steals") <= 5 * i as u64, "jobs={jobs}");
        }
    }
}
