//! Figure 2: the percentage of requested memory bandwidth that is met on a
//! processor under various degrees of external memory pressure.
//!
//! The paper's setup: kernels requesting 30 GB/s on the DLA, 93 GB/s on the
//! CPU and 127 GB/s on the GPU of Xavier, with external pressure swept from
//! 0 to the DRAM peak. The headline observation — contention effects are
//! visible *before* requested + external bandwidth reaches the DRAM peak —
//! is the empirical motivation for PCCS.

use crate::context::Context;
use crate::error::Result;
use crate::runner::{run_experiment, Experiment};
use crate::table::TextTable;
use pccs_soc::corun::{CoRunSim, Placement, StandaloneProfile};
use pccs_soc::kernel::KernelDesc;
use pccs_soc::soc::SocConfig;
use pccs_workloads::calibrate::calibrator_kernel;
use serde::{Deserialize, Serialize};

/// One PU's bandwidth-met curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BwMetCurve {
    /// PU name.
    pub pu: String,
    /// The requested (standalone-achieved) bandwidth in GB/s.
    pub requested_gbps: f64,
    /// `(external demand GB/s, % of requested bandwidth met)` points.
    pub points: Vec<(f64, f64)>,
}

/// The Figure 2 result: one curve per PU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2 {
    /// Curves in paper order (DLA, CPU, GPU).
    pub curves: Vec<BwMetCurve>,
    /// The SoC peak bandwidth (GB/s).
    pub peak_gbps: f64,
}

/// One profiled PU setup shared by all of its pressure cells.
#[derive(Debug)]
pub struct Fig2Setup {
    pu_name: &'static str,
    pu: usize,
    pressure_pu: usize,
    kernel: KernelDesc,
    standalone: StandaloneProfile,
}

/// Shared sweep state: the SoC and the profiled setups.
#[derive(Debug)]
pub struct Fig2Prep {
    soc: SocConfig,
    setups: Vec<Fig2Setup>,
    grid: Vec<f64>,
}

/// [`Experiment`] marker for Figure 2; one cell per (PU, pressure level).
#[derive(Debug, Clone, Copy)]
pub struct Fig2Experiment;

impl Experiment for Fig2Experiment {
    type Prep = Fig2Prep;
    type Cell = (usize, f64);
    type CellOut = f64;
    type Output = Fig2;

    fn name(&self) -> &'static str {
        "fig2"
    }

    fn prepare(&self, ctx: &Context) -> Result<(Fig2Prep, Vec<(usize, f64)>)> {
        let soc = ctx.xavier.clone();
        // Paper's requested levels, scaled by what each PU can demand.
        let mut setups = Vec::new();
        for (pu_name, requested) in [("DLA", 30.0), ("CPU", 93.0), ("GPU", 127.0)] {
            let pu = Context::require_pu(&soc, pu_name)?;
            let kernel = calibrator_kernel(&soc, pu, requested);
            setups.push(Fig2Setup {
                pu_name,
                pu,
                pressure_pu: Context::pressure_pu_for(&soc, pu),
                standalone: ctx.standalone(&soc, pu, &kernel),
                kernel,
            });
        }
        let grid = ctx.external_grid(&soc);
        let cells = (0..setups.len())
            .flat_map(|s| grid.iter().map(move |&y| (s, y)))
            .collect();
        Ok((Fig2Prep { soc, setups, grid }, cells))
    }

    fn run_cell(&self, ctx: &Context, prep: &Fig2Prep, &(s, y): &(usize, f64)) -> Result<f64> {
        let setup = &prep.setups[s];
        let mut sim = CoRunSim::with_config(&prep.soc, ctx.corun_config());
        sim.place(Placement::kernel(setup.pu, setup.kernel.clone()));
        sim.external_pressure(setup.pressure_pu, y);
        let out = sim.execute();
        let met = 100.0 * out.per_pu[&setup.pu].bw_gbps / setup.standalone.bw_gbps.max(1e-9);
        Ok(met.min(102.0))
    }

    fn merge(&self, _ctx: &Context, prep: Fig2Prep, cells: Vec<f64>) -> Result<Fig2> {
        let curves = prep
            .setups
            .iter()
            .enumerate()
            .map(|(s, setup)| BwMetCurve {
                pu: setup.pu_name.to_owned(),
                requested_gbps: setup.standalone.bw_gbps,
                points: prep
                    .grid
                    .iter()
                    .enumerate()
                    .map(|(i, &y)| (y, cells[s * prep.grid.len() + i]))
                    .collect(),
            })
            .collect();
        Ok(Fig2 {
            curves,
            peak_gbps: prep.soc.peak_bw_gbps(),
        })
    }
}

/// Runs the experiment at the context's configured parallelism.
///
/// # Errors
///
/// Fails if a requested PU is missing from the SoC preset.
pub fn run(ctx: &mut Context) -> Result<Fig2> {
    run_experiment(&Fig2Experiment, ctx)
}

impl Fig2 {
    /// Renders the result as a text table (rows = external pressure).
    pub fn format(&self) -> String {
        let mut header = vec!["external GB/s".to_owned()];
        for c in &self.curves {
            header.push(format!("{} (req {:.0})", c.pu, c.requested_gbps));
        }
        let mut t = TextTable::new(header);
        let n = self.curves[0].points.len();
        for i in 0..n {
            let mut row = vec![format!("{:.0}", self.curves[0].points[i].0)];
            for c in &self.curves {
                row.push(format!("{:.1}%", c.points[i].1));
            }
            t.row(row);
        }
        format!(
            "Figure 2 — % of requested BW met under external pressure \
             (peak {:.1} GB/s)\n{t}",
            self.peak_gbps
        )
    }

    /// The paper's qualitative check: each PU already loses bandwidth while
    /// `requested + external < peak` (contention before saturation).
    pub fn contention_before_saturation(&self) -> bool {
        self.curves.iter().any(|c| {
            c.points
                .iter()
                .any(|&(y, met)| c.requested_gbps + y < self.peak_gbps && met < 97.0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Quality;

    #[test]
    fn fig2_quick_run_has_three_curves() {
        let mut ctx = Context::new(Quality::Quick);
        let fig = run(&mut ctx).expect("experiment runs");
        assert_eq!(fig.curves.len(), 3);
        for c in &fig.curves {
            assert_eq!(c.points.len(), ctx.external_grid(&ctx.xavier.clone()).len());
            for &(_, met) in &c.points {
                assert!((0.0..=102.0).contains(&met));
            }
        }
        assert!(fig.format().contains("Figure 2"));
        assert!(
            fig.contention_before_saturation(),
            "the paper's headline observation should hold: PUs lose bandwidth \
             before requested + external traffic reaches the peak"
        );
    }
}
