//! Figure 3: achieved relative speed of synthetic kernels under external
//! pressure, grouped into the three demand classes that motivate the
//! three-region model — (a) low-demand kernels barely slow down, (b)
//! medium-demand kernels show flat → near-linear drop → flat, (c)
//! high-demand kernels drop immediately then flatten.

use crate::context::Context;
use crate::error::Result;
use crate::runner::{run_experiment, Experiment};
use crate::table::TextTable;
use pccs_soc::corun::{CoRunSim, Placement, StandaloneProfile};
use pccs_soc::kernel::KernelDesc;
use pccs_soc::soc::SocConfig;
use pccs_workloads::calibrate::calibrator_kernel;
use serde::{Deserialize, Serialize};

/// One kernel's relative-speed curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RsCurve {
    /// Requested calibrator demand (GB/s).
    pub requested_gbps: f64,
    /// Achieved standalone bandwidth (GB/s) — the model's `x`.
    pub standalone_gbps: f64,
    /// `(external demand, RS %)` points.
    pub points: Vec<(f64, f64)>,
}

/// The Figure 3 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3 {
    /// All curves, ascending demand.
    pub curves: Vec<RsCurve>,
}

/// Shared sweep state: the SoC and each demand level's profiled kernel.
#[derive(Debug)]
pub struct Fig3Prep {
    soc: SocConfig,
    gpu: usize,
    cpu: usize,
    /// `(requested demand, kernel, standalone profile)` per demand level.
    levels: Vec<(f64, KernelDesc, StandaloneProfile)>,
    grid: Vec<f64>,
}

/// [`Experiment`] marker for Figure 3; one cell per (demand, pressure).
#[derive(Debug, Clone, Copy)]
pub struct Fig3Experiment;

impl Experiment for Fig3Experiment {
    type Prep = Fig3Prep;
    type Cell = (usize, f64);
    type CellOut = f64;
    type Output = Fig3;

    fn name(&self) -> &'static str {
        "fig3"
    }

    fn prepare(&self, ctx: &Context) -> Result<(Fig3Prep, Vec<(usize, f64)>)> {
        let soc = ctx.xavier.clone();
        let gpu = Context::require_pu(&soc, "GPU")?;
        let cpu = Context::require_pu(&soc, "CPU")?;
        let demands: Vec<f64> = match ctx.quality {
            crate::context::Quality::Quick => vec![10.0, 50.0, 100.0],
            crate::context::Quality::Full => (1..=10).map(|i| i as f64 * 10.0).collect(),
        };
        let levels = demands
            .into_iter()
            .map(|demand| {
                let kernel = calibrator_kernel(&soc, gpu, demand);
                let standalone = ctx.standalone(&soc, gpu, &kernel);
                (demand, kernel, standalone)
            })
            .collect::<Vec<_>>();
        let grid = ctx.external_grid(&soc);
        let cells = (0..levels.len())
            .flat_map(|l| grid.iter().map(move |&y| (l, y)))
            .collect();
        Ok((
            Fig3Prep {
                soc,
                gpu,
                cpu,
                levels,
                grid,
            },
            cells,
        ))
    }

    fn run_cell(&self, ctx: &Context, prep: &Fig3Prep, &(l, y): &(usize, f64)) -> Result<f64> {
        let (_, kernel, standalone) = &prep.levels[l];
        let mut sim = CoRunSim::with_config(&prep.soc, ctx.corun_config());
        sim.place(Placement::kernel(prep.gpu, kernel.clone()));
        sim.external_pressure(prep.cpu, y);
        let out = sim.execute();
        Ok(out
            .relative_speed_pct(prep.gpu, standalone)
            .expect("GPU is placed")
            .min(102.0))
    }

    fn merge(&self, _ctx: &Context, prep: Fig3Prep, cells: Vec<f64>) -> Result<Fig3> {
        let curves = prep
            .levels
            .iter()
            .enumerate()
            .map(|(l, (demand, _, standalone))| RsCurve {
                requested_gbps: *demand,
                standalone_gbps: standalone.bw_gbps,
                points: prep
                    .grid
                    .iter()
                    .enumerate()
                    .map(|(i, &y)| (y, cells[l * prep.grid.len() + i]))
                    .collect(),
            })
            .collect();
        Ok(Fig3 { curves })
    }
}

/// Runs the sweep on the Xavier GPU (the paper uses the GPU and CPU; the
/// GPU exhibits all three classes).
///
/// # Errors
///
/// Fails if a requested PU is missing from the SoC preset.
pub fn run(ctx: &mut Context) -> Result<Fig3> {
    run_experiment(&Fig3Experiment, ctx)
}

impl Fig3 {
    /// Renders the curves, one row per kernel.
    pub fn format(&self) -> String {
        let mut header = vec!["req GB/s".to_owned(), "x GB/s".to_owned()];
        for &(y, _) in &self.curves[0].points {
            header.push(format!("y={y:.0}"));
        }
        let mut t = TextTable::new(header);
        for c in &self.curves {
            let mut row = vec![
                format!("{:.0}", c.requested_gbps),
                format!("{:.1}", c.standalone_gbps),
            ];
            row.extend(c.points.iter().map(|&(_, rs)| format!("{rs:.1}")));
            t.row(row);
        }
        format!("Figure 3 — achieved relative speed (%) vs external demand, Xavier GPU\n{t}")
    }

    /// Mean RS of the lowest-demand curve — should stay near 100 %.
    pub fn low_class_mean_rs(&self) -> f64 {
        let c = &self.curves[0];
        c.points.iter().map(|&(_, rs)| rs).sum::<f64>() / c.points.len() as f64
    }

    /// Mean RS of the highest-demand curve — should sit well below the low
    /// class.
    pub fn high_class_mean_rs(&self) -> f64 {
        let c = self.curves.last().expect("curves non-empty");
        c.points.iter().map(|&(_, rs)| rs).sum::<f64>() / c.points.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Quality;

    #[test]
    fn fig3_classes_are_ordered() {
        let mut ctx = Context::new(Quality::Quick);
        let fig = run(&mut ctx).expect("experiment runs");
        assert_eq!(fig.curves.len(), 3);
        assert!(
            fig.low_class_mean_rs() > fig.high_class_mean_rs(),
            "low-demand kernels must retain more speed: {:.1} vs {:.1}",
            fig.low_class_mean_rs(),
            fig.high_class_mean_rs()
        );
        assert!(fig.low_class_mean_rs() > 90.0);
    }
}
