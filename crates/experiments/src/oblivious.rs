//! Validation of the source-obliviousness insight (Section 3.2).
//!
//! PCCS's processor-centric construction rests on one assumption: "the
//! influence external memory interference has on the performance of an
//! application is determined by the degree of interference, and is largely
//! oblivious to what the sources of the external traffic are". The paper
//! validates it on Xavier by generating the same total external traffic
//! from different source mixes and checking the victim's achieved relative
//! speed barely moves.
//!
//! This experiment repeats that validation on the simulated Xavier: a GPU
//! victim under a fixed *total* external demand produced by (a) the CPU
//! alone, (b) the CPU and DLA in equal halves, and (c) a DLA-weighted mix.

use crate::context::Context;
use crate::error::Result;
use crate::runner::{run_experiment, Experiment};
use crate::table::TextTable;
use pccs_soc::corun::{CoRunSim, Placement, StandaloneProfile};
use pccs_soc::kernel::KernelDesc;
use pccs_soc::soc::SocConfig;
use pccs_workloads::calibrate::calibrator_kernel;
use serde::{Deserialize, Serialize};

/// One measurement: a source composition and the victim's relative speed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompositionPoint {
    /// Human-readable composition (e.g. `"CPU 100%"`).
    pub composition: String,
    /// Victim relative speed (%).
    pub rs_pct: f64,
}

/// The experiment's result: per total-demand level, the victim's RS under
/// each composition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Oblivious {
    /// Victim standalone demand (GB/s).
    pub victim_demand_gbps: f64,
    /// `(total external GB/s, per-composition points)`.
    pub levels: Vec<(f64, Vec<CompositionPoint>)>,
}

/// One sweep cell: a total external demand delivered by a named mix of
/// pressure sources.
#[derive(Debug, Clone)]
pub struct ObliviousCell {
    total: f64,
    label: String,
    sources: Vec<(usize, f64)>,
}

/// Shared sweep state: the victim kernel and its standalone profile.
#[derive(Debug)]
pub struct ObliviousPrep {
    soc: SocConfig,
    gpu: usize,
    kernel: KernelDesc,
    standalone: StandaloneProfile,
}

/// [`Experiment`] marker for the §3.2 validation; one cell per
/// (total demand, source composition).
#[derive(Debug, Clone, Copy)]
pub struct ObliviousExperiment;

impl Experiment for ObliviousExperiment {
    type Prep = ObliviousPrep;
    type Cell = ObliviousCell;
    type CellOut = (f64, CompositionPoint);
    type Output = Oblivious;

    fn name(&self) -> &'static str {
        "oblivious"
    }

    fn prepare(&self, ctx: &Context) -> Result<(ObliviousPrep, Vec<ObliviousCell>)> {
        let soc = ctx.xavier.clone();
        let gpu = Context::require_pu(&soc, "GPU")?;
        let cpu = Context::require_pu(&soc, "CPU")?;
        let dla = Context::require_pu(&soc, "DLA")?;

        let kernel = calibrator_kernel(&soc, gpu, 80.0);
        let standalone = ctx.standalone(&soc, gpu, &kernel);

        let totals: Vec<f64> = match ctx.quality {
            crate::context::Quality::Quick => vec![40.0],
            crate::context::Quality::Full => vec![30.0, 60.0, 90.0],
        };

        let mut cells = Vec::new();
        for &total in &totals {
            // The DLA cannot generate unbounded traffic; cap its share at
            // its achievable ~35 GB/s so all compositions deliver the same
            // total.
            let dla_half = (total / 2.0).min(30.0);
            let dla_heavy = (total * 0.75).min(30.0);
            let compositions: Vec<(String, Vec<(usize, f64)>)> = vec![
                ("CPU 100%".into(), vec![(cpu, total)]),
                (
                    "CPU 50% + DLA 50%".into(),
                    vec![(cpu, total - dla_half), (dla, dla_half)],
                ),
                (
                    "CPU 25% + DLA 75%".into(),
                    vec![(cpu, total - dla_heavy), (dla, dla_heavy)],
                ),
            ];
            for (label, sources) in compositions {
                cells.push(ObliviousCell {
                    total,
                    label,
                    sources,
                });
            }
        }

        Ok((
            ObliviousPrep {
                soc,
                gpu,
                kernel,
                standalone,
            },
            cells,
        ))
    }

    fn run_cell(
        &self,
        ctx: &Context,
        prep: &ObliviousPrep,
        cell: &ObliviousCell,
    ) -> Result<(f64, CompositionPoint)> {
        let mut sim = CoRunSim::with_config(&prep.soc, ctx.corun_config());
        sim.place(Placement::kernel(prep.gpu, prep.kernel.clone()));
        for &(pu, gbps) in &cell.sources {
            sim.external_pressure(pu, gbps);
        }
        let out = sim.execute();
        Ok((
            cell.total,
            CompositionPoint {
                composition: cell.label.clone(),
                rs_pct: out
                    .relative_speed_pct(prep.gpu, &prep.standalone)
                    .expect("GPU is placed")
                    .min(102.0),
            },
        ))
    }

    fn merge(
        &self,
        _ctx: &Context,
        prep: ObliviousPrep,
        outs: Vec<(f64, CompositionPoint)>,
    ) -> Result<Oblivious> {
        // Cells arrive in enumeration order: group consecutive points that
        // share a total-demand level.
        let mut levels: Vec<(f64, Vec<CompositionPoint>)> = Vec::new();
        for (total, point) in outs {
            match levels.last_mut() {
                Some((t, pts)) if *t == total => pts.push(point),
                _ => levels.push((total, vec![point])),
            }
        }
        Ok(Oblivious {
            victim_demand_gbps: prep.standalone.bw_gbps,
            levels,
        })
    }
}

/// Runs the validation on the Xavier GPU.
///
/// # Errors
///
/// Fails if a requested PU is missing from the SoC preset.
pub fn run(ctx: &mut Context) -> Result<Oblivious> {
    run_experiment(&ObliviousExperiment, ctx)
}

impl Oblivious {
    /// The largest spread (max − min RS) across compositions at any level.
    pub fn max_spread_pct(&self) -> f64 {
        self.levels
            .iter()
            .map(|(_, pts)| {
                let max = pts.iter().map(|p| p.rs_pct).fold(f64::MIN, f64::max);
                let min = pts.iter().map(|p| p.rs_pct).fold(f64::MAX, f64::min);
                max - min
            })
            .fold(0.0, f64::max)
    }

    /// Renders the table.
    pub fn format(&self) -> String {
        let mut header = vec!["total external GB/s".to_owned()];
        for p in &self.levels[0].1 {
            header.push(p.composition.clone());
        }
        let mut t = TextTable::new(header);
        for (total, pts) in &self.levels {
            let mut row = vec![format!("{total:.0}")];
            row.extend(pts.iter().map(|p| format!("{:.1}", p.rs_pct)));
            t.row(row);
        }
        format!(
            "Source-obliviousness validation (§3.2) — GPU victim at {:.1} GB/s; \
             max spread across compositions {:.1} pp\n{t}",
            self.victim_demand_gbps,
            self.max_spread_pct()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Quality;

    #[test]
    fn oblivious_quick_runs_three_compositions() {
        let mut ctx = Context::new(Quality::Quick);
        let o = run(&mut ctx).expect("experiment runs");
        assert_eq!(o.levels.len(), 1);
        assert_eq!(o.levels[0].1.len(), 3);
        // The methodological assumption: composition changes the victim's
        // RS far less than the pressure level does.
        assert!(
            o.max_spread_pct() < 25.0,
            "source composition changed RS by {:.1} pp",
            o.max_spread_pct()
        );
        assert!(o.format().contains("obliviousness"));
    }
}
