//! Table 9 and Figure 15: the SoC-design use case — selecting the lowest
//! GPU frequency whose co-run performance stays within an allowed slowdown,
//! using PCCS vs Gables vs simulated ground truth (Section 4.3).
//!
//! The paper's signature result: Gables picks the same frequency regardless
//! of external pressure (it predicts zero contention below the peak), while
//! PCCS tracks the ground truth within a few percent.

use crate::context::Context;
use crate::error::Result;
use crate::runner::{run_experiment, Experiment};
use crate::table::TextTable;
use pccs_core::PccsModel;
use pccs_dse::freq::{
    ground_truth_frequency, profile_frequencies, select_frequency, FrequencyPoint,
};
use pccs_gables::GablesModel;
use pccs_soc::kernel::KernelDesc;
use pccs_soc::pu::PuKind;
use pccs_soc::soc::SocConfig;
use pccs_workloads::rodinia::RodiniaBenchmark;
use serde::{Deserialize, Serialize};

/// One (budget, pressure) cell of Table 9.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelectionCell {
    /// Allowed slowdown (fraction).
    pub budget: f64,
    /// External demand (GB/s).
    pub external_gbps: f64,
    /// Ground-truth frequency (MHz).
    pub truth_mhz: f64,
    /// PCCS-selected frequency (MHz).
    pub pccs_mhz: f64,
    /// Gables-selected frequency (MHz).
    pub gables_mhz: f64,
}

impl SelectionCell {
    /// PCCS frequency error vs ground truth (%).
    pub fn pccs_error_pct(&self) -> f64 {
        100.0 * (self.pccs_mhz - self.truth_mhz).abs() / self.truth_mhz
    }

    /// Gables frequency error vs ground truth (%).
    pub fn gables_error_pct(&self) -> f64 {
        100.0 * (self.gables_mhz - self.truth_mhz).abs() / self.truth_mhz
    }
}

/// The Table 9 + Figure 15 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table9 {
    /// All selection cells.
    pub cells: Vec<SelectionCell>,
    /// Figure 15 data: `(freq MHz, [(external, perf_rel)])` ground-truth
    /// co-run performance curves at representative frequencies.
    pub fig15_curves: Vec<(f64, Vec<(f64, f64)>)>,
}

/// Shared sweep state: the DVFS profile and both models.
#[derive(Debug)]
pub struct Table9Prep {
    soc: SocConfig,
    gpu: usize,
    cpu: usize,
    kernel: KernelDesc,
    pccs: PccsModel,
    gables: GablesModel,
    freqs: Vec<f64>,
    points: Vec<FrequencyPoint>,
    base_rate: f64,
}

/// One unit of Table 9 / Figure 15 work.
#[derive(Debug, Clone, Copy)]
pub enum Table9Cell {
    /// A (budget, external pressure) frequency selection.
    Select {
        /// Allowed slowdown (fraction).
        budget: f64,
        /// External demand (GB/s).
        external_gbps: f64,
    },
    /// One ground-truth performance curve at a fixed frequency (Fig. 15).
    Curve {
        /// GPU clock (MHz).
        freq_mhz: f64,
    },
}

/// The result of one [`Table9Cell`].
#[derive(Debug, Clone)]
pub enum Table9CellOut {
    /// A filled selection row.
    Select(SelectionCell),
    /// A filled Fig. 15 curve.
    Curve((f64, Vec<(f64, f64)>)),
}

/// [`Experiment`] marker for Table 9 + Figure 15; selection cells and
/// Fig. 15 curves are all independent sweep cells.
#[derive(Debug, Clone, Copy)]
pub struct Table9Experiment;

impl Experiment for Table9Experiment {
    type Prep = Table9Prep;
    type Cell = Table9Cell;
    type CellOut = Table9CellOut;
    type Output = Table9;

    fn name(&self) -> &'static str {
        "table9"
    }

    fn prepare(&self, ctx: &Context) -> Result<(Table9Prep, Vec<Table9Cell>)> {
        let soc = ctx.xavier.clone();
        let gpu = Context::require_pu(&soc, "GPU")?;
        let cpu = Context::require_pu(&soc, "CPU")?;
        let kernel = RodiniaBenchmark::Streamcluster.kernel(PuKind::Gpu);
        let pccs = ctx.pccs_model(&soc, gpu);
        let gables = ctx.gables(&soc);

        let freqs: Vec<f64> = match ctx.quality {
            crate::context::Quality::Quick => vec![500.0, 900.0, 1377.0],
            crate::context::Quality::Full => {
                vec![
                    400.0, 500.0, 600.0, 700.0, 800.0, 900.0, 1000.0, 1100.0, 1377.0,
                ]
            }
        };
        // The paper uses 20/40/60 GB/s on silicon whose contention bites
        // early; our substrate's fairness control absorbs mild pressure, so
        // the same *regime* (light / medium / heavy contention) sits at
        // higher absolute levels here.
        let externals: Vec<f64> = vec![40.0, 80.0, 120.0];
        let budgets = [0.05, 0.20];

        let points = profile_frequencies(&soc, gpu, &kernel, &freqs, ctx.horizon());

        // Figure 15 normalization: the top frequency's standalone rate.
        let fig_freqs = [freqs[freqs.len() - 1], freqs[freqs.len() / 2]];
        let top = soc.with_pu(gpu, soc.pus[gpu].with_frequency(fig_freqs[0]));
        let base_rate = pccs_soc::corun::CoRunSim::standalone_averaged(
            &top,
            gpu,
            &kernel,
            ctx.horizon(),
            ctx.repeats(),
        )
        .lines_per_cycle
        .max(f64::MIN_POSITIVE);

        let mut cells = Vec::new();
        for &budget in &budgets {
            for &y in &externals {
                cells.push(Table9Cell::Select {
                    budget,
                    external_gbps: y,
                });
            }
        }
        for &f in &fig_freqs {
            cells.push(Table9Cell::Curve { freq_mhz: f });
        }

        Ok((
            Table9Prep {
                soc,
                gpu,
                cpu,
                kernel,
                pccs,
                gables,
                freqs,
                points,
                base_rate,
            },
            cells,
        ))
    }

    fn run_cell(
        &self,
        ctx: &Context,
        prep: &Table9Prep,
        cell: &Table9Cell,
    ) -> Result<Table9CellOut> {
        match *cell {
            Table9Cell::Select {
                budget,
                external_gbps: y,
            } => {
                let truth = ground_truth_frequency(
                    &prep.soc,
                    prep.gpu,
                    prep.cpu,
                    &prep.kernel,
                    &prep.freqs,
                    y,
                    budget,
                    ctx.horizon(),
                );
                let p = select_frequency(&prep.points, &prep.pccs, y, budget);
                let g = select_frequency(&prep.points, &prep.gables, y, budget);
                Ok(Table9CellOut::Select(SelectionCell {
                    budget,
                    external_gbps: y,
                    truth_mhz: truth.chosen_mhz,
                    pccs_mhz: p.chosen_mhz,
                    gables_mhz: g.chosen_mhz,
                }))
            }
            Table9Cell::Curve { freq_mhz } => {
                // Figure 15: measured co-run performance vs pressure at this
                // frequency, normalized to the top frequency's standalone
                // rate. The paper's observation — a memory-bound kernel's
                // curve at the top clock nearly coincides with the one at a
                // much lower clock — appears as overlapping rows here.
                let reclocked = prep
                    .soc
                    .with_pu(prep.gpu, prep.soc.pus[prep.gpu].with_frequency(freq_mhz));
                let sweep: Vec<f64> = vec![10.0, 30.0, 50.0, 70.0, 90.0];
                let mut curve = Vec::new();
                for &y in &sweep {
                    let mut sim =
                        pccs_soc::corun::CoRunSim::with_config(&reclocked, ctx.corun_config());
                    sim.place(pccs_soc::corun::Placement::kernel(
                        prep.gpu,
                        prep.kernel.clone(),
                    ));
                    sim.external_pressure(prep.cpu, y);
                    let out = sim.execute();
                    curve.push((y, out.per_pu[&prep.gpu].lines_per_cycle / prep.base_rate));
                }
                Ok(Table9CellOut::Curve((freq_mhz, curve)))
            }
        }
    }

    fn merge(&self, _ctx: &Context, _prep: Table9Prep, outs: Vec<Table9CellOut>) -> Result<Table9> {
        let mut cells = Vec::new();
        let mut fig15_curves = Vec::new();
        for out in outs {
            match out {
                Table9CellOut::Select(c) => cells.push(c),
                Table9CellOut::Curve(c) => fig15_curves.push(c),
            }
        }
        Ok(Table9 {
            cells,
            fig15_curves,
        })
    }
}

/// Runs the use case: streamcluster on the Xavier GPU.
///
/// # Errors
///
/// Fails if a requested PU is missing from the SoC preset.
pub fn run(ctx: &mut Context) -> Result<Table9> {
    run_experiment(&Table9Experiment, ctx)
}

impl Table9 {
    /// Average PCCS frequency error across cells (%).
    pub fn avg_pccs_error(&self) -> f64 {
        self.cells
            .iter()
            .map(SelectionCell::pccs_error_pct)
            .sum::<f64>()
            / self.cells.len() as f64
    }

    /// Average Gables frequency error across cells (%).
    pub fn avg_gables_error(&self) -> f64 {
        self.cells
            .iter()
            .map(SelectionCell::gables_error_pct)
            .sum::<f64>()
            / self.cells.len() as f64
    }

    /// Whether Gables, blind to external pressure, selects a frequency
    /// above the ground-truth maximum in at least one cell — the outcome
    /// behind the paper's 880/880/880 pathology: a model that cannot see
    /// contention overclocks under pressure and misses the deadline.
    pub fn gables_overclocks_under_pressure(&self) -> bool {
        self.cells.iter().any(|c| c.gables_mhz > c.truth_mhz + 1e-9)
    }

    /// Renders the table.
    pub fn format(&self) -> String {
        let mut t = TextTable::new(vec![
            "budget".into(),
            "external GB/s".into(),
            "truth MHz".into(),
            "PCCS MHz".into(),
            "Gables MHz".into(),
            "PCCS err %".into(),
            "Gables err %".into(),
        ]);
        for c in &self.cells {
            t.row(vec![
                format!("{:.0}%", c.budget * 100.0),
                format!("{:.0}", c.external_gbps),
                format!("{:.0}", c.truth_mhz),
                format!("{:.0}", c.pccs_mhz),
                format!("{:.0}", c.gables_mhz),
                format!("{:.1}", c.pccs_error_pct()),
                format!("{:.1}", c.gables_error_pct()),
            ]);
        }
        let mut s = format!(
            "Table 9 — GPU frequency selection (streamcluster)\n{t}\n\
             avg error: PCCS {:.1}%  Gables {:.1}%\n",
            self.avg_pccs_error(),
            self.avg_gables_error()
        );
        s.push_str("\nFigure 15 — measured co-run performance vs pressure (rel. to best)\n");
        let mut t = TextTable::new({
            let mut h = vec!["freq MHz".to_owned()];
            h.extend(
                self.fig15_curves[0]
                    .1
                    .iter()
                    .map(|&(y, _)| format!("y={y:.0}")),
            );
            h
        });
        for (f, curve) in &self.fig15_curves {
            let mut row = vec![format!("{f:.0}")];
            row.extend(curve.iter().map(|&(_, p)| format!("{p:.2}")));
            t.row(row);
        }
        s.push_str(&t.to_string());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Quality;

    #[test]
    fn table9_quick_produces_six_cells() {
        let mut ctx = Context::new(Quality::Quick);
        let t = run(&mut ctx).expect("experiment runs");
        assert_eq!(t.cells.len(), 6);
        for c in &t.cells {
            assert!(c.truth_mhz > 0.0 && c.pccs_mhz > 0.0 && c.gables_mhz > 0.0);
        }
        assert_eq!(t.fig15_curves.len(), 2);
        assert!(t.format().contains("Table 9"));
        assert!(
            t.gables_overclocks_under_pressure(),
            "pressure-blind Gables should overclock past the ground-truth \
             frequency somewhere (the paper's 880/880/880 pathology)"
        );
        assert!(
            t.avg_pccs_error() < t.avg_gables_error(),
            "PCCS selection error should beat pressure-blind Gables"
        );
    }
}
