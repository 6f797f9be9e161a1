//! Figures 8–12: empirical validation of the slowdown model on benchmark
//! proxies — actual (simulated) relative speed vs PCCS and Gables
//! predictions, per benchmark, under swept external pressure.
//!
//! * Fig. 8 — 10 Rodinia proxies on the Xavier GPU
//! * Fig. 9 — 5 Rodinia proxies on the Xavier CPU
//! * Fig. 10 — 10 Rodinia proxies on the Snapdragon 855 GPU
//! * Fig. 11 — 5 Rodinia proxies on the Snapdragon 855 CPU
//! * Fig. 12 — DNN inference on the Xavier DLA

use crate::context::Context;
use crate::error::Result;
use crate::runner::{run_experiment, Experiment};
use crate::table::TextTable;
use pccs_core::SlowdownModel;
use pccs_gables::GablesModel;
use pccs_soc::kernel::KernelDesc;
use pccs_soc::soc::SocConfig;
use pccs_telemetry::audit::{self, AuditRecord};
use pccs_workloads::dnn::DnnModel;
use pccs_workloads::rodinia::RodiniaBenchmark;
use serde::{Deserialize, Serialize};

/// Which validation figure to regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Figure {
    /// Fig. 8: Xavier GPU, full Rodinia suite.
    XavierGpu,
    /// Fig. 9: Xavier CPU, 5-benchmark suite.
    XavierCpu,
    /// Fig. 10: Snapdragon GPU, full Rodinia suite.
    SnapdragonGpu,
    /// Fig. 11: Snapdragon CPU, 5-benchmark suite.
    SnapdragonCpu,
    /// Fig. 12: Xavier DLA, DNN inference.
    XavierDla,
}

impl Figure {
    /// All five validation figures.
    pub fn all() -> [Figure; 5] {
        [
            Figure::XavierGpu,
            Figure::XavierCpu,
            Figure::SnapdragonGpu,
            Figure::SnapdragonCpu,
            Figure::XavierDla,
        ]
    }

    /// Paper figure number.
    pub fn number(&self) -> u32 {
        match self {
            Figure::XavierGpu => 8,
            Figure::XavierCpu => 9,
            Figure::SnapdragonGpu => 10,
            Figure::SnapdragonCpu => 11,
            Figure::XavierDla => 12,
        }
    }

    /// Human-readable target label.
    pub fn label(&self) -> &'static str {
        match self {
            Figure::XavierGpu => "Xavier GPU",
            Figure::XavierCpu => "Xavier CPU",
            Figure::SnapdragonGpu => "Snapdragon 855 GPU",
            Figure::SnapdragonCpu => "Snapdragon 855 CPU",
            Figure::XavierDla => "Xavier DLA",
        }
    }

    fn soc(&self, ctx: &Context) -> SocConfig {
        match self {
            Figure::XavierGpu | Figure::XavierCpu | Figure::XavierDla => ctx.xavier.clone(),
            Figure::SnapdragonGpu | Figure::SnapdragonCpu => ctx.snapdragon.clone(),
        }
    }

    fn pu_name(&self) -> &'static str {
        match self {
            Figure::XavierGpu | Figure::SnapdragonGpu => "GPU",
            Figure::XavierCpu | Figure::SnapdragonCpu => "CPU",
            Figure::XavierDla => "DLA",
        }
    }

    fn workloads(&self, quality: crate::context::Quality) -> Vec<(String, KernelDesc)> {
        use crate::context::Quality;
        let pu_kind = match self.pu_name() {
            "GPU" => pccs_soc::pu::PuKind::Gpu,
            "CPU" => pccs_soc::pu::PuKind::Cpu,
            _ => pccs_soc::pu::PuKind::Dla,
        };
        match self {
            Figure::XavierDla => DnnModel::imagenet()
                .into_iter()
                .map(|m| (m.label().to_owned(), m.kernel()))
                .collect(),
            Figure::XavierCpu | Figure::SnapdragonCpu => RodiniaBenchmark::cpu_suite()
                .into_iter()
                .map(|b| (b.label().to_owned(), b.kernel(pu_kind)))
                .collect(),
            _ => {
                let all = RodiniaBenchmark::all();
                let take: Vec<RodiniaBenchmark> = match quality {
                    Quality::Quick => all[..4].to_vec(),
                    Quality::Full => all.to_vec(),
                };
                take.into_iter()
                    .map(|b| (b.label().to_owned(), b.kernel(pu_kind)))
                    .collect()
            }
        }
    }
}

/// One benchmark's validation record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchValidation {
    /// Benchmark label.
    pub name: String,
    /// Standalone bandwidth demand (GB/s).
    pub demand_gbps: f64,
    /// `(external GB/s, actual RS %, PCCS RS %, Gables RS %)` points.
    pub points: Vec<(f64, f64, f64, f64)>,
}

impl BenchValidation {
    /// Mean absolute PCCS error over the sweep (percentage points).
    pub fn pccs_error(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, a, p, _)| (a - p).abs())
            .sum::<f64>()
            / self.points.len() as f64
    }

    /// Mean absolute Gables error over the sweep.
    pub fn gables_error(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, a, _, g)| (a - g).abs())
            .sum::<f64>()
            / self.points.len() as f64
    }
}

/// A regenerated validation figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Validation {
    /// Which figure.
    pub figure: Figure,
    /// Per-benchmark records.
    pub benches: Vec<BenchValidation>,
}

/// Shared sweep state: the figure's SoC/PU, its models, and the grid.
#[derive(Debug)]
pub struct ValidatePrep {
    soc: SocConfig,
    pu: usize,
    pccs: pccs_core::PccsModel,
    gables: GablesModel,
    grid: Vec<f64>,
}

/// [`Experiment`] marker for one validation figure (Figs. 8–12); one cell
/// per benchmark.
#[derive(Debug, Clone, Copy)]
pub struct ValidateExperiment(pub Figure);

impl Experiment for ValidateExperiment {
    type Prep = ValidatePrep;
    type Cell = (String, KernelDesc);
    type CellOut = BenchValidation;
    type Output = Validation;

    fn name(&self) -> &'static str {
        match self.0 {
            Figure::XavierGpu => "fig8",
            Figure::XavierCpu => "fig9",
            Figure::SnapdragonGpu => "fig10",
            Figure::SnapdragonCpu => "fig11",
            Figure::XavierDla => "fig12",
        }
    }

    fn prepare(&self, ctx: &Context) -> Result<(ValidatePrep, Vec<(String, KernelDesc)>)> {
        let soc = self.0.soc(ctx);
        let pu = Context::require_pu(&soc, self.0.pu_name())?;
        let pccs = ctx.pccs_model(&soc, pu);
        let gables = ctx.gables(&soc);
        let grid = ctx.external_grid(&soc);
        let cells = self.0.workloads(ctx.quality);
        Ok((
            ValidatePrep {
                soc,
                pu,
                pccs,
                gables,
                grid,
            },
            cells,
        ))
    }

    fn run_cell(
        &self,
        ctx: &Context,
        prep: &ValidatePrep,
        (name, kernel): &(String, KernelDesc),
    ) -> Result<BenchValidation> {
        let standalone = ctx.standalone(&prep.soc, prep.pu, kernel);
        let x = standalone.bw_gbps;
        let cfg = ctx.corun_config();
        let points = prep
            .grid
            .iter()
            .map(|&y| {
                let actual = ctx.actual_rs_pct(&prep.soc, prep.pu, kernel, &standalone, y);
                let p = prep.pccs.relative_speed_pct(x, y);
                let g = prep.gables.relative_speed_pct(x, y);
                if audit::is_enabled() {
                    audit::record(
                        AuditRecord::new("validate", "rs_pct", p, actual)
                            .with_soc(&prep.soc.slug())
                            .with_pu(&prep.soc.pus[prep.pu].name)
                            .with_workload(name)
                            .with_region(prep.pccs.region_label(x))
                            .with_policy(cfg.policy.label()),
                    );
                }
                (y, actual, p, g)
            })
            .collect();
        Ok(BenchValidation {
            name: name.clone(),
            demand_gbps: x,
            points,
        })
    }

    fn merge(
        &self,
        _ctx: &Context,
        _prep: ValidatePrep,
        cells: Vec<BenchValidation>,
    ) -> Result<Validation> {
        Ok(Validation {
            figure: self.0,
            benches: cells,
        })
    }
}

/// Runs one validation figure.
///
/// # Errors
///
/// Fails if the figure's PU is missing from the SoC preset.
pub fn run(ctx: &mut Context, figure: Figure) -> Result<Validation> {
    run_experiment(&ValidateExperiment(figure), ctx)
}

impl Validation {
    /// Average PCCS error across benchmarks (the per-figure headline).
    pub fn avg_pccs_error(&self) -> f64 {
        self.benches
            .iter()
            .map(BenchValidation::pccs_error)
            .sum::<f64>()
            / self.benches.len() as f64
    }

    /// Average Gables error across benchmarks.
    pub fn avg_gables_error(&self) -> f64 {
        self.benches
            .iter()
            .map(BenchValidation::gables_error)
            .sum::<f64>()
            / self.benches.len() as f64
    }

    /// Renders the per-benchmark table.
    pub fn format(&self) -> String {
        let mut t = TextTable::new(vec![
            "benchmark".into(),
            "demand GB/s".into(),
            "PCCS err %".into(),
            "Gables err %".into(),
        ]);
        for b in &self.benches {
            t.row(vec![
                b.name.clone(),
                format!("{:.1}", b.demand_gbps),
                format!("{:.1}", b.pccs_error()),
                format!("{:.1}", b.gables_error()),
            ]);
        }
        format!(
            "Figure {} — {}: prediction errors per benchmark\n{t}\navg PCCS {:.1}%  avg Gables {:.1}%\n",
            self.figure.number(),
            self.figure.label(),
            self.avg_pccs_error(),
            self.avg_gables_error()
        )
    }

    /// Full curve dump (external vs actual/PCCS/Gables per benchmark).
    pub fn format_curves(&self) -> String {
        let mut out = String::new();
        for b in &self.benches {
            out.push_str(&format!("\n{} (x = {:.1} GB/s)\n", b.name, b.demand_gbps));
            let mut t = TextTable::new(vec![
                "external".into(),
                "actual".into(),
                "PCCS".into(),
                "Gables".into(),
            ]);
            for &(y, a, p, g) in &b.points {
                t.row(vec![
                    format!("{y:.0}"),
                    format!("{a:.1}"),
                    format!("{p:.1}"),
                    format!("{g:.1}"),
                ]);
            }
            out.push_str(&t.to_string());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Quality;

    #[test]
    fn figure_metadata() {
        assert_eq!(Figure::all().len(), 5);
        assert_eq!(Figure::XavierGpu.number(), 8);
        assert_eq!(Figure::XavierDla.pu_name(), "DLA");
    }

    #[test]
    fn dla_validation_runs_quick() {
        let mut ctx = Context::new(Quality::Quick);
        let v = run(&mut ctx, Figure::XavierDla).expect("experiment runs");
        assert_eq!(v.benches.len(), 3);
        for b in &v.benches {
            assert!(b.demand_gbps > 0.0);
            assert!(!b.points.is_empty());
        }
        assert!(v.format().contains("Figure 12"));
    }

    #[test]
    fn audited_sweep_matches_the_reported_error() {
        let mut ctx = Context::new(Quality::Quick);
        audit::set_enabled(true);
        let v = run(&mut ctx, Figure::XavierDla).expect("experiment runs");
        audit::set_enabled(false);
        let recs: Vec<_> = audit::snapshot()
            .into_iter()
            .filter(|r| r.source == "validate" && r.soc == "xavier" && r.pu == "DLA")
            .collect();
        let expected: usize = v.benches.iter().map(|b| b.points.len()).sum();
        assert_eq!(recs.len(), expected, "one record per sweep point");
        // Every bench sweeps the same grid, so the ledger-wide MAE equals
        // the figure's headline (a mean of equal-weight per-bench means).
        let mae = audit::mean_abs_error(recs.iter());
        assert!(
            (mae - v.avg_pccs_error()).abs() < 1e-9,
            "ledger MAE {mae} vs avg_pccs_error {}",
            v.avg_pccs_error()
        );
        for r in &recs {
            assert_ne!(r.region, "-", "PCCS models attribute a region");
        }
    }
}
