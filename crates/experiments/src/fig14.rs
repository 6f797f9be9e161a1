//! Figure 14 (with Table 8): the eleven real 3-PU co-run workloads —
//! measured achieved relative speed per PU vs the PCCS and Gables
//! predictions. The paper's headline accuracy numbers come from this
//! experiment: PCCS 3.7 % / 8.7 % / 5.6 % average error on CPU / GPU / DLA
//! against Gables' 13.4 % / 30.3 % / 20.6 %.

use crate::context::Context;
use crate::error::Result;
use crate::runner::{run_experiment, Experiment};
use crate::table::TextTable;
use pccs_core::{PccsModel, SlowdownModel};
use pccs_gables::GablesModel;
use pccs_soc::corun::{CoRunSim, Placement};
use pccs_soc::pu::PuKind;
use pccs_soc::soc::SocConfig;
use pccs_workloads::mixes::{WorkloadMix, TABLE8_MIXES};
use serde::{Deserialize, Serialize};

/// One PU's record within one workload mix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MixPuResult {
    /// PU name.
    pub pu: String,
    /// The benchmark or network on it.
    pub workload: String,
    /// Standalone demand (GB/s).
    pub demand_gbps: f64,
    /// External demand seen by this PU (sum of co-runners' demands).
    pub external_gbps: f64,
    /// Measured relative speed (%).
    pub actual: f64,
    /// PCCS prediction (%).
    pub pccs: f64,
    /// Gables prediction (%).
    pub gables: f64,
}

/// One workload mix's results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MixResult {
    /// Workload letter (A–K).
    pub id: char,
    /// Per-PU records (CPU, GPU, DLA).
    pub per_pu: Vec<MixPuResult>,
}

/// The Figure 14 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig14 {
    /// All workload mixes.
    pub mixes: Vec<MixResult>,
}

/// Shared sweep state: the Xavier PUs and their constructed models.
#[derive(Debug)]
pub struct Fig14Prep {
    soc: SocConfig,
    cpu: usize,
    gpu: usize,
    dla: usize,
    models: [(usize, PccsModel); 3],
    gables: GablesModel,
}

/// [`Experiment`] marker for Figure 14 + Table 8; one cell per workload
/// mix (each cell profiles three standalones and one 3-PU co-run).
#[derive(Debug, Clone, Copy)]
pub struct Fig14Experiment;

impl Experiment for Fig14Experiment {
    type Prep = Fig14Prep;
    type Cell = WorkloadMix;
    type CellOut = MixResult;
    type Output = Fig14;

    fn name(&self) -> &'static str {
        "fig14"
    }

    fn prepare(&self, ctx: &Context) -> Result<(Fig14Prep, Vec<WorkloadMix>)> {
        let soc = ctx.xavier.clone();
        let cpu = Context::require_pu(&soc, "CPU")?;
        let gpu = Context::require_pu(&soc, "GPU")?;
        let dla = Context::require_pu(&soc, "DLA")?;
        let models = [
            (cpu, ctx.pccs_model(&soc, cpu)),
            (gpu, ctx.pccs_model(&soc, gpu)),
            (dla, ctx.pccs_model(&soc, dla)),
        ];
        let gables = ctx.gables(&soc);
        let selected: Vec<WorkloadMix> = match ctx.quality {
            crate::context::Quality::Quick => TABLE8_MIXES[..3].to_vec(),
            crate::context::Quality::Full => TABLE8_MIXES.to_vec(),
        };
        Ok((
            Fig14Prep {
                soc,
                cpu,
                gpu,
                dla,
                models,
                gables,
            },
            selected,
        ))
    }

    fn run_cell(&self, ctx: &Context, prep: &Fig14Prep, mix: &WorkloadMix) -> Result<MixResult> {
        let kernels = [
            (
                prep.cpu,
                "CPU",
                mix.cpu.label().to_owned(),
                mix.cpu.kernel(PuKind::Cpu),
            ),
            (
                prep.gpu,
                "GPU",
                mix.gpu.label().to_owned(),
                mix.gpu.kernel(PuKind::Gpu),
            ),
            (
                prep.dla,
                "DLA",
                mix.dla.label().to_owned(),
                mix.dla.kernel(),
            ),
        ];
        let standalones: Vec<_> = kernels
            .iter()
            .map(|(pu, _, _, k)| ctx.standalone(&prep.soc, *pu, k))
            .collect();

        // The actual 3-PU co-run.
        let mut sim = CoRunSim::with_config(&prep.soc, ctx.corun_config());
        for (pu, _, _, k) in &kernels {
            sim.place(Placement::kernel(*pu, k.clone()));
        }
        let out = sim.execute();

        let mut per_pu = Vec::new();
        for (i, (pu, pu_name, workload, _)) in kernels.iter().enumerate() {
            let x = standalones[i].bw_gbps;
            let external: f64 = standalones
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, s)| s.bw_gbps)
                .sum();
            let actual = out
                .relative_speed_pct(*pu, &standalones[i])
                .expect("mix PU is placed")
                .min(102.0);
            let pccs_model = &prep.models.iter().find(|(p, _)| p == pu).expect("model").1;
            per_pu.push(MixPuResult {
                pu: (*pu_name).to_owned(),
                workload: workload.clone(),
                demand_gbps: x,
                external_gbps: external,
                actual,
                pccs: pccs_model.relative_speed_pct(x, external),
                gables: prep.gables.relative_speed_pct(x, external),
            });
        }
        Ok(MixResult { id: mix.id, per_pu })
    }

    fn merge(&self, _ctx: &Context, _prep: Fig14Prep, cells: Vec<MixResult>) -> Result<Fig14> {
        Ok(Fig14 { mixes: cells })
    }
}

/// Runs the co-run study on Xavier.
///
/// # Errors
///
/// Fails if a requested PU is missing from the SoC preset.
pub fn run(ctx: &mut Context) -> Result<Fig14> {
    run_experiment(&Fig14Experiment, ctx)
}

impl Fig14 {
    /// Average absolute error of one model on one PU across mixes.
    pub fn avg_error(&self, pu: &str, model: ModelChoice) -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for m in &self.mixes {
            for r in &m.per_pu {
                if r.pu == pu {
                    let pred = match model {
                        ModelChoice::Pccs => r.pccs,
                        ModelChoice::Gables => r.gables,
                    };
                    total += (r.actual - pred).abs();
                    n += 1;
                }
            }
        }
        total / n.max(1) as f64
    }

    /// Renders the full per-mix table plus the headline error summary.
    pub fn format(&self) -> String {
        let mut t = TextTable::new(vec![
            "mix".into(),
            "PU".into(),
            "workload".into(),
            "x GB/s".into(),
            "y GB/s".into(),
            "actual %".into(),
            "PCCS %".into(),
            "Gables %".into(),
        ]);
        for m in &self.mixes {
            for r in &m.per_pu {
                t.row(vec![
                    m.id.to_string(),
                    r.pu.clone(),
                    r.workload.clone(),
                    format!("{:.1}", r.demand_gbps),
                    format!("{:.1}", r.external_gbps),
                    format!("{:.1}", r.actual),
                    format!("{:.1}", r.pccs),
                    format!("{:.1}", r.gables),
                ]);
            }
        }
        let mut s = format!("Figure 14 / Table 8 — three-PU co-run workloads on Xavier\n{t}\n");
        for pu in ["CPU", "GPU", "DLA"] {
            s.push_str(&format!(
                "{pu}: avg error PCCS {:.1}%  Gables {:.1}%\n",
                self.avg_error(pu, ModelChoice::Pccs),
                self.avg_error(pu, ModelChoice::Gables)
            ));
        }
        s
    }
}

/// Selects which model's prediction to aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelChoice {
    /// The PCCS three-region model.
    Pccs,
    /// The Gables baseline.
    Gables,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Quality;

    #[test]
    fn fig14_quick_covers_three_pus_per_mix() {
        let mut ctx = Context::new(Quality::Quick);
        let fig = run(&mut ctx).expect("experiment runs");
        assert_eq!(fig.mixes.len(), 3);
        for m in &fig.mixes {
            assert_eq!(m.per_pu.len(), 3);
            for r in &m.per_pu {
                assert!(r.demand_gbps > 0.0);
                assert!((0.0..=102.0).contains(&r.actual));
            }
        }
        assert!(fig.format().contains("Figure 14"));
    }
}
