//! The scheduling study: every bundled placement policy replayed on every
//! bundled job mix, on both SoC presets.
//!
//! This is the "so what" of the slowdown model — the paper builds PCCS so
//! that a runtime can *act* on contention predictions. The study compares
//! four policies (contention-oblivious greedy, round-robin, PCCS-guided,
//! and a probing oracle) by makespan, mean achieved relative speed, and
//! deadline misses. The headline row is the `contended` mix on Xavier:
//! greedy traps the FC-heavy AlexNet on the DLA next to a CPU bandwidth
//! hog, while the PCCS policy predicts the collapse and routes it away.

use crate::context::{Context, Quality};
use crate::error::{ExperimentError, Result};
use crate::runner::{run_experiment, Experiment};
use crate::table::TextTable;
use pccs_sched::engine::{run_schedule, SchedConfig};
use pccs_sched::policy::{ObliviousGreedy, OraclePolicy, PccsPolicy, Policy, RoundRobin};
use pccs_sched::{mixes, Mix};
use pccs_soc::soc::SocConfig;
use serde::{Deserialize, Serialize};

/// One `(SoC, mix, policy)` cell of the study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyRow {
    /// SoC name.
    pub soc: String,
    /// Mix name.
    pub mix: String,
    /// Policy name.
    pub policy: String,
    /// Completion time of the last job, cycles.
    pub makespan: f64,
    /// Mean achieved relative speed across jobs, percent.
    pub mean_rs_pct: f64,
    /// Jobs that finished after their deadline.
    pub deadline_misses: usize,
}

/// The scheduling-study result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedStudy {
    /// One row per `(SoC, mix, policy)`.
    pub rows: Vec<StudyRow>,
}

/// The policies under study, built fresh per mix (round-robin carries a
/// cursor). The PCCS policy reuses the context's cached per-PU models, so
/// its calibration cost is paid once per SoC.
fn policies(ctx: &Context, soc: &SocConfig) -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(RoundRobin::default()),
        Box::new(ObliviousGreedy),
        Box::new(PccsPolicy::new(ctx.pccs_models(soc))),
        Box::new(OraclePolicy),
    ]
}

/// [`Experiment`] marker for the scheduling study; one cell per
/// (SoC, mix) pair, replaying all four policies.
#[derive(Debug, Clone, Copy)]
pub struct SchedStudyExperiment;

impl Experiment for SchedStudyExperiment {
    type Prep = SchedConfig;
    type Cell = (SocConfig, Mix);
    type CellOut = Vec<StudyRow>;
    type Output = SchedStudy;

    fn name(&self) -> &'static str {
        "sched_study"
    }

    fn prepare(&self, ctx: &Context) -> Result<(SchedConfig, Vec<(SocConfig, Mix)>)> {
        let mix_names: Vec<String> = match ctx.quality {
            Quality::Quick => vec!["contended".to_owned()],
            Quality::Full => mixes::names(),
        };
        let engine_cfg = match ctx.quality {
            Quality::Quick => SchedConfig::quick(),
            Quality::Full => SchedConfig::default(),
        };
        let mut cells = Vec::new();
        for soc in [ctx.xavier.clone(), ctx.snapdragon.clone()] {
            for name in &mix_names {
                let mix: Mix = mixes::mix(name).ok_or_else(|| ExperimentError::UnknownMix {
                    mix: name.clone(),
                    available: mixes::names(),
                })?;
                cells.push((soc.clone(), mix));
            }
        }
        Ok((engine_cfg, cells))
    }

    fn run_cell(
        &self,
        ctx: &Context,
        engine_cfg: &SchedConfig,
        (soc, mix): &(SocConfig, Mix),
    ) -> Result<Vec<StudyRow>> {
        let mut rows = Vec::new();
        for mut policy in policies(ctx, soc) {
            let report = run_schedule(soc, &mix.name, &mix.jobs, policy.as_mut(), engine_cfg)?;
            rows.push(StudyRow {
                soc: soc.name.clone(),
                mix: mix.name.clone(),
                policy: report.policy.clone(),
                makespan: report.makespan,
                mean_rs_pct: report.mean_rs_pct(),
                deadline_misses: report.deadline_misses(),
            });
        }
        Ok(rows)
    }

    fn merge(
        &self,
        _ctx: &Context,
        _prep: SchedConfig,
        cells: Vec<Vec<StudyRow>>,
    ) -> Result<SchedStudy> {
        Ok(SchedStudy {
            rows: cells.into_iter().flatten().collect(),
        })
    }
}

/// Runs the study: quick fidelity replays the headline `contended` mix
/// only; full fidelity covers all bundled mixes.
///
/// # Errors
///
/// Fails if a requested mix is missing from the bundled set.
pub fn run(ctx: &mut Context) -> Result<SchedStudy> {
    run_experiment(&SchedStudyExperiment, ctx)
}

impl SchedStudy {
    /// One cell's makespan.
    fn makespan_of(&self, soc: &str, mix: &str, policy: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.soc == soc && r.mix == mix && r.policy == policy)
            .map(|r| r.makespan)
    }

    /// PCCS makespan improvement over the oblivious greedy on one cell, in
    /// percent (positive = PCCS faster).
    pub fn pccs_gain_over_greedy_pct(&self, soc: &str, mix: &str) -> Option<f64> {
        let greedy = self.makespan_of(soc, mix, "greedy")?;
        let pccs = self.makespan_of(soc, mix, "pccs")?;
        Some(100.0 * (1.0 - pccs / greedy))
    }

    /// Renders the study table plus the headline gap lines.
    pub fn format(&self) -> String {
        let mut t = TextTable::new(vec![
            "SoC".into(),
            "mix".into(),
            "policy".into(),
            "makespan".into(),
            "mean RS %".into(),
            "deadline misses".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.soc.clone(),
                r.mix.clone(),
                r.policy.clone(),
                format!("{:.0}", r.makespan),
                format!("{:.1}", r.mean_rs_pct),
                r.deadline_misses.to_string(),
            ]);
        }
        let mut s = format!("Scheduling study — policies x mixes x SoCs\n{t}\n");
        let mut seen: Vec<(String, String)> = Vec::new();
        for r in &self.rows {
            let key = (r.soc.clone(), r.mix.clone());
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            if let Some(gain) = self.pccs_gain_over_greedy_pct(&r.soc, &r.mix) {
                s.push_str(&format!(
                    "{} / {}: PCCS vs greedy makespan {:+.1}%\n",
                    r.soc, r.mix, gain
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_reports_the_contended_gap() {
        let mut ctx = Context::new(Quality::Quick);
        let study = run(&mut ctx).expect("experiment runs");
        // Quick mode: 1 mix x 2 SoCs x 4 policies.
        assert_eq!(study.rows.len(), 8);
        let xavier = ctx.xavier.name.clone();
        let gain = study
            .pccs_gain_over_greedy_pct(&xavier, "contended")
            .expect("headline cell present");
        assert!(
            gain > 0.0,
            "PCCS should beat greedy on the contended Xavier mix, got {gain:.1}%"
        );
        assert!(study.format().contains("Scheduling study"));
    }
}
