//! The serving study: latency-throughput curves of the online serving
//! loop, arrival rate x placement policy x SoC.
//!
//! The offline scheduling study ends when the mix drains; serving does
//! not. Under an open-loop arrival stream the machine either keeps up or
//! falls behind, so the interesting comparison is how far the offered rate
//! can climb before the deadline-miss rate breaks an SLO budget. The
//! contention-oblivious greedy traps DLA-eligible inference next to a CPU
//! bandwidth hog and starts missing early; the PCCS-guided policy predicts
//! the collapse and sustains a higher rate at the same miss budget.

use crate::context::{Context, Quality};
use crate::error::Result;
use crate::runner::{run_experiment, Experiment};
use crate::table::TextTable;
use pccs_sched::policy::{ObliviousGreedy, PccsPolicy, Policy};
use pccs_serve::request::contended_classes;
use pccs_serve::{run_serve, ArrivalProcess, ServeConfig};
use pccs_soc::soc::SocConfig;
use serde::{Deserialize, Serialize};

/// The miss budget (percent of offered requests shed or late) used for
/// the headline "max sustainable rate" comparison.
pub const MISS_BUDGET_PCT: f64 = 20.0;

/// One `(SoC, policy, rate)` cell of the study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeRow {
    /// SoC name.
    pub soc: String,
    /// Placement policy name.
    pub policy: String,
    /// Offered arrival rate, requests per million cycles.
    pub rate_per_mcycle: f64,
    /// Requests offered by the arrival process.
    pub offered: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests shed by admission.
    pub shed: usize,
    /// Median completion latency, cycles.
    pub p50_latency: u64,
    /// 99th-percentile completion latency, cycles.
    pub p99_latency: u64,
    /// Deadline misses plus sheds, percent of offered.
    pub miss_rate_pct: f64,
    /// Completions per million cycles of makespan.
    pub throughput_per_mcycle: f64,
}

/// The serving-study result: a latency-throughput curve per policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeStudy {
    /// One row per `(SoC, policy, rate)`.
    pub rows: Vec<ServeRow>,
}

/// [`Experiment`] marker for the serving study.
#[derive(Debug, Clone, Copy)]
pub struct ServeStudyExperiment;

/// Arrival seeds each cell averages over — distinct request streams at
/// the same rate, so one lucky draw cannot flip the curve comparison.
const SEEDS_PER_CELL: u64 = 2;

/// One cell: serve the contended classes on `soc` under `policy` at
/// `rate` arrivals per million cycles.
type ServeCell = (SocConfig, String, f64);

fn policy_for(ctx: &Context, soc: &SocConfig, name: &str) -> Box<dyn Policy> {
    match name {
        "pccs" => Box::new(PccsPolicy::new(ctx.pccs_models(soc))),
        _ => Box::new(ObliviousGreedy),
    }
}

impl Experiment for ServeStudyExperiment {
    type Prep = ServeConfig;
    type Cell = ServeCell;
    type CellOut = ServeRow;
    type Output = ServeStudy;

    fn name(&self) -> &'static str {
        "serve_study"
    }

    fn prepare(&self, ctx: &Context) -> Result<(ServeConfig, Vec<ServeCell>)> {
        let (cfg, rates, socs) = match ctx.quality {
            Quality::Quick => (
                ServeConfig {
                    duration: 2_400_000,
                    ..ServeConfig::quick()
                },
                vec![3.0, 5.0, 7.0, 9.0],
                vec![ctx.xavier.clone()],
            ),
            Quality::Full => (
                ServeConfig {
                    duration: 4_000_000,
                    ..ServeConfig::default()
                },
                vec![2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0],
                vec![ctx.xavier.clone(), ctx.snapdragon.clone()],
            ),
        };
        let mut cells = Vec::new();
        for soc in socs {
            // Warm the model cache before the sweep fans out: every cell
            // wants the same per-PU models, and parallel workers racing a
            // cold cache would each rebuild them.
            let _ = ctx.pccs_models(&soc);
            for policy in ["greedy", "pccs"] {
                for &rate in &rates {
                    cells.push((soc.clone(), policy.to_owned(), rate));
                }
            }
        }
        Ok((cfg, cells))
    }

    fn run_cell(
        &self,
        ctx: &Context,
        base: &ServeConfig,
        (soc, policy_name, rate): &ServeCell,
    ) -> Result<ServeRow> {
        let classes = contended_classes();
        let mut row = ServeRow {
            soc: soc.name.clone(),
            policy: policy_name.clone(),
            rate_per_mcycle: *rate,
            offered: 0,
            completed: 0,
            shed: 0,
            p50_latency: 0,
            p99_latency: 0,
            miss_rate_pct: 0.0,
            throughput_per_mcycle: 0.0,
        };
        let mut missed = 0usize;
        for seed in 0..SEEDS_PER_CELL {
            let cfg = ServeConfig {
                arrivals: ArrivalProcess::Poisson {
                    rate_per_mcycle: *rate,
                },
                seed: base.seed + seed,
                ..base.clone()
            };
            let mut policy = policy_for(ctx, soc, policy_name);
            // Both policies get the same contention-aware admission
            // models, so the curve isolates placement quality.
            let models = ctx.pccs_models(soc);
            let report = run_serve(soc, &classes, policy.as_mut(), models, &cfg)?;
            row.offered += report.offered;
            row.completed += report.completed;
            row.shed += report.shed;
            missed += report.missed;
            row.p50_latency = row.p50_latency.max(report.p50_latency);
            row.p99_latency = row.p99_latency.max(report.p99_latency);
            row.throughput_per_mcycle += report.throughput_per_mcycle / SEEDS_PER_CELL as f64;
        }
        row.miss_rate_pct = pccs_serve::slo::miss_rate_pct(row.offered, missed, row.shed);
        Ok(row)
    }

    fn merge(
        &self,
        _ctx: &Context,
        _prep: ServeConfig,
        cells: Vec<ServeRow>,
    ) -> Result<ServeStudy> {
        Ok(ServeStudy { rows: cells })
    }
}

/// Runs the study: quick fidelity sweeps four rates on Xavier; full
/// fidelity sweeps eight rates on both SoC presets.
///
/// # Errors
///
/// Fails if a serving run rejects its configuration (it does not for the
/// bundled classes and presets).
pub fn run(ctx: &mut Context) -> Result<ServeStudy> {
    run_experiment(&ServeStudyExperiment, ctx)
}

impl ServeStudy {
    /// The highest swept arrival rate at which `policy` on `soc` keeps the
    /// miss rate within `budget_pct`, or `None` if even the lowest rate
    /// breaks it.
    pub fn max_rate_within(&self, soc: &str, policy: &str, budget_pct: f64) -> Option<f64> {
        self.rows
            .iter()
            .filter(|r| r.soc == soc && r.policy == policy && r.miss_rate_pct <= budget_pct)
            .map(|r| r.rate_per_mcycle)
            .fold(None, |best, r| Some(best.map_or(r, |b: f64| b.max(r))))
    }

    /// Renders the study table plus the headline sustainable-rate lines.
    pub fn format(&self) -> String {
        let mut t = TextTable::new(vec![
            "SoC".into(),
            "policy".into(),
            "rate/Mcyc".into(),
            "offered".into(),
            "completed".into(),
            "shed".into(),
            "p50".into(),
            "p99".into(),
            "miss %".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.soc.clone(),
                r.policy.clone(),
                format!("{:.0}", r.rate_per_mcycle),
                r.offered.to_string(),
                r.completed.to_string(),
                r.shed.to_string(),
                r.p50_latency.to_string(),
                r.p99_latency.to_string(),
                format!("{:.1}", r.miss_rate_pct),
            ]);
        }
        let mut s = format!("Serving study — latency-throughput curves\n{t}\n");
        let mut socs: Vec<String> = self.rows.iter().map(|r| r.soc.clone()).collect();
        socs.dedup();
        for soc in socs {
            let fmt = |p: &str| {
                self.max_rate_within(&soc, p, MISS_BUDGET_PCT)
                    .map_or("none".to_owned(), |r| format!("{r:.0}/Mcycle"))
            };
            s.push_str(&format!(
                "{soc}: max rate within {MISS_BUDGET_PCT:.0}% miss budget — greedy {}, pccs {}\n",
                fmt("greedy"),
                fmt("pccs")
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pccs_sustains_a_higher_rate_than_greedy_on_contended_xavier() {
        let mut ctx = Context::new(Quality::Quick);
        let study = run(&mut ctx).expect("experiment runs");
        // Quick mode: 1 SoC x 2 policies x 4 rates.
        assert_eq!(study.rows.len(), 8);
        let xavier = ctx.xavier.name.clone();
        let greedy = study
            .max_rate_within(&xavier, "greedy", MISS_BUDGET_PCT)
            .unwrap_or(0.0);
        let pccs = study
            .max_rate_within(&xavier, "pccs", MISS_BUDGET_PCT)
            .expect("pccs sustains at least the lowest rate");
        assert!(
            pccs > greedy,
            "PCCS should sustain a higher arrival rate than greedy at a \
             {MISS_BUDGET_PCT:.0}% miss budget, got pccs {pccs} vs greedy {greedy}"
        );
        assert!(study.format().contains("Serving study"));
    }
}
