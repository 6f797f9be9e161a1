//! `pccs` — the user-facing command-line tool of the PCCS reproduction.
//!
//! ```text
//! pccs socs
//! pccs calibrate   --soc xavier --pu GPU [--quick] [--out model.json]
//! pccs predict     --model model.json --demand 60 --external 40
//! pccs predict     --model model.json --soc xavier --pu GPU --bench streamcluster --external 40
//! pccs explore-freq --soc xavier --pu GPU --bench streamcluster
//!                   --external 40 --budget 0.05 [--model model.json]
//! pccs corun       --soc xavier --pu GPU --bench streamcluster
//!                  [--external 40] [--metrics-out out.jsonl] [--epoch 1000]
//!                  [--quick] [--conformance]
//! pccs sched       [--soc xavier] [--mix contended] [--policy pccs]
//!                  [--scale 1.0] [--quick] [--metrics-out out.jsonl]
//! pccs serve       [--soc xavier] [--arrivals poisson] [--rate 8]
//!                  [--policy pccs] [--admission open] [--duration 2000000]
//!                  [--seed 42] [--batch 4] [--quick] [--metrics-out out.jsonl]
//! pccs policies    [--victim 48]
//! pccs lint        [--root .]
//! pccs audit       [--quick] [--out ACCURACY.json] [--check baseline.json]
//!                  [--tolerance 0.5] [--validate ACCURACY.json]
//! pccs trace-check --file trace.json [--min-depth 3] [--min-counters 10]
//! ```
//!
//! `calibrate` runs the paper's processor-centric construction on the
//! simulated SoC and stores the model as JSON; `predict` evaluates a stored
//! model; `explore-freq` runs the Section 4.3 frequency-selection use case;
//! `corun` co-runs a benchmark against external pressure and can export the
//! epoch telemetry (`--metrics-out`/`--epoch`) — `--quick` shortens the
//! horizon and `--conformance` attaches the DDR protocol sanitizer; `sched` replays a job mix
//! under a placement policy (the contention-aware scheduling runtime of
//! `pccs-sched`) and can export its per-decision records; `serve` runs the
//! online serving loop of `pccs-serve` — open-loop arrivals, PCCS-guided
//! admission control, batching, and per-class SLO accounting; `policies`
//! reproduces the Section 2.3 scheduling-policy comparison; `audit`
//! replays the validation figures with the prediction-audit ledger
//! enabled, prints the accuracy scorecard, writes the
//! `ACCURACY_<host>_<date>.json` baseline, and can gate against a stored
//! one (DESIGN.md §12); `trace-check` validates a
//! Chrome/Perfetto trace exported with `repro --trace-out`. Every
//! subcommand rejects options it does not read (exit status 2).

mod args;
mod commands;

use args::{ArgError, Args};
use std::process::ExitCode;

const USAGE: &str = "\
pccs — processor-centric contention-aware slowdown modeling

USAGE:
  pccs socs
  pccs calibrate    --soc <xavier|snapdragon855> --pu <CPU|GPU|DLA>
                    [--quick] [--jobs <N>] [--out <model.json>]
  pccs predict      --model <model.json> (--demand <GB/s> | --soc <s> --pu <p>
                    --bench <rodinia-name>) [--external <GB/s>]
  pccs explore-freq --soc <s> --pu GPU --bench <name> [--external <GB/s>]
                    [--budget <fraction>] [--model <model.json>]
  pccs corun        --soc <s> --pu <p> --bench <name> [--external <GB/s>]
                    [--horizon <cycles>] [--metrics-out <events.jsonl>]
                    [--epoch <cycles>] [--quick] [--conformance]
  pccs sched        [--soc <s>] [--mix <contended|inference-burst|steady-stream>]
                    [--policy <round-robin|greedy|pccs|oracle>] [--scale <f>]
                    [--quick] [--jobs <N>] [--metrics-out <events.jsonl>]
  pccs serve        [--soc <s>] [--arrivals <poisson|bursty|trace>] [--rate <per-Mcycle>]
                    [--trace-file <arrivals.txt>] [--policy <round-robin|greedy|pccs|oracle>]
                    [--admission <open|strict|p<frac>>] [--duration <cycles>]
                    [--seed <N>] [--batch <N>] [--quick] [--jobs <N>]
                    [--metrics-out <events.jsonl>]
  pccs policies     [--victim <GB/s>]
  pccs lint         [--root <path>]
  pccs audit        [--quick] [--out <ACCURACY.json>] [--check <baseline.json>]
                    [--tolerance <pct-points>] [--validate <ACCURACY.json>]
  pccs trace-check  --file <trace.json> [--min-depth <N>] [--min-counters <N>]

Run `pccs <command> --help` equivalents by reading the crate docs.";

/// A subcommand's entry point.
type Command = fn(&Args) -> Result<(), ArgError>;

/// Every subcommand: its name, the options it reads (any other option is
/// an error), and its entry point.
const COMMANDS: &[(&str, &[&str], Command)] = &[
    ("socs", &[], |_| commands::socs()),
    (
        "calibrate",
        &["soc", "pu", "quick", "jobs", "out"],
        commands::calibrate,
    ),
    (
        "predict",
        &["model", "demand", "soc", "pu", "bench", "external"],
        commands::predict,
    ),
    (
        "explore-freq",
        &["soc", "pu", "bench", "external", "budget", "model", "truth"],
        commands::explore_freq,
    ),
    (
        "corun",
        &[
            "soc",
            "pu",
            "bench",
            "external",
            "horizon",
            "metrics-out",
            "epoch",
            "quick",
            "conformance",
        ],
        commands::corun,
    ),
    (
        "sched",
        &[
            "soc",
            "mix",
            "policy",
            "scale",
            "quick",
            "jobs",
            "metrics-out",
        ],
        commands::sched,
    ),
    (
        "serve",
        &[
            "soc",
            "arrivals",
            "rate",
            "trace-file",
            "policy",
            "admission",
            "duration",
            "seed",
            "batch",
            "quick",
            "jobs",
            "metrics-out",
        ],
        commands::serve,
    ),
    ("policies", &["victim"], commands::policies),
    ("lint", &["root"], commands::lint),
    (
        "audit",
        &["quick", "out", "check", "tolerance", "validate"],
        commands::audit,
    ),
    (
        "trace-check",
        &["file", "min-depth", "min-counters"],
        commands::trace_check,
    ),
];

/// Prints `error` with the usage text and exits with `code`.
fn fail(error: ArgError, code: u8) -> ExitCode {
    eprintln!("error: {error}\n\n{USAGE}");
    ExitCode::from(code)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return fail(e, 2),
    };
    let Some(name) = args.command.as_deref() else {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    };
    let Some(&(_, options, run)) = COMMANDS.iter().find(|(n, _, _)| *n == name) else {
        return fail(ArgError(format!("unknown command '{name}'")), 1);
    };
    if let Err(e) = args.reject_unknown(options) {
        return fail(e, 2);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e, 1),
    }
}
