//! `repro` — regenerates the PCCS paper's tables and figures against the
//! simulated SoC substrate.
//!
//! ```text
//! repro [--quick] [--curves] [--jobs N]
//!       [--metrics-out <dir>] [--trace-out <file>] [--audit-out <file>]
//!       [all | validate | fig2 fig3 fig5 fig6 table5 table7 fig8 fig9
//!        fig10 fig11 fig12 fig13 fig14 table9 table10 oblivious sched]
//! ```
//!
//! With no experiment arguments, everything runs. `--quick` trades
//! fidelity for speed (short horizons, coarse grids) and is what the test
//! suite uses; `--curves` dumps the full per-benchmark curves for the
//! validation figures; `validate` expands to the five validation figures
//! (fig8–fig12). `--jobs N` sets the sweep worker-thread count (default:
//! all cores; results are byte-identical for any N because every
//! simulation is seeded). `--metrics-out <dir>` (alias: `--json <dir>`)
//! additionally writes each experiment's result as `<dir>/<name>.json` — a
//! `{manifest, result}` object whose manifest records the configuration,
//! crate version, start time, and wall time — plus the profiler spans as
//! `<dir>/trace.jsonl` (see DESIGN.md for the JSONL schema).
//! `--trace-out <file>` writes a Chrome/Perfetto trace (open it at
//! <https://ui.perfetto.dev>) with per-worker span lanes and one counter
//! track per `pccs` metric, sampled at every experiment boundary
//! (DESIGN.md §9). Either flag enables the hierarchical profiler; with
//! both, the one drained span set feeds both files.
//!
//! `--audit-out <file>` enables the prediction-audit
//! ledger (DESIGN.md §12), writes every resolved (prediction,
//! ground-truth) pair from the selected experiments as JSONL, and prints
//! one accuracy scorecard per (source, unit) at the end of the run.

use pccs_experiments::context::{Context, Quality};
use pccs_experiments::validate::Figure;
use pccs_experiments::{
    fig13, fig14, fig2, fig3, fig5, fig6, oblivious, sched_study, serve_study, table10, table5,
    table7, table9, validate,
};
use pccs_telemetry::{audit, export, metrics, perfetto, Profiler, RunManifest};
use serde_json::{Number, Value};
use std::collections::BTreeMap;
// Wall-clock timing is reporting-only here; it never feeds simulation state.
use std::time::Instant;

const ALL: &[&str] = &[
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "table5",
    "table7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "table9",
    "table10",
    "oblivious",
    "sched",
    "serve",
];

/// The `validate` selector: the five per-benchmark validation figures.
const VALIDATE: &[&str] = &["fig8", "fig9", "fig10", "fig11", "fig12"];

/// Options without a value.
const SWITCHES: &[&str] = &["--quick", "--curves"];

/// Options that take a value; their value tokens must not be mistaken for
/// experiment names.
const VALUED: &[&str] = &[
    "--metrics-out",
    "--json",
    "--jobs",
    "--trace-out",
    "--audit-out",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let verbose = args.iter().any(|a| a == "--curves");

    // The value following `flag`, if given.
    let opt_value = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(|s| s.to_owned())
    };
    // `--metrics-out` is the canonical export flag (matching `pccs corun`
    // and `pccs sched`); `--json` stays as an alias.
    let json_dir: Option<String> = opt_value("--metrics-out").or_else(|| opt_value("--json"));
    let trace_out: Option<String> = opt_value("--trace-out");
    let audit_out: Option<String> = opt_value("--audit-out");
    let jobs: usize = match opt_value("--jobs") {
        None => 0, // all available cores
        Some(v) => match v.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--jobs expects a number, got '{v}'");
                std::process::exit(2);
            }
        },
    };

    let mut selected: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if VALUED.contains(&a.as_str()) {
            i += 2; // skip the flag and its value
            continue;
        }
        if a == "--engine" {
            eprintln!(
                "option '--engine' was removed: the cycle-exact memory engine is the only engine"
            );
            std::process::exit(2);
        }
        if a.starts_with("--") {
            if !SWITCHES.contains(&a.as_str()) {
                eprintln!(
                    "unknown option '{a}'; known: {} {}",
                    SWITCHES.join(" "),
                    VALUED.join(" ")
                );
                std::process::exit(2);
            }
        } else {
            selected.push(a.to_ascii_lowercase());
        }
        i += 1;
    }
    if selected.is_empty() || selected.iter().any(|s| s == "all") {
        selected = ALL.iter().map(|s| (*s).to_owned()).collect();
    } else if selected.iter().any(|s| s == "validate") {
        // Expand the `validate` alias in place, keeping any other names.
        selected = selected
            .iter()
            .flat_map(|s| {
                if s == "validate" {
                    VALIDATE.iter().map(|v| (*v).to_owned()).collect()
                } else {
                    vec![s.clone()]
                }
            })
            .collect();
    }
    for s in &selected {
        if !ALL.contains(&s.as_str()) {
            eprintln!(
                "unknown experiment '{s}'; known: all validate {}",
                ALL.join(" ")
            );
            std::process::exit(2);
        }
    }

    if let Some(dir) = &json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --metrics-out dir {dir}: {e}");
            std::process::exit(2);
        }
    }

    let quality = if quick { Quality::Quick } else { Quality::Full };
    let mut ctx = Context::new(quality).with_jobs(jobs);
    println!(
        "# PCCS reproduction — {} fidelity (horizon {} cycles, {} repeats, {} jobs)\n",
        if quick { "quick" } else { "full" },
        ctx.horizon(),
        ctx.repeats(),
        ctx.jobs()
    );
    if audit_out.is_some() {
        // Every resolved (prediction, ground truth) pair from the
        // validation sweeps lands in the process-global ledger.
        audit::set_enabled(true);
        audit::drain();
    }
    if json_dir.is_some() || trace_out.is_some() {
        // One span set feeds both trace.jsonl and the Perfetto export;
        // Perfetto counter tracks are sampled from the metrics registry at
        // each experiment boundary.
        Profiler::enable();
    }
    let mut counter_samples: Vec<perfetto::CounterSample> = Vec::new();
    let config_snapshot = {
        let mut c = BTreeMap::new();
        c.insert(
            "quality".to_owned(),
            Value::String(if quick { "quick" } else { "full" }.to_owned()),
        );
        c.insert(
            "horizon".to_owned(),
            Value::Number(Number::U(ctx.horizon())),
        );
        c.insert(
            "repeats".to_owned(),
            Value::Number(Number::U(u64::from(ctx.repeats()))),
        );
        c.insert(
            "jobs".to_owned(),
            Value::Number(Number::U(ctx.jobs() as u64)),
        );
        Value::Object(c)
    };

    let t0 = Instant::now(); // pccs-lint: allow(nondeterminism)
    for name in &selected {
        let t = Instant::now(); // pccs-lint: allow(nondeterminism)
        let _span = Profiler::scope(&format!("repro.{name}"));
        let (report, json) = match name.as_str() {
            "fig2" => jsonify(fig2::run(&mut ctx), fig2::Fig2::format),
            "fig3" => jsonify(fig3::run(&mut ctx), fig3::Fig3::format),
            "fig5" => jsonify(fig5::run(&mut ctx), fig5::Fig5::format),
            "fig6" => jsonify(fig6::run(&mut ctx), fig6::Fig6::format),
            "table5" => jsonify(table5::run(&mut ctx), table5::Table5::format),
            "table7" => jsonify(table7::run(&mut ctx), table7::Table7::format),
            "fig8" => json_validation(&mut ctx, Figure::XavierGpu, verbose),
            "fig9" => json_validation(&mut ctx, Figure::XavierCpu, verbose),
            "fig10" => json_validation(&mut ctx, Figure::SnapdragonGpu, verbose),
            "fig11" => json_validation(&mut ctx, Figure::SnapdragonCpu, verbose),
            "fig12" => json_validation(&mut ctx, Figure::XavierDla, verbose),
            "fig13" => jsonify(fig13::run(&mut ctx), fig13::Fig13::format),
            "fig14" => jsonify(fig14::run(&mut ctx), fig14::Fig14::format),
            "table9" => jsonify(table9::run(&mut ctx), table9::Table9::format),
            "table10" => jsonify(table10::run(&mut ctx), table10::Table10::format),
            "oblivious" => jsonify(oblivious::run(&mut ctx), oblivious::Oblivious::format),
            "sched" => jsonify(sched_study::run(&mut ctx), sched_study::SchedStudy::format),
            "serve" => jsonify(serve_study::run(&mut ctx), serve_study::ServeStudy::format),
            _ => unreachable!("validated above"),
        };
        println!("{report}");
        if let Some(dir) = &json_dir {
            let mut manifest =
                RunManifest::new("repro", env!("CARGO_PKG_VERSION"), &format!("repro {name}"))
                    .with_config(config_snapshot.clone());
            manifest.set_wall_secs(t.elapsed().as_secs_f64());
            let mut wrapped = BTreeMap::new();
            wrapped.insert(
                "manifest".to_owned(),
                serde_json::to_value(&manifest).expect("manifest serializes"),
            );
            wrapped.insert("result".to_owned(), json);
            let text =
                serde_json::to_string_pretty(&Value::Object(wrapped)).expect("results serialize");
            let path = format!("{dir}/{name}.json");
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("warning: could not write {path}: {e}");
            }
        }
        if trace_out.is_some() {
            counter_samples.extend(perfetto::counters_from_snapshot(
                &metrics::snapshot(),
                Profiler::now_us(),
            ));
        }
        println!("[{name} took {:.1?}]\n", t.elapsed());
    }
    Profiler::disable();
    let spans = Profiler::drain();
    if let Some(dir) = &json_dir {
        let path = format!("{dir}/trace.jsonl");
        if let Err(e) = std::fs::write(&path, export::jsonl_events(None, None, &spans)) {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
    if let Some(path) = &audit_out {
        let records = audit::drain();
        audit::set_enabled(false);
        match std::fs::write(path, audit::jsonl(&records)) {
            Ok(()) => println!("audit ledger: {} records -> {path}", records.len()),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
        if records.is_empty() {
            println!("audit scorecard: no predictions were resolved (run the validation figures)");
        }
        // Errors in different units (percentage points of relative speed,
        // memory cycles) do not average, so each (source, unit) pair gets
        // its own scorecard.
        let mut groups: BTreeMap<(&str, &str), Vec<audit::AuditRecord>> = BTreeMap::new();
        for r in &records {
            groups
                .entry((&r.source, &r.unit))
                .or_default()
                .push(r.clone());
        }
        for ((source, unit), group) in &groups {
            println!("audit scorecard: {source} predictions in {unit}");
            println!("{}", audit::render_scorecard(&audit::scorecard(group)));
        }
    }
    if let Some(path) = &trace_out {
        let text = perfetto::trace_json(&spans, &counter_samples);
        match std::fs::write(path, &text) {
            Ok(()) => println!(
                "trace: {} spans, {} counter samples -> {path} (open at ui.perfetto.dev)",
                spans.len(),
                counter_samples.len()
            ),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    let cache = ctx.profile_cache_stats();
    println!(
        "profile cache: {} hits / {} misses ({:.0}% hit rate)",
        cache.hits,
        cache.misses,
        cache.hit_rate_pct()
    );
    println!("total: {:.1?}", t0.elapsed());
}

/// Formats a result and serializes it to a JSON value in one pass; a typed
/// experiment failure prints its one-line diagnosis and exits.
fn jsonify<T: serde::Serialize>(
    value: pccs_experiments::error::Result<T>,
    fmt: impl Fn(&T) -> String,
) -> (String, Value) {
    let value = value.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let report = fmt(&value);
    let json = serde_json::to_value(&value).expect("results serialize");
    (report, json)
}

fn json_validation(ctx: &mut Context, figure: Figure, verbose: bool) -> (String, Value) {
    let v = validate::run(ctx, figure).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let report = if verbose {
        format!("{}{}", v.format(), v.format_curves())
    } else {
        v.format()
    };
    let json = serde_json::to_value(&v).expect("results serialize");
    (report, json)
}
