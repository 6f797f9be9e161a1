//! Command-line entry point:
//!
//! ```text
//! pccs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! pccs-perfbench --workload <name> --seed <n> --setup-only 1
//! ```
//!
//! Runs iterations of the workload until the next one would end after
//! `--seconds` (with `--trace 1`, untraced and traced iterations
//! alternate), then times set-ups of it in new processes, which run with
//! `--setup-only 1`. Prints the simulated outputs, the
//! output digest, and as its last line one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

use pccs_perfbench::procfs;
use pccs_perfbench::report::{median, ratio, result_line, END_TO_END, PER_LAYER};
use pccs_perfbench::trace::{self, Tracer};
use pccs_perfbench::workloads::{run_iteration, setup_once, Iteration, Size, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Set-up samples per run; the reported set-up time is their median.
const SETUP_SAMPLES: usize = 25;

/// Where a traced run writes its spans, relative to the working directory.
const TRACE_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set the workload up once and exit: the child process that set-up
    /// samples time.
    setup_only: bool,
}

fn parse_bool(value: &str) -> Option<bool> {
    match value {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds) = (None, 0, 10.0);
    let (mut trace, mut setup_only) = (false, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?;
            }
            "--trace" => trace = parse_bool(&value).ok_or_else(|| bad(String::new()))?,
            "--setup-only" => setup_only = parse_bool(&value).ok_or_else(|| bad(String::new()))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

fn median_of(its: &[Iteration], f: impl Fn(&Iteration) -> f64) -> f64 {
    median(&its.iter().map(f).collect::<Vec<_>>())
}

/// Host seconds to start this executable in a new process and set the
/// workload up once there, one entry per sample: what a user pays before
/// the workload's first call, including process start and static
/// initialisation. (Set-ups of a fraction of a microsecond timed in
/// process swing with allocator state and layout far more than any
/// plausible bound.)
fn setup_samples(w: Workload, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = seed.to_string();
    (0..SETUP_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let status = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed, "--setup-only", "1"])
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("set-up process: {e}"))?;
            if !status.success() {
                return Err(format!("set-up process failed: {status}"));
            }
            Ok(t.elapsed().as_secs_f64())
        })
        .collect()
}

fn run(args: &Args) -> Result<String, String> {
    let (w, seed, size) = (args.workload, args.seed, Size::full());
    // Run rounds (an untraced iteration, plus a traced one with --trace 1)
    // while the next round is expected to end within the budget.
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    let start = Instant::now();
    let (mut plain, mut traced, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let it = run_iteration(w, &size, seed, &Tracer::off());
        eprintln!("iteration {}: {:.4} s", plain.len(), it.wall_s);
        plain.push(it);
        if args.trace {
            let tracer = Tracer::on(w.name());
            let it = run_iteration(w, &size, seed, &tracer);
            eprintln!("iteration {} traced: {:.4} s", traced.len(), it.wall_s);
            traced.push(it);
            // One traced iteration's spans describe the run: every later one
            // makes the same calls.
            if spans.is_empty() {
                spans = tracer.spans();
            }
        }
        let elapsed = start.elapsed();
        let per_round = elapsed / u32::try_from(plain.len()).unwrap_or(u32::MAX);
        if elapsed + per_round > budget {
            break;
        }
    }

    // Every iteration ran the same inputs, so every digest must match.
    let first = plain[0].digest;
    let mut failed = 0;
    for it in plain.iter_mut().chain(traced.iter_mut()) {
        if it.digest != first {
            it.failures.push(format!(
                "digest {:016x} != first iteration's {first:016x}",
                it.digest
            ));
        }
        for failure in &it.failures {
            eprintln!("check failed: {failure}");
        }
        failed += u64::from(!it.failures.is_empty());
    }
    let attempted = (plain.len() + traced.len()) as u64;

    println!(
        "workload {} seed {seed}: {} untraced + {} traced iterations",
        w.name(),
        plain.len(),
        traced.len()
    );
    for (name, value, unit) in &plain[0].outputs {
        println!("output {name} {value} {unit}");
    }
    println!("digest {} {first:016x}", w.name());

    let values: BTreeMap<&'static str, f64> = if args.trace {
        let path = PathBuf::from(TRACE_DIR).join(format!("trace-{}-seed{seed}.jsonl", w.name()));
        trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans {} written to {}", spans.len(), path.display());
        let mut values: BTreeMap<&'static str, f64> = PER_LAYER
            .iter()
            .map(|def| {
                (
                    def.name,
                    median_of(&traced, |it| it.layer.get(def.name).copied().unwrap_or(0.0)),
                )
            })
            .collect();
        let overhead = ratio(
            median_of(&traced, |it| it.wall_s),
            median_of(&plain, |it| it.wall_s),
        );
        values.insert("tracing_overhead_pct", 100.0 * (overhead - 1.0));
        values
    } else {
        let peak_rss = procfs::peak_rss_mib().map_err(|e| format!("/proc/self/status: {e}"))?;
        let setups = setup_samples(w, seed)?;
        BTreeMap::from([
            ("setup_s", median(&setups)),
            ("wall_s", median_of(&plain, |it| it.wall_s)),
            (
                "sim_cycles_per_s",
                median_of(&plain, |it| {
                    ratio(
                        it.counts.get("dram.cycles").copied().unwrap_or(0) as f64,
                        it.wall_s,
                    )
                }),
            ),
            (
                "requests_per_s",
                median_of(&plain, |it| ratio(it.requests as f64, it.wall_s)),
            ),
            ("peak_rss_mb", peak_rss),
        ])
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    for def in defs {
        eprintln!(
            "{:<28} {:>16.6} {}",
            def.name,
            values.get(def.name).copied().unwrap_or(0.0),
            def.unit
        );
    }
    Ok(result_line(failed == 0, attempted, failed, defs, &values))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: pccs-perfbench --workload <model_pipeline|mc_policies|serve_online> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        return match setup_once(args.workload, &Size::full(), args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
