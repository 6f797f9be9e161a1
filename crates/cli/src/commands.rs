//! Implementations of the `pccs` subcommands.

use crate::args::{ArgError, Args};
use pccs_core::{PccsModel, SlowdownModel};
use pccs_dram::config::DramConfig;
use pccs_dram::policy::PolicyKind;
use pccs_dram::request::SourceId;
use pccs_dram::sim::DramSystem;
use pccs_dram::traffic::StreamTraffic;
use pccs_dse::freq::{ground_truth_frequency, profile_frequencies, select_frequency};
use pccs_gables::GablesModel;
use pccs_sched::engine::{run_schedule, SchedConfig};
use pccs_sched::policy::{default_calibration, policy_by_name, PccsPolicy, Policy};
use pccs_sched::{mixes, JobOutcome};
use pccs_serve::{
    boxed_models, paper_models, run_serve, AdmissionPolicy, ArrivalProcess, ServeConfig,
};
use pccs_soc::corun::{CoRunConfig, CoRunSim, Placement, DEFAULT_HORIZON};
use pccs_soc::pu::PuKind;
use pccs_soc::soc::SocConfig;
use pccs_telemetry::export::{self, SummaryRow};
use pccs_telemetry::{Profiler, RunManifest};
use pccs_workloads::calibrate::{build_model, build_models, pressure_pu, CalibrationConfig};
use pccs_workloads::rodinia::RodiniaBenchmark;
use serde_json::{Number, Value};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

fn soc_by_name(name: &str) -> Result<SocConfig, ArgError> {
    match name.to_ascii_lowercase().as_str() {
        "xavier" => Ok(SocConfig::xavier()),
        "snapdragon855" | "snapdragon" => Ok(SocConfig::snapdragon855()),
        other => Err(ArgError(format!(
            "unknown SoC '{other}' (known: xavier, snapdragon855)"
        ))),
    }
}

fn pu_index(soc: &SocConfig, name: &str) -> Result<usize, ArgError> {
    soc.pu_index(&name.to_ascii_uppercase())
        .ok_or_else(|| no_such_pu(soc, name))
}

/// The PU that applies external pressure to PU `pu` (the paper's rule,
/// [`pressure_pu`]), or the error naming the PU `soc` lacks for it.
fn pressure_of(soc: &SocConfig, pu: usize) -> Result<usize, ArgError> {
    pressure_pu(soc, pu).map_err(|missing| no_such_pu(soc, missing))
}

fn no_such_pu(soc: &SocConfig, name: &str) -> ArgError {
    ArgError(format!(
        "SoC {} has no PU named '{name}' (has: {})",
        soc.name,
        soc.pus
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    ))
}

fn pu_kind(soc: &SocConfig, pu: usize) -> PuKind {
    soc.pus[pu].kind
}

fn bench_kernel(
    soc: &SocConfig,
    pu: usize,
    name: &str,
) -> Result<pccs_soc::kernel::KernelDesc, ArgError> {
    let bench = RodiniaBenchmark::from_label(name)
        .ok_or_else(|| ArgError(format!("unknown benchmark '{name}'")))?;
    Ok(bench.kernel(pu_kind(soc, pu)))
}

/// `pccs socs` — lists the bundled SoC presets.
pub fn socs() -> Result<(), ArgError> {
    for soc in [SocConfig::xavier(), SocConfig::snapdragon855()] {
        println!("{} — peak {:.1} GB/s", soc.name, soc.peak_bw_gbps());
        for pu in &soc.pus {
            println!(
                "  {:<4} {:>4} cores @ {:>6.0} MHz  window {:>4}  streams {}",
                pu.name, pu.cores, pu.freq_mhz, pu.mlp_window, pu.streams
            );
        }
    }
    Ok(())
}

/// `pccs calibrate` — constructs a PCCS model and optionally stores it.
pub fn calibrate(args: &Args) -> Result<(), ArgError> {
    let soc = soc_by_name(args.require("soc")?)?;
    let pu = pu_index(&soc, args.require("pu")?)?;
    let pressure = pressure_of(&soc, pu)?;
    let mut cfg = if args.has("quick") {
        CalibrationConfig::quick()
    } else {
        CalibrationConfig::default()
    };
    cfg.threads = args.get_usize("jobs", 0)?;
    eprintln!(
        "calibrating {} / {} (pressure from {}) ...",
        soc.name, soc.pus[pu].name, soc.pus[pressure].name
    );
    let (model, data) = build_model(&soc, pu, pressure, &cfg)
        .map_err(|e| ArgError(format!("construction failed: {e}")))?;
    println!(
        "normalBW {:.1}  intensiveBW {:.1}  MRMC {}  CBP {:.1}  TBWDC {:.1}  rateN {:.3}  rateI {:.3}  peak {:.1}",
        model.normal_bw,
        model.intensive_bw,
        model.mrmc.map_or("NA".into(), |m| format!("{m:.1}%")),
        model.cbp,
        model.tbwdc,
        model.rate_n,
        model.rate_i_representative(),
        model.peak_bw
    );
    println!(
        "built from a {}x{} calibration matrix",
        data.rows(),
        data.cols()
    );
    if let Some(path) = args.get("out") {
        let json = serde_json::to_string_pretty(&model)
            .map_err(|e| ArgError(format!("serialization failed: {e}")))?;
        fs::write(path, json).map_err(|e| ArgError(format!("writing {path}: {e}")))?;
        println!("model written to {path}");
    }
    Ok(())
}

fn load_model(path: &str) -> Result<PccsModel, ArgError> {
    let text = fs::read_to_string(path).map_err(|e| ArgError(format!("reading {path}: {e}")))?;
    let model: PccsModel =
        serde_json::from_str(&text).map_err(|e| ArgError(format!("parsing {path}: {e}")))?;
    model
        .validate()
        .map_err(|e| ArgError(format!("{path}: {e}")))?;
    Ok(model)
}

/// A bandwidth option in GB/s, which must be finite and non-negative.
fn get_gbps(args: &Args, key: &str, default: f64) -> Result<f64, ArgError> {
    let v = args.get_f64(key, default)?;
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(ArgError(format!(
            "--{key} must be a finite, non-negative bandwidth in GB/s, got {v}"
        )))
    }
}

/// `pccs predict` — evaluates a stored model at a demand/pressure point, or
/// for a named benchmark whose demand is profiled on the simulator.
pub fn predict(args: &Args) -> Result<(), ArgError> {
    let model = load_model(args.require("model")?)?;
    let external = get_gbps(args, "external", 40.0)?;
    let demand = if let Some(bench) = args.get("bench") {
        let soc = soc_by_name(args.require("soc")?)?;
        let pu = pu_index(&soc, args.require("pu")?)?;
        let kernel = bench_kernel(&soc, pu, bench)?;
        let profile = CoRunSim::standalone(
            &soc,
            pu,
            &kernel,
            &CoRunConfig::default().with_horizon(30_000).with_repeats(2),
        );
        println!(
            "{bench} standalone demand on {}/{}: {:.1} GB/s",
            soc.name, soc.pus[pu].name, profile.bw_gbps
        );
        profile.bw_gbps
    } else if args.get("demand").is_some() {
        get_gbps(args, "demand", 0.0)?
    } else {
        return Err(ArgError(
            "predict needs either --demand or --soc/--pu/--bench".into(),
        ));
    };
    let rs = model.relative_speed_pct(demand, external);
    println!(
        "region {}  RS {:.1}%  slowdown {:.2}x  (x = {demand:.1} GB/s, y = {external:.1} GB/s)",
        model.region(demand),
        rs,
        model.slowdown(demand, external)
    );
    Ok(())
}

/// `pccs explore-freq` — the Section 4.3 use case from the command line.
pub fn explore_freq(args: &Args) -> Result<(), ArgError> {
    let soc = soc_by_name(args.require("soc")?)?;
    let pu = pu_index(&soc, args.require("pu")?)?;
    let kernel = bench_kernel(&soc, pu, args.require("bench")?)?;
    let external = get_gbps(args, "external", 40.0)?;
    let budget = args.get_f64("budget", 0.05)?;
    if !(0.0..1.0).contains(&budget) {
        return Err(ArgError("--budget must be a fraction in [0, 1)".into()));
    }
    let horizon = 24_000;
    let freqs: Vec<f64> = vec![400.0, 600.0, 800.0, 1000.0, 1200.0, soc.pus[pu].freq_mhz];
    let model: Box<dyn SlowdownModel> = match args.get("model") {
        Some(path) => Box::new(load_model(path)?),
        None => Box::new(GablesModel::new(soc.peak_bw_gbps())),
    };

    eprintln!("profiling {} candidate frequencies ...", freqs.len());
    let points = profile_frequencies(&soc, pu, &kernel, &freqs, horizon);
    let sel = select_frequency(&points, model.as_ref(), external, budget);
    println!("{} picks {:.0} MHz", model.name(), sel.chosen_mhz);
    for (f, rel) in &sel.perf_rel {
        println!("  {f:>6.0} MHz: predicted co-run perf {rel:.2} of best");
    }
    if args.has("truth") {
        let pressure = pressure_of(&soc, pu)?;
        let truth = ground_truth_frequency(
            &soc, pu, pressure, &kernel, &freqs, external, budget, horizon,
        );
        println!("simulated ground truth picks {:.0} MHz", truth.chosen_mhz);
    }
    Ok(())
}

/// `pccs corun` — co-runs a benchmark against external pressure, printing
/// the per-source latency/back-pressure summary and optionally writing the
/// epoch time-series as JSONL (plus a CSV sibling) via `--metrics-out`.
pub fn corun(args: &Args) -> Result<(), ArgError> {
    let started = std::time::Instant::now();
    let soc = soc_by_name(args.require("soc")?)?;
    let pu = pu_index(&soc, args.require("pu")?)?;
    let bench = args.require("bench")?;
    let kernel = bench_kernel(&soc, pu, bench)?;
    let external = get_gbps(args, "external", 40.0)?;
    // `--quick` quarters the horizon for smoke runs (scripts/check.sh);
    // an explicit `--horizon` still wins.
    let default_horizon = if args.has("quick") {
        DEFAULT_HORIZON / 4
    } else {
        DEFAULT_HORIZON
    };
    let horizon = args.get_usize("horizon", default_horizon as usize)? as u64;
    if horizon == 0 {
        return Err(ArgError("--horizon must be positive".into()));
    }
    let epoch = args.get_usize("epoch", 1_000)? as u64;
    if epoch == 0 {
        return Err(ArgError("--epoch must be positive".into()));
    }
    let metrics_out = args.get("metrics-out");
    if metrics_out.is_some() {
        Profiler::enable();
    }

    let mut sim = CoRunSim::with_config(&soc, CoRunConfig::default().with_horizon(horizon));
    if args.has("conformance") {
        sim.check_conformance();
    }
    sim.place(Placement::kernel(pu, kernel));
    let pressure = if external > 0.0 {
        let p = pressure_of(&soc, pu)?;
        sim.external_pressure(p, external);
        Some(p)
    } else {
        None
    };
    // Record epochs whenever they will be exported or explicitly asked for.
    if metrics_out.is_some() || args.get("epoch").is_some() {
        sim.record_epochs(epoch);
    }
    let out = sim.execute();

    for (idx, r) in &out.per_pu {
        let role = if Some(*idx) == pressure {
            format!("pressure {external:.0} GB/s")
        } else {
            bench.to_owned()
        };
        println!(
            "{:<4} {role}: {:.1} GB/s, {} lines ({:.4} lines/cycle)",
            soc.pus[*idx].name, r.bw_gbps, r.lines, r.lines_per_cycle
        );
    }

    let label_of = |s: usize| {
        (0..soc.pus.len())
            .find(|&i| soc.source_range(i).contains(&s))
            .map_or_else(|| format!("src{s}"), |i| format!("{}:{s}", soc.pus[i].name))
    };
    let stats = &out.memory.stats;
    let rows: Vec<SummaryRow> = stats
        .per_source
        .iter()
        .map(|(src, s)| SummaryRow {
            label: label_of(src.0),
            served: s.served,
            bytes: s.bytes,
            bw_gbps: stats.source_bw_gbps(*src, &soc.dram),
            avg_latency: s.avg_latency(),
            p50: s.latency_percentile(50.0),
            p95: s.latency_percentile(95.0),
            p99: s.latency_percentile(99.0),
            max_latency: s.max_latency,
            enqueued: s.enqueued,
            rejected: s.rejected,
        })
        .collect();
    print!("{}", export::render_summary(&rows));

    if let Some(report) = &out.memory.conformance {
        println!("{}", report.summary());
        if !report.is_clean() {
            return Err(ArgError(format!(
                "DDR protocol conformance violations detected ({} total)",
                report.total_violations
            )));
        }
    }

    if let Some(path) = metrics_out {
        let mut config = BTreeMap::new();
        let mut put = |k: &str, v: Value| {
            config.insert(k.to_owned(), v);
        };
        put("soc", Value::String(soc.name.clone()));
        put("pu", Value::String(soc.pus[pu].name.clone()));
        put("bench", Value::String(bench.to_owned()));
        put("external_gbps", Value::Number(Number::F(external)));
        put("horizon", Value::Number(Number::U(horizon)));
        put("epoch_cycles", Value::Number(Number::U(epoch)));
        put("policy", Value::String("atlas".to_owned()));
        let mut manifest = RunManifest::new("pccs-cli", env!("CARGO_PKG_VERSION"), "corun")
            .with_config(Value::Object(config));
        manifest.set_wall_secs(started.elapsed().as_secs_f64());
        let spans = Profiler::drain();
        let report = out.memory.telemetry.as_ref();
        let jsonl = export::jsonl_events(Some(&manifest), report, &spans);
        fs::write(path, jsonl).map_err(|e| ArgError(format!("writing {path}: {e}")))?;
        let csv_path = Path::new(path).with_extension("csv");
        if let Some(report) = report {
            let csv = export::csv_timeseries(report);
            fs::write(&csv_path, csv)
                .map_err(|e| ArgError(format!("writing {}: {e}", csv_path.display())))?;
        }
        println!(
            "telemetry written to {path} (events) and {} (time-series)",
            csv_path.display()
        );
    }
    Ok(())
}

/// The calibration behind the PCCS policy's per-PU models in `sched` and
/// `serve`: `--quick` swaps in the coarse grid, and `--jobs` sets the
/// worker count (0, the default, uses every core).
fn policy_calibration(args: &Args) -> Result<CalibrationConfig, ArgError> {
    let mut cal = if args.has("quick") {
        CalibrationConfig::quick()
    } else {
        default_calibration()
    };
    cal.threads = args.get_usize("jobs", 0)?;
    Ok(cal)
}

/// `pccs sched` — replays a job mix under a placement policy on the co-run
/// simulator and reports per-job outcomes plus schedule metrics. With
/// `--metrics-out`, every placement decision is appended to the JSONL
/// event stream alongside the run manifest and trace spans.
pub fn sched(args: &Args) -> Result<(), ArgError> {
    let started = std::time::Instant::now();
    let quick = args.has("quick");
    let soc = soc_by_name(args.get("soc").unwrap_or("xavier"))?;
    let mix_name = args.get("mix").unwrap_or("contended");
    let mix = mixes::mix(mix_name).ok_or_else(|| {
        ArgError(format!(
            "unknown mix '{mix_name}' (known: {})",
            mixes::names().join(", ")
        ))
    })?;
    let scale = args.get_f64("scale", 1.0)?;
    if !(scale.is_finite() && scale > 0.0) {
        return Err(ArgError("--scale must be finite and positive".into()));
    }
    let mix = if (scale - 1.0).abs() > f64::EPSILON {
        mix.scaled(scale)
    } else {
        mix
    };
    let policy_name = args.get("policy").unwrap_or("pccs");
    // The PCCS policy calibrates one model per PU against the simulator
    // before scheduling.
    let mut policy: Box<dyn Policy> = if policy_name.eq_ignore_ascii_case("pccs") {
        let models = build_models(&soc, &policy_calibration(args)?).map_err(ArgError)?;
        Box::new(PccsPolicy::new(boxed_models(&models)))
    } else {
        policy_by_name(&soc, policy_name).ok_or_else(|| {
            ArgError(format!(
                "unknown policy '{policy_name}' (known: round-robin, greedy, pccs, oracle)"
            ))
        })?
    };
    let cfg = if quick {
        SchedConfig::quick()
    } else {
        SchedConfig::default()
    };
    let metrics_out = args.get("metrics-out");
    if metrics_out.is_some() {
        Profiler::enable();
    }

    eprintln!(
        "scheduling mix '{}' ({} jobs) on {} under policy '{}' ...",
        mix.name,
        mix.jobs.len(),
        soc.name,
        policy.name()
    );
    let report = run_schedule(&soc, &mix.name, &mix.jobs, policy.as_mut(), &cfg)
        .map_err(|e| ArgError(e.to_string()))?;

    println!(
        "{:<12} {:<5} {:>10} {:>10} {:>8} {:>9}",
        "job", "PU", "start", "finish", "RS %", "deadline"
    );
    for j in &report.jobs {
        let deadline = match (j.deadline, j.missed_deadline) {
            (None, _) => "-".to_owned(),
            (Some(_), false) => "met".to_owned(),
            (Some(d), true) => format!("MISSED ({d})"),
        };
        println!(
            "{:<12} {:<5} {:>10.0} {:>10.0} {:>8.1} {:>9}",
            j.name, j.pu, j.start, j.finish, j.achieved_rs_pct, deadline
        );
    }
    println!(
        "makespan {:.0} cycles  mean RS {:.1}%  mean turnaround {:.0}  deadline misses {}/{}",
        report.makespan,
        report.mean_rs_pct(),
        report.mean_turnaround(),
        report.deadline_misses(),
        report.jobs.len()
    );

    if let Some(path) = metrics_out {
        let mut config = BTreeMap::new();
        let mut put = |k: &str, v: Value| {
            config.insert(k.to_owned(), v);
        };
        put("soc", Value::String(soc.name.clone()));
        put("mix", Value::String(mix.name.clone()));
        put("policy", Value::String(report.policy.clone()));
        put("scale", Value::Number(Number::F(scale)));
        put("quick", Value::Bool(quick));
        let mut manifest = RunManifest::new("pccs-cli", env!("CARGO_PKG_VERSION"), "sched")
            .with_config(Value::Object(config));
        manifest.set_wall_secs(started.elapsed().as_secs_f64());
        let spans = Profiler::drain();
        let mut jsonl = export::jsonl_events(Some(&manifest), None, &spans);
        jsonl.push_str(&export::jsonl_records("decision", &report.decisions));
        jsonl.push_str(&export::jsonl_records::<JobOutcome>(
            "job_outcome",
            &report.jobs,
        ));
        fs::write(path, jsonl).map_err(|e| ArgError(format!("writing {path}: {e}")))?;
        println!(
            "telemetry written to {path} ({} decisions, {} job outcomes)",
            report.decisions.len(),
            report.jobs.len()
        );
    }
    Ok(())
}

/// `pccs serve` — the online serving loop: open-loop arrivals, admission
/// control, batching, and SLO accounting on top of the placement policies.
pub fn serve(args: &Args) -> Result<(), ArgError> {
    let started = std::time::Instant::now();
    let quick = args.has("quick");
    let soc = soc_by_name(args.get("soc").unwrap_or("xavier"))?;
    let classes = pccs_serve::request::contended_classes();

    let rate = args.get_f64("rate", 8.0)?;
    if !(rate.is_finite() && rate > 0.0) {
        return Err(ArgError("--rate must be finite and positive".into()));
    }
    let arrivals = match args.get("arrivals").unwrap_or("poisson") {
        "poisson" => ArrivalProcess::Poisson {
            rate_per_mcycle: rate,
        },
        "bursty" => ArrivalProcess::bursty(rate),
        "trace" => {
            let path = args.require("trace-file")?;
            let text =
                fs::read_to_string(path).map_err(|e| ArgError(format!("reading {path}: {e}")))?;
            pccs_serve::arrivals::parse_trace(&text).map_err(|e| ArgError(e.to_string()))?
        }
        other => {
            return Err(ArgError(format!(
                "unknown arrival process '{other}' (known: poisson, bursty, trace)"
            )))
        }
    };
    let admission = match args.get("admission").unwrap_or("open") {
        "open" => AdmissionPolicy::Open,
        "strict" => AdmissionPolicy::Strict,
        spec => {
            let frac: f64 = spec
                .strip_prefix('p')
                .unwrap_or(spec)
                .parse()
                .map_err(|_| {
                    ArgError(format!(
                        "unknown admission policy '{spec}' (known: open, strict, p<frac> e.g. p0.1)"
                    ))
                })?;
            if !(0.0..=1.0).contains(&frac) {
                return Err(ArgError(
                    "admission miss threshold must be in [0, 1]".into(),
                ));
            }
            AdmissionPolicy::MissProb(frac)
        }
    };

    // The PCCS policy and the admission controller share one calibrated
    // model set; contention-oblivious policies pair with the paper's
    // published models so admission stays contention-aware.
    let policy_name = args.get("policy").unwrap_or("pccs");
    let (models, mut policy): (Vec<PccsModel>, Box<dyn Policy>) =
        if policy_name.eq_ignore_ascii_case("pccs") {
            let models = build_models(&soc, &policy_calibration(args)?).map_err(ArgError)?;
            let policy = Box::new(PccsPolicy::new(boxed_models(&models)));
            (models, policy)
        } else {
            let policy = policy_by_name(&soc, policy_name).ok_or_else(|| {
                ArgError(format!(
                    "unknown policy '{policy_name}' (known: round-robin, greedy, pccs, oracle)"
                ))
            })?;
            (paper_models(&soc), policy)
        };

    let mut cfg = if quick {
        ServeConfig::quick()
    } else {
        ServeConfig::default()
    };
    cfg.arrivals = arrivals;
    cfg.duration = args.get("duration").map_or(Ok(cfg.duration), |raw| {
        raw.parse::<u64>()
            .map_err(|_| ArgError(format!("--duration must be an integer, got '{raw}'")))
    })?;
    cfg.seed = args.get("seed").map_or(Ok(cfg.seed), |raw| {
        raw.parse::<u64>()
            .map_err(|_| ArgError(format!("--seed must be an integer, got '{raw}'")))
    })?;
    cfg.admission = admission;
    cfg.batch.max_batch = args.get_usize("batch", cfg.batch.max_batch)?;
    let metrics_out = args.get("metrics-out");
    if metrics_out.is_some() {
        Profiler::enable();
    }

    eprintln!(
        "serving {} on {} under policy '{}', admission {} ...",
        cfg.arrivals.describe(),
        soc.name,
        policy.name(),
        cfg.admission.describe()
    );
    let report = run_serve(&soc, &classes, policy.as_mut(), boxed_models(&models), &cfg)
        .map_err(|e| ArgError(e.to_string()))?;

    println!(
        "{:<12} {:>8} {:>9} {:>6} {:>10} {:>10} {:>10} {:>8}",
        "class", "offered", "admitted", "shed", "p50", "p95", "p99", "miss %"
    );
    for c in &report.classes {
        println!(
            "{:<12} {:>8} {:>9} {:>6} {:>10} {:>10} {:>10} {:>8.1}",
            c.class,
            c.offered,
            c.admitted,
            c.shed,
            c.p50_latency,
            c.p95_latency,
            c.p99_latency,
            c.miss_rate_pct
        );
    }
    println!(
        "served {}/{} requests ({} shed, {} missed)  makespan {:.0} cycles  \
         throughput {:.2}/Mcycle  p99 {} cycles  miss rate {:.1}%  recalibrations {}",
        report.completed,
        report.offered,
        report.shed,
        report.missed,
        report.makespan,
        report.throughput_per_mcycle,
        report.p99_latency,
        report.miss_rate_pct,
        report.recalibrations
    );

    if let Some(path) = metrics_out {
        let mut config = BTreeMap::new();
        let mut put = |k: &str, v: Value| {
            config.insert(k.to_owned(), v);
        };
        put("soc", Value::String(soc.name.clone()));
        put("policy", Value::String(report.policy.clone()));
        put("arrivals", Value::String(report.arrivals.clone()));
        put("admission", Value::String(report.admission.clone()));
        put("seed", Value::Number(Number::U(report.seed)));
        put("quick", Value::Bool(quick));
        let mut manifest = RunManifest::new("pccs-cli", env!("CARGO_PKG_VERSION"), "serve")
            .with_config(Value::Object(config));
        manifest.set_wall_secs(started.elapsed().as_secs_f64());
        let spans = Profiler::drain();
        let mut jsonl = export::jsonl_events(Some(&manifest), None, &spans);
        jsonl.push_str(&export::jsonl_records("request", &report.outcomes));
        jsonl.push_str(&export::jsonl_records("class_slo", &report.classes));
        fs::write(path, jsonl).map_err(|e| ArgError(format!("writing {path}: {e}")))?;
        println!(
            "telemetry written to {path} ({} requests, {} classes)",
            report.outcomes.len(),
            report.classes.len()
        );
    }
    Ok(())
}

/// `pccs policies` — the Section 2.3 policy comparison on the CMP config.
pub fn policies(args: &Args) -> Result<(), ArgError> {
    let victim = get_gbps(args, "victim", 48.0)?;
    let horizon = 30_000;
    let pressures = [0.0, 24.0, 48.0, 80.0, 120.0];

    let run = |policy: PolicyKind, aggressor: f64| -> f64 {
        let mut sys = DramSystem::new(DramConfig::cmp_study(), policy);
        for s in 0..8 {
            sys.add_generator(
                StreamTraffic::builder(SourceId(s))
                    .demand_gbps(victim / 8.0)
                    .row_locality(0.95)
                    .window(24)
                    .seed(3 + s as u64)
                    .build(),
            );
        }
        if aggressor > 0.0 {
            for s in 8..16 {
                sys.add_generator(
                    StreamTraffic::builder(SourceId(s))
                        .demand_gbps(aggressor / 8.0)
                        .row_locality(0.92)
                        .window(24)
                        .seed(71 + s as u64)
                        .build(),
                );
            }
        }
        let out = sys.run(horizon);
        (0..8).map(|s| out.source_bw_gbps(SourceId(s))).sum()
    };

    println!("victim group {victim:.0} GB/s on the Table 1 CMP config; cells are RS %");
    print!("{:<9}", "policy");
    for p in &pressures[1..] {
        print!("{:>9}", format!("y={p:.0}"));
    }
    println!();
    for policy in PolicyKind::all() {
        let standalone = run(policy, 0.0).max(f64::MIN_POSITIVE);
        print!("{:<9}", policy.label());
        for &p in &pressures[1..] {
            print!("{:>9.1}", 100.0 * run(policy, p) / standalone);
        }
        println!();
    }
    Ok(())
}

/// `pccs lint` — runs the repo-invariant linter ([`pccs_analysis`]) over
/// the workspace under `--root` and prints its text report. Exits
/// non-zero when findings survive waivers.
pub fn lint(args: &Args) -> Result<(), ArgError> {
    let root = Path::new(args.get("root").unwrap_or("."));
    let report = pccs_analysis::workspace::analyze_root(root)
        .map_err(|e| ArgError(format!("linting {}: {e}", root.display())))?
        .run();
    print!("{}", report.render_text());
    if report.is_clean() {
        Ok(())
    } else {
        Err(ArgError(format!(
            "{} lint finding(s); fix or waive with `// pccs-lint: allow(<rule>)`",
            report.findings.len()
        )))
    }
}

/// `pccs audit` — replays the validation figures with the prediction-audit
/// ledger enabled, prints the accuracy scorecard, and writes the
/// schema-validated `ACCURACY_<host>_<date>.json` baseline. `--check
/// <baseline.json>` additionally runs the accuracy gate against a stored
/// baseline (tolerance override via `--tolerance`, percentage points);
/// `--validate <file>` only schema-checks a stored baseline and exits
/// (the check.sh guard on the committed baseline); `--quick` shrinks the
/// sweeps for CI smoke use; `--out` overrides the canonical file name.
pub fn audit(args: &Args) -> Result<(), ArgError> {
    use pccs_bench::accuracy;
    if let Some(path) = args.get("validate") {
        let text =
            fs::read_to_string(path).map_err(|e| ArgError(format!("reading {path}: {e}")))?;
        let value: Value =
            serde_json::from_str(&text).map_err(|e| ArgError(format!("parsing {path}: {e}")))?;
        accuracy::validate(&value).map_err(|e| ArgError(format!("{path}: {e}")))?;
        println!("{path}: valid {} report", accuracy::SCHEMA);
        return Ok(());
    }
    // Read the gate's tolerance before the audit runs, so a bad value
    // fails fast. A NaN would pass every comparison and a negative value
    // would fail every one.
    let tolerance = args.get_f64("tolerance", accuracy::DEFAULT_TOLERANCE_PCT_POINTS)?;
    if !(tolerance.is_finite() && tolerance >= 0.0) {
        return Err(ArgError(format!(
            "--tolerance must be a finite, non-negative number of pct points, got {tolerance}"
        )));
    }
    let quick = args.has("quick");
    eprintln!(
        "auditing model accuracy ({} sweep sizes) ...",
        if quick { "quick" } else { "full" }
    );
    let report = accuracy::run_accuracy(quick);
    let json = report.to_json();
    accuracy::validate(&json).map_err(|e| ArgError(format!("accuracy report invalid: {e}")))?;
    print!("{}", report.format());
    let path = args
        .get("out")
        .map(str::to_owned)
        .unwrap_or_else(|| report.filename());
    let mut text = serde_json::to_string_pretty(&json)
        .map_err(|e| ArgError(format!("serialization failed: {e}")))?;
    text.push('\n');
    fs::write(&path, text).map_err(|e| ArgError(format!("writing {path}: {e}")))?;
    println!("accuracy baseline written to {path}");
    if let Some(baseline_path) = args.get("check") {
        let text = fs::read_to_string(baseline_path)
            .map_err(|e| ArgError(format!("reading {baseline_path}: {e}")))?;
        let baseline: Value = serde_json::from_str(&text)
            .map_err(|e| ArgError(format!("parsing {baseline_path}: {e}")))?;
        accuracy::compare(&baseline, &json, tolerance).map_err(ArgError)?;
        println!("accuracy gate passed against {baseline_path} (tolerance {tolerance} pct points)");
    }
    Ok(())
}

/// `pccs trace-check` — validates a Chrome/Perfetto trace exported by
/// `repro --trace-out`: JSON well-formedness, balanced B/E spans per lane,
/// monotonic timestamps, and optional minimum nesting depth
/// (`--min-depth`) and counter-track count (`--min-counters`).
pub fn trace_check(args: &Args) -> Result<(), ArgError> {
    let path = args.require("file")?;
    let min_depth = args.get_usize("min-depth", 0)?;
    let min_counters = args.get_usize("min-counters", 0)?;
    let text = fs::read_to_string(path).map_err(|e| ArgError(format!("reading {path}: {e}")))?;
    let check = pccs_telemetry::perfetto::check_trace(&text)
        .map_err(|e| ArgError(format!("{path}: {e}")))?;
    println!(
        "{path}: {} events, {} lanes, max depth {}, {} counter tracks",
        check.events, check.lanes, check.max_depth, check.counter_tracks
    );
    if check.max_depth < min_depth {
        return Err(ArgError(format!(
            "{path}: max span depth {} < required {min_depth}",
            check.max_depth
        )));
    }
    if check.counter_tracks < min_counters {
        return Err(ArgError(format!(
            "{path}: {} counter tracks < required {min_counters}",
            check.counter_tracks
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soc_lookup_accepts_known_names() {
        assert_eq!(soc_by_name("xavier").unwrap().pus.len(), 3);
        assert_eq!(soc_by_name("SNAPDRAGON855").unwrap().pus.len(), 2);
        assert_eq!(soc_by_name("snapdragon").unwrap().pus.len(), 2);
        assert!(soc_by_name("a15").is_err());
    }

    #[test]
    fn pu_lookup_is_case_insensitive_and_lists_options() {
        let soc = soc_by_name("xavier").unwrap();
        assert!(pu_index(&soc, "gpu").is_ok());
        let err = pu_index(&soc, "NPU").unwrap_err();
        assert!(err.to_string().contains("CPU"));
    }

    #[test]
    fn bench_kernel_resolves_per_pu_kind() {
        let soc = soc_by_name("xavier").unwrap();
        let gpu = pu_index(&soc, "GPU").unwrap();
        let cpu = pu_index(&soc, "CPU").unwrap();
        let on_gpu = bench_kernel(&soc, gpu, "streamcluster").unwrap();
        let on_cpu = bench_kernel(&soc, cpu, "streamcluster").unwrap();
        assert!(on_gpu.ops_per_byte != on_cpu.ops_per_byte);
        assert!(bench_kernel(&soc, gpu, "doom").is_err());
    }

    #[test]
    fn model_round_trips_through_json() {
        let model = PccsModel::xavier_gpu_paper();
        let path = std::env::temp_dir().join("pccs_cli_test_model.json");
        std::fs::write(&path, serde_json::to_string(&model).unwrap()).unwrap();
        let loaded = load_model(path.to_str().unwrap()).unwrap();
        assert_eq!(loaded, model);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_model_reports_missing_file() {
        let err = load_model("/nonexistent/p.json").unwrap_err();
        assert!(err.to_string().contains("reading"));
    }
}
