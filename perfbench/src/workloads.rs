//! The three workloads. Each iteration sets up its inputs, runs one
//! measured phase through the workspace's public entry points, checks the
//! outputs, and digests every simulated output and count.
//!
//! * `model_pipeline` — the paper's method end to end: calibrate the
//!   Xavier GPU, CPU and DLA models (`Context::model_and_data`, the call
//!   under `Context::pccs_model`), re-fit each with `ModelBuilder::build`,
//!   then validate them on Figs. 8, 9 and 12 (`validate::run`).
//! * `mc_policies` — the Fig. 5 memory-controller study (`fig5::run`):
//!   DRAM only, all five scheduling policies.
//! * `serve_online` — `run_serve` on the contended classes with the PCCS
//!   policy and paper models under bursty open-loop arrivals.
//!
//! A traced iteration runs the same calls through the timing wrappers of
//! [`crate::wrap`], so its simulated work and counts are identical.

use crate::procfs;
use crate::report::{median, percentile, ratio, Digest, PER_LAYER};
use crate::trace::{totals_by_name, Tracer};
use crate::wrap::{PredictStats, TimedModel, TimedPolicy, TracedExperiment};
use pccs_core::{ModelBuilder, PccsModel, SlowdownModel};
use pccs_dram::policy::PolicyKind;
use pccs_experiments::fig5::{self, Fig5, Fig5Experiment};
use pccs_experiments::validate::{self, Figure, ValidateExperiment, Validation};
use pccs_experiments::{Context, Quality, SweepRunner};
use pccs_sched::policy::PccsPolicy;
use pccs_serve::request::contended_classes;
use pccs_serve::{
    boxed_models, paper_models, run_serve, AdmissionPolicy, ArrivalProcess, RequestClass,
    ServeConfig, ServeReport,
};
use pccs_soc::soc::SocConfig;
use pccs_telemetry::metrics;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Worker threads every workload may use.
pub const JOBS: usize = 2;

/// Mean arrival rate of `serve_online`, requests per million cycles.
const SERVE_RATE_PER_MCYCLE: f64 = 2.0;

/// Registry names whose values are a pure function of the inputs. The only
/// registry name left out is `sweep.steals`, which depends on thread
/// timing.
fn is_deterministic(name: &str) -> bool {
    [
        "dram.",
        "serve.",
        "sim.",
        "profile_cache.",
        "sweep.cells",
        "sweep.workers",
    ]
    .iter()
    .any(|prefix| name.starts_with(prefix))
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Calibrate three models and validate them.
    ModelPipeline,
    /// The Fig. 5 memory-controller policy study.
    McPolicies,
    /// The online serving loop.
    ServeOnline,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::ModelPipeline,
        Workload::McPolicies,
        Workload::ServeOnline,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ModelPipeline => "model_pipeline",
            Workload::McPolicies => "mc_policies",
            Workload::ServeOnline => "serve_online",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one iteration does.
#[derive(Debug, Clone)]
pub struct Size {
    /// Fidelity of the model pipeline's context.
    pub model_quality: Quality,
    /// Xavier PUs whose models are built.
    pub pus: &'static [&'static str],
    /// Validation figures run on the built models.
    pub figures: &'static [Figure],
    /// Fidelity of the Fig. 5 study.
    pub mc_quality: Quality,
    /// Cycles of serving arrivals.
    pub serve_duration: u64,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Self {
        Self {
            model_quality: Quality::Quick,
            pus: &["GPU", "CPU", "DLA"],
            figures: &[Figure::XavierGpu, Figure::XavierCpu, Figure::XavierDla],
            mc_quality: Quality::Full,
            serve_duration: 20_000_000_000,
        }
    }

    /// A size small enough for unit tests.
    pub fn tiny() -> Self {
        Self {
            model_quality: Quality::Quick,
            pus: &["DLA"],
            figures: &[Figure::XavierDla],
            mc_quality: Quality::Quick,
            serve_duration: 100_000_000,
        }
    }
}

/// One iteration's measurements, outputs and check results.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Host seconds of the measured phase.
    pub wall_s: f64,
    /// Registry values the measured phase produced (reset before it).
    pub counts: BTreeMap<String, u64>,
    /// Requests completed: serving requests on `serve_online`, DRAM
    /// requests served on the other workloads.
    pub requests: u64,
    /// Simulated outputs: name, value, unit.
    pub outputs: Vec<(String, f64, &'static str)>,
    /// Digest of every simulated output and deterministic count.
    pub digest: u64,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced iterations fill the layer-specific ones).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Iteration {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Wall and CPU time of one phase.
struct Timed {
    wall_s: f64,
    cpu_s: f64,
}

fn cpu_now() -> f64 {
    procfs::cpu_seconds().unwrap_or(f64::NAN)
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Timed) {
    let (cpu0, t0) = (cpu_now(), Instant::now());
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_now() - cpu0;
    (out, Timed { wall_s, cpu_s })
}

fn util_pct(t: &Timed) -> f64 {
    100.0 * ratio(t.cpu_s, t.wall_s * JOBS as f64)
}

fn counter(name: &str) -> u64 {
    metrics::counter(name).get()
}

/// Sets `workload` up once and discards the inputs.
///
/// # Errors
///
/// Fails when the inputs cannot be built.
pub fn setup_once(workload: Workload, size: &Size, seed: u64) -> Result<(), String> {
    match workload {
        Workload::ModelPipeline => drop(std::hint::black_box(ModelSetup::new(size)?)),
        Workload::McPolicies => drop(std::hint::black_box(mc_setup(size))),
        Workload::ServeOnline => drop(std::hint::black_box(ServeSetup::new(size, seed)?)),
    }
    Ok(())
}

/// Runs one iteration of `workload`; `tracer` decides whether the timing
/// wrappers and spans are on.
pub fn run_iteration(workload: Workload, size: &Size, seed: u64, tracer: &Tracer) -> Iteration {
    let mut it = Iteration::default();
    let mut digest = Digest::default();
    metrics::reset();
    match workload {
        Workload::ModelPipeline => model_pipeline(size, tracer, &mut it, &mut digest),
        Workload::McPolicies => mc_policies(size, tracer, &mut it, &mut digest),
        Workload::ServeOnline => serve_online(size, seed, tracer, &mut it, &mut digest),
    }
    if workload != Workload::ServeOnline {
        it.requests = it.counts.get("dram.requests.served").copied().unwrap_or(0);
    }
    for (name, value) in it.counts.iter().filter(|(n, _)| is_deterministic(n)) {
        digest.str(name);
        digest.u64(*value);
    }
    it.digest = digest.value();
    registry_layers(&mut it);
    it
}

/// Per-layer metrics read from the registry, the same on every workload:
/// every per-layer metric named like a registry value, plus the ratios.
fn registry_layers(it: &mut Iteration) {
    let c = |name: &str| it.counts.get(name).copied().unwrap_or(0) as f64;
    let mut layer: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .filter(|def| it.counts.contains_key(def.name))
        .map(|def| (def.name, c(def.name)))
        .collect();
    let row_accesses = c("dram.row.hits") + c("dram.row.misses") + c("dram.row.conflicts");
    let scans = c("dram.sched.issued") + c("dram.sched.no_candidate") + c("dram.sched.bus_blocked");
    let lookups = c("profile_cache.hits") + c("profile_cache.misses");
    layer.extend([
        (
            "dram.row_hit_ratio",
            ratio(c("dram.row.hits"), row_accesses),
        ),
        ("dram.issue_ratio", ratio(c("dram.sched.issued"), scans)),
        (
            "dram.host_ns_per_cycle",
            ratio(it.wall_s * 1e9, c("dram.cycles")),
        ),
        (
            "profile_cache.hit_ratio",
            ratio(c("profile_cache.hits"), lookups),
        ),
    ]);
    layer.append(&mut it.layer);
    it.layer = layer;
}

fn model_ok(m: &PccsModel) -> bool {
    let finite = [
        m.normal_bw,
        m.intensive_bw,
        m.cbp,
        m.tbwdc,
        m.rate_n,
        m.peak_bw,
    ]
    .iter()
    .chain(m.mrmc.iter())
    .all(|v| v.is_finite());
    finite
        && 0.0 <= m.normal_bw
        && m.normal_bw <= m.intensive_bw
        && m.intensive_bw <= m.peak_bw
        && m.cbp > 0.0
        && m.tbwdc >= 0.0
        && m.rate_n >= 0.0
        && m.mrmc.is_none_or(|v| (0.0..=100.0).contains(&v))
}

fn digest_model(d: &mut Digest, m: &PccsModel) {
    for v in [
        m.normal_bw,
        m.intensive_bw,
        m.cbp,
        m.tbwdc,
        m.rate_n,
        m.peak_bw,
    ] {
        d.f64(v);
    }
    d.f64(m.mrmc.unwrap_or(-1.0));
}

/// The model pipeline's inputs: a fresh context (so every model is built
/// from scratch) and the PUs to model.
struct ModelSetup {
    ctx: Context,
    soc: SocConfig,
    pus: Vec<(&'static str, usize)>,
}

impl ModelSetup {
    fn new(size: &Size) -> Result<Self, String> {
        let ctx = Context::new(size.model_quality).with_jobs(JOBS);
        let soc = ctx.xavier.clone();
        let pus = size
            .pus
            .iter()
            .map(|&name| Context::require_pu(&soc, name).map(|idx| (name, idx)))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        Ok(Self { ctx, soc, pus })
    }
}

fn figure_slug(fig: Figure) -> String {
    format!("fig{}", fig.number())
}

fn model_pipeline(size: &Size, tracer: &Tracer, it: &mut Iteration, d: &mut Digest) {
    let setup = match ModelSetup::new(size) {
        Ok(setup) => setup,
        Err(e) => return it.failures.push(e),
    };
    let ModelSetup { mut ctx, soc, pus } = setup;

    let mut calib = Vec::new();
    let mut fit_ns = 0u128;
    let mut validations: Vec<(Figure, Result<Validation, String>, Timed)> = Vec::new();
    let ((), whole) = timed(|| {
        tracer.span("model_pipeline", None, |root| {
            for &(name, idx) in &pus {
                let runs0 = counter("sim.runs");
                let span = format!("calibrate.{}", name.to_ascii_lowercase());
                let ((model, data), t) =
                    timed(|| tracer.span(&span, root, |_| ctx.model_and_data(&soc, idx)));
                let runs = counter("sim.runs") - runs0;
                let fit0 = Instant::now();
                let refit = tracer.span("core.fit", root, |_| ModelBuilder::new(data).build());
                fit_ns += fit0.elapsed().as_nanos();
                it.check(matches!(&refit, Ok(m) if *m == model), || {
                    format!("{name}: re-fitting the calibration data gave {refit:?}, not {model:?}")
                });
                calib.push((name, model, t, runs));
            }
            for &fig in size.figures {
                let span = format!("validate.{}", figure_slug(fig));
                let (out, t) = timed(|| {
                    tracer.span(&span, root, |id| {
                        if tracer.is_on() {
                            let exp =
                                TracedExperiment::new(ValidateExperiment(fig), tracer, id, |c| {
                                    c.0.clone()
                                });
                            SweepRunner::new(JOBS).run(&exp, &ctx)
                        } else {
                            validate::run(&mut ctx, fig)
                        }
                    })
                });
                validations.push((fig, out.map_err(|e| e.to_string()), t));
            }
        });
    });
    it.wall_s = whole.wall_s;
    it.counts = metrics::snapshot();

    let (mut calib_wall, mut calib_cpu, mut calib_runs) = (0.0, 0.0, 0u64);
    for (name, model, t, runs) in &calib {
        it.check(model_ok(model), || {
            format!("{name} model is not finite and ordered: {model:?}")
        });
        d.str(name);
        digest_model(d, model);
        let key = match *name {
            "GPU" => "calibrate.gpu_s",
            "CPU" => "calibrate.cpu_s",
            _ => "calibrate.dla_s",
        };
        it.layer.insert(key, t.wall_s);
        calib_wall += t.wall_s;
        calib_cpu += t.cpu_s;
        calib_runs += runs;
    }
    let calib_t = Timed {
        wall_s: calib_wall,
        cpu_s: calib_cpu,
    };
    it.layer.insert(
        "calibrate.ms_per_run",
        ratio(calib_wall * 1e3, calib_runs as f64),
    );
    it.layer
        .insert("calibrate.cpu_util_pct", util_pct(&calib_t));
    it.layer.insert("core.fit_us", fit_ns as f64 / 1e3);

    let (mut val_wall, mut val_cpu, mut maes) = (0.0, 0.0, Vec::new());
    for (fig, out, t) in validations {
        val_wall += t.wall_s;
        val_cpu += t.cpu_s;
        let v = match out {
            Ok(v) => v,
            Err(e) => {
                it.failures.push(format!("{}: {e}", figure_slug(fig)));
                continue;
            }
        };
        it.check(!v.benches.is_empty(), || {
            format!("{}: no benchmarks", figure_slug(fig))
        });
        for b in &v.benches {
            d.str(&b.name);
            d.f64(b.demand_gbps);
            for &(y, actual, pccs, gables) in &b.points {
                it.check((0.0..=100.0).contains(&pccs) && actual.is_finite(), || {
                    format!(
                        "{} {}: prediction {pccs} or actual {actual} out of range",
                        figure_slug(fig),
                        b.name
                    )
                });
                for v in [y, actual, pccs, gables] {
                    d.f64(v);
                }
            }
        }
        let mae = v.avg_pccs_error();
        it.outputs
            .push((format!("{}.pred_mae_pct", figure_slug(fig)), mae, "pct"));
        maes.push(mae);
    }
    let mean_mae = maes.iter().sum::<f64>() / maes.len().max(1) as f64;
    it.outputs
        .insert(0, ("pred_mae_pct".to_owned(), mean_mae, "pct"));
    it.layer.insert("validate.s", val_wall);
    it.layer.insert(
        "validate.cpu_util_pct",
        util_pct(&Timed {
            wall_s: val_wall,
            cpu_s: val_cpu,
        }),
    );
}

fn mc_setup(size: &Size) -> Context {
    Context::new(size.mc_quality).with_jobs(JOBS)
}

/// Span label and per-layer metric of each policy's Fig. 5 cell.
fn policy_names(kind: PolicyKind) -> (&'static str, &'static str) {
    match kind {
        PolicyKind::Fcfs => ("fcfs", "mc.fcfs_s"),
        PolicyKind::FrFcfs => ("frfcfs", "mc.frfcfs_s"),
        PolicyKind::Atlas => ("atlas", "mc.atlas_s"),
        PolicyKind::Tcm => ("tcm", "mc.tcm_s"),
        PolicyKind::Sms => ("sms", "mc.sms_s"),
    }
}

fn mc_policies(size: &Size, tracer: &Tracer, it: &mut Iteration, d: &mut Digest) {
    let mut ctx = mc_setup(size);

    let (out, t) = timed(|| {
        tracer.span("mc.fig5", None, |id| {
            if tracer.is_on() {
                let exp = TracedExperiment::new(Fig5Experiment, tracer, id, |k| {
                    policy_names(*k).0.to_owned()
                });
                SweepRunner::new(JOBS).run(&exp, &ctx)
            } else {
                fig5::run(&mut ctx)
            }
        })
    });
    it.wall_s = t.wall_s;
    it.counts = metrics::snapshot();
    it.layer.insert("mc.cpu_util_pct", util_pct(&t));
    let totals = totals_by_name(&tracer.spans());
    for kind in PolicyKind::all() {
        let (slug, metric) = policy_names(kind);
        if let Some((_, total_ns, _)) = totals.get(&format!("cell.{slug}")) {
            it.layer.insert(metric, *total_ns as f64 / 1e9);
        }
    }
    match out {
        Ok(fig) => check_fig5(&fig, it, d),
        Err(e) => it.failures.push(format!("fig5: {e}")),
    }
}

fn check_fig5(fig: &Fig5, it: &mut Iteration, d: &mut Digest) {
    let kinds: Vec<PolicyKind> = fig.policies.iter().map(|p| p.policy).collect();
    it.check(kinds == PolicyKind::all(), || {
        format!("fig5 policies {kinds:?}, expected all five in order")
    });
    for p in &fig.policies {
        let slug = policy_names(p.policy).0;
        d.str(slug);
        for (victim, points) in &p.curves {
            d.f64(*victim);
            for &(ext, rs) in points {
                it.check((0.0..=102.0).contains(&rs), || {
                    format!("fig5 {slug}: relative speed {rs} out of range")
                });
                d.f64(ext);
                d.f64(rs);
            }
        }
        it.check(
            (0.0..=100.0).contains(&p.row_hit_pct) && p.effective_bw_pct.is_finite(),
            || format!("fig5 {slug}: table 3 values out of range"),
        );
        for v in [p.row_hit_pct, p.effective_bw_pct] {
            d.f64(v);
        }
        d.u64(p.enqueued);
        d.u64(p.rejected);
        it.outputs
            .push((format!("fig5.{slug}.row_hit_pct"), p.row_hit_pct, "pct"));
    }
}

/// The serving workload's inputs.
struct ServeSetup {
    soc: SocConfig,
    classes: Vec<RequestClass>,
    cfg: ServeConfig,
    offered: usize,
    models: Vec<PccsModel>,
    policy: PccsPolicy,
}

impl ServeSetup {
    fn new(size: &Size, seed: u64) -> Result<Self, String> {
        let soc = SocConfig::xavier();
        let classes = contended_classes();
        let cfg = ServeConfig {
            arrivals: ArrivalProcess::bursty(SERVE_RATE_PER_MCYCLE),
            duration: size.serve_duration,
            seed,
            admission: AdmissionPolicy::Strict,
            ..ServeConfig::default()
        };
        let offered = cfg
            .arrivals
            .generate(&classes, cfg.duration, seed)
            .map_err(|e| e.to_string())?
            .len();
        let models = paper_models(&soc);
        let policy = PccsPolicy::paper_xavier(&soc);
        Ok(Self {
            soc,
            classes,
            cfg,
            offered,
            models,
            policy,
        })
    }
}

fn serve_online(size: &Size, seed: u64, tracer: &Tracer, it: &mut Iteration, d: &mut Digest) {
    let setup = match ServeSetup::new(size, seed) {
        Ok(setup) => setup,
        Err(e) => return it.failures.push(e),
    };
    let ServeSetup {
        soc,
        classes,
        cfg,
        offered,
        models,
        policy,
    } = setup;

    let predict = Arc::new(PredictStats::default());
    let (out, t, policy_stats) = if tracer.is_on() {
        let mut policy = TimedPolicy::new(policy, tracer.clone());
        let admission = TimedModel::wrap_all(boxed_models(&models), &predict);
        let (out, t) = timed(|| {
            tracer.span("serve.run", None, |id| {
                policy.parent = id;
                run_serve(&soc, &classes, &mut policy, admission, &cfg)
            })
        });
        (out, t, Some(policy.stats))
    } else {
        let mut policy = policy;
        let admission = boxed_models(&models);
        let (out, t) = timed(|| run_serve(&soc, &classes, &mut policy, admission, &cfg));
        (out, t, None)
    };
    it.wall_s = t.wall_s;
    it.counts = metrics::snapshot();

    if let Some(stats) = policy_stats {
        let decide: Vec<f64> = stats
            .decide_self_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        let decide_ns: u64 = stats.decide_self_ns.iter().sum();
        let predict_calls = predict.calls.load(Ordering::Relaxed);
        let predict_ns = predict.ns.load(Ordering::Relaxed);
        it.check(predict.out_of_range.load(Ordering::Relaxed) == 0, || {
            "an admission prediction fell outside [0, 100] %".to_owned()
        });
        let inner_ns = (decide_ns + stats.probe_ns + predict_ns) as f64;
        it.layer.extend([
            ("sched.decisions", decide.len() as f64),
            ("sched.decide_us_p50", median(&decide)),
            ("sched.decide_us_p99", percentile(&decide, 99.0)),
            ("sched.probe_calls", stats.probe_calls as f64),
            ("sched.probe_s", stats.probe_ns as f64 / 1e9),
            ("core.predictions", predict_calls as f64),
            (
                "core.predict_ns",
                ratio(predict_ns as f64, predict_calls as f64),
            ),
            ("serve.run_s", t.wall_s),
            ("serve.loop_self_s", t.wall_s - inner_ns / 1e9),
            (
                "serve.us_per_request",
                ratio(t.wall_s * 1e6, offered as f64),
            ),
        ]);
    }
    it.layer.insert(
        "serve.sim_runs",
        it.counts.get("sim.runs").copied().unwrap_or(0) as f64,
    );

    check_models(&soc, &models, it);
    match out {
        Ok(report) => check_serve(&report, offered, it, d),
        Err(e) => it.failures.push(format!("run_serve: {e}")),
    }
}

/// Every admission model predicts a relative speed in [0, 100] % over the
/// whole demand × pressure plane up to the SoC peak.
fn check_models(soc: &SocConfig, models: &[PccsModel], it: &mut Iteration) {
    let peak = soc.peak_bw_gbps();
    for (pu, model) in models.iter().enumerate() {
        it.check(model_ok(model), || {
            format!("PU{pu} admission model is not finite and ordered")
        });
        for i in 0..=20 {
            for j in 0..=20 {
                let (x, y) = (peak * f64::from(i) / 20.0, peak * f64::from(j) / 20.0);
                let rs = model.relative_speed_pct(x, y);
                it.check((0.0..=100.0).contains(&rs), || {
                    format!("PU{pu} predicts {rs} % at demand {x:.1}, pressure {y:.1}")
                });
            }
        }
    }
}

fn check_serve(r: &ServeReport, offered: usize, it: &mut Iteration, d: &mut Digest) {
    let count = |name: &str| it.counts.get(name).copied().unwrap_or(0) as usize;
    let published = [
        count("serve.offered"),
        count("serve.admitted"),
        count("serve.shed"),
        count("serve.completed"),
        count("serve.missed"),
    ];
    let reported = [r.offered, r.admitted, r.shed, r.completed, r.missed];
    it.check(r.offered == offered, || {
        format!(
            "offered {} requests, the arrival process made {offered}",
            r.offered
        )
    });
    it.check(r.offered == r.admitted + r.shed, || {
        format!(
            "offered {} != admitted {} + shed {}",
            r.offered, r.admitted, r.shed
        )
    });
    it.check(r.admitted == r.completed, || {
        format!("admitted {} != completed {}", r.admitted, r.completed)
    });
    it.check(published == reported, || {
        format!("registry serve.* {published:?} disagree with the report {reported:?}")
    });
    it.check(r.completed > 0, || "no request completed".to_owned());
    it.check(
        r.p50_latency <= r.p95_latency && r.p95_latency <= r.p99_latency,
        || "latency percentiles out of order".to_owned(),
    );
    for c in &r.classes {
        it.check(
            c.offered == c.admitted + c.shed && c.admitted == c.completed,
            || {
                format!(
                    "class {}: offered/admitted/shed/completed do not add up",
                    c.class
                )
            },
        );
    }
    let miss_pct = 100.0 * ratio((r.shed + r.missed) as f64, r.offered as f64);
    it.check((miss_pct - r.miss_rate_pct).abs() < 1e-9, || {
        format!(
            "miss rate {} != (shed + late) / offered {miss_pct}",
            r.miss_rate_pct
        )
    });
    for o in &r.outcomes {
        it.check(
            (0.0..=1.0).contains(&o.predicted_miss) && o.latency >= 0.0,
            || {
                format!(
                    "request {}: miss probability {} or latency {}",
                    o.id, o.predicted_miss, o.latency
                )
            },
        );
        d.u64(o.id as u64);
        d.str(&o.class);
        d.u64(o.arrival);
        d.u64(u64::from(o.admitted));
        d.f64(o.predicted_finish);
        d.f64(o.predicted_miss);
        d.f64(o.finish);
        d.u64(u64::from(o.missed));
        d.str(&o.pu);
        d.u64(o.batch_size as u64);
    }
    for v in [
        r.offered,
        r.admitted,
        r.shed,
        r.completed,
        r.missed,
        r.decisions,
    ] {
        d.u64(v as u64);
    }
    d.u64(r.recalibrations);
    d.f64(r.makespan);
    for v in [r.p50_latency, r.p95_latency, r.p99_latency] {
        d.u64(v);
    }
    it.requests = r.completed as u64;
    it.outputs.extend([
        ("slo_miss_pct".to_owned(), miss_pct, "pct"),
        (
            "p50_latency_mcycles".to_owned(),
            r.p50_latency as f64 / 1e6,
            "Mcycles",
        ),
        (
            "p99_latency_mcycles".to_owned(),
            r.p99_latency as f64 / 1e6,
            "Mcycles",
        ),
        ("latency_samples".to_owned(), r.completed as f64, "count"),
        ("offered".to_owned(), r.offered as f64, "count"),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::report::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    fn twice(w: Workload, seed: u64) -> (Iteration, Iteration) {
        let size = Size::tiny();
        let plain = run_iteration(w, &size, seed, &Tracer::off());
        let traced = run_iteration(w, &size, seed, &Tracer::on(w.name()));
        (plain, traced)
    }

    fn assert_same_outputs(plain: &Iteration, traced: &Iteration) {
        assert!(plain.failures.is_empty(), "{:?}", plain.failures);
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        assert_eq!(plain.digest, traced.digest);
        let det = |it: &Iteration| -> Vec<(String, u64)> {
            it.counts
                .iter()
                .filter(|(n, _)| is_deterministic(n))
                .map(|(n, v)| (n.clone(), *v))
                .collect()
        };
        assert_eq!(det(plain), det(traced));
        assert!(plain.counts.get("dram.cycles").copied().unwrap_or(0) > 0);
    }

    // The registry is process-global, so the in-process runs share one test.
    #[test]
    fn tiny_runs_digest_identically_traced_or_not() {
        let (plain, traced) = twice(Workload::ServeOnline, 7);
        assert_same_outputs(&plain, &traced);
        assert!(traced.layer["sched.decisions"] > 0.0);
        assert!(traced.layer["core.predictions"] > 0.0);
        let other_seed = run_iteration(Workload::ServeOnline, &Size::tiny(), 8, &Tracer::off());
        assert_ne!(plain.digest, other_seed.digest);

        let (plain, traced) = twice(Workload::McPolicies, 0);
        assert_same_outputs(&plain, &traced);
        assert!(traced.layer["mc.atlas_s"] > 0.0);

        let (plain, traced) = twice(Workload::ModelPipeline, 0);
        assert_same_outputs(&plain, &traced);
        assert!(traced.layer["calibrate.dla_s"] > 0.0);
        assert!(plain.outputs[0].0 == "pred_mae_pct" && plain.outputs[0].1 > 0.0);
    }
}
