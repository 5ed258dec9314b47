//! End-to-end and per-layer benchmark of the DL2Fence workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim16|train8|serve16> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). See `perfbench/README.md` for what each metric means.

mod ops;
mod stats;
mod trace;
mod workload;

use dl2fence_campaign::{expand, CampaignDir, CampaignReport, Executor, RunSpec};
use dl2fence_telemetry::{AggregateSink, Telemetry, TelemetrySink};
use ops::{ServeSession, ServeTrace, Trained};
use stats::{median, mix, percentile, rate, Metric, Speed};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use workload::{Kind, Workload};

/// End-to-end metrics, emitted by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ref_ms", "ms"),
    ("ops_per_ref_s", "1/s"),
    ("quality_ratio", "ratio"),
];

/// Per-layer metrics, emitted by every workload with `--trace 1` (the
/// per-span nn totals follow, see [`NN_SPANS`]).
pub const PER_LAYER: [(&str, &str); 30] = [
    ("noc.flood.router_cycles_per_s", "1/s"),
    ("noc.light.router_cycles_per_s", "1/s"),
    ("noc.ns_per_flit_hop", "ns"),
    ("noc.flit_hops", "count"),
    ("noc.packets_received", "count"),
    ("noc.packet_latency_cycles", "cycles"),
    ("monitor.sample_us", "us"),
    ("campaign.run_ms", "ms"),
    ("campaign.append_ms", "ms"),
    ("campaign.record_kb", "KB"),
    ("campaign.fold_ms", "ms"),
    ("campaign.eval_s", "s"),
    ("core.train_sample_epochs_per_s", "1/s"),
    ("core.detector_final_loss", "loss"),
    ("core.localizer_final_loss", "loss"),
    ("core.detect_acc", "ratio"),
    ("core.localize_acc", "ratio"),
    ("core.detect_us", "us"),
    ("core.localize_us", "us"),
    ("core.flagged_ratio", "ratio"),
    ("nn.detector.fwd_s", "s"),
    ("nn.detector.bwd_s", "s"),
    ("nn.localizer.fwd_s", "s"),
    ("nn.localizer.bwd_s", "s"),
    ("serve.ingest_us", "us"),
    ("serve.batch_windows", "count"),
    ("serve.wait_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.verdicts", "count"),
    ("telemetry.overhead_pct", "%"),
];

/// The `nn.*` layer spans reported as `<span>.total_s`: the conv, pool and
/// dense layers. Activations and `Flatten` are left out because they run
/// below the recorder's 1 µs resolution and would always read 0.
pub const NN_SPANS: [&str; 12] = [
    "nn.detector.fwd.0.Conv2d",
    "nn.detector.fwd.2.MaxPool2d",
    "nn.detector.fwd.4.Dense",
    "nn.detector.bwd.0.Conv2d",
    "nn.detector.bwd.2.MaxPool2d",
    "nn.detector.bwd.4.Dense",
    "nn.localizer.fwd.0.Conv2d",
    "nn.localizer.fwd.2.Conv2d",
    "nn.localizer.fwd.4.Conv2d",
    "nn.localizer.bwd.0.Conv2d",
    "nn.localizer.bwd.2.Conv2d",
    "nn.localizer.bwd.4.Conv2d",
];

/// Layers too fast for the µs recorder (see [`NN_SPANS`]).
const SUB_US_LAYERS: [&str; 3] = ["ReLU", "Sigmoid", "Flatten"];

/// Every metric name (with unit) the given mode must emit.
pub fn declared(trace: bool) -> Vec<(String, &'static str)> {
    if !trace {
        return END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
    }
    PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .chain(NN_SPANS.iter().map(|s| (format!("{s}.total_s"), "s")))
        .collect()
}

/// Extra set-ups timed after every campaign, so that the `setup_s` median
/// of the campaign workloads samples the whole run rather than its first
/// milliseconds (one set-up is ~0.1 ms of file-system work).
const SETUP_REPS_PER_OP: usize = 8;
/// Spec variants a campaign run cycles through: each its own campaign seed
/// (derived from `--seed`), hence its own traffic, data and model
/// initialization. Every untraced run executes each variant at least once.
const VARIANTS: usize = 16;
/// Models (set-ups) serve16 trains and serves in turn; their set-up times
/// give the `setup_s` median.
const SERVE_MODELS: usize = 3;
/// Timed offline analysis passes over every window (after one warm-up).
const OFFLINE_PASSES: usize = 3;
/// Latency rounds between two capacity blocks of the serve loop.
const ROUNDS_PER_BLOCK: usize = 40;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <sim16|train8|serve16> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything one invocation measured and checked.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Broken invariants of the benchmark itself (not counted per op).
    errors: Vec<String>,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts `attempted` operations of which `failed` failed.
    fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    fn result_line(&self) -> String {
        stats::result_line(
            self.correct(),
            self.attempted.max(1),
            self.failed,
            &self.metrics,
        )
    }

    /// One extra checked operation that passes when `ok`.
    fn check(&mut self, ok: bool, what: &str) {
        self.ops(1, u64::from(!ok));
        if !ok {
            self.note(format!("FAILED check: {what}"));
        }
    }
}

/// A scratch area for campaign directories under the working directory,
/// removed when dropped.
struct WorkDir {
    root: PathBuf,
    next: usize,
}

impl WorkDir {
    fn create(workload: &str) -> Result<Self, String> {
        let root =
            PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(WorkDir { root, next: 0 })
    }

    /// A fresh, not yet existing directory path.
    fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("c{}", self.next))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent); // only if now empty
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for line in &out.notes {
                println!("# {line}");
            }
            for e in &out.errors {
                println!("# ERROR: {e}");
            }
            println!("{}", out.result_line());
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

/// Runs one invocation and checks that it emitted exactly the declared
/// metrics, each finite and validly named.
fn run(args: &Args) -> Result<Outcome, String> {
    let w = workload::build(&args.workload, args.seed, 0).ok_or_else(|| {
        format!(
            "unknown workload {:?} (expected one of {:?})",
            args.workload,
            workload::NAMES
        )
    })?;
    let mut work = WorkDir::create(w.name)?;
    let mut out = if args.trace {
        traced(&w, args, &mut work)?
    } else {
        untraced(&w, args, &mut work)?
    };
    let declared = declared(args.trace);
    for (name, unit) in &declared {
        if !out
            .metrics
            .iter()
            .any(|m| &m.name == name && m.unit == *unit)
        {
            out.errors
                .push(format!("declared metric {name} ({unit}) not emitted"));
        }
    }
    for m in &out.metrics {
        if !stats::valid_metric_name(&m.name) || !declared.iter().any(|(n, _)| n == &m.name) {
            out.errors
                .push(format!("undeclared or invalid metric name {}", m.name));
        }
        if !m.value.is_finite() {
            out.errors.push(format!("metric {} is not finite", m.name));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// A campaign workload variant ready to run: its spec and run matrix.
struct Prepared {
    w: Workload,
    runs: Vec<RunSpec>,
}

/// A serve workload variant ready to serve: its corpus, model and service.
struct Served {
    runs: usize,
    corpus: ops::CampaignCheck,
    trained: Trained,
    session: ServeSession,
}

/// One campaign set-up: load and expand the spec and create its campaign
/// directory at `dir`.
fn setup_campaign(name: &str, seed: u64, variant: u64, dir: &Path) -> Result<Prepared, String> {
    let w = workload::build(name, seed, variant).expect("workload exists");
    let runs = expand(&w.spec).map_err(|e| e.to_string())?;
    CampaignDir::create(dir, &w.spec, runs.len()).map_err(|e| e.to_string())?;
    Ok(Prepared { w, runs })
}

/// One serve set-up: load and expand the spec, simulate the corpus into a
/// campaign directory at `dir`, train the model on it and start the
/// service.
fn setup_serve(name: &str, seed: u64, variant: u64, dir: &Path) -> Result<Served, String> {
    let w = workload::build(name, seed, variant).expect("workload exists");
    let runs = expand(&w.spec).map_err(|e| e.to_string())?;
    let (_, report) = ops::run_campaign(&Executor::new(1), &w.spec, dir)?;
    let corpus = ops::check_campaign(&w.spec, &runs, dir, &report)?;
    let trained = ops::train(&w, &corpus.samples, None);
    let session = ServeSession::start(
        &trained.fence.export_model(),
        &corpus.samples,
        mix(seed, 1000 + variant),
    );
    Ok(Served {
        runs: runs.len(),
        corpus,
        trained,
        session,
    })
}

/// Installs the offline reference on a served variant and accounts its
/// corpus campaign's runs.
fn prepare_serve(sv: &mut Served, out: &mut Outcome) {
    let export = sv.trained.fence.export_model();
    sv.session
        .set_reference(ops::offline_reports(&export, &sv.corpus.samples));
    out.ops(sv.runs as u64, sv.corpus.failed_runs);
    out.check(
        sv.trained.final_losses().is_some(),
        "served model losses finite",
    );
}

/// Runs set-up `f` once per variant `0..reps` (cycling through `VARIANTS`)
/// into a fresh directory, timing each call in CPU seconds; returns the
/// results and the durations. Each directory is removed before the next
/// set-up, so every set-up starts from the same (empty) scratch area.
fn timed_setups<T>(
    reps: usize,
    work: &mut WorkDir,
    speed: &mut Speed,
    mut f: impl FnMut(u64, &Path) -> Result<T, String>,
) -> Result<(Vec<T>, Vec<f64>), String> {
    speed.sample();
    let mut times = Vec::with_capacity(reps);
    let mut made = Vec::with_capacity(reps);
    for k in 0..reps {
        let dir = work.fresh();
        let start = stats::cpu_s();
        made.push(f((k % VARIANTS) as u64, &dir)?);
        times.push(stats::cpu_s() - start);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok((made, times))
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics
// ---------------------------------------------------------------------------

fn untraced(w: &Workload, args: &Args, work: &mut WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut speed = Speed::default();
    let setup_times = match w.kind {
        Kind::Campaign => {
            let (prepared, mut times) = timed_setups(VARIANTS, work, &mut speed, |v, dir| {
                setup_campaign(w.name, args.seed, v, dir)
            })?;
            campaign_e2e(args, &prepared, &mut times, work, &mut speed, &mut out)?;
            times
        }
        Kind::Serve => {
            let (mut served, times) = timed_setups(SERVE_MODELS, work, &mut speed, |v, dir| {
                setup_serve(w.name, args.seed, v, dir)
            })?;
            for sv in &mut served {
                prepare_serve(sv, &mut out);
            }
            serve_e2e(args, served, &mut speed, &mut out);
            times
        }
    };
    let setup_cpu = median(&setup_times).expect("set-up ran");
    out.metric("setup_s", setup_cpu * speed.scale(), "s");
    out.note(format!(
        "setup: median {:.6} s CPU over {} set-ups; reference kernel median {:.4} ms \
         (scale {:.4})",
        setup_cpu,
        setup_times.len(),
        speed.kernel_s() * 1e3,
        speed.scale()
    ));
    let rss = stats::peak_rss_mb().ok_or("VmHWM unavailable")?;
    out.metric("peak_rss_mb", rss, "MB");
    Ok(out)
}

/// One timed streaming campaign of a prepared variant, read back and
/// accounted. Returns the wall and CPU seconds, the report and its check.
fn campaign_op(
    executor: &Executor,
    p: &Prepared,
    work: &mut WorkDir,
    out: &mut Outcome,
) -> Result<(f64, f64, CampaignReport, ops::CampaignCheck, PathBuf), String> {
    let dir = work.fresh();
    let cpu = stats::cpu_s();
    let (wall, report) = ops::run_campaign(executor, &p.w.spec, &dir)?;
    let cpu = stats::cpu_s() - cpu;
    let check = ops::check_campaign(&p.w.spec, &p.runs, &dir, &report)?;
    out.ops(p.runs.len() as u64, check.failed_runs);
    Ok((wall, cpu, report, check, dir))
}

/// The workload's output quality for one campaign: held-out accuracy of
/// the eval phase (mean of detection and localization), or the packet
/// delivery ratio when there is no eval phase.
fn campaign_quality(report: &CampaignReport) -> f64 {
    match report.evaluations.first() {
        Some(entry) => {
            let (detect, localize) = ops::accuracies(&entry.report);
            (detect + localize) / 2.0
        }
        None => ops::delivery_ratio(report),
    }
}

fn campaign_e2e(
    args: &Args,
    variants: &[Prepared],
    setup_times: &mut Vec<f64>,
    work: &mut WorkDir,
    speed: &mut Speed,
    out: &mut Outcome,
) -> Result<(), String> {
    let executor = Executor::new(1);
    let (mut walls, mut cpus, mut quality) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.len() < VARIANTS || start.elapsed().as_secs_f64() < args.seconds {
        let p = &variants[walls.len() % VARIANTS];
        speed.sample();
        let (wall, cpu, report, check, dir) = campaign_op(&executor, p, work, out)?;
        let _ = std::fs::remove_dir_all(&dir);
        if walls.is_empty() && p.w.spec.eval.enabled {
            // The eval phase, re-derived by a direct training on the same
            // split: losses must be finite and the entry reproduced.
            let trained = ops::train(&p.w, &check.samples, None);
            let entry = report.evaluations.first();
            out.check(report.evaluations.len() == 1, "one eval entry");
            out.check(trained.final_losses().is_some(), "final losses finite");
            out.check(
                entry.is_some_and(|e| e.report == trained.evaluation),
                "direct training reproduces the eval entry",
            );
            if let Some(e) = entry {
                let (detect, localize) = ops::accuracies(&e.report);
                out.note(format!(
                    "variant 0: detect_acc {detect:.6}, localize_acc {localize:.6}"
                ));
            }
        }
        if quality.len() < VARIANTS {
            quality.push(campaign_quality(&report));
        }
        walls.push(wall);
        cpus.push(cpu);
        let (_, times) = timed_setups(SETUP_REPS_PER_OP, work, speed, |v, dir| {
            setup_campaign(&args.workload, args.seed, v, dir)
        })?;
        setup_times.extend(times);
    }
    let ms = |v: &[f64], q: f64| percentile(v, q).expect("ran campaigns") * 1e3;
    let runs: usize = (0..walls.len())
        .map(|i| variants[i % VARIANTS].runs.len())
        .sum();
    let scale = speed.scale();
    out.metric("op_ref_ms", ms(&cpus, 0.5) * scale, "ms");
    out.metric(
        "ops_per_ref_s",
        rate(runs as f64, cpus.iter().sum::<f64>() * scale).unwrap_or(0.0),
        "1/s",
    );
    let q = quality.iter().sum::<f64>() / quality.len() as f64;
    out.metric("quality_ratio", q, "ratio");
    out.note(format!(
        "campaign_s: wall p50 {:.1} ms, p90 {:.1} ms; CPU p50 {:.1} ms, p90 {:.1} ms; \
         over {} campaigns of {} runs (1 worker), {runs} runs in all",
        ms(&walls, 0.5),
        ms(&walls, 0.9),
        ms(&cpus, 0.5),
        ms(&cpus, 0.9),
        walls.len(),
        variants[0].runs.len(),
    ));
    out.note(format!(
        "quality_ratio {q:.6}: mean over the {} variants",
        quality.len()
    ));
    Ok(())
}

fn serve_e2e(args: &Args, mut served: Vec<Served>, speed: &mut Speed, out: &mut Outcome) {
    let mut latencies = Vec::new();
    let mut cpus = Vec::new();
    let (mut windows, mut busy, mut busy_cpu) = (0u64, 0.0f64, 0.0f64);
    let start = Instant::now();
    let mut block = 0;
    while block < served.len() || start.elapsed().as_secs_f64() < args.seconds {
        speed.sample();
        let session = &mut served[block % SERVE_MODELS].session;
        for _ in 0..ROUNDS_PER_BLOCK {
            let (latency, cpu) = session.round();
            latencies.push(latency);
            cpus.push(cpu);
        }
        let (n, secs, cpu) = session.capacity_block();
        windows += n;
        busy += secs;
        busy_cpu += cpu;
        block += 1;
    }
    let (mut verdicts, mut agree) = (0, 0);
    for sv in served {
        let session = sv.session.finish();
        out.ops(session.attempted, session.failed);
        verdicts += session.verdicts;
        agree += session.truth_agree;
    }
    let ms = |v: &[f64], q: f64| percentile(v, q).expect("ran rounds") * 1e3;
    let scale = speed.scale();
    out.metric("op_ref_ms", ms(&cpus, 0.5) * scale, "ms");
    out.metric(
        "ops_per_ref_s",
        rate(windows as f64, busy_cpu * scale).unwrap_or(0.0),
        "1/s",
    );
    out.metric(
        "quality_ratio",
        agree as f64 / verdicts.max(1) as f64,
        "ratio",
    );
    out.note(format!(
        "serve round: wall p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms; CPU p50 {:.4} ms, \
         p90 {:.4} ms; over {} rounds of {} windows, {SERVE_MODELS} served models",
        ms(&latencies, 0.5),
        ms(&latencies, 0.9),
        ms(&latencies, 0.99),
        ms(&cpus, 0.5),
        ms(&cpus, 0.9),
        latencies.len(),
        workload::TENANTS
    ));
    out.note(format!(
        "serve capacity: {:.1} windows/s wall, {:.1} windows per CPU second, over {windows} windows",
        rate(windows as f64, busy).unwrap_or(0.0),
        rate(windows as f64, busy_cpu).unwrap_or(0.0),
    ));
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer metrics
// ---------------------------------------------------------------------------

fn aggregate() -> (Arc<AggregateSink>, Telemetry) {
    let sink = Arc::new(AggregateSink::new());
    let tel = Telemetry::with_sink(sink.clone() as Arc<dyn TelemetrySink>);
    (sink, tel)
}

fn traced(w: &Workload, args: &Args, work: &mut WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let half = args.seconds / 2.0;
    let p = setup_campaign(w.name, args.seed, 0, &work.fresh())?;
    let (w, runs) = (&p.w, &p.runs);
    // Paired untraced/traced end-to-end operations: the telemetry overhead
    // and the exact-count cross-checks.
    let (mut plain_s, mut traced_s) = (0.0f64, 0.0f64);
    let (camp_sink, camp_tel) = aggregate();
    let plain_exec = Executor::new(1);
    let timed_exec = Executor::new(1).with_telemetry(camp_tel);
    // serve16 times its serve blocks instead; one pair covers its corpus.
    let budget = if w.kind == Kind::Serve { 0.0 } else { half };
    let mut first: Option<(String, ops::CampaignCheck)> = None;
    let mut last: Option<(PathBuf, CampaignReport)> = None;
    let mut pairs = 0;
    let start = Instant::now();
    while pairs == 0 || start.elapsed().as_secs_f64() < budget {
        for (executor, acc) in [(&plain_exec, &mut plain_s), (&timed_exec, &mut traced_s)] {
            if let Some((dir, _)) = last.take() {
                let _ = std::fs::remove_dir_all(dir);
            }
            let (wall, _, report, check, dir) = campaign_op(executor, &p, work, &mut out)?;
            *acc += wall;
            let json = report.to_json();
            match &first {
                Some((reference, _)) => {
                    out.check(*reference == json, "traced report equals the untraced one")
                }
                None => first = Some((json, check)),
            }
            last = Some((dir, report));
        }
        pairs += 1;
    }
    let (campaign_dir, campaign_report) = last.expect("ran pairs");
    let (_, check) = first.expect("ran pairs");
    out.note(format!("{pairs} untraced/traced campaign pair(s)"));
    let serve = match w.kind {
        Kind::Serve => {
            let mut sv = setup_serve(w.name, args.seed, 0, &work.fresh())?;
            prepare_serve(&mut sv, &mut out);
            Some((sv.session, sv.trained))
        }
        Kind::Campaign => None,
    };

    // campaign: fold and finish, rebuilt from the log on one worker.
    let layer = trace::rebuild_report(&w.spec, runs, &campaign_dir)?;
    out.check(
        layer.report == campaign_report,
        "rebuilt report equals the campaign's",
    );
    let received: u64 = campaign_report
        .groups
        .iter()
        .map(|g| g.packets_received)
        .sum();

    // noc + monitor: replay every run with the simulator and sampler timed.
    let noc = trace::replay_noc(&w.spec, runs);
    let per_run_ok = noc
        .packets_received
        .iter()
        .zip(&check.metrics)
        .all(|(r, m)| m.as_ref().is_some_and(|m| m.packets_received == *r));
    out.check(
        per_run_ok,
        "replayed runs deliver exactly the campaign's packets",
    );
    let noc_received: u64 = noc.packets_received.iter().sum();
    out.check(
        noc_received == received,
        "replayed packet total equals the report's",
    );

    // core + nn: the untraced and the traced training of the same model.
    let (core_sink, core_tel) = aggregate();
    let (session, plain) = match serve {
        Some((session, trained)) => (Some(session), trained),
        None => (None, ops::train(w, &check.samples, None)),
    };
    let rec = core_tel.recorder();
    let timed = ops::train(w, &check.samples, Some(rec.clone()));
    rec.flush();
    plain_s += plain.train_s;
    traced_s += timed.train_s;
    let losses = timed.final_losses();
    out.check(losses.is_some(), "final losses finite");
    out.check(
        losses == plain.final_losses() && timed.evaluation == plain.evaluation,
        "traced training equals the untraced one",
    );
    if let Some(entry) = campaign_report.evaluations.first() {
        out.check(
            entry.report == timed.evaluation,
            "traced training equals the eval entry",
        );
    }
    let (detect_acc, localize_acc) = ops::accuracies(&timed.evaluation);

    // core stages: offline batched analysis of every window.
    let export = timed.fence.export_model();
    let (stage_sink, stage_tel) = aggregate();
    let mut offline = dl2fence::Dl2Fence::from_export(export.clone());
    let det = export.config.detection_feature;
    let loc = export.config.localization_feature;
    let pairs: Vec<_> = check
        .samples
        .iter()
        .map(|s| {
            (
                dl2fence::input::sample_frames(s, det),
                dl2fence::input::sample_frames(s, loc),
            )
        })
        .collect();
    // One warm-up pass, then OFFLINE_PASSES timed ones.
    let reports = offline.analyze_frames_batch(&pairs);
    let stage_rec = stage_tel.recorder();
    offline.set_telemetry(stage_rec.clone());
    for _ in 0..OFFLINE_PASSES {
        offline.analyze_frames_batch(&pairs);
    }
    stage_rec.flush();
    let windows = reports.len().max(1) as f64;
    let flagged = reports.iter().filter(|r| r.detected).count();
    let passes = OFFLINE_PASSES as f64;
    let detect_us = trace::total_s(&stage_sink, "stage.detect") * 1e6 / windows / passes;
    let tail_s = ["stage.segment", "stage.fuse", "stage.localize"]
        .iter()
        .map(|n| trace::total_s(&stage_sink, n))
        .sum::<f64>();
    let localize_us = tail_s * 1e6 / flagged.max(1) as f64 / passes;

    // serve: a traced session (serve16: its own model and corpus; the
    // other workloads serve the traced model on their own windows).
    let offline_s: Vec<f64> = reports
        .iter()
        .map(|r| (detect_us + if r.detected { localize_us } else { 0.0 }) / 1e6)
        .collect();
    let mut session = match session {
        Some(session) => session,
        None => {
            let mut s = ServeSession::start(&export, &check.samples, mix(args.seed, 1));
            s.set_reference(reports.clone());
            s
        }
    };
    // Alternate plain and instrumented blocks; the instrumentation
    // accumulates across the instrumented ones.
    let mut totals = Some(ServeTrace {
        offline_s,
        ..ServeTrace::default()
    });
    let start = Instant::now();
    let mut blocks = 0;
    while blocks < 2 || start.elapsed().as_secs_f64() < half {
        let traced_block = blocks % 2 == 1;
        if traced_block {
            session.trace = totals.take();
        }
        let block_start = Instant::now();
        for _ in 0..ROUNDS_PER_BLOCK {
            session.round();
        }
        session.capacity_block();
        let secs = block_start.elapsed().as_secs_f64();
        if traced_block {
            traced_s += secs;
            totals = session.trace.take();
        } else {
            plain_s += secs;
        }
        blocks += 1;
    }
    let session = session.finish();
    out.ops(session.attempted, session.failed);

    let e = &mut out;
    e.metric(
        "noc.flood.router_cycles_per_s",
        rate(noc.flood_router_cycles, noc.flood.as_secs_f64()).unwrap_or(0.0),
        "1/s",
    );
    e.metric(
        "noc.light.router_cycles_per_s",
        rate(noc.light_router_cycles, noc.light.as_secs_f64()).unwrap_or(0.0),
        "1/s",
    );
    e.metric(
        "noc.ns_per_flit_hop",
        (noc.flood + noc.light).as_secs_f64() * 1e9 / noc.flit_hops.max(1) as f64,
        "ns",
    );
    e.metric("noc.flit_hops", noc.flit_hops as f64, "count");
    e.metric("noc.packets_received", noc_received as f64, "count");
    e.metric(
        "noc.packet_latency_cycles",
        noc.packet_latency_sum as f64 / noc.packet_latency_count.max(1) as f64,
        "cycles",
    );
    e.metric(
        "monitor.sample_us",
        noc.sample.as_secs_f64() * 1e6 / noc.samples.max(1) as f64,
        "us",
    );
    e.metric("campaign.run_ms", trace::mean_ms(&camp_sink, "run"), "ms");
    e.metric(
        "campaign.append_ms",
        trace::mean_ms(&camp_sink, "log.append"),
        "ms",
    );
    e.metric(
        "campaign.record_kb",
        layer.record_bytes as f64 / 1024.0 / runs.len().max(1) as f64,
        "KB",
    );
    e.metric("campaign.fold_ms", layer.fold_s * 1e3, "ms");
    e.metric("campaign.eval_s", layer.finish_s, "s");
    let model = w.model;
    e.metric(
        "core.train_sample_epochs_per_s",
        rate(
            (timed.train_samples * (model.detector_epochs + model.localizer_epochs)) as f64,
            timed.train_s,
        )
        .unwrap_or(0.0),
        "1/s",
    );
    let (dl, ll) = losses.unwrap_or((f32::NAN, f32::NAN));
    e.metric("core.detector_final_loss", f64::from(dl), "loss");
    e.metric("core.localizer_final_loss", f64::from(ll), "loss");
    e.metric("core.detect_acc", detect_acc, "ratio");
    e.metric("core.localize_acc", localize_acc, "ratio");
    e.metric("core.detect_us", detect_us, "us");
    e.metric("core.localize_us", localize_us, "us");
    e.metric("core.flagged_ratio", flagged as f64 / windows, "ratio");
    for (model, pass) in [
        ("detector", "fwd"),
        ("detector", "bwd"),
        ("localizer", "fwd"),
        ("localizer", "bwd"),
    ] {
        e.metric(
            &format!("nn.{model}.{pass}_s"),
            trace::nn_total_s(&core_sink, &format!("nn.{model}.{pass}.")),
            "s",
        );
    }
    for span in NN_SPANS {
        e.metric(
            &format!("{span}.total_s"),
            trace::total_s(&core_sink, span),
            "s",
        );
    }
    let recorded: Vec<String> = core_sink
        .histograms()
        .into_keys()
        .filter(|n| {
            n.starts_with("nn.")
                && !NN_SPANS.contains(&n.as_str())
                && !SUB_US_LAYERS.iter().any(|l| n.ends_with(l))
        })
        .collect();
    if !recorded.is_empty() {
        e.errors
            .push(format!("nn spans missing from NN_SPANS: {recorded:?}"));
    }
    let st = totals.expect("instrumented blocks ran");
    e.metric(
        "serve.ingest_us",
        st.ingest.as_secs_f64() * 1e6 / st.frames.max(1) as f64,
        "us",
    );
    e.metric(
        "serve.batch_windows",
        st.verdicts as f64 / st.batches.len().max(1) as f64,
        "count",
    );
    e.metric(
        "serve.wait_ms",
        st.wait.as_secs_f64() * 1e3 / st.rounds.max(1) as f64,
        "ms",
    );
    e.metric(
        "serve.overhead_ms",
        st.overhead_s * 1e3 / st.rounds.max(1) as f64,
        "ms",
    );
    e.metric("serve.verdicts", st.verdicts as f64, "count");
    e.metric(
        "telemetry.overhead_pct",
        (traced_s / plain_s.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
        "%",
    );
    e.note(format!(
        "exact: flit_hops {} packets_received {} losses {dl:?}/{ll:?} accs {detect_acc:?}/{localize_acc:?}",
        noc.flit_hops, noc_received
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::parse_value(&text).expect("BENCHMARK.json parses")
    }

    fn array<'a>(v: &'a serde::Value, key: &str) -> &'a [serde::Value] {
        match v.field(key) {
            Ok(serde::Value::Array(items)) => items,
            other => panic!("{key}: expected an array, got {other:?}"),
        }
    }

    fn string(v: &serde::Value, key: &str) -> String {
        match v.field(key) {
            Ok(serde::Value::Str(s)) => s.clone(),
            other => panic!("{key}: expected a string, got {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let json = benchmark_json();
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let listed: Vec<(String, String)> = array(&json, key)
                .iter()
                .map(|m| (string(m, "name"), string(m, "unit")))
                .collect();
            let emitted: Vec<(String, String)> = declared(trace)
                .into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect();
            assert_eq!(listed, emitted, "{key}");
        }
        let workloads: Vec<String> = array(&json, "workloads")
            .iter()
            .map(|w| string(w, "name"))
            .collect();
        assert_eq!(workloads, workload::NAMES);
    }

    #[test]
    fn declared_metric_names_are_valid_and_unique() {
        let mut all: Vec<String> = declared(false)
            .into_iter()
            .chain(declared(true))
            .map(|(n, _)| n)
            .collect();
        assert!(all.iter().all(|n| stats::valid_metric_name(n)), "{all:?}");
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "duplicate metric names");
    }

    /// Runs `workload` untraced and traced with the shortest timed phase
    /// and checks both emit exactly their declared metrics, correctly.
    fn runs_clean(workload: &str) {
        for trace in [false, true] {
            let args = Args {
                workload: workload.to_string(),
                seed: 3,
                seconds: 0.01,
                trace,
            };
            let out = run(&args).expect("workload runs");
            assert!(out.errors.is_empty(), "{workload}: {:?}", out.errors);
            assert!(out.correct(), "{workload}: {:?}", out.notes);
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names.len(), declared(trace).len(), "{workload}: {names:?}");
        }
    }

    #[test]
    fn sim16_emits_every_declared_metric() {
        runs_clean("sim16");
    }

    #[test]
    fn train8_emits_every_declared_metric() {
        runs_clean("train8");
    }

    #[test]
    fn serve16_emits_every_declared_metric() {
        runs_clean("serve16");
    }

    #[test]
    fn unknown_workloads_are_refused() {
        let args = Args {
            workload: "nope".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
        };
        assert!(run(&args).is_err());
    }
}
