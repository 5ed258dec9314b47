//! Soak harness: replays campaign traffic through a live service and
//! proves the serving layer changes nothing.
//!
//! The campaign engine is the load generator — a [`CampaignSpec`] expands
//! into simulated runs whose labeled samples become the frame stream. The
//! harness then:
//!
//! 1. trains a pipeline on the generated samples and installs it,
//! 2. forces deterministic backpressure (pause → overfill one tenant's
//!    ring → exactly one counted rejection → replay after drain),
//! 3. streams the remaining windows across tenants, hot-swapping mid-stream
//!    to a second pipeline trained with the next seed,
//! 4. audits every verdict: each batch must have run one model version,
//!    and each report must equal [`Dl2Fence::analyze_frames`] on that
//!    version's model (a report does not depend on what else shared its
//!    batch),
//! 5. checks the accounting identity (nothing lost, nothing silently
//!    dropped) and the latency SLO.
//!
//! Violations are collected in [`SoakReport::failures`] rather than
//! panicking, so the CI smoke job can print the full report before
//! failing.

use crate::assembler::RejectReason;
use crate::model::ModelBundle;
use crate::service::{DetectionService, ServeConfig};
use crate::status::ServeStatus;
use dl2fence::input::sample_frames;
use dl2fence::{Dl2Fence, FenceConfig};
use dl2fence_campaign::{require_mesh, CampaignSpec, Executor};
use noc_monitor::{FeatureFrame, FeatureKind, LabeledSample};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Soak run configuration.
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// The campaign that generates the traffic and training corpus. Its
    /// first topology (from `grid.topology` or the `grid.mesh` alias)
    /// defines the served shape and must be a mesh; `sim.collect_samples`
    /// is forced on.
    pub spec: CampaignSpec,
    /// Service tuning (worker pool, batch size, ring capacity, tenants).
    pub config: ServeConfig,
    /// Tenant sessions to spread the stream across (≤ `config.max_tenants`).
    pub tenants: usize,
    /// Hot-swap halfway through the stream to a pipeline trained with the
    /// next seed.
    pub swap_mid_stream: bool,
    /// End-to-end p99 SLO in microseconds.
    pub max_p99_e2e_us: u64,
    /// Campaign executor workers for the load-generation phase.
    pub sim_workers: usize,
}

impl Default for SoakOptions {
    fn default() -> Self {
        SoakOptions {
            spec: CampaignSpec::quick("serve-soak"),
            config: ServeConfig::default(),
            tenants: 3,
            swap_mid_stream: true,
            max_p99_e2e_us: 2_000_000,
            sim_workers: 2,
        }
    }
}

/// What a soak run proved (or didn't).
#[derive(Debug)]
pub struct SoakReport {
    /// Final service status after clean shutdown.
    pub status: ServeStatus,
    /// Windows accepted into rings over the whole run.
    pub windows_streamed: usize,
    /// Verdicts audited for bit-identical parity against offline replicas.
    pub verdicts_audited: usize,
    /// Backpressure rejections deliberately forced (and counted).
    pub forced_rejections: u64,
    /// The version installed by the mid-stream swap, when one happened.
    pub swap_version: Option<u64>,
    /// Wall-clock of the serving phase (excludes simulation + training).
    pub serve_wall_us: u64,
    /// Every violated invariant, empty on success.
    pub failures: Vec<String>,
}

impl SoakReport {
    /// `true` when every invariant held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the report as a human-readable screen.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "soak: {} — {} windows streamed, {} verdicts audited, {} forced rejection(s), swap {}",
            if self.passed() { "PASS" } else { "FAIL" },
            self.windows_streamed,
            self.verdicts_audited,
            self.forced_rejections,
            match self.swap_version {
                Some(v) => format!("→ v{v}"),
                None => "skipped".to_string(),
            },
        );
        for f in &self.failures {
            let _ = writeln!(out, "  FAIL: {f}");
        }
        out.push_str(&self.status.render());
        out
    }
}

/// The frames of one window in ingest order: the detection bundle's four
/// directions, then (for two-feature configs) the localization bundle's.
fn window_frames(sample: &LabeledSample, det: FeatureKind, loc: FeatureKind) -> Vec<FeatureFrame> {
    let mut frames = sample_frames(sample, det).clone().into_frames();
    if det != loc {
        frames.extend(sample_frames(sample, loc).clone().into_frames());
    }
    frames
}

/// Streams one window into the service, returning the completing frame's
/// outcome (`Ok(seq)` or the rejection reason).
fn ingest_window(
    service: &DetectionService,
    tenant: u64,
    sample: &LabeledSample,
    det: FeatureKind,
    loc: FeatureKind,
) -> Result<u64, RejectReason> {
    let mut last = Ok(None);
    for frame in window_frames(sample, det, loc) {
        last = service.ingest(tenant, frame);
    }
    match last {
        Ok(Some(seq)) => Ok(seq),
        Ok(None) => unreachable!("a full window always completes or rejects"),
        Err(reason) => Err(reason),
    }
}

/// Runs the full soak. See the module docs for the phases.
///
/// # Errors
///
/// Returns an error string when the soak cannot run (zero tenants or more
/// than `config.max_tenants`, invalid spec, zero runs, no samples) —
/// *invariant violations* during serving are reported in
/// [`SoakReport::failures`] instead.
#[allow(clippy::too_many_lines)]
pub fn run_soak(options: &SoakOptions) -> Result<SoakReport, String> {
    let max_tenants = options.config.max_tenants;
    if options.tenants == 0 || options.tenants > max_tenants {
        return Err(format!(
            "the soak needs 1 to {max_tenants} tenants (config.max_tenants), got {}",
            options.tenants
        ));
    }
    let mut failures: Vec<String> = Vec::new();

    // ---- Load generation: the campaign engine produces the traffic. ----
    let mut spec = options.spec.clone();
    spec.sim.collect_samples = true;
    // One served shape per soak, whichever axis the spec used.
    spec.grid.topology.truncate(1);
    spec.grid.mesh.truncate(1);
    let topology = spec.resolved_topologies().map_err(|e| e.to_string())?[0];
    require_mesh(&topology).map_err(|e| e.to_string())?;
    let outcome = Executor::new(options.sim_workers)
        .execute(&spec)
        .map_err(|e| e.to_string())?;
    let samples: Vec<LabeledSample> = outcome.runs.into_iter().flat_map(|r| r.samples).collect();
    if samples.is_empty() {
        return Err("campaign produced no samples (zero runs?)".to_string());
    }

    // ---- Train the pipeline the service will serve. ----
    let fence_cfg = spec
        .eval
        .fence_config(topology.rows(), topology.cols(), spec.grid.seeds[0])
        .map_err(|e| e.to_string())?;
    let (det_kind, loc_kind) = (fence_cfg.detection_feature, fence_cfg.localization_feature);
    let train = |config: FenceConfig| {
        let mut fence = Dl2Fence::new(config);
        fence.train(&samples);
        fence.export_model()
    };
    let initial = train(fence_cfg);
    // The swap installs a pipeline trained with the next seed: pre- and
    // post-swap verdicts come from different weights, so a verdict that ran
    // the wrong version fails the audit.
    let swapped = options
        .swap_mid_stream
        .then(|| train(fence_cfg.with_seed(fence_cfg.seed + 1)));

    // Version → offline pipeline, for the audit. v1 exists only if we swap.
    let mut offline: BTreeMap<u64, Dl2Fence> = BTreeMap::new();
    offline.insert(0, Dl2Fence::from_export(initial.clone()));

    // ---- Serve. ----
    let serve_start = Instant::now();
    let service = DetectionService::new(options.config, ModelBundle::f32_only(initial));
    let tenants = options.tenants as u64;

    // (tenant, seq) → index of the sample whose frames built that window,
    // so every verdict can be traced back to its input.
    let mut window_source: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    let mut windows_streamed = 0usize;

    // Phase A — deterministic backpressure: with batching paused, tenant 0
    // can absorb exactly `queue_capacity` windows; one more must be
    // rejected with QueueFull, and a replay after draining must succeed.
    let capacity = options.config.queue_capacity;
    service.pause();
    for i in 0..capacity {
        let sample = &samples[i % samples.len()];
        match ingest_window(&service, 0, sample, det_kind, loc_kind) {
            Ok(seq) => {
                window_source.insert((0, seq), i % samples.len());
                windows_streamed += 1;
            }
            Err(r) => failures.push(format!(
                "backpressure: window {i} rejected ({r}) below ring capacity {capacity}"
            )),
        }
    }
    let overflow_sample = capacity % samples.len();
    let forced_rejections =
        match ingest_window(&service, 0, &samples[overflow_sample], det_kind, loc_kind) {
            Err(RejectReason::QueueFull) => 1,
            other => {
                failures.push(format!(
                    "backpressure: overfull ring answered {other:?}, expected Err(queue_full)"
                ));
                0
            }
        };
    service.resume();
    service.drain_until_idle();
    // The ring has drained: the rejected window replays successfully.
    match ingest_window(&service, 0, &samples[overflow_sample], det_kind, loc_kind) {
        Ok(seq) => {
            window_source.insert((0, seq), overflow_sample);
            windows_streamed += 1;
        }
        Err(r) => failures.push(format!("backpressure: replay after drain rejected ({r})")),
    }

    // Phase B — stream every sample across the tenants, swapping halfway.
    let mut swap_version = None;
    let swap_at = samples.len() / 2;
    for (i, sample) in samples.iter().enumerate() {
        if let Some(export) = swapped.as_ref().filter(|_| i == swap_at) {
            service.drain_until_idle(); // pre-swap verdicts are all v0
            let v = service.swap_model(export.clone());
            offline.insert(v, Dl2Fence::from_export(export.clone()));
            swap_version = Some(v);
        }
        let tenant = i as u64 % tenants;
        match ingest_window(&service, tenant, sample, det_kind, loc_kind) {
            Ok(seq) => {
                window_source.insert((tenant, seq), i);
                windows_streamed += 1;
            }
            Err(RejectReason::QueueFull) => {
                // Live backpressure: drain and replay — rejected, never lost.
                service.drain_until_idle();
                match ingest_window(&service, tenant, sample, det_kind, loc_kind) {
                    Ok(seq) => {
                        window_source.insert((tenant, seq), i);
                        windows_streamed += 1;
                    }
                    Err(r) => failures.push(format!("stream: replay of window {i} rejected ({r})")),
                }
            }
            Err(r) => failures.push(format!("stream: window {i} rejected ({r})")),
        }
    }
    service.drain_until_idle();
    let verdicts = service.take_verdicts();
    let status = service.shutdown();
    let serve_wall_us = u64::try_from(serve_start.elapsed().as_micros()).unwrap_or(u64::MAX);

    // ---- Audit: accounting identity. ----
    if verdicts.len() != windows_streamed {
        failures.push(format!(
            "accounting: {} windows accepted but {} verdicts produced",
            windows_streamed,
            verdicts.len()
        ));
    }
    if status.queued != 0 || status.in_flight != 0 {
        failures.push(format!(
            "shutdown leak: {} queued / {} in flight after drain",
            status.queued, status.in_flight
        ));
    }
    if status.rejected_for("queue_full") < forced_rejections {
        failures.push("accounting: forced rejection not counted".to_string());
    }
    if options.swap_mid_stream {
        if status.swaps != 1 {
            failures.push(format!(
                "swap: expected 1 swap, status shows {}",
                status.swaps
            ));
        }
        if swap_version.is_some() && !verdicts.iter().any(|v| v.model_version > 0) {
            failures.push("swap: no post-swap verdicts observed".to_string());
        }
    }
    match &status.e2e {
        None => failures.push("SLO: e2e histogram is empty".to_string()),
        Some(e2e) => {
            if e2e.count != verdicts.len() as u64 {
                failures.push(format!(
                    "SLO: e2e histogram holds {} observations for {} verdicts",
                    e2e.count,
                    verdicts.len()
                ));
            }
            if e2e.p99_us > options.max_p99_e2e_us {
                failures.push(format!(
                    "SLO: e2e p99 {}µs exceeds budget {}µs",
                    e2e.p99_us, options.max_p99_e2e_us
                ));
            }
        }
    }

    // ---- Audit: version purity + bit-identical parity vs offline. ----
    // Every batch ran one model version...
    let mut batch_versions: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for v in &verdicts {
        batch_versions
            .entry(v.batch)
            .or_default()
            .insert(v.model_version);
    }
    for (batch, versions) in &batch_versions {
        if versions.len() > 1 {
            failures.push(format!(
                "purity: batch {batch} mixes model versions {versions:?}"
            ));
        }
    }
    // ...and every report equals the plain offline single-window API on
    // that version's model: the service layer adds nothing to the paper
    // pipeline.
    let mut verdicts_audited = 0usize;
    for v in &verdicts {
        let Some(fence) = offline.get_mut(&v.model_version) else {
            failures.push(format!(
                "purity: batch {} ran unknown version {}",
                v.batch, v.model_version
            ));
            continue;
        };
        let idx = window_source[&(v.tenant, v.seq)];
        let expected = fence.analyze_frames(
            sample_frames(&samples[idx], det_kind),
            sample_frames(&samples[idx], loc_kind),
        );
        if v.report != expected {
            failures.push(format!(
                "parity: tenant {} window {} (batch {}, v{}) differs from offline analyze_frames",
                v.tenant, v.seq, v.batch, v.model_version
            ));
        }
        verdicts_audited += 1;
    }

    Ok(SoakReport {
        status,
        windows_streamed,
        verdicts_audited,
        forced_rejections,
        swap_version,
        serve_wall_us,
        failures,
    })
}
