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
//! 3. streams the remaining windows across tenants, hot-swapping the
//!    model mid-stream,
//! 4. audits every verdict against an offline replica fed the *same batch
//!    compositions* (int8 results depend on composition, so the audit
//!    replays batches, not windows), plus a per-window
//!    [`Dl2Fence::analyze_frames`] check on f32 batches,
//! 5. checks the accounting identity (nothing lost, nothing silently
//!    dropped) and the latency SLO.
//!
//! Violations are collected in [`SoakReport::failures`] rather than
//! panicking, so the CI smoke job can print the full report before
//! failing.

use crate::assembler::{AssembledWindow, RejectReason};
use crate::model::ModelBundle;
use crate::replica::{PipelineReplica, Verdict};
use crate::service::{DetectionService, ServeConfig};
use crate::status::ServeStatus;
use dl2fence::input::sample_frames;
use dl2fence::{Dl2Fence, FenceConfig};
use dl2fence_campaign::spec::parse_feature;
use dl2fence_campaign::{require_mesh, CampaignSpec, Executor};
use noc_monitor::{FeatureFrame, FeatureKind, LabeledSample};
use std::collections::BTreeMap;
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
    /// Serve the fused int8 detector (the swap then installs the f32
    /// pipeline, and vice versa — the swap always crosses precisions so it
    /// is observable).
    pub quantized: bool,
    /// Hot-swap the model halfway through the stream.
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
            quantized: false,
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
/// Returns an error string when the campaign itself cannot run (invalid
/// spec, zero runs, no samples) — *invariant violations* during serving are
/// reported in [`SoakReport::failures`] instead.
#[allow(clippy::too_many_lines)]
pub fn run_soak(options: &SoakOptions) -> Result<SoakReport, String> {
    let mut failures: Vec<String> = Vec::new();

    // ---- Load generation: the campaign engine produces the traffic. ----
    let mut spec = options.spec.clone();
    spec.sim.collect_samples = true;
    // One served shape per soak, whichever axis the spec used.
    spec.grid.topology.truncate(1);
    spec.grid.mesh.truncate(1);
    let topology = spec.resolved_topologies().map_err(|e| e.to_string())?[0];
    require_mesh(&topology).map_err(|e| e.to_string())?;
    let outcome = Executor::new(options.sim_workers.max(1))
        .execute(&spec)
        .map_err(|e| e.to_string())?;
    let samples: Vec<LabeledSample> = outcome.runs.into_iter().flat_map(|r| r.samples).collect();
    if samples.is_empty() {
        return Err("campaign produced no samples (zero runs?)".to_string());
    }

    // ---- Train the pipeline the service will serve. ----
    let det_kind = parse_feature(&spec.eval.detection_feature).map_err(|e| e.to_string())?;
    let loc_kind = parse_feature(&spec.eval.localization_feature).map_err(|e| e.to_string())?;
    let fence_cfg = FenceConfig {
        detection_feature: det_kind,
        localization_feature: loc_kind,
        ..FenceConfig::new(topology.rows(), topology.cols())
            .with_epochs(spec.eval.detector_epochs, spec.eval.localizer_epochs)
    };
    let mut fence = Dl2Fence::new(fence_cfg);
    fence.train(&samples);
    let export = fence.export_model();
    let quant_export = fence.detector().quantize().export();

    // The swap always crosses precisions so pre/post-swap batches are
    // distinguishable by more than the version number.
    let (initial, swapped) = if options.quantized {
        (
            ModelBundle::quantized(export.clone(), quant_export.clone()),
            ModelBundle::f32_only(export.clone()),
        )
    } else {
        (
            ModelBundle::f32_only(export.clone()),
            ModelBundle::quantized(export.clone(), quant_export.clone()),
        )
    };

    // Version → bundle, for the offline audit. v1 exists only if we swap.
    let mut bundles: BTreeMap<u64, ModelBundle> = BTreeMap::new();
    bundles.insert(0, initial.clone());

    // ---- Serve. ----
    let serve_start = Instant::now();
    let service = DetectionService::new(options.config, initial);
    let tenants = options.tenants.clamp(1, options.config.max_tenants) as u64;

    // (tenant, seq) → index of the sample whose frames built that window,
    // so every verdict can be traced back to its input.
    let mut window_source: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    let mut windows_streamed = 0usize;

    // Phase A — deterministic backpressure: with dispatch paused, tenant 0
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
        if options.swap_mid_stream && i == swap_at {
            service.drain_until_idle(); // pre-swap verdicts are all v0
            let v = service.swap_model(swapped.fence.clone(), swapped.quant.clone());
            bundles.insert(
                v,
                ModelBundle {
                    version: v,
                    ..swapped.clone()
                },
            );
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
    // Group verdicts back into the exact batches the workers saw.
    let mut batches: BTreeMap<u64, Vec<&Verdict>> = BTreeMap::new();
    for v in &verdicts {
        batches.entry(v.batch).or_default().push(v);
    }
    let mut replicas: BTreeMap<u64, PipelineReplica> = BTreeMap::new();
    let mut offline_f32 = Dl2Fence::from_export(export.clone());
    let mut verdicts_audited = 0usize;
    for (batch_id, mut group) in batches {
        group.sort_by_key(|v| v.position);
        let version = group[0].model_version;
        if group.iter().any(|v| v.model_version != version) {
            failures.push(format!("purity: batch {batch_id} mixes model versions"));
            continue;
        }
        let Some(bundle) = bundles.get(&version) else {
            failures.push(format!(
                "purity: batch {batch_id} ran unknown version {version}"
            ));
            continue;
        };
        // Rebuild the batch's windows in dispatch order from the traced
        // samples — same composition, same order, so even the
        // composition-dependent int8 path must reproduce bit-identically.
        let windows: Vec<AssembledWindow> = group
            .iter()
            .map(|v| {
                let idx = window_source[&(v.tenant, v.seq)];
                AssembledWindow {
                    tenant: v.tenant,
                    seq: v.seq,
                    detection: sample_frames(&samples[idx], det_kind).clone(),
                    localization: sample_frames(&samples[idx], loc_kind).clone(),
                    assembled_at: Instant::now(),
                }
            })
            .collect();
        let replica = replicas
            .entry(version)
            .or_insert_with(|| PipelineReplica::build(bundle));
        let offline = replica.process(batch_id, &windows);
        for (live, off) in group.iter().zip(&offline) {
            if live.report != off.report {
                failures.push(format!(
                    "parity: tenant {} window {} (batch {batch_id}, v{version}) differs from offline replica",
                    live.tenant, live.seq
                ));
            }
            verdicts_audited += 1;
        }
        // f32 batches additionally match the plain offline single-window
        // API — the service layer adds nothing to the paper pipeline.
        if !bundle.is_quantized() {
            for v in &group {
                let idx = window_source[&(v.tenant, v.seq)];
                let expected = offline_f32.analyze_frames(
                    sample_frames(&samples[idx], det_kind),
                    sample_frames(&samples[idx], loc_kind),
                );
                if v.report != expected {
                    failures.push(format!(
                        "parity: tenant {} window {} differs from offline analyze_frames",
                        v.tenant, v.seq
                    ));
                }
            }
        }
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
