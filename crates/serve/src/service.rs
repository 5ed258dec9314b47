//! The threaded detection service: a worker pool around [`ServeEngine`],
//! with atomic model hot-swap and SLO telemetry.
//!
//! Threading model — one queue, one lock:
//!
//! - Callers ingest frames under the state mutex (cheap: ring pushes).
//! - `config.workers` worker threads wait on that same mutex. A free
//!   worker drains up to `batch_windows` assembled windows round-robin
//!   from the engine, counts them in flight, takes the next batch id and
//!   clones the `Arc` of the model bundle installed at that moment — all
//!   under one lock — then unlocks and runs detection (+ the localization
//!   tail on flagged windows only). A batch forms only when a worker is
//!   free, so under load batches grow towards `batch_windows`.
//! - The worker keeps its pipeline across batches and rebuilds it only
//!   when the captured bundle's version differs, then records verdicts
//!   and counters in one more lock acquisition.
//!
//! Because each batch captures its bundle when it is drained,
//! [`DetectionService::swap_model`] is atomic from the pipeline's point of
//! view: batches already taken finish on the version they captured, later
//! batches (including windows queued before the swap) see the new one,
//! and no batch ever mixes versions. Nothing is dropped across a swap.

use crate::assembler::RejectReason;
use crate::engine::ServeEngine;
use crate::model::ModelBundle;
use crate::status::{RejectCount, ServeStatus, STATUS_SCHEMA};
use dl2fence::pipeline::FenceReport;
use dl2fence::Dl2Fence;
use dl2fence_campaign::StageTiming;
use dl2fence_telemetry::{AggregateSink, Telemetry};
use noc_monitor::{DirectionalFrames, FeatureFrame};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Tuning knobs for a [`DetectionService`]. Mesh shape and feature kinds
/// are not here — they come from the installed model's
/// [`FenceConfig`](dl2fence::FenceConfig), so the service can never accept
/// frames its model cannot analyse.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Per-tenant ready-window ring capacity (backpressure bound).
    pub queue_capacity: usize,
    /// Maximum concurrent tenant sessions.
    pub max_tenants: usize,
    /// Worker threads, each running its own pipeline.
    pub workers: usize,
    /// Maximum windows per batch.
    pub batch_windows: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 16,
            max_tenants: 8,
            workers: 2,
            batch_windows: 8,
        }
    }
}

/// One analysed window: the pipeline report plus enough provenance to
/// audit it offline — which tenant/window it answers, which batch carried
/// it, and which model version produced it. The soak harness checks that
/// every batch is version-pure and that every report equals
/// [`Dl2Fence::analyze_frames`] on that version's model.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The owning tenant.
    pub tenant: u64,
    /// The tenant's window sequence number.
    pub seq: u64,
    /// The batch that carried this window.
    pub batch: u64,
    /// The model version that produced the verdict.
    pub model_version: u64,
    /// The pipeline's report for the window.
    pub report: FenceReport,
}

/// Mutable state guarded by the service mutex.
struct State {
    engine: ServeEngine,
    bundle: Arc<ModelBundle>,
    paused: bool,
    shutdown: bool,
    /// Windows taken by workers whose verdicts are not yet recorded.
    in_flight: usize,
    next_batch: u64,
    swaps: u64,
    /// Verdicts recorded since the last [`DetectionService::take_verdicts`].
    verdicts: Vec<Verdict>,
    verdict_count: u64,
    flagged_count: u64,
}

struct Inner {
    state: Mutex<State>,
    /// Signalled when work arrives, the service unpauses, or shuts down.
    wake: Condvar,
    /// Signalled when a batch completes (for [`DetectionService::drain_until_idle`]).
    idle: Condvar,
    sink: Arc<AggregateSink>,
    telemetry: Telemetry,
}

impl Inner {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("serve state poisoned")
    }
}

/// A running multi-tenant detection service.
pub struct DetectionService {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl DetectionService {
    /// Starts a service serving `bundle` with the given tuning. Spawns
    /// exactly `config.workers` worker threads immediately.
    ///
    /// # Panics
    ///
    /// Panics if any `config` knob is zero.
    pub fn new(config: ServeConfig, bundle: ModelBundle) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.batch_windows > 0, "batches must hold windows");
        let sink = Arc::new(AggregateSink::new());
        let telemetry =
            Telemetry::with_sink(sink.clone() as Arc<dyn dl2fence_telemetry::TelemetrySink>);
        let fence_cfg = bundle.fence.config;
        let engine = ServeEngine::new(
            fence_cfg.rows,
            fence_cfg.cols,
            fence_cfg.detection_feature,
            fence_cfg.localization_feature,
            config.queue_capacity,
            config.max_tenants,
        );
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                engine,
                bundle: Arc::new(bundle),
                paused: false,
                shutdown: false,
                in_flight: 0,
                next_batch: 0,
                swaps: 0,
                verdicts: Vec::new(),
                verdict_count: 0,
                flagged_count: 0,
            }),
            wake: Condvar::new(),
            idle: Condvar::new(),
            sink,
            telemetry,
        });
        let workers = (0..config.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner, config.batch_windows))
            })
            .collect();
        DetectionService { inner, workers }
    }

    /// Ingests one frame for `tenant`. Mirrors [`ServeEngine::ingest`]:
    /// `Ok(Some(seq))` when a window completed (a waiting worker is woken),
    /// `Err(reason)` on explicit rejection.
    pub fn ingest(&self, tenant: u64, frame: FeatureFrame) -> Result<Option<u64>, RejectReason> {
        let outcome = self.inner.lock().engine.ingest(tenant, frame);
        if matches!(outcome, Ok(Some(_))) {
            self.inner.wake.notify_one();
        }
        outcome
    }

    /// Pauses batching: ingestion keeps filling the rings, workers finish
    /// batches already taken, but no new batch is formed. Used by the soak
    /// harness to exercise backpressure deterministically.
    pub fn pause(&self) {
        self.inner.lock().paused = true;
    }

    /// Resumes batching after [`Self::pause`].
    pub fn resume(&self) {
        self.inner.lock().paused = false;
        self.inner.wake.notify_all();
    }

    /// Atomically installs a new model. Returns the version assigned to it
    /// (monotonically increasing). Batches already taken finish on the old
    /// version; every batch formed after this call sees the new one.
    /// No frame — queued or in flight — is dropped.
    pub fn swap_model(&self, fence: dl2fence::FenceModelExport) -> u64 {
        let mut state = self.inner.lock();
        let version = state.bundle.version + 1;
        state.bundle = Arc::new(ModelBundle { fence, version });
        state.swaps += 1;
        version
    }

    /// Blocks until every queued and in-flight window has a verdict (or the
    /// service is shut down). Do not call while paused with queued windows
    /// — the queue cannot drain.
    pub fn drain_until_idle(&self) {
        let mut state = self.inner.lock();
        while !state.shutdown && (state.engine.queued() > 0 || state.in_flight > 0) {
            state = self.inner.idle.wait(state).expect("serve state poisoned");
        }
    }

    /// Takes all verdicts recorded since the previous call, in completion
    /// order.
    pub fn take_verdicts(&self) -> Vec<Verdict> {
        std::mem::take(&mut self.inner.lock().verdicts)
    }

    /// Snapshots the service: accounting, model identity, and the
    /// end-to-end / per-stage latency histograms.
    pub fn status(&self) -> ServeStatus {
        let state = self.inner.lock();
        let counters = state.engine.counters();
        let mut rejected: Vec<RejectCount> = RejectReason::ALL
            .iter()
            .map(|r| RejectCount {
                reason: r.name().to_string(),
                count: counters.rejected_for(*r),
            })
            .collect();
        rejected.retain(|r| r.count > 0);
        let mut status = ServeStatus {
            schema: STATUS_SCHEMA.to_string(),
            tenants: state.engine.tenants(),
            ingested_frames: counters.ingested_frames,
            assembled_windows: counters.assembled_windows,
            rejected,
            rejected_total: counters.rejected_total(),
            queued: state.engine.queued(),
            in_flight: state.in_flight,
            verdicts: state.verdict_count,
            flagged: state.flagged_count,
            model_version: state.bundle.version,
            model_fingerprint: state.bundle.fingerprint(),
            swaps: state.swaps,
            e2e: None,
            stages: Vec::new(),
        };
        drop(state);
        let hists = self.inner.sink.histograms();
        status.e2e = hists
            .get("serve.e2e")
            .filter(|h| !h.is_empty())
            .map(|h| StageTiming::from_histogram("serve.e2e", h));
        status.stages = hists
            .iter()
            .filter(|(name, h)| name.starts_with("stage.") && !h.is_empty())
            .map(|(name, h)| StageTiming::from_histogram(name, h))
            .collect();
        status
    }

    /// Stops the service: unpauses, lets workers finish every queued and
    /// in-flight window, then joins all threads. Returns the final status
    /// so callers can assert the no-loss accounting identity.
    pub fn shutdown(mut self) -> ServeStatus {
        self.stop();
        self.status()
    }

    /// Unpauses, flags shutdown and joins every worker; the workers exit
    /// once the rings are empty. Idempotent, so `Drop` after
    /// [`Self::shutdown`] is a no-op.
    fn stop(&mut self) {
        let mut state = self.inner.lock();
        state.shutdown = true;
        state.paused = false;
        drop(state);
        self.inner.wake.notify_all();
        self.inner.idle.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for DetectionService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Takes batches straight from the engine, keeps its pipeline hot across
/// same-version batches, and records verdicts + latencies. Returns once
/// the service is shut down and the rings are empty.
fn worker_loop(inner: &Inner, batch_windows: usize) {
    let recorder = inner.telemetry.recorder();
    let mut pipeline: Option<(u64, Dl2Fence)> = None;
    loop {
        let (id, bundle, windows) = {
            let mut state = inner.lock();
            loop {
                if !state.paused && state.engine.queued() > 0 {
                    break;
                }
                if state.shutdown && state.engine.queued() == 0 {
                    return;
                }
                state = inner.wake.wait(state).expect("serve state poisoned");
            }
            let windows = state.engine.drain(batch_windows);
            state.in_flight += windows.len();
            let id = state.next_batch;
            state.next_batch += 1;
            (id, Arc::clone(&state.bundle), windows)
        };
        // Rebuild only on version change — the common path re-uses the
        // cached pipeline, so a hot-swap costs one rebuild per worker.
        if pipeline.as_ref().map(|(v, _)| *v) != Some(bundle.version) {
            let mut fence = Dl2Fence::from_export(bundle.fence.clone());
            fence.set_telemetry(recorder.clone());
            pipeline = Some((bundle.version, fence));
        }
        let fence = &mut pipeline.as_mut().expect("just installed").1;
        let now = Instant::now();
        for w in &windows {
            let waited = now.saturating_duration_since(w.assembled_at);
            recorder.record_us(
                "serve.queue_wait",
                u64::try_from(waited.as_micros()).unwrap_or(u64::MAX),
            );
        }
        // Detection runs batched; only flagged windows pay the
        // segment → fuse → localize tail.
        let pairs: Vec<(&DirectionalFrames, &DirectionalFrames)> = windows
            .iter()
            .map(|w| (&w.detection, &w.localization))
            .collect();
        let reports = fence.analyze_frames_batch(&pairs);
        let done = Instant::now();
        for w in &windows {
            let e2e = done.saturating_duration_since(w.assembled_at);
            recorder.record_us(
                "serve.e2e",
                u64::try_from(e2e.as_micros()).unwrap_or(u64::MAX),
            );
        }
        recorder.flush();
        let flagged = reports.iter().filter(|r| r.detected).count();
        let verdicts = windows.iter().zip(reports).map(|(w, report)| Verdict {
            tenant: w.tenant,
            seq: w.seq,
            batch: id,
            model_version: bundle.version,
            report,
        });
        let mut state = inner.lock();
        state.in_flight -= windows.len();
        state.verdict_count += windows.len() as u64;
        state.flagged_count += flagged as u64;
        state.verdicts.extend(verdicts);
        drop(state);
        inner.idle.notify_all();
    }
}
