//! The threaded detection service: dispatcher + worker pool around
//! [`ServeEngine`], with atomic model hot-swap and SLO telemetry.
//!
//! Threading model:
//!
//! - Callers ingest frames under the state mutex (cheap: ring pushes).
//! - One dispatcher thread drains assembled windows round-robin into
//!   batches and sends each batch — together with an `Arc` of the model
//!   bundle captured *at dispatch* — over a channel.
//! - N worker threads pull batches, rebuild their cached
//!   [`PipelineReplica`] when the captured bundle's version differs, and
//!   run detection (+ the localization tail on flagged windows only).
//!
//! Because the bundle travels with the batch, [`DetectionService::swap_model`]
//! is atomic from the pipeline's point of view: in-flight batches finish on
//! the version they captured, later batches see the new one, and no batch
//! ever mixes versions. Nothing is dropped across a swap.

use crate::assembler::{AssembledWindow, RejectReason};
use crate::engine::ServeEngine;
use crate::model::ModelBundle;
use crate::replica::{PipelineReplica, Verdict};
use crate::status::{LatencySummary, RejectCount, ServeStatus, STATUS_SCHEMA};
use dl2fence_telemetry::{AggregateSink, Telemetry};
use noc_monitor::FeatureFrame;
use std::sync::mpsc;
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
    /// Worker threads running pipeline replicas.
    pub workers: usize,
    /// Maximum windows per dispatched batch.
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

/// Mutable state guarded by the service mutex.
struct State {
    engine: ServeEngine,
    bundle: Arc<ModelBundle>,
    paused: bool,
    shutdown: bool,
    /// Windows handed to workers whose verdicts are not yet recorded.
    in_flight: usize,
    next_batch: u64,
    swaps: u64,
    verdict_count: u64,
    flagged_count: u64,
}

struct Batch {
    id: u64,
    bundle: Arc<ModelBundle>,
    windows: Vec<AssembledWindow>,
}

struct Inner {
    state: Mutex<State>,
    /// Signalled when work arrives, the service unpauses, or shuts down.
    wake: Condvar,
    /// Signalled when a batch completes (for [`DetectionService::drain_until_idle`]).
    idle: Condvar,
    sink: Arc<AggregateSink>,
    telemetry: Telemetry,
    verdicts: Mutex<Vec<Verdict>>,
}

/// A running multi-tenant detection service.
pub struct DetectionService {
    inner: Arc<Inner>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl DetectionService {
    /// Starts a service serving `bundle` with the given tuning. Spawns the
    /// dispatcher and `config.workers` worker threads immediately.
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
                verdict_count: 0,
                flagged_count: 0,
            }),
            wake: Condvar::new(),
            idle: Condvar::new(),
            sink,
            telemetry,
            verdicts: Mutex::new(Vec::new()),
        });

        let (tx, rx) = mpsc::channel::<Batch>();
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let inner = Arc::clone(&inner);
            let rx = Arc::clone(&rx);
            workers.push(std::thread::spawn(move || worker_loop(inner, rx)));
        }
        let dispatcher = {
            let inner = Arc::clone(&inner);
            let batch_windows = config.batch_windows;
            std::thread::spawn(move || dispatcher_loop(inner, tx, batch_windows))
        };

        DetectionService {
            inner,
            dispatcher: Some(dispatcher),
            workers,
        }
    }

    /// Ingests one frame for `tenant`. Mirrors [`ServeEngine::ingest`]:
    /// `Ok(Some(seq))` when a window completed (the dispatcher is woken),
    /// `Err(reason)` on explicit rejection.
    pub fn ingest(&self, tenant: u64, frame: FeatureFrame) -> Result<Option<u64>, RejectReason> {
        let mut state = self.inner.state.lock().expect("serve state poisoned");
        let outcome = state.engine.ingest(tenant, frame);
        if matches!(outcome, Ok(Some(_))) {
            self.inner.wake.notify_all();
        }
        outcome
    }

    /// Pauses dispatch: ingestion keeps filling the rings, workers finish
    /// batches already in flight, but no new batch is formed. Used by the
    /// soak harness to exercise backpressure deterministically.
    pub fn pause(&self) {
        self.inner
            .state
            .lock()
            .expect("serve state poisoned")
            .paused = true;
    }

    /// Resumes dispatch after [`Self::pause`].
    pub fn resume(&self) {
        let mut state = self.inner.state.lock().expect("serve state poisoned");
        state.paused = false;
        drop(state);
        self.inner.wake.notify_all();
    }

    /// Atomically installs a new model. Returns the version assigned to it
    /// (monotonically increasing). Batches already dispatched finish on the
    /// old version; every batch formed after this call sees the new one.
    /// No frame — queued or in flight — is dropped.
    pub fn swap_model(&self, fence: dl2fence::FenceModelExport) -> u64 {
        let mut state = self.inner.state.lock().expect("serve state poisoned");
        let version = state.bundle.version + 1;
        state.bundle = Arc::new(ModelBundle { fence, version });
        state.swaps += 1;
        version
    }

    /// Blocks until every queued and in-flight window has a verdict (or the
    /// service is shut down). Do not call while paused with queued windows
    /// — the queue cannot drain.
    pub fn drain_until_idle(&self) {
        let mut state = self.inner.state.lock().expect("serve state poisoned");
        while !state.shutdown && (state.engine.queued() > 0 || state.in_flight > 0) {
            self.inner.wake.notify_all();
            state = self.inner.idle.wait(state).expect("serve state poisoned");
        }
    }

    /// Takes all verdicts recorded since the previous call, in completion
    /// order.
    pub fn take_verdicts(&self) -> Vec<Verdict> {
        std::mem::take(&mut *self.inner.verdicts.lock().expect("verdicts poisoned"))
    }

    /// Snapshots the service: accounting, model identity, and the
    /// end-to-end / per-stage latency histograms.
    pub fn status(&self) -> ServeStatus {
        let state = self.inner.state.lock().expect("serve state poisoned");
        let counters = state.engine.counters().clone();
        let mut rejected: Vec<RejectCount> = RejectReason::ALL
            .iter()
            .map(|r| RejectCount {
                reason: r.name().to_string(),
                count: counters.rejected_for(*r),
            })
            .collect();
        rejected.retain(|r| r.count > 0);
        let status = ServeStatus {
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
        let mut status = status;
        let hists = self.inner.sink.histograms();
        status.e2e = hists
            .get("serve.e2e")
            .filter(|h| !h.is_empty())
            .map(|h| LatencySummary::from_histogram("serve.e2e", h));
        status.stages = hists
            .iter()
            .filter(|(name, h)| name.starts_with("stage.") && !h.is_empty())
            .map(|(name, h)| LatencySummary::from_histogram(name, h))
            .collect();
        status
    }

    /// Stops the service: unpauses, lets workers finish every queued and
    /// in-flight window, then joins all threads. Returns the final status
    /// so callers can assert the no-loss accounting identity.
    pub fn shutdown(mut self) -> ServeStatus {
        self.begin_shutdown();
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.status()
    }

    fn begin_shutdown(&self) {
        let mut state = self.inner.state.lock().expect("serve state poisoned");
        state.shutdown = true;
        state.paused = false;
        drop(state);
        self.inner.wake.notify_all();
        self.inner.idle.notify_all();
    }
}

impl Drop for DetectionService {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Forms batches from ready windows and ships them to the workers. On
/// shutdown it keeps draining until the rings are empty, then drops the
/// sender so workers see a closed channel and exit.
fn dispatcher_loop(inner: Arc<Inner>, tx: mpsc::Sender<Batch>, batch_windows: usize) {
    loop {
        let batch = {
            let mut state = inner.state.lock().expect("serve state poisoned");
            loop {
                if state.shutdown && state.engine.queued() == 0 {
                    return; // drops tx → workers drain and exit
                }
                if !state.paused && state.engine.queued() > 0 {
                    break;
                }
                state = inner.wake.wait(state).expect("serve state poisoned");
            }
            let windows = state.engine.drain(batch_windows);
            if windows.is_empty() {
                continue;
            }
            state.in_flight += windows.len();
            let id = state.next_batch;
            state.next_batch += 1;
            Batch {
                id,
                bundle: Arc::clone(&state.bundle),
                windows,
            }
        };
        if tx.send(batch).is_err() {
            return; // all workers gone (only happens under shutdown)
        }
    }
}

/// Pulls batches, keeps a cached replica hot across same-version batches,
/// and records verdicts + latencies.
fn worker_loop(inner: Arc<Inner>, rx: Arc<Mutex<mpsc::Receiver<Batch>>>) {
    let recorder = inner.telemetry.recorder();
    let mut replica: Option<PipelineReplica> = None;
    loop {
        let batch = {
            let rx = rx.lock().expect("receiver poisoned");
            match rx.recv() {
                Ok(b) => b,
                Err(_) => return, // dispatcher gone and channel drained
            }
        };
        // Rebuild only on version change — the common path re-uses the
        // cached replica, so a hot-swap costs one rebuild per worker.
        if replica.as_ref().map(|r| r.version()) != Some(batch.bundle.version) {
            let mut fresh = PipelineReplica::build(&batch.bundle);
            fresh.set_telemetry(recorder.clone());
            replica = Some(fresh);
        }
        let replica = replica.as_mut().expect("just installed");
        let now = Instant::now();
        for w in &batch.windows {
            let waited = now.saturating_duration_since(w.assembled_at);
            recorder.record_us(
                "serve.queue_wait",
                u64::try_from(waited.as_micros()).unwrap_or(u64::MAX),
            );
        }
        let verdicts = replica.process(batch.id, &batch.windows);
        let done = Instant::now();
        for w in &batch.windows {
            let e2e = done.saturating_duration_since(w.assembled_at);
            recorder.record_us(
                "serve.e2e",
                u64::try_from(e2e.as_micros()).unwrap_or(u64::MAX),
            );
        }
        recorder.flush();
        let completed = verdicts.len();
        let flagged = verdicts.iter().filter(|v| v.report.detected).count();
        inner
            .verdicts
            .lock()
            .expect("verdicts poisoned")
            .extend(verdicts);
        let mut state = inner.state.lock().expect("serve state poisoned");
        state.in_flight -= completed;
        state.verdict_count += completed as u64;
        state.flagged_count += flagged as u64;
        drop(state);
        inner.idle.notify_all();
    }
}
