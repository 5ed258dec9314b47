//! Coordinator-mode dynamic scheduling: lease run-index ranges to workers.
//!
//! Static sharding ([`crate::stream::run`] with a
//! [`crate::stream::ShardSlice`]) decides the split up front, so heterogeneous machines finish at wildly different times and a
//! crashed shard is only discovered at merge. This module turns the
//! campaign directory into a **fleet scheduler**:
//!
//! ```text
//! campaign serve-sched <dir> --spec spec.toml     # coordinator
//! campaign work        <dir> --worker w1          # any number of workers
//! ```
//!
//! The coordinator owns the campaign directory and grants **leases** —
//! bounded run-index batches stamped with the spec fingerprint and a
//! deadline ([`crate::lease::Lease`]) — to workers as they ask for them.
//! Each worker executes its leased runs into its own ordinary campaign
//! directory under `<dir>/workers/<id>` (per-worker logs, so no two
//! machines ever append to one file) and reports per-run progress;
//! **progress is the heartbeat**, extending the lease deadline. A lease whose deadline passes is expired and its
//! unfinished indices are re-leased to the next worker that asks — and
//! because every run is deterministic from spec + index, a worker that
//! crashed *after* persisting a record merely produces an identical
//! duplicate, which the merge dedupes (conflicting payloads abort, as
//! always). When the matrix drains, the coordinator assembles every worker
//! directory (speculatively re-executing any residual gap itself) into a
//! `report.json` **byte-identical** to a single-machine run.
//!
//! Neither side has an execution path of its own: a worker executes each
//! lease through the execute primitive ([`crate::stream`]), its per-run
//! hook sending the progress messages, and the final assembly is the fold
//! primitive ([`crate::merge`](mod@crate::merge)) — the same fold `campaign resume` runs on
//! a coordinator directory.
//!
//! The wire protocol is deliberately file-first — one JSON message per
//! file, written atomically via temp + rename under `<dir>/sched/` — so a
//! shared filesystem is the only infrastructure a fleet needs
//! ([`FsCoordTransport`] / [`FsWorkerTransport`]). The [`Scheduler`] state
//! machine never touches the exchange, so another transport only has to
//! replace those two types.

use crate::executor::Executor;
use crate::grid;
use crate::lease::{
    append_ledger, open_ledger_for_append, read_ledger, Lease, LedgerRecord, LEDGER_ISSUED,
    SCHED_DIR,
};
use crate::merge::{fold, stored_union, worker_sources};
use crate::report::CampaignReport;
use crate::spec::{CampaignSpec, SpecError};
use crate::stream::{spec_fingerprint, write_atomic, CampaignDir, LogIndex, Target, MANIFEST_FILE};
use dl2fence_telemetry::Recorder;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Directory (inside `sched/`) where workers drop messages for the
/// coordinator, one JSON file per message.
pub const INBOX_DIR: &str = "inbox";
/// Directory (inside `sched/`) where the coordinator leaves each worker's
/// latest reply, one JSON file per worker.
pub const OUTBOX_DIR: &str = "outbox";
/// Marker file (inside `sched/`) the coordinator writes once the matrix is
/// drained — workers polling for a reply treat it as a standing "drained".
pub const DONE_FILE: &str = "done.json";
/// Directory (inside the campaign directory) holding one campaign
/// directory per worker.
pub const WORKERS_DIR: &str = "workers";

/// Worker→coordinator message kind: grant me a lease.
pub const MSG_REQUEST: &str = "request";
/// Worker→coordinator message kind: one leased run index is persisted
/// (also the lease heartbeat).
pub const MSG_PROGRESS: &str = "progress";
/// Worker→coordinator message kind: every index of the lease is persisted.
pub const MSG_COMPLETE: &str = "complete";

/// Coordinator→worker reply kind: a lease (carried in [`CoordMsg::lease`]).
pub const REPLY_LEASE: &str = "lease";
/// Coordinator→worker reply kind: nothing to grant right now, ask again.
pub const REPLY_WAIT: &str = "wait";
/// Coordinator→worker reply kind: the matrix is drained, shut down.
pub const REPLY_DRAINED: &str = "drained";

/// One worker→coordinator message.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkerMsg {
    /// Sending worker id.
    pub worker: String,
    /// Worker-local sequence number; replies quote it in
    /// [`CoordMsg::reply_to`].
    pub seq: u64,
    /// One of [`MSG_REQUEST`] / [`MSG_PROGRESS`] / [`MSG_COMPLETE`].
    pub kind: String,
    /// The lease the message is about (progress/complete).
    #[serde(default)]
    pub lease_id: u64,
    /// The persisted run index (progress only).
    #[serde(default)]
    pub index: Option<usize>,
}

/// One coordinator→worker reply.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CoordMsg {
    /// The [`WorkerMsg::seq`] this replies to.
    pub reply_to: u64,
    /// One of [`REPLY_LEASE`] / [`REPLY_WAIT`] / [`REPLY_DRAINED`].
    pub kind: String,
    /// The granted lease ([`REPLY_LEASE`] only).
    #[serde(default)]
    pub lease: Option<Lease>,
}

/// What [`Scheduler::grant`] decided for one asking worker.
#[derive(Debug, Clone, PartialEq)]
pub enum Grant {
    /// A lease was carved off the pending queue. `reissued_indices` counts
    /// how many of its indices had been leased before (an expiry put them
    /// back).
    Lease {
        /// The granted lease.
        lease: Lease,
        /// Indices in the lease previously covered by an expired lease.
        reissued_indices: usize,
    },
    /// Nothing pending, but other leases are still in flight — their
    /// indices may come back, so the worker should ask again.
    Wait,
    /// Nothing pending and nothing in flight: the matrix is drained.
    Drained,
}

/// Monotone lease counters, mirrored to telemetry as
/// `sched.leases_issued` / `sched.leases_expired` / `sched.leases_reissued`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedCounters {
    /// Leases granted.
    pub issued: u64,
    /// Leases expired past their deadline.
    pub expired: u64,
    /// Grants that re-covered previously leased indices.
    pub reissued: u64,
    /// Leases that completed every index.
    pub completed: u64,
}

/// The coordinator's deterministic scheduling state machine.
///
/// Pure bookkeeping: no clock (callers pass `now_us`), no I/O, no
/// transport — which is what lets the kill-and-release property test drive
/// arbitrary grant/progress/expire interleavings without threads and assert
/// the outcome exactly.
#[derive(Debug)]
pub struct Scheduler {
    /// Maximum run indices per lease (at least 1).
    lease_size: usize,
    /// Lease time-to-live, µs of coordinator clock.
    lease_ttl_us: u64,
    fingerprint: String,
    /// Run indices awaiting a lease, front = granted next.
    pending: VecDeque<usize>,
    /// Whether each run index has ever been part of a lease (reissue
    /// detection).
    ever_leased: Vec<bool>,
    /// Leases granted and neither completed nor expired.
    active: Vec<Lease>,
    next_id: u64,
    counters: SchedCounters,
}

impl Scheduler {
    /// Builds a scheduler over a run matrix, slicing and timing leases by
    /// `opts` (its `poll` is the message loop's, unused here): `stored[i]`
    /// marks indices that already have a persisted record (the
    /// coordinator's own log plus every worker directory) and are never
    /// leased.
    pub fn new(opts: &ServeOptions, fingerprint: &str, stored: &[bool]) -> Self {
        Scheduler {
            lease_size: opts.lease_size.max(1),
            lease_ttl_us: opts.lease_ttl.as_micros() as u64,
            fingerprint: fingerprint.to_string(),
            pending: stored
                .iter()
                .enumerate()
                .filter_map(|(i, &s)| (!s).then_some(i))
                .collect(),
            ever_leased: vec![false; stored.len()],
            active: Vec::new(),
            next_id: 0,
            counters: SchedCounters::default(),
        }
    }

    /// Continues lease ids past a prior coordinator session's ledger, so
    /// ids stay ledger-unique across restarts.
    pub fn with_next_id(mut self, next_id: u64) -> Self {
        self.next_id = next_id;
        self
    }

    /// Grants the next lease to `worker`, or says why there is none.
    pub fn grant(&mut self, worker: &str, now_us: u64) -> Grant {
        if self.pending.is_empty() {
            return if self.active.is_empty() {
                Grant::Drained
            } else {
                Grant::Wait
            };
        }
        let take = self.lease_size.min(self.pending.len());
        let indices: Vec<usize> = self.pending.drain(..take).collect();
        let reissued_indices = indices.iter().filter(|&&i| self.ever_leased[i]).count();
        for &i in &indices {
            self.ever_leased[i] = true;
        }
        let lease = Lease {
            id: self.next_id,
            worker: worker.to_string(),
            remaining: indices.clone(),
            indices,
            fingerprint: self.fingerprint.clone(),
            deadline_us: now_us.saturating_add(self.lease_ttl_us),
        };
        self.next_id += 1;
        self.counters.issued += 1;
        if reissued_indices > 0 {
            self.counters.reissued += 1;
        }
        self.active.push(lease.clone());
        Grant::Lease {
            lease,
            reissued_indices,
        }
    }

    /// Records that lease `id` persisted run `index`, extending the
    /// deadline to `now_us + ttl` (progress is the heartbeat). Returns the
    /// extended deadline, or `None` for an unknown/finished lease — stale
    /// progress from an expired lease is harmless and ignored.
    pub fn progress(&mut self, id: u64, index: usize, now_us: u64) -> Option<u64> {
        let lease = self.active.iter_mut().find(|l| l.id == id)?;
        lease.remaining.retain(|&i| i != index);
        lease.deadline_us = now_us.saturating_add(self.lease_ttl_us);
        // The record is persisted: even if this lease later expires, the
        // index must not be re-executed.
        self.pending.retain(|&i| i != index);
        Some(lease.deadline_us)
    }

    /// Completes lease `id`, returning it. Indices the worker never
    /// progressed (a worker may complete early) go back to the pending
    /// queue. `None` for an unknown/already-settled lease.
    pub fn complete(&mut self, id: u64) -> Option<Lease> {
        let at = self.active.iter().position(|l| l.id == id)?;
        let lease = self.active.remove(at);
        self.pending.extend(lease.remaining.iter().copied());
        self.counters.completed += 1;
        Some(lease)
    }

    /// Expires every active lease whose deadline lies before `now_us`,
    /// returning them; their unfinished indices rejoin the pending queue
    /// for the next grant (that grant counts as a reissue).
    pub fn expire_overdue(&mut self, now_us: u64) -> Vec<Lease> {
        let mut expired = Vec::new();
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].deadline_us < now_us {
                let lease = self.active.remove(i);
                self.pending.extend(lease.remaining.iter().copied());
                self.counters.expired += 1;
                expired.push(lease);
            } else {
                i += 1;
            }
        }
        expired
    }

    /// `true` once nothing is pending and nothing is in flight.
    pub fn drained(&self) -> bool {
        self.pending.is_empty() && self.active.is_empty()
    }

    /// The monotone lease counters so far.
    pub fn counters(&self) -> SchedCounters {
        self.counters
    }

    /// Run indices awaiting a lease.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

/// Creates the `sched/` message exchange of the campaign directory at
/// `root`, returning its `(sched, inbox, outbox)` paths.
fn exchange(root: &Path) -> Result<(PathBuf, PathBuf, PathBuf), SpecError> {
    let sched = root.join(SCHED_DIR);
    let (inbox, outbox) = (sched.join(INBOX_DIR), sched.join(OUTBOX_DIR));
    for dir in [&inbox, &outbox] {
        std::fs::create_dir_all(dir)
            .map_err(|e| SpecError::new(format!("cannot create {}: {e}", dir.display())))?;
    }
    Ok((sched, inbox, outbox))
}

/// Removes a stale file a previous session left behind, if any.
fn clear_stale(path: &Path) -> Result<(), SpecError> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(SpecError::new(format!(
            "cannot clear {}: {e}",
            path.display()
        ))),
        _ => Ok(()),
    }
}

/// The coordinator's side of the wire protocol, over the shared-filesystem
/// message directories in `<campaign-dir>/sched/`.
pub struct FsCoordTransport {
    inbox: PathBuf,
    outbox: PathBuf,
    done: PathBuf,
}

impl FsCoordTransport {
    /// Attaches to (and initializes) the `sched/` exchange of the campaign
    /// directory at `root`, clearing any stale done marker from a previous
    /// serving session.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the directories cannot be created.
    pub fn new(root: &Path) -> Result<Self, SpecError> {
        let (sched, inbox, outbox) = exchange(root)?;
        let done = sched.join(DONE_FILE);
        clear_stale(&done)?;
        Ok(FsCoordTransport {
            inbox,
            outbox,
            done,
        })
    }

    /// Drains every queued worker message, ordered by (worker, seq).
    ///
    /// A message that does not parse is consumed all the same: it is
    /// renamed to `*.rejected` (kept as evidence, skipped by later polls)
    /// and counted as `sched.rejected_messages` on `rec`, so one bad file
    /// cannot wedge the coordinator.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on transport failure.
    pub fn poll(&mut self, rec: &Recorder) -> Result<Vec<WorkerMsg>, SpecError> {
        let entries = std::fs::read_dir(&self.inbox)
            .map_err(|e| SpecError::new(format!("cannot read {}: {e}", self.inbox.display())))?;
        let mut msgs = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| {
                SpecError::new(format!("cannot read {}: {e}", self.inbox.display()))
            })?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue; // a temp file mid-rename
            }
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                // A worker cleaning up its own stale messages raced us.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => {
                    return Err(SpecError::new(format!(
                        "cannot read {}: {e}",
                        path.display()
                    )))
                }
            };
            let consume_error = |e: std::io::Error| {
                SpecError::new(format!("cannot consume {}: {e}", path.display()))
            };
            match serde_json::from_str::<WorkerMsg>(&text) {
                Ok(msg) => {
                    std::fs::remove_file(&path).map_err(consume_error)?;
                    msgs.push(msg);
                }
                Err(_) => {
                    std::fs::rename(&path, path.with_extension("rejected"))
                        .map_err(consume_error)?;
                    rec.add("sched.rejected_messages", 1);
                }
            }
        }
        msgs.sort_by(|a, b| a.worker.cmp(&b.worker).then(a.seq.cmp(&b.seq)));
        Ok(msgs)
    }

    /// Delivers `msg` to `worker`, replacing any unread previous reply (a
    /// worker has at most one request outstanding).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on transport failure.
    pub fn reply(&mut self, worker: &str, msg: &CoordMsg) -> Result<(), SpecError> {
        let text = serde_json::to_string(msg).expect("reply serialization cannot fail");
        write_atomic(&self.outbox.join(format!("{worker}.json")), &text)
    }

    /// Raises the standing "drained" signal every current and future worker
    /// observes, even ones the coordinator never heard from.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on transport failure.
    pub fn announce_done(&mut self) -> Result<(), SpecError> {
        write_atomic(&self.done, "{\"drained\":true}\n")
    }
}

/// A worker's side of the wire protocol, over the same `sched/` exchange.
pub struct FsWorkerTransport {
    worker: String,
    inbox: PathBuf,
    outbox_file: PathBuf,
    done: PathBuf,
}

impl FsWorkerTransport {
    /// Attaches worker `worker` to the exchange of the campaign directory
    /// at `root`, clearing any stale messages a previous incarnation of the
    /// same worker id left behind (so its fresh sequence numbers cannot be
    /// confused with old ones).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the directories cannot be created or the
    /// stale state cannot be cleared.
    pub fn new(root: &Path, worker: &str) -> Result<Self, SpecError> {
        let (sched, inbox, outbox) = exchange(root)?;
        let outbox_file = outbox.join(format!("{worker}.json"));
        clear_stale(&outbox_file)?;
        if let Ok(entries) = std::fs::read_dir(&inbox) {
            let prefix = format!("{worker}-");
            for entry in entries.flatten() {
                if entry
                    .file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with(&prefix))
                {
                    // Tolerate the coordinator consuming it concurrently.
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(FsWorkerTransport {
            worker: worker.to_string(),
            inbox,
            outbox_file,
            done: sched.join(DONE_FILE),
        })
    }

    /// Sends one message to the coordinator.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on transport failure.
    pub fn send(&mut self, msg: &WorkerMsg) -> Result<(), SpecError> {
        let text = serde_json::to_string(msg).expect("message serialization cannot fail");
        let path = self
            .inbox
            .join(format!("{}-{:012}.json", self.worker, msg.seq));
        write_atomic(&path, &text)
    }

    /// Non-blocking: the coordinator's reply to `reply_to`, if it has
    /// arrived.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on transport failure.
    pub fn try_recv(&mut self, reply_to: u64) -> Result<Option<CoordMsg>, SpecError> {
        let text = match std::fs::read_to_string(&self.outbox_file) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(SpecError::new(format!(
                    "cannot read {}: {e}",
                    self.outbox_file.display()
                )))
            }
        };
        match serde_json::from_str::<CoordMsg>(&text) {
            Ok(msg) if msg.reply_to == reply_to => Ok(Some(msg)),
            // An older reply, or a reply caught mid-replacement: not ours.
            _ => Ok(None),
        }
    }

    /// Whether the coordinator has raised the standing "drained" signal.
    pub fn done(&self) -> bool {
        self.done.exists()
    }
}

/// Coordinator knobs for [`serve_sched`] and the [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOptions {
    /// Maximum run indices per lease.
    pub lease_size: usize,
    /// Lease time-to-live: a granted (or progressed) lease that stays
    /// silent this long is expired and its unfinished indices re-leased.
    pub lease_ttl: Duration,
    /// Idle poll interval of the message loop.
    pub poll: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            lease_size: 4,
            lease_ttl: Duration::from_secs(30),
            poll: Duration::from_millis(100),
        }
    }
}

/// The campaign-directory roots of every worker under `root`, sorted by
/// name for deterministic assembly order.
///
/// # Errors
///
/// Returns a [`SpecError`] if the workers directory exists but cannot be
/// read.
pub fn worker_dirs(root: &Path) -> Result<Vec<PathBuf>, SpecError> {
    let workers = root.join(WORKERS_DIR);
    let entries = match std::fs::read_dir(&workers) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(SpecError::new(format!(
                "cannot read {}: {e}",
                workers.display()
            )))
        }
    };
    let mut roots: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.join(MANIFEST_FILE).exists())
        .collect();
    roots.sort();
    Ok(roots)
}

/// Serves a campaign directory as the scheduling coordinator: grants
/// leases until the run matrix drains, then assembles the coordinator's own
/// log and every worker directory (re-executing residual gaps itself) into
/// a report byte-identical to a single-machine run.
///
/// `root` may be a fresh path (then `spec` is required and a new campaign
/// directory is created) or an existing whole-campaign directory — e.g. an
/// interrupted `campaign run --out` — whose missing indices are then what
/// gets leased. Serving is resumable: a restarted coordinator re-indexes
/// its own log and every worker directory, so nothing persisted is ever
/// re-leased.
///
/// # Errors
///
/// Returns a [`SpecError`] on an invalid or mismatching spec, a shard or
/// worker directory given as `root`, a corrupt log, or any I/O failure.
pub fn serve_sched(
    executor: &Executor,
    root: impl Into<PathBuf>,
    spec: Option<&CampaignSpec>,
    opts: &ServeOptions,
) -> Result<CampaignReport, SpecError> {
    let root = root.into();
    let expected = spec.map(spec_fingerprint);
    let (target, own) = if root.join(MANIFEST_FILE).exists() {
        Target::open(&root, expected.as_deref())?
    } else {
        let spec = spec.ok_or_else(|| {
            SpecError::new(format!(
                "{} holds no campaign; serve-sched needs --spec to initialize it",
                root.display()
            ))
        })?;
        let target = Target::create(&root, spec, grid::expand(spec)?, None, None)?;
        let own = LogIndex::empty(target.runs.len());
        (target, own)
    };
    if !target.manifest.is_whole() {
        return Err(SpecError::new(
            "serve-sched needs a whole-campaign directory, not a shard or worker directory",
        ));
    }
    // Everything already persisted — in the coordinator's own log or any
    // worker directory from a previous serving session — is never leased.
    let workers = worker_sources(&target.dir, &target.manifest, &target.runs, false)?;
    let stored = stored_union(&own, &workers);
    drop(workers);

    let next_id = read_ledger(&root)?
        .iter()
        .filter(|r| r.kind == LEDGER_ISSUED)
        .map(|r| r.id + 1)
        .max()
        .unwrap_or(0);
    let mut sched =
        Scheduler::new(opts, &target.manifest.fingerprint, &stored).with_next_id(next_id);
    let mut ledger = open_ledger_for_append(&root)?;
    let mut transport = FsCoordTransport::new(&root)?;
    let rec = executor.telemetry().recorder();
    let started = Instant::now();

    loop {
        let now_us = started.elapsed().as_micros() as u64;
        for lease in sched.expire_overdue(now_us) {
            rec.add("sched.leases_expired", 1);
            append_ledger(&mut ledger, &LedgerRecord::expired(&lease))?;
        }
        let msgs = transport.poll(&rec)?;
        let idle = msgs.is_empty();
        for msg in msgs {
            let now_us = started.elapsed().as_micros() as u64;
            match msg.kind.as_str() {
                MSG_REQUEST => {
                    let (kind, lease) = match sched.grant(&msg.worker, now_us) {
                        Grant::Lease {
                            lease,
                            reissued_indices,
                        } => {
                            rec.add("sched.leases_issued", 1);
                            if reissued_indices > 0 {
                                rec.add("sched.leases_reissued", 1);
                            }
                            append_ledger(
                                &mut ledger,
                                &LedgerRecord::issued(&lease, reissued_indices),
                            )?;
                            (REPLY_LEASE, Some(lease))
                        }
                        Grant::Wait => (REPLY_WAIT, None),
                        Grant::Drained => (REPLY_DRAINED, None),
                    };
                    let reply = CoordMsg {
                        reply_to: msg.seq,
                        kind: kind.to_string(),
                        lease,
                    };
                    transport.reply(&msg.worker, &reply)?;
                }
                MSG_PROGRESS => {
                    if let Some(index) = msg.index {
                        if let Some(deadline_us) = sched.progress(msg.lease_id, index, now_us) {
                            let record = LedgerRecord::progress(msg.lease_id, index, deadline_us);
                            append_ledger(&mut ledger, &record)?;
                        }
                    }
                }
                MSG_COMPLETE if sched.complete(msg.lease_id).is_some() => {
                    append_ledger(&mut ledger, &LedgerRecord::completed(msg.lease_id))?;
                }
                _ => {}
            }
        }
        if sched.drained() {
            break;
        }
        if idle {
            std::thread::sleep(opts.poll);
        }
    }
    drop(ledger);

    // Unblock every worker — including ones mid-wait the final batch never
    // heard from — before the (potentially long) assembly.
    transport.announce_done()?;
    let workers = worker_sources(&target.dir, &target.manifest, &target.runs, false)?;
    fold(executor, target, own, workers, true)
        .map(|report| report.expect("a whole campaign folds to a report"))
}

/// Worker knobs for [`work`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkOptions {
    /// Worker id: names the worker directory and the message files.
    pub worker: String,
    /// Poll interval while waiting for a coordinator reply.
    pub poll: Duration,
    /// How long to wait for a coordinator reply before giving up.
    pub patience: Duration,
    /// Abort the worker (no lease completion, no clean shutdown) after
    /// this many executed runs — the deterministic mid-lease crash the
    /// kill-and-release tests and the CI smoke job inject.
    pub fail_after: Option<usize>,
}

impl WorkOptions {
    /// Defaults for worker `worker`.
    pub fn named(worker: impl Into<String>) -> Self {
        WorkOptions {
            worker: worker.into(),
            poll: Duration::from_millis(100),
            patience: Duration::from_secs(120),
            fail_after: None,
        }
    }
}

/// What a worker did over its lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkOutcome {
    /// The worker id.
    pub worker: String,
    /// Runs executed and persisted.
    pub executed: usize,
    /// Leases accepted.
    pub leases: u64,
}

/// Runs the worker loop against the coordinator serving the campaign
/// directory at `coordinator`: request a lease, execute and persist its
/// runs into `<dir>/workers/<id>` (reporting per-run progress — the
/// heartbeat), complete it, repeat until the coordinator says drained.
///
/// A worker is restartable under the same id: its directory is healed and
/// indexed on startup, and leased indices it already persisted are
/// acknowledged without re-execution.
///
/// # Errors
///
/// Returns a [`SpecError`] on a corrupt or foreign directory, a lease
/// whose fingerprint disagrees with the manifest, coordinator silence past
/// `patience`, the injected [`WorkOptions::fail_after`] abort, or any I/O
/// failure.
pub fn work(
    executor: &Executor,
    coordinator: impl Into<PathBuf>,
    opts: &WorkOptions,
) -> Result<WorkOutcome, SpecError> {
    let root = coordinator.into();
    if opts.worker.is_empty()
        || !opts
            .worker
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Err(SpecError::new(format!(
            "worker id `{}` is invalid (use ASCII letters, digits, `-`, `_`)",
            opts.worker
        )));
    }
    let (_, manifest) = CampaignDir::open_checked(&root, None)?;
    if !manifest.is_whole() {
        return Err(SpecError::new(
            "work needs the coordinator's whole-campaign directory, not a shard \
             or worker directory",
        ));
    }
    let wroot = root.join(WORKERS_DIR).join(&opts.worker);
    let mut target = if wroot.join(MANIFEST_FILE).exists() {
        Target::open(&wroot, Some(&manifest.fingerprint))?.0
    } else {
        let runs = manifest.expand()?;
        Target::create(
            &wroot,
            &manifest.spec,
            runs,
            None,
            Some(opts.worker.clone()),
        )?
    };

    let mut transport = FsWorkerTransport::new(&root, &opts.worker)?;
    let mut seq = 0u64;
    let mut executed = 0usize;
    let mut leases = 0u64;
    let message = |seq: u64, kind: &str, lease_id: u64, index: Option<usize>| WorkerMsg {
        worker: opts.worker.clone(),
        seq,
        kind: kind.to_string(),
        lease_id,
        index,
    };
    'serve: loop {
        seq += 1;
        let request_seq = seq;
        transport.send(&message(request_seq, MSG_REQUEST, 0, None))?;
        let mut waited = Duration::ZERO;
        let reply = loop {
            if let Some(reply) = transport.try_recv(request_seq)? {
                break reply;
            }
            if transport.done() {
                break 'serve;
            }
            if waited >= opts.patience {
                return Err(SpecError::new(format!(
                    "no coordinator reply in {}; is `campaign serve-sched` running on {}?",
                    format_args!("{:.1}s", opts.patience.as_secs_f64()),
                    root.display()
                )));
            }
            std::thread::sleep(opts.poll);
            waited += opts.poll;
        };
        match reply.kind.as_str() {
            REPLY_DRAINED => break 'serve,
            REPLY_WAIT => {
                std::thread::sleep(opts.poll);
                continue;
            }
            REPLY_LEASE => {
                let lease = reply
                    .lease
                    .ok_or_else(|| SpecError::new("lease reply carried no lease"))?;
                if lease.fingerprint != manifest.fingerprint {
                    return Err(SpecError::new(format!(
                        "lease {} carries fingerprint {}, but the campaign directory \
                         holds {}; refusing to execute a different campaign",
                        lease.id, lease.fingerprint, manifest.fingerprint
                    )));
                }
                leases += 1;
                // Indices a previous incarnation already persisted are
                // acknowledged, not re-executed — replay stays idempotent.
                for &i in &lease.indices {
                    if i >= target.runs.len() {
                        return Err(SpecError::new(format!(
                            "lease {} grants run index {i}, but the campaign expands \
                             to {} runs",
                            lease.id,
                            target.runs.len()
                        )));
                    }
                    if target.is_stored(i) {
                        seq += 1;
                        transport.send(&message(seq, MSG_PROGRESS, lease.id, Some(i)))?;
                    }
                }
                // Each persisted run reports progress (the lease heartbeat);
                // the injected crash stops the pool right after a report.
                let finished = target.execute(executor, &lease.indices, |index| {
                    executed += 1;
                    seq += 1;
                    transport.send(&message(seq, MSG_PROGRESS, lease.id, Some(index)))?;
                    Ok(opts.fail_after.is_none_or(|limit| executed < limit))
                })?;
                if !finished {
                    // Persisted work stays, the lease is never completed —
                    // the coordinator must expire and re-lease the rest.
                    return Err(SpecError::new(format!(
                        "worker {} aborted after {executed} run(s) (--fail-after); \
                         lease {} left incomplete",
                        opts.worker, lease.id
                    )));
                }
                seq += 1;
                transport.send(&message(seq, MSG_COMPLETE, lease.id, None))?;
            }
            other => {
                return Err(SpecError::new(format!(
                    "coordinator sent unknown reply kind `{other}`"
                )))
            }
        }
    }
    Ok(WorkOutcome {
        worker: opts.worker.clone(),
        executed,
        leases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(total: usize, lease_size: usize) -> Scheduler {
        let opts = ServeOptions {
            lease_size,
            lease_ttl: Duration::from_millis(1),
            ..ServeOptions::default()
        };
        Scheduler::new(&opts, "cafe", &vec![false; total])
    }

    fn lease_of(grant: Grant) -> Lease {
        match grant {
            Grant::Lease { lease, .. } => lease,
            other => panic!("expected a lease, got {other:?}"),
        }
    }

    #[test]
    fn grants_cover_the_matrix_in_bounded_batches() {
        let mut s = sched(10, 4);
        let a = lease_of(s.grant("w1", 0));
        assert_eq!(a.indices, vec![0, 1, 2, 3]);
        assert_eq!(a.fingerprint, "cafe");
        assert_eq!(a.deadline_us, 1_000);
        let b = lease_of(s.grant("w2", 0));
        assert_eq!(b.indices, vec![4, 5, 6, 7]);
        let c = lease_of(s.grant("w1", 0));
        assert_eq!(c.indices, vec![8, 9]);
        assert!(matches!(s.grant("w2", 0), Grant::Wait));
        for lease in [a, b, c] {
            for i in &lease.indices {
                s.progress(lease.id, *i, 0);
            }
            s.complete(lease.id);
        }
        assert!(s.drained());
        assert!(matches!(s.grant("w2", 0), Grant::Drained));
        assert_eq!(s.counters().issued, 3);
        assert_eq!(s.counters().completed, 3);
        assert_eq!(s.counters().expired, 0);
    }

    #[test]
    fn stored_indices_are_never_leased() {
        let mut stored = vec![false; 6];
        stored[1] = true;
        stored[4] = true;
        let mut s = Scheduler::new(&ServeOptions::default(), "cafe", &stored);
        let lease = lease_of(s.grant("w1", 0));
        assert_eq!(lease.indices, vec![0, 2, 3, 5]);
    }

    #[test]
    fn expiry_requeues_unfinished_indices_and_marks_the_regrant_a_reissue() {
        let mut s = sched(4, 4);
        let lease = lease_of(s.grant("w1", 0));
        assert!(s.progress(lease.id, 0, 100).is_some());
        // Deadline extended by the heartbeat: not yet expired at 1_000.
        assert!(s.expire_overdue(1_000).is_empty());
        let expired = s.expire_overdue(2_000);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].remaining, vec![1, 2, 3]);
        assert_eq!(s.counters().expired, 1);
        // Index 0 was persisted before the expiry: never re-leased.
        let regrant = s.grant("w2", 2_000);
        let Grant::Lease {
            lease: relase,
            reissued_indices,
        } = regrant
        else {
            panic!("expected a reissued lease");
        };
        assert_eq!(relase.indices, vec![1, 2, 3]);
        assert_eq!(reissued_indices, 3);
        assert_eq!(s.counters().reissued, 1);
        for i in [1, 2, 3] {
            s.progress(relase.id, i, 2_000);
        }
        s.complete(relase.id);
        assert!(s.drained());
    }

    #[test]
    fn stale_progress_and_double_completion_are_ignored() {
        let mut s = sched(2, 2);
        let lease = lease_of(s.grant("w1", 0));
        assert!(s.expire_overdue(5_000).len() == 1);
        // The lease is gone: progress and completion are stale no-ops.
        assert!(s.progress(lease.id, 0, 5_000).is_none());
        assert!(s.complete(lease.id).is_none());
        assert!(!s.drained(), "the indices went back to pending");
        assert_eq!(s.pending_len(), 2);
    }

    #[test]
    fn early_completion_returns_unfinished_indices_to_the_queue() {
        let mut s = sched(3, 3);
        let lease = lease_of(s.grant("w1", 0));
        s.progress(lease.id, 0, 0);
        let finished = s.complete(lease.id).expect("active lease completes");
        assert_eq!(finished.remaining, vec![1, 2]);
        assert_eq!(s.pending_len(), 2);
        let regrant = lease_of(s.grant("w2", 0));
        assert_eq!(regrant.indices, vec![1, 2]);
    }

    #[test]
    fn fs_transport_round_trips_messages_in_worker_seq_order() {
        let root =
            std::env::temp_dir().join(format!("dl2fence-sched-transport-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let mut coord = FsCoordTransport::new(&root).unwrap();
        let mut w1 = FsWorkerTransport::new(&root, "w1").unwrap();
        let mut w2 = FsWorkerTransport::new(&root, "w2").unwrap();

        let msg = |worker: &str, seq: u64, kind: &str| WorkerMsg {
            worker: worker.to_string(),
            seq,
            kind: kind.to_string(),
            lease_id: 7,
            index: Some(3),
        };
        w2.send(&msg("w2", 1, MSG_REQUEST)).unwrap();
        w1.send(&msg("w1", 2, MSG_PROGRESS)).unwrap();
        w1.send(&msg("w1", 1, MSG_REQUEST)).unwrap();
        let rec = dl2fence_telemetry::Telemetry::disabled().recorder();
        let polled = coord.poll(&rec).unwrap();
        let order: Vec<(String, u64)> = polled.iter().map(|m| (m.worker.clone(), m.seq)).collect();
        assert_eq!(
            order,
            vec![
                ("w1".to_string(), 1),
                ("w1".to_string(), 2),
                ("w2".to_string(), 1)
            ]
        );
        assert_eq!(polled[1].index, Some(3));
        assert!(
            coord.poll(&rec).unwrap().is_empty(),
            "messages are consumed"
        );

        coord
            .reply(
                "w1",
                &CoordMsg {
                    reply_to: 1,
                    kind: REPLY_WAIT.to_string(),
                    lease: None,
                },
            )
            .unwrap();
        assert!(w1.try_recv(2).unwrap().is_none(), "stale reply_to ignored");
        let got = w1.try_recv(1).unwrap().expect("reply arrived");
        assert_eq!(got.kind, REPLY_WAIT);
        assert!(w2.try_recv(1).unwrap().is_none(), "not w2's outbox");

        assert!(!w1.done());
        coord.announce_done().unwrap();
        assert!(w1.done() && w2.done());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
