//! Lease records and the coordinator's append-only lease ledger.
//!
//! A **lease** is the unit of dynamic scheduling ([`crate::sched`]): a
//! bounded set of run indices granted to one worker, stamped with the spec
//! fingerprint it belongs to and a deadline after which the coordinator may
//! take the unfinished indices back. Every lease transition the coordinator
//! performs — issue, per-run progress, completion, expiry — is appended to
//! a JSONL **ledger** at `<dir>/sched/leases.jsonl` before the reply leaves
//! the coordinator, so `campaign status`/`watch` can render the lease table
//! of a live (or crashed) scheduling session read-only, exactly the way the
//! run log lets them render run progress.
//!
//! The ledger is observability, not the source of truth: the run records a
//! worker persisted in its own campaign directory are what the final
//! assembly merges, and a coordinator restart rebuilds its scheduling state
//! by re-indexing those directories ([`crate::sched::serve_sched`]). A torn
//! final ledger line (coordinator killed mid-append) is therefore tolerated
//! exactly like a torn run record.

use crate::spec::SpecError;
use crate::stream::{append_jsonl, read_jsonl};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};

/// Directory (inside a campaign directory) holding every scheduler artifact:
/// the lease ledger, the message inbox/outbox, and the done marker.
pub const SCHED_DIR: &str = "sched";
/// File name of the lease ledger inside [`SCHED_DIR`].
pub const LEDGER_FILE: &str = "leases.jsonl";

/// The ledger path of a campaign directory rooted at `root`.
pub fn ledger_path(root: &Path) -> PathBuf {
    root.join(SCHED_DIR).join(LEDGER_FILE)
}

/// One granted lease: a bounded set of run indices one worker executes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lease {
    /// Ledger-unique lease id, ascending in issue order.
    pub id: u64,
    /// The worker the lease was granted to.
    pub worker: String,
    /// Run indices granted, in execution order.
    pub indices: Vec<usize>,
    /// Indices not yet reported done ([`crate::sched::Scheduler::progress`]).
    pub remaining: Vec<usize>,
    /// [`crate::stream::spec_fingerprint`] of the campaign the indices
    /// belong to — a worker refuses a lease whose fingerprint disagrees
    /// with the manifest it opened.
    pub fingerprint: String,
    /// Coordinator-clock deadline (µs since the coordinator started) after
    /// which the lease counts as abandoned. Every progress report pushes it
    /// forward — progress is the heartbeat.
    pub deadline_us: u64,
}

/// Ledger record kind: a lease was granted.
pub const LEDGER_ISSUED: &str = "issued";
/// Ledger record kind: one run index of a lease completed (heartbeat).
pub const LEDGER_PROGRESS: &str = "progress";
/// Ledger record kind: a lease finished every index it held.
pub const LEDGER_COMPLETED: &str = "completed";
/// Ledger record kind: a lease missed its deadline; its unfinished indices
/// returned to the pending queue.
pub const LEDGER_EXPIRED: &str = "expired";

/// One appended lease transition. A flat record (tagged by [`Self::kind`])
/// rather than an enum, so every line carries the same schema and partial
/// readers stay trivial.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LedgerRecord {
    /// One of [`LEDGER_ISSUED`] / [`LEDGER_PROGRESS`] / [`LEDGER_COMPLETED`]
    /// / [`LEDGER_EXPIRED`].
    pub kind: String,
    /// The lease the transition applies to.
    pub id: u64,
    /// Granting worker ([`LEDGER_ISSUED`] only).
    #[serde(default)]
    pub worker: String,
    /// Indices granted ([`LEDGER_ISSUED`]) or returned ([`LEDGER_EXPIRED`]).
    #[serde(default)]
    pub indices: Vec<usize>,
    /// Spec fingerprint ([`LEDGER_ISSUED`] only).
    #[serde(default)]
    pub fingerprint: String,
    /// Lease deadline, coordinator-clock µs ([`LEDGER_ISSUED`]; progress
    /// records carry the *extended* deadline here).
    #[serde(default)]
    pub deadline_us: u64,
    /// The completed run index ([`LEDGER_PROGRESS`] only).
    #[serde(default)]
    pub index: Option<usize>,
    /// How many of the issued indices had been leased before (a reissue
    /// after an expiry); `0` for a first-time grant.
    #[serde(default)]
    pub reissued_indices: usize,
}

impl LedgerRecord {
    /// The [`LEDGER_ISSUED`] record of granting `lease`, of whose indices
    /// `reissued_indices` had been leased before.
    pub fn issued(lease: &Lease, reissued_indices: usize) -> Self {
        LedgerRecord {
            kind: LEDGER_ISSUED.to_string(),
            id: lease.id,
            worker: lease.worker.clone(),
            indices: lease.indices.clone(),
            fingerprint: lease.fingerprint.clone(),
            deadline_us: lease.deadline_us,
            index: None,
            reissued_indices,
        }
    }

    /// The [`LEDGER_PROGRESS`] record of lease `id` completing run `index`,
    /// which extended its deadline to `deadline_us`.
    pub fn progress(id: u64, index: usize, deadline_us: u64) -> Self {
        LedgerRecord {
            kind: LEDGER_PROGRESS.to_string(),
            id,
            index: Some(index),
            deadline_us,
            ..LedgerRecord::default()
        }
    }

    /// The [`LEDGER_COMPLETED`] record of lease `id`.
    pub fn completed(id: u64) -> Self {
        LedgerRecord {
            kind: LEDGER_COMPLETED.to_string(),
            id,
            ..LedgerRecord::default()
        }
    }

    /// The [`LEDGER_EXPIRED`] record of `lease`, returning its unfinished
    /// indices to the pending queue.
    pub fn expired(lease: &Lease) -> Self {
        LedgerRecord {
            kind: LEDGER_EXPIRED.to_string(),
            id: lease.id,
            indices: lease.remaining.clone(),
            ..LedgerRecord::default()
        }
    }
}

/// Appends one record to an open ledger handle, flushed like a run record —
/// a crash after this call cannot lose the transition.
///
/// # Errors
///
/// Returns a [`SpecError`] if the record cannot be written.
pub fn append_ledger(writer: &mut File, record: &LedgerRecord) -> Result<(), SpecError> {
    let line = serde_json::to_string(record).expect("ledger serialization cannot fail");
    append_jsonl(writer, line, Path::new(LEDGER_FILE))
}

/// Opens the ledger of the campaign directory at `root` for appending,
/// creating `sched/` and the file as needed.
///
/// # Errors
///
/// Returns a [`SpecError`] if the directory or file cannot be created.
pub fn open_ledger_for_append(root: &Path) -> Result<File, SpecError> {
    let path = ledger_path(root);
    let dir = path.parent().expect("ledger path always has a parent");
    std::fs::create_dir_all(dir)
        .map_err(|e| SpecError::new(format!("cannot create {}: {e}", dir.display())))?;
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| SpecError::new(format!("cannot open {}: {e}", path.display())))
}

/// Reads the ledger at `root` back, torn-tail-tolerantly. A missing ledger
/// yields an empty list (the directory was never scheduled) — not an error.
///
/// # Errors
///
/// Returns a [`SpecError`] on mid-file garbage or I/O failure.
pub fn read_ledger(root: &Path) -> Result<Vec<LedgerRecord>, SpecError> {
    let (records, _) = read_jsonl(&ledger_path(root), "lease record", |line| {
        serde_json::from_str(line).map_err(|e| e.to_string())
    })?;
    Ok(records)
}

/// One lease's ledger-derived state, for `campaign status`/`watch`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaseInfo {
    /// Lease id.
    pub id: u64,
    /// The worker it was granted to.
    pub worker: String,
    /// Indices granted.
    pub runs: usize,
    /// Indices reported done via progress records.
    pub done: usize,
    /// `"active"`, `"completed"` or `"expired"`.
    pub state: String,
    /// Last recorded deadline, coordinator-clock µs.
    pub deadline_us: u64,
}

/// The lease-table view of a scheduled campaign directory, rebuilt from the
/// ledger read-only.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedStatus {
    /// Every lease ever issued, ascending by id.
    pub leases: Vec<LeaseInfo>,
    /// Leases issued in total.
    pub issued: u64,
    /// Leases that missed a deadline.
    pub expired: u64,
    /// Grants that re-covered previously leased indices (after an expiry).
    pub reissued: u64,
    /// Leases that completed every index.
    pub completed: u64,
    /// Leases still active (issued, neither completed nor expired).
    pub active: u64,
}

/// Rebuilds the [`SchedStatus`] lease table of the campaign directory at
/// `root` from its ledger. `Ok(None)` when no ledger exists — the directory
/// was never driven by a coordinator.
///
/// # Errors
///
/// Returns a [`SpecError`] on a corrupt ledger.
pub fn sched_status(root: &Path) -> Result<Option<SchedStatus>, SpecError> {
    let records = read_ledger(root)?;
    if records.is_empty() && !ledger_path(root).exists() {
        return Ok(None);
    }
    let mut leases: Vec<LeaseInfo> = Vec::new();
    let mut status = SchedStatus {
        leases: Vec::new(),
        issued: 0,
        expired: 0,
        reissued: 0,
        completed: 0,
        active: 0,
    };
    for record in &records {
        match record.kind.as_str() {
            LEDGER_ISSUED => {
                status.issued += 1;
                if record.reissued_indices > 0 {
                    status.reissued += 1;
                }
                leases.push(LeaseInfo {
                    id: record.id,
                    worker: record.worker.clone(),
                    runs: record.indices.len(),
                    done: 0,
                    state: "active".to_string(),
                    deadline_us: record.deadline_us,
                });
            }
            LEDGER_PROGRESS => {
                if let Some(info) = leases.iter_mut().find(|l| l.id == record.id) {
                    info.done += 1;
                    info.deadline_us = record.deadline_us;
                }
            }
            LEDGER_COMPLETED => {
                status.completed += 1;
                if let Some(info) = leases.iter_mut().find(|l| l.id == record.id) {
                    info.state = "completed".to_string();
                }
            }
            LEDGER_EXPIRED => {
                status.expired += 1;
                if let Some(info) = leases.iter_mut().find(|l| l.id == record.id) {
                    info.state = "expired".to_string();
                }
            }
            _ => {} // Forward compatibility: unknown transitions are skipped.
        }
    }
    leases.sort_by_key(|l| l.id);
    status.active = leases.iter().filter(|l| l.state == "active").count() as u64;
    status.leases = leases;
    Ok(Some(status))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("dl2fence-lease-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        root
    }

    fn lease(id: u64, worker: &str, indices: Vec<usize>) -> Lease {
        Lease {
            id,
            worker: worker.to_string(),
            remaining: indices.clone(),
            indices,
            fingerprint: "f00d".to_string(),
            deadline_us: 1_000,
        }
    }

    #[test]
    fn ledger_round_trips_and_builds_the_lease_table() {
        let root = temp_root("table");
        let mut writer = open_ledger_for_append(&root).unwrap();
        for record in [
            LedgerRecord::issued(&lease(0, "w1", vec![0, 1]), 0),
            LedgerRecord::issued(&lease(1, "w2", vec![2, 3]), 0),
            LedgerRecord::progress(0, 0, 2_000),
            LedgerRecord::expired(&lease(1, "w2", vec![2, 3])),
            LedgerRecord::issued(&lease(2, "w1", vec![2, 3]), 2),
            LedgerRecord::completed(0),
        ] {
            append_ledger(&mut writer, &record).unwrap();
        }
        drop(writer);

        let status = sched_status(&root).unwrap().expect("ledger exists");
        assert_eq!(status.issued, 3);
        assert_eq!(status.expired, 1);
        assert_eq!(status.reissued, 1);
        assert_eq!(status.completed, 1);
        assert_eq!(status.active, 1);
        assert_eq!(status.leases.len(), 3);
        assert_eq!(status.leases[0].state, "completed");
        assert_eq!(status.leases[0].done, 1);
        assert_eq!(status.leases[0].deadline_us, 2_000);
        assert_eq!(status.leases[1].state, "expired");
        assert_eq!(status.leases[2].state, "active");
        assert_eq!(status.leases[2].worker, "w1");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_ledger_is_none_and_torn_tail_is_tolerated() {
        let root = temp_root("torn");
        assert!(sched_status(&root).unwrap().is_none());

        let mut writer = open_ledger_for_append(&root).unwrap();
        append_ledger(
            &mut writer,
            &LedgerRecord::issued(&lease(0, "w1", vec![0]), 0),
        )
        .unwrap();
        drop(writer);
        // A torn final line (coordinator killed mid-append) is not an error.
        let path = ledger_path(&root);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"kind\":\"iss");
        std::fs::write(&path, text).unwrap();
        let status = sched_status(&root).unwrap().expect("ledger exists");
        assert_eq!(status.issued, 1);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
