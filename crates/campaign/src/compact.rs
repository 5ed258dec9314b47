//! Log compaction: `campaign compact <dir>`.
//!
//! A long-lived campaign directory accretes weight the streaming layer
//! never cleans up: records land in completion order (not index order),
//! resume cycles can leave identical duplicate records, and a crash can
//! leave a torn tail. [`compact`] rewrites `runs.jsonl` **atomically**
//! (temp file + rename, so a crash mid-compaction leaves the original log
//! untouched) into index-ordered, deduplicated, torn-tail-free form.
//!
//! The compacted directory stays an ordinary campaign (or shard)
//! directory: resumable — missing indices are re-executed and appended
//! exactly as before — and mergeable.

use crate::spec::SpecError;
use crate::stream::CampaignDir;
use std::io::Write as _;

/// What one [`compact`] pass did, for logging and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Whole records kept (one per stored run index).
    pub records: usize,
    /// Identical duplicate records dropped.
    pub dropped_duplicates: usize,
    /// Whether a torn tail record was dropped.
    pub healed_torn_tail: bool,
    /// Log size before compaction, bytes.
    pub bytes_before: u64,
    /// Log size after compaction, bytes.
    pub bytes_after: u64,
}

/// Compacts the campaign (or shard) directory at `root`: rewrites
/// `runs.jsonl` in run-index order with duplicates and any torn tail
/// dropped, atomically (the replacement is synced to stable storage before
/// it is renamed over the original).
///
/// Do **not** compact a directory whose campaign is still executing: the
/// rewrite snapshots the log and renames over it, so records a live writer
/// appends after the snapshot land on the replaced (unlinked) file and are
/// lost. Stop the campaign (or wait for it), compact, then resume —
/// `campaign status` is the tool that is safe against a live writer.
///
/// # Errors
///
/// Returns a [`SpecError`] if `root` is not a campaign directory, the log
/// holds conflicting duplicates or mid-file corruption, or any I/O fails.
pub fn compact(root: impl AsRef<std::path::Path>) -> Result<CompactStats, SpecError> {
    let (dir, manifest) = CampaignDir::open_checked(root.as_ref(), None)?;
    let runs = manifest.expand()?;
    let index = dir.index_log(&runs)?;
    let bytes_before = std::fs::metadata(dir.runs_path())
        .map(|m| m.len())
        .unwrap_or(0);

    // Stream the kept records into the replacement log in index order; the
    // original file stays valid until the final rename.
    let tmp_path = dir.root().join(".runs.jsonl.tmp");
    let tmp = std::fs::File::create(&tmp_path)
        .map_err(|e| SpecError::new(format!("cannot write {}: {e}", tmp_path.display())))?;
    let mut writer = std::io::BufWriter::new(tmp);
    let mut records = 0usize;
    let write_error =
        |e: std::io::Error| SpecError::new(format!("cannot write {}: {e}", tmp_path.display()));
    dir.try_replay(&index, |record| {
        records += 1;
        // Re-encoding a parsed record is byte-idempotent (a proptest pins
        // it), so records come out exactly as they went in.
        let line = serde_json::to_string(&record).expect("run serialization cannot fail");
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .map_err(write_error)?;
        Ok(())
    })?;
    writer
        .into_inner()
        .map_err(|e| SpecError::new(format!("cannot flush {}: {e}", tmp_path.display())))?
        .sync_all()
        .map_err(|e| SpecError::new(format!("cannot sync {}: {e}", tmp_path.display())))?;
    std::fs::rename(&tmp_path, dir.runs_path()).map_err(|e| {
        SpecError::new(format!(
            "cannot finalize {}: {e}",
            dir.runs_path().display()
        ))
    })?;

    let bytes_after = std::fs::metadata(dir.runs_path())
        .map(|m| m.len())
        .map_err(|e| SpecError::new(format!("cannot stat {}: {e}", dir.runs_path().display())))?;
    Ok(CompactStats {
        records,
        dropped_duplicates: index.duplicate_records,
        healed_torn_tail: index.truncated_tail,
        bytes_before,
        bytes_after,
    })
}
