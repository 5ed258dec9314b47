//! Read-only campaign progress inspection: `campaign status <dir>...`.
//!
//! [`status`] sizes up one or many campaign (or shard) directories without
//! modifying a single byte: per directory it reports the manifest identity,
//! stored/missing run counts with the exact gap list, torn-tail state, log
//! size, and whether a report has landed. Over several
//! directories sharing one fingerprint it additionally computes the
//! **union** view — which run indices no directory has stored — which is
//! exactly the gap list a [`crate::merge::merge`] of those directories
//! would refuse on.
//!
//! Because the run-log scan tolerates a torn final record (the shape of an
//! in-flight append), `status` is safe to point at a directory whose
//! campaign is still running.

use crate::spec::SpecError;
use crate::stream::{CampaignDir, ShardSlice};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Everything [`status`] reports about one campaign directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DirStatus {
    /// The directory, as given.
    pub path: String,
    /// Campaign name from the manifest.
    pub name: String,
    /// Spec fingerprint from the manifest.
    pub fingerprint: String,
    /// Size of the full expanded run matrix.
    pub total_runs: usize,
    /// The shard slice this directory executes, if it is a shard.
    pub shard: Option<ShardSlice>,
    /// Run indices this directory is responsible for (`total_runs` for a
    /// whole campaign, the slice size for a shard; see
    /// [`crate::stream::Manifest::owed`]).
    pub owned_runs: usize,
    /// Run indices with a whole stored record in `runs.jsonl`.
    pub completed: usize,
    /// Owned run indices with no stored record — what a resume would
    /// re-execute, in matrix order.
    pub missing: Vec<usize>,
    /// Whether the log ends in a torn (crash- or in-flight-truncated)
    /// record.
    pub truncated_tail: bool,
    /// Identical duplicate records in the log (compaction would drop them).
    pub duplicate_records: usize,
    /// Size of `runs.jsonl`, bytes.
    pub runs_bytes: u64,
    /// Whether `report.json` has been written.
    pub report_written: bool,
}

/// The aggregate [`status`] view over every inspected directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusReport {
    /// Per-directory status, in argument order.
    pub dirs: Vec<DirStatus>,
    /// Whether every directory shares one spec fingerprint (the union view
    /// is only meaningful — and only present — when they do).
    pub fingerprints_agree: bool,
    /// Run indices stored by **no** directory, in matrix order — the gap
    /// list a merge of these directories would refuse on. `None` when
    /// fingerprints disagree.
    pub union_missing: Option<Vec<usize>>,
}

impl StatusReport {
    /// Serializes the status as pretty JSON (`campaign status --json`).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("status serialization cannot fail")
    }

    /// Renders the status as human-readable text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for dir in &self.dirs {
            let _ = writeln!(
                out,
                "{}: campaign `{}` (fingerprint {})",
                dir.path, dir.name, dir.fingerprint
            );
            let shard = match &dir.shard {
                Some(s) => format!(" [shard {}/{}]", s.index, s.count),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "  runs: {}/{} stored{shard}, {} missing, log {} ({} bytes){}{}",
                dir.completed,
                dir.owned_runs,
                dir.missing.len(),
                human_bytes(dir.runs_bytes),
                dir.runs_bytes,
                if dir.truncated_tail {
                    ", torn tail"
                } else {
                    ""
                },
                if dir.duplicate_records > 0 {
                    format!(", {} duplicate records", dir.duplicate_records)
                } else {
                    String::new()
                },
            );
            if !dir.missing.is_empty() {
                let _ = writeln!(out, "  gaps: [{}]", render_truncated(&dir.missing, 20));
            }
            let _ = writeln!(
                out,
                "  report: {}",
                if dir.report_written {
                    "written"
                } else {
                    "not written"
                }
            );
        }
        if self.dirs.len() > 1 {
            match &self.union_missing {
                Some(missing) if missing.is_empty() => {
                    let _ = writeln!(out, "union: complete — ready to merge");
                }
                Some(missing) => {
                    let _ = writeln!(
                        out,
                        "union: {} run indices stored nowhere: [{}]",
                        missing.len(),
                        render_truncated(missing, 20)
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "union: fingerprints disagree — these directories belong to \
                         different campaigns"
                    );
                }
            }
        }
        out
    }
}

/// Renders a byte count as a human-readable size (`813 B`, `4.2 KiB`,
/// `1.7 MiB`, ...). The raw count stays available in the `--json` output;
/// this is for the human render only.
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["KiB", "MiB", "GiB", "TiB", "PiB"];
    if bytes < 1024 {
        return format!("{bytes} B");
    }
    let mut value = bytes as f64 / 1024.0;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    // Values just under a unit boundary (e.g. 1 MiB − 1 byte ≈ 1023.9995 KiB)
    // round to "1024.0" at one decimal; roll them into the next unit instead.
    while format!("{value:.1}") == "1024.0" && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    format!("{value:.1} {}", UNITS[unit])
}

/// Renders up to `limit` indices, eliding the rest with a count.
fn render_truncated(indices: &[usize], limit: usize) -> String {
    let shown: Vec<String> = indices.iter().take(limit).map(|i| i.to_string()).collect();
    if indices.len() > limit {
        format!("{}, … {} more", shown.join(", "), indices.len() - limit)
    } else {
        shown.join(", ")
    }
}

/// Inspects every directory read-only and assembles the [`StatusReport`].
///
/// # Errors
///
/// Returns a [`SpecError`] if `paths` is empty, a path is not a campaign
/// directory, or a log/store is corrupt mid-file (a torn tail is reported,
/// not an error).
pub fn status(paths: &[PathBuf]) -> Result<StatusReport, SpecError> {
    if paths.is_empty() {
        return Err(SpecError::new(
            "status needs at least one campaign directory",
        ));
    }
    let mut dirs = Vec::with_capacity(paths.len());
    let mut union_stored: Option<Vec<bool>> = None;
    let mut fingerprints_agree = true;
    let mut first_fingerprint: Option<String> = None;
    for path in paths {
        let (dir, manifest) = CampaignDir::open_checked(path, None)?;
        let runs = manifest.expand()?;
        let index = dir.index_log(&runs)?;
        let stored: Vec<bool> = index.entries.iter().map(Option::is_some).collect();
        match &first_fingerprint {
            None => first_fingerprint = Some(manifest.fingerprint.clone()),
            Some(first) if *first != manifest.fingerprint => fingerprints_agree = false,
            Some(_) => {}
        }
        if fingerprints_agree {
            let union = union_stored.get_or_insert_with(|| vec![false; runs.len()]);
            for (u, s) in union.iter_mut().zip(&stored) {
                *u |= s;
            }
        }
        let (owned_runs, missing) = manifest.owed(&stored);
        let runs_bytes = std::fs::metadata(dir.runs_path())
            .map(|m| m.len())
            .unwrap_or(0);
        dirs.push(DirStatus {
            path: path.display().to_string(),
            name: manifest.name,
            fingerprint: manifest.fingerprint,
            total_runs: runs.len(),
            shard: manifest.shard,
            owned_runs,
            completed: index.completed(),
            missing,
            truncated_tail: index.truncated_tail,
            duplicate_records: index.duplicate_records,
            runs_bytes,
            report_written: dir.report_path().exists(),
        });
    }
    let union_missing = union_stored
        .filter(|_| fingerprints_agree)
        .map(|stored| (0..stored.len()).filter(|&i| !stored[i]).collect());
    Ok(StatusReport {
        dirs,
        fingerprints_agree,
        union_missing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_picks_sensible_units() {
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(813), "813 B");
        assert_eq!(human_bytes(4 * 1024 + 205), "4.2 KiB");
        assert_eq!(human_bytes(1_782_579), "1.7 MiB");
        assert_eq!(human_bytes(3 * 1024 * 1024 * 1024), "3.0 GiB");
    }

    #[test]
    fn human_bytes_rolls_over_at_unit_boundaries() {
        // One byte short of a unit must not render as "1024.0 <unit>".
        assert_eq!(human_bytes(1024 * 1024 - 1), "1.0 MiB");
        assert_eq!(human_bytes(1024 * 1024 * 1024 - 1), "1.0 GiB");
        // Values that legitimately round below the boundary keep their unit.
        assert_eq!(human_bytes(1_048_474), "1023.9 KiB"); // 1023.9004 KiB
        assert_eq!(human_bytes(1024 * 1024), "1.0 MiB");
    }
}
