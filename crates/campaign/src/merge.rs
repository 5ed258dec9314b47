//! The **fold primitive**: uniting campaign directories into one report.
//!
//! Every report-building verb folds one or more directories into a target
//! directory: [`crate::stream::run`] and [`crate::stream::resume`] fold a
//! directory into itself, [`merge`] folds any set of directories sharing a
//! spec fingerprint — the shard directories [`crate::stream::run`] wrote
//! on different machines, a whole-campaign directory, or any mix — into a
//! fresh one. The target's `report.json` is **byte-identical** to an
//! uninterrupted single-machine `campaign run` of the same spec.
//!
//! A fold is a two-pass stream over its sources, so it never materializes
//! the combined result set:
//!
//! 1. **Index** — every source log is scanned record-by-record into a byte
//!    offset [`LogIndex`] (each record parsed for validation and dropped).
//!    Records for the same run index must be byte-identical — identical
//!    duplicates dedupe cleanly (the target's own log first, then sources
//!    in argument order), conflicting ones abort the fold. A torn tail
//!    record in an input is ignored, with its run index treated as not
//!    stored.
//! 2. **Replay** — the union is walked in run-index order; each record is
//!    re-read from its source, appended to the target's `runs.jsonl`
//!    (unless it is already there), folded into the shared
//!    [`ReportAccumulator`], and dropped. When the eval phase is on, a
//!    record that carries no samples aborts the fold with its run index.
//!
//! Before replaying, every run index the target owes must be stored
//! somewhere: a gap aborts with the exact gap list (resume the shard that
//! owns it, then merge again). With gap re-execution
//! (`campaign merge --reexec-gaps`; always on for run and resume) gaps are
//! instead executed locally — every run is deterministic from spec + index,
//! so the re-executed records are byte-identical to what a lost or slow
//! shard would have produced, and the report still matches a
//! single-machine run exactly. That is how a split campaign survives losing
//! a machine.

use crate::executor::Executor;
use crate::grid::RunSpec;
use crate::report::{CampaignReport, ReportAccumulator};
use crate::spec::SpecError;
use crate::stream::{append_jsonl, CampaignDir, LogIndex, RecordEntry, Target};
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Scratch directory (inside the fold target) where gap re-execution
/// streams its records when other directories are folded in; removed once
/// the report is written.
const GAPFILL_DIR: &str = ".gapfill";

/// One record source of a fold: its directory, record index, and (once the
/// first record is read back) an open `runs.jsonl` handle — duplicate
/// checks and the replay loop seek within it instead of reopening the file
/// per record. Lazy because a source may hold no records at all.
pub(crate) struct Source {
    dir: CampaignDir,
    index: LogIndex,
    reader: Option<File>,
}

impl Source {
    fn new(dir: CampaignDir, index: LogIndex) -> Self {
        Source {
            dir,
            index,
            reader: None,
        }
    }

    /// Opens the campaign directory at `root` read-only: its manifest must
    /// carry `fingerprint`, and its log is indexed against `runs`.
    fn load(root: &Path, fingerprint: &str, runs: &[RunSpec]) -> Result<Self, SpecError> {
        let (dir, _) = CampaignDir::open_checked(root, Some(fingerprint))?;
        let index = dir.index_log(runs)?;
        Ok(Source::new(dir, index))
    }

    /// Reads one record's exact bytes through the cached handle.
    fn read_record(&mut self, entry: &RecordEntry) -> Result<String, SpecError> {
        if self.reader.is_none() {
            self.reader = Some(self.dir.open_runs_for_read()?);
        }
        let reader = self.reader.as_mut().expect("just opened");
        self.dir.read_record_line_at(reader, entry)
    }
}

/// Merges campaign directories sharing one spec fingerprint into a fresh
/// whole-campaign directory at `out`, returning the rebuilt report.
///
/// The merged directory holds the union of the inputs' run records in
/// run-index order plus a `report.json` byte-identical to an uninterrupted
/// single-machine run (it is itself an ordinary, resumable campaign
/// directory). Inputs are only read, never modified.
///
/// # Errors
///
/// Returns a [`SpecError`] when:
/// - `inputs` is empty, an input is not a campaign directory, or its
///   manifest is corrupt;
/// - two inputs fingerprint differently (no mixing results across specs);
/// - a run index is stored with conflicting payloads (within one input or
///   across two);
/// - the union has gaps and `reexec_gaps` is off — the error lists every
///   missing run index;
/// - the eval phase is on and a record carries no samples — the error
///   names its run index;
/// - the output directory already holds a campaign, or any I/O fails.
pub fn merge(
    executor: &Executor,
    inputs: &[PathBuf],
    out: impl Into<PathBuf>,
    reexec_gaps: bool,
) -> Result<CampaignReport, SpecError> {
    let Some(first) = inputs.first() else {
        return Err(SpecError::new(
            "merge needs at least one campaign directory",
        ));
    };
    let (_, manifest) = CampaignDir::open_checked(first, None)?;
    let runs = manifest.expand()?;
    let sources = inputs
        .iter()
        .map(|input| Source::load(input, &manifest.fingerprint, &runs))
        .collect::<Result<Vec<_>, _>>()?;
    let total = runs.len();
    let target = Target::create(out, &manifest.spec, runs, None)?;
    fold(
        executor,
        target,
        LogIndex::empty(total),
        sources,
        reexec_gaps,
    )
    .map(|report| report.expect("a whole campaign folds to a report"))
}

/// The fold primitive: unites `target`'s own log (indexed as `own`) with
/// the `extra` sources, refuses or executes the run indices the target owes
/// but no source stores, and — for a whole-campaign target — replays the
/// union in run-index order into the report, one record in memory at a
/// time, one open handle per source. Records from `extra` are copied into
/// the target's log on the way.
///
/// With no `extra` sources the fold is in place (run, resume): gaps
/// execute straight into the target's log, crash-durable. Folding other
/// directories in (merge) executes gaps into a scratch directory instead,
/// so the target's log gains the union in run-index order.
///
/// With `reexec_gaps` off, owed indices no source stores are refused with
/// the gap list instead of executed (merge without `--reexec-gaps`).
pub(crate) fn fold(
    executor: &Executor,
    mut target: Target,
    own: LogIndex,
    extra: Vec<Source>,
    reexec_gaps: bool,
) -> Result<Option<CampaignReport>, SpecError> {
    let in_place = extra.is_empty();
    let whole = target.manifest.is_whole();
    let mut sources = Vec::with_capacity(extra.len() + 2);
    sources.push(Source::new(target.dir.clone(), own));
    sources.extend(extra);
    let mut slots = unite(target.runs.len(), &mut sources)?;
    let stored: Vec<bool> = slots.iter().map(Option::is_some).collect();
    let (owed, gaps) = target.manifest.owed(&stored);
    if !gaps.is_empty() && !reexec_gaps {
        return Err(SpecError::new(format!(
            "merge is missing {} of {owed} run indices: [{}]; resume the shard(s) that \
             own them, then merge again",
            gaps.len(),
            gaps.iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        )));
    }
    if in_place && !whole {
        // A shard directory folded into itself only executes what it owes:
        // there is nothing to copy and no report to build.
        target.execute(executor, &gaps)?;
        return Ok(None);
    }
    let mut scratch: Option<PathBuf> = None;
    if !gaps.is_empty() {
        // Runs are deterministic from spec + index, so executing the gaps
        // here yields the exact bytes the lost shard would have written.
        let gap_source = if in_place {
            target.execute(executor, &gaps)?;
            sources[0].index = target.dir.index_log(&target.runs)?;
            0
        } else {
            executor
                .telemetry()
                .recorder()
                .add("merge.gap_reexec_runs", gaps.len() as u64);
            let root = target.dir.root().join(GAPFILL_DIR);
            let _ = std::fs::remove_dir_all(&root);
            let mut gap = Target::create(&root, &target.manifest.spec, target.runs.clone(), None)?;
            gap.execute(executor, &gaps)?;
            let index = gap.dir.index_log(&gap.runs)?;
            sources.push(Source::new(gap.dir, index));
            scratch = Some(root);
            sources.len() - 1
        };
        for &i in &gaps {
            let entry = sources[gap_source].index.entries[i].ok_or_else(|| {
                SpecError::new(format!(
                    "gap re-execution produced no record for run index {i}"
                ))
            })?;
            slots[i] = Some((gap_source, entry));
        }
    }

    let rec = executor.telemetry().recorder();
    let report = rec.time("campaign.report", || {
        let mut acc = whole
            .then(|| ReportAccumulator::for_spec(&target.manifest.spec))
            .transpose()?;
        let mut writer = if in_place {
            None
        } else {
            Some(target.dir.open_runs_for_append()?)
        };
        for (source_id, entry) in slots.into_iter().flatten() {
            let source = &mut sources[source_id];
            let line = source.read_record(&entry)?;
            let record = acc
                .is_some()
                .then(|| source.dir.parse_record(&line, &entry))
                .transpose()?;
            match &mut writer {
                // Source 0 is the target's own log: folded, never re-appended.
                Some(writer) if source_id != 0 => {
                    append_jsonl(writer, line, &target.dir.runs_path())?
                }
                _ => {}
            }
            if let (Some(acc), Some(record)) = (&mut acc, record) {
                acc.try_fold(&record)?;
            }
        }
        if let Some(writer) = &mut writer {
            writer
                .flush()
                .map_err(|e| SpecError::new(format!("cannot flush folded run log: {e}")))?;
        }
        let Some(acc) = acc else {
            return Ok(None);
        };
        let report = acc.finish(executor)?;
        target.dir.write_report(&report)?;
        Ok::<_, SpecError>(Some(report))
    })?;
    if let Some(scratch) = scratch {
        drop(sources);
        std::fs::remove_dir_all(&scratch).map_err(|e| {
            SpecError::new(format!(
                "cannot remove gap re-execution scratch {}: {e}",
                scratch.display()
            ))
        })?;
    }
    Ok(report)
}

/// Unions the sources' record locations by run index: identical duplicates
/// dedupe (first source wins), conflicting duplicates abort. Gaps stay
/// `None` — the caller decides between erroring with the exact list and
/// re-executing them.
fn unite(
    total: usize,
    sources: &mut [Source],
) -> Result<Vec<Option<(usize, RecordEntry)>>, SpecError> {
    let mut slots: Vec<Option<(usize, RecordEntry)>> = vec![None; total];
    for source_id in 0..sources.len() {
        // Snapshot the (Copy) locations so the reader handles stay free for
        // the duplicate comparisons below.
        let located: Vec<(usize, RecordEntry)> = sources[source_id]
            .index
            .entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|e| (i, e)))
            .collect();
        for (run_index, entry) in located {
            match slots[run_index] {
                None => slots[run_index] = Some((source_id, entry)),
                Some((kept_id, kept_entry)) => {
                    // Cross-source duplicate: runs are deterministic, so a
                    // true re-execution is byte-identical. Compare the raw
                    // record bytes (one record from each side in memory).
                    let kept = sources[kept_id].read_record(&kept_entry)?;
                    let dup = sources[source_id].read_record(&entry)?;
                    if kept != dup {
                        return Err(SpecError::new(format!(
                            "run index {run_index} appears with conflicting payloads in {} \
                             and {}; the shards were not produced by the same campaign \
                             execution",
                            sources[kept_id].dir.root().display(),
                            sources[source_id].dir.root().display()
                        )));
                    }
                }
            }
        }
    }
    Ok(slots)
}
