//! Streaming, resumable, shardable campaign execution: the campaign
//! directory and the **execute primitive**.
//!
//! A long-running campaign streams every finished run to a **campaign
//! directory** as it completes, making the campaign crash-durable: kill it
//! at any point and [`resume`] picks up where the log ends. A campaign can
//! also be split across machines with [`run`]'s [`ShardSlice`] argument
//! — each shard executes a deterministic slice of the run matrix into
//! an ordinary campaign directory — and reunited by [`crate::merge::merge`].
//!
//! Every verb is a thin call onto two crate-internal primitives. *Execute*
//! (`Target`, this module) opens and verifies a directory, heals a torn
//! tail, and runs an index set on the pool, appending each result as it
//! completes. *Fold* ([`crate::merge`](mod@crate::merge)) unites
//! directories into a report, refusing or re-executing gaps. [`run`] is
//! create + fold, [`resume`] is open + fold, and [`crate::merge::merge`]
//! folds its inputs into a fresh directory.
//!
//! ```text
//! <dir>/manifest.json   campaign name, spec fingerprint, run count, spec,
//!                       and (for shard directories) the shard slice
//! <dir>/runs.jsonl      one JSONL record per finished run, labeled
//!                       samples inline, appended as results complete
//!                       (index-tagged, any order)
//! <dir>/report.json     the final aggregated report (written last; absent
//!                       in shard directories — a shard is not a campaign)
//! ```
//!
//! Workers append each [`RunResult`] the moment it finishes — and nothing
//! retains it afterwards: report building replays the persisted log through
//! a [`ReportAccumulator`](crate::report::ReportAccumulator) one record at
//! a time ([`CampaignDir::replay`]), so a campaign bigger than memory
//! streams through aggregation instead of materializing its full result
//! set. [`resume`] scans the JSONL into a byte-offset [`LogIndex`],
//! verifies the stored [`spec_fingerprint`], executes only the missing run
//! indices and rebuilds the report — byte-identical to an uninterrupted
//! run, because every run's seed derives from the spec alone and records
//! are replayed in matrix order either way.

use crate::executor::{execute_run, Executor, RunResult};
use crate::grid::{self, RunSpec};
use crate::merge::fold;
use crate::report::CampaignReport;
use crate::spec::{CampaignSpec, SpecError};
use dl2fence_telemetry::schema::MANIFEST_SCHEMA;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{BufRead as _, BufReader, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// File name of the campaign manifest inside a campaign directory.
pub const MANIFEST_FILE: &str = "manifest.json";
/// File name of the streamed per-run JSONL log.
pub const RUNS_FILE: &str = "runs.jsonl";
/// File name of the final aggregated report.
pub const REPORT_FILE: &str = "report.json";
/// File name of the optional telemetry event log ([`crate::events`]).
pub const EVENTS_FILE: &str = "events.jsonl";

/// The fingerprint of a campaign spec: FNV-1a 64 over its canonical JSON
/// serialization, rendered as 16 hex digits.
///
/// Two specs share a fingerprint exactly when they serialize identically, so
/// a stored fingerprint pins the whole run matrix (grid, seeds, sim
/// parameters, report grouping and eval configuration).
pub fn spec_fingerprint(spec: &CampaignSpec) -> String {
    let canonical = serde_json::to_string(spec).expect("spec serialization cannot fail");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in canonical.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Which deterministic slice of the run matrix a shard directory owns.
///
/// Shard `index` of `count` owns exactly the run indices congruent to
/// `index` modulo `count` — a strided slice, so every shard samples the
/// whole grid (meshes, workloads, FIRs) instead of one machine drawing all
/// the expensive 16×16 runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSlice {
    /// This shard's position, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards the campaign was split into.
    pub count: usize,
}

impl ShardSlice {
    /// Refuses an impossible slice (`count` zero or `index` past it).
    fn validate(self) -> Result<(), SpecError> {
        if self.count == 0 || self.index >= self.count {
            return Err(SpecError::new(format!(
                "shard {}/{} is not a valid slice (need 0 <= index < count)",
                self.index, self.count
            )));
        }
        Ok(())
    }

    /// Whether this slice owns run index `run_index`.
    ///
    /// # Panics
    ///
    /// Panics when `count` is zero — an invalid slice (directory creation
    /// and [`CampaignDir::manifest`] both reject it before it reaches here).
    pub fn owns(&self, run_index: usize) -> bool {
        run_index % self.count == self.index
    }

    /// The run indices this slice owns, ascending, out of `total` runs.
    ///
    /// # Panics
    ///
    /// Panics when `count` is zero, like [`Self::owns`].
    pub fn owned_indices(&self, total: usize) -> impl Iterator<Item = usize> + '_ {
        (self.index..total).step_by(self.count)
    }
}

/// The manifest stored at the root of a campaign directory: enough to
/// resume the campaign with no other input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Schema identifier ([`MANIFEST_SCHEMA`]); empty in manifests written
    /// before the tag existed, which stay loadable.
    #[serde(default)]
    pub schema: String,
    /// Campaign name (duplicated from the spec for quick inspection).
    pub name: String,
    /// [`spec_fingerprint`] of the embedded spec.
    pub fingerprint: String,
    /// Size of the full expanded run matrix (also for shard directories,
    /// which own only a [`ShardSlice`] of it).
    pub total_runs: usize,
    /// The shard slice this directory executes; `None` for a whole-campaign
    /// directory.
    #[serde(default)]
    pub shard: Option<ShardSlice>,
    /// The full campaign spec.
    pub spec: CampaignSpec,
}

impl Manifest {
    /// Expands the embedded spec into its run matrix.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the spec fails validation or expands to a
    /// different run count than the manifest records.
    pub fn expand(&self) -> Result<Vec<RunSpec>, SpecError> {
        let runs = grid::expand(&self.spec)?;
        if runs.len() != self.total_runs {
            return Err(SpecError::new(format!(
                "manifest of campaign `{}` records {} runs but its spec expands to {}; \
                 the campaign directory is corrupt",
                self.name,
                self.total_runs,
                runs.len()
            )));
        }
        Ok(runs)
    }

    /// Whether this is a whole-campaign directory (not a shard) — the only
    /// kind that builds a report.
    pub fn is_whole(&self) -> bool {
        self.shard.is_none()
    }

    /// The run indices this directory owes, given which of them are stored:
    /// every index for a whole campaign, its slice for a shard. Returns the
    /// owed count and the owed indices with no stored record, in matrix
    /// order.
    pub fn owed(&self, stored: &[bool]) -> (usize, Vec<usize>) {
        let owes = |i: usize| self.shard.is_none_or(|shard| shard.owns(i));
        let owed = (0..stored.len()).filter(|&i| owes(i)).count();
        let missing = (0..stored.len())
            .filter(|&i| owes(i) && !stored[i])
            .collect();
        (owed, missing)
    }
}

impl Default for Manifest {
    /// Deserialization fallback source for the optional `shard` field only —
    /// a default manifest never validates (empty fingerprint).
    fn default() -> Self {
        Manifest {
            schema: String::new(),
            name: String::new(),
            fingerprint: String::new(),
            total_runs: 0,
            shard: None,
            spec: CampaignSpec::default(),
        }
    }
}

/// The byte location of one stored record inside `runs.jsonl`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordEntry {
    /// Byte offset of the record's line start.
    pub offset: u64,
    /// Byte length of the raw line (trailing newline excluded).
    pub len: usize,
}

/// What a streaming scan of `runs.jsonl` found: per-run byte locations
/// instead of materialized records, so indexing a log costs O(records) time
/// but O(1) retained [`RunResult`]s.
#[derive(Debug)]
pub struct LogIndex {
    /// Record locations slotted by run index (`None` where no record
    /// exists).
    pub entries: Vec<Option<RecordEntry>>,
    /// Whether the final line was an unparseable partial record (the
    /// expected shape of a crash mid-append); it is ignored and its run
    /// index re-executed.
    pub truncated_tail: bool,
    /// Byte length of the longest prefix of the log made of whole, valid
    /// records — what opening a directory for execution truncates the file
    /// to before appending, so a torn tail record can never merge with the
    /// next append.
    pub valid_bytes: u64,
    /// Stored records that repeated an already-indexed run index with
    /// identical bytes. The fold keeps the first and skips the rest;
    /// `campaign status` reports the count.
    pub duplicate_records: usize,
}

impl LogIndex {
    /// The index of an empty log over `total` runs.
    pub(crate) fn empty(total: usize) -> Self {
        LogIndex {
            entries: vec![None; total],
            truncated_tail: false,
            valid_bytes: 0,
            duplicate_records: 0,
        }
    }

    /// Stored run count.
    pub fn completed(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// The run indices with no stored record, in matrix order.
    pub fn missing_indices(&self) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.is_none().then_some(i))
            .collect()
    }
}

/// A campaign directory: the on-disk home of one streaming campaign (or one
/// shard of it).
#[derive(Debug, Clone)]
pub struct CampaignDir {
    root: PathBuf,
}

impl CampaignDir {
    /// Initializes a fresh whole-campaign directory for `spec` (whose run
    /// matrix has `total_runs` entries — the caller already expanded it),
    /// creating `root` (and parents) and writing the manifest.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the spec fails validation, the directory
    /// already holds a campaign, or the manifest cannot be written.
    pub fn create(
        root: impl Into<PathBuf>,
        spec: &CampaignSpec,
        total_runs: usize,
    ) -> Result<Self, SpecError> {
        Self::create_inner(root, spec, total_runs, None).map(|(dir, _)| dir)
    }

    /// [`Self::create`] for a whole campaign or a shard: the manifest
    /// additionally records the [`ShardSlice`] the directory executes.
    fn create_inner(
        root: impl Into<PathBuf>,
        spec: &CampaignSpec,
        total_runs: usize,
        shard: Option<ShardSlice>,
    ) -> Result<(Self, Manifest), SpecError> {
        spec.validate()?;
        shard.map(ShardSlice::validate).transpose()?;
        let root = root.into();
        let manifest_path = root.join(MANIFEST_FILE);
        if manifest_path.exists() {
            return Err(SpecError::new(format!(
                "{} already contains a campaign manifest; use `campaign resume` \
                 or choose a fresh directory",
                root.display()
            )));
        }
        std::fs::create_dir_all(&root)
            .map_err(|e| SpecError::new(format!("cannot create {}: {e}", root.display())))?;
        let manifest = Manifest {
            schema: MANIFEST_SCHEMA.to_string(),
            name: spec.name.clone(),
            fingerprint: spec_fingerprint(spec),
            total_runs,
            shard,
            spec: spec.clone(),
        };
        let text =
            serde_json::to_string_pretty(&manifest).expect("manifest serialization cannot fail");
        std::fs::write(&manifest_path, text).map_err(|e| {
            SpecError::new(format!("cannot write {}: {e}", manifest_path.display()))
        })?;
        Ok((CampaignDir { root }, manifest))
    }

    /// Opens an existing campaign directory (the manifest must exist).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if `root` holds no campaign manifest.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, SpecError> {
        let root = root.into();
        if !root.join(MANIFEST_FILE).exists() {
            return Err(SpecError::new(format!(
                "{} is not a campaign directory (no {MANIFEST_FILE})",
                root.display()
            )));
        }
        Ok(CampaignDir { root })
    }

    /// Opens the campaign directory at `root` and reads its self-checked
    /// [`Self::manifest`], which must carry the `expected` fingerprint when
    /// one is given.
    pub(crate) fn open_checked(
        root: impl Into<PathBuf>,
        expected: Option<&str>,
    ) -> Result<(Self, Manifest), SpecError> {
        let dir = Self::open(root)?;
        let manifest = dir.manifest()?;
        if let Some(expected) = expected.filter(|e| *e != manifest.fingerprint) {
            return Err(SpecError::new(format!(
                "spec fingerprint mismatch: {} holds campaign fingerprint {}, but the \
                 expected campaign fingerprints as {expected}; refusing to mix results \
                 from different campaigns",
                dir.root.display(),
                manifest.fingerprint
            )));
        }
        Ok((dir, manifest))
    }

    /// The directory's root path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path of the streamed JSONL run log.
    pub fn runs_path(&self) -> PathBuf {
        self.root.join(RUNS_FILE)
    }

    /// The path of the final report.
    pub fn report_path(&self) -> PathBuf {
        self.root.join(REPORT_FILE)
    }

    /// Reads and self-checks the manifest (the stored fingerprint must match
    /// the embedded spec — a mismatch means the manifest was edited).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on a missing, malformed or self-inconsistent
    /// manifest.
    pub fn manifest(&self) -> Result<Manifest, SpecError> {
        let path = self.root.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| SpecError::new(format!("cannot read {}: {e}", path.display())))?;
        let manifest: Manifest = serde_json::from_str(&text)
            .map_err(|e| SpecError::new(format!("malformed manifest {}: {e}", path.display())))?;
        // Pre-tag manifests carry an empty schema and load fine; anything
        // else must match exactly — a future v2 is not silently readable.
        if !manifest.schema.is_empty() && manifest.schema != MANIFEST_SCHEMA {
            return Err(SpecError::new(format!(
                "{} declares schema `{}` but this build reads `{MANIFEST_SCHEMA}`",
                path.display(),
                manifest.schema
            )));
        }
        let expected = spec_fingerprint(&manifest.spec);
        if manifest.fingerprint != expected {
            return Err(SpecError::new(format!(
                "manifest fingerprint {} does not match its own spec (expected {expected}); \
                 the campaign directory is corrupt",
                manifest.fingerprint
            )));
        }
        manifest.shard.map(ShardSlice::validate).transpose()?;
        Ok(manifest)
    }

    /// Appends one finished run to `runs.jsonl`, flushing the line so a
    /// crash after this call cannot lose it.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the record cannot be written.
    pub fn append_result(&self, writer: &mut File, result: &RunResult) -> Result<(), SpecError> {
        let line = serde_json::to_string(result).expect("run serialization cannot fail");
        append_jsonl(writer, line, &self.runs_path())
    }

    /// Opens `runs.jsonl` for appending (creating it if absent).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the file cannot be opened.
    pub fn open_runs_for_append(&self) -> Result<File, SpecError> {
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.runs_path())
            .map_err(|e| SpecError::new(format!("cannot open {}: {e}", self.runs_path().display())))
    }

    /// Scans `runs.jsonl` against the expanded run matrix, recording every
    /// stored record's byte location by run index — each record is parsed
    /// for validation and dropped immediately, so indexing never holds more
    /// than one [`RunResult`].
    ///
    /// A missing file means an empty index (campaign killed before its
    /// first record). An unparseable **final** line is tolerated as a
    /// crash-truncated partial record; anything unparseable earlier, an
    /// out-of-range index, or a stored record whose run spec disagrees with
    /// the matrix is an error. A duplicate index is deduplicated when its
    /// record bytes are identical to the stored one (first wins) and is an
    /// error when they conflict.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] describing the first corrupt record.
    pub fn index_log(&self, runs: &[RunSpec]) -> Result<LogIndex, SpecError> {
        let path = self.runs_path();
        let Some(file) = open_if_exists(&path)? else {
            return Ok(LogIndex::empty(runs.len()));
        };
        let mut entries: Vec<Option<RecordEntry>> = vec![None; runs.len()];
        let mut duplicate_records = 0usize;
        let mut reader: Option<File> = None;
        let scan = scan_jsonl(file, &path, "record", |line_no, offset, line| {
            let record: RunResult = match serde_json::from_str(line) {
                Ok(record) => record,
                Err(e) => return Ok(Some(e.to_string())),
            };
            let index = record.spec.index;
            let Some(expected) = runs.get(index) else {
                return Err(SpecError::new(format!(
                    "record on line {line_no} of {} has run index {index}, but the campaign \
                     expands to {} runs",
                    path.display(),
                    runs.len()
                )));
            };
            if record.spec != *expected {
                return Err(SpecError::new(format!(
                    "record on line {line_no} of {} disagrees with the spec's run matrix at \
                     index {index}; the run log belongs to a different campaign",
                    path.display()
                )));
            }
            drop(record);
            let entry = RecordEntry {
                offset,
                len: line.len(),
            };
            match entries[index] {
                // First record for this index wins; a repeat must be
                // byte-identical (runs are deterministic) or the log mixes
                // results from different executions.
                Some(existing) => {
                    if reader.is_none() {
                        reader = Some(self.open_runs_for_read()?);
                    }
                    let reader = reader.as_mut().expect("just opened");
                    if self.read_record_line_at(reader, &existing)? != line {
                        return Err(SpecError::new(format!(
                            "run index {index} appears twice in {} with conflicting \
                             payloads (line {line_no})",
                            path.display()
                        )));
                    }
                    duplicate_records += 1;
                }
                None => entries[index] = Some(entry),
            }
            Ok(None)
        })?;
        Ok(LogIndex {
            entries,
            truncated_tail: scan.truncated_tail,
            valid_bytes: scan.valid_bytes,
            duplicate_records,
        })
    }

    /// Opens `runs.jsonl` for random-access reads ([`Self::read_record_line_at`]).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the file cannot be opened.
    pub fn open_runs_for_read(&self) -> Result<File, SpecError> {
        File::open(self.runs_path())
            .map_err(|e| SpecError::new(format!("cannot read {}: {e}", self.runs_path().display())))
    }

    /// Reads one stored record's exact bytes back from `runs.jsonl` by its
    /// [`RecordEntry`], through an already open handle
    /// ([`Self::open_runs_for_read`]) — hot loops like fold replay read
    /// thousands of records without reopening the file each time.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the bytes cannot be read.
    pub fn read_record_line_at(
        &self,
        file: &mut File,
        entry: &RecordEntry,
    ) -> Result<String, SpecError> {
        // The path is built only on failure: replay reads every record here.
        let path = || self.runs_path();
        file.seek(SeekFrom::Start(entry.offset))
            .map_err(|e| SpecError::new(format!("cannot seek in {}: {e}", path().display())))?;
        let mut bytes = vec![0u8; entry.len];
        file.read_exact(&mut bytes)
            .map_err(|e| SpecError::new(format!("cannot read {}: {e}", path().display())))?;
        String::from_utf8(bytes).map_err(|e| {
            SpecError::new(format!(
                "record at byte {} of {} is not UTF-8: {e}",
                entry.offset,
                path().display()
            ))
        })
    }

    /// Replays the indexed log in run-index order, handing each parsed
    /// [`RunResult`] to `fold` **one at a time** — the record is dropped the
    /// moment the fold returns, so replay retains O(1) runs regardless of
    /// campaign size. Indices with no stored record are skipped.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if a record cannot be re-read or re-parsed
    /// (the log changed underneath the index).
    pub fn replay(
        &self,
        index: &LogIndex,
        mut fold: impl FnMut(RunResult),
    ) -> Result<(), SpecError> {
        self.try_replay(index, |record| {
            fold(record);
            Ok(())
        })
    }

    /// [`Self::replay`] with a fallible fold — a fold error (such as
    /// [`crate::ReportAccumulator::try_fold`] refusing a record without
    /// samples) aborts the replay.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if a record cannot be re-read or re-parsed,
    /// or the first error `fold` returns.
    pub fn try_replay(
        &self,
        index: &LogIndex,
        mut fold: impl FnMut(RunResult) -> Result<(), SpecError>,
    ) -> Result<(), SpecError> {
        let mut file = self.open_runs_for_read()?;
        for entry in index.entries.iter().flatten() {
            let line = self.read_record_line_at(&mut file, entry)?;
            fold(self.parse_record(&line, entry)?)?;
        }
        Ok(())
    }

    /// Parses a record line re-read from `runs.jsonl` at `entry`; failing
    /// means the log changed underneath its index.
    pub(crate) fn parse_record(
        &self,
        line: &str,
        entry: &RecordEntry,
    ) -> Result<RunResult, SpecError> {
        serde_json::from_str(line.trim()).map_err(|e| {
            SpecError::new(format!(
                "record at byte {} of {} changed under the index: {e}",
                entry.offset,
                self.runs_path().display()
            ))
        })
    }

    /// Truncates `runs.jsonl` to `valid_bytes` — called when opening a
    /// directory for execution finds a torn tail record, so the next append
    /// starts on a fresh line instead of merging into the partial one.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the file cannot be truncated.
    pub fn truncate_runs_to(&self, valid_bytes: u64) -> Result<(), SpecError> {
        let path = self.runs_path();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .and_then(|file| file.set_len(valid_bytes))
            .map_err(|e| SpecError::new(format!("cannot truncate {}: {e}", path.display())))
    }

    /// Writes the final report atomically (temp file + rename), so a crash
    /// can never leave a partial `report.json` masquerading as complete.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the report cannot be written.
    pub fn write_report(&self, report: &CampaignReport) -> Result<(), SpecError> {
        write_atomic(&self.report_path(), &report.to_json())
    }
}

/// What a torn-tail-tolerant JSONL scan concluded about a whole file.
pub(crate) struct JsonlScan {
    /// Byte length of the longest prefix made of whole, valid records.
    pub valid_bytes: u64,
    /// Whether the file ends in a torn (crash-truncated or partially
    /// appended) record.
    pub truncated_tail: bool,
}

/// The torn-tail-tolerant JSONL scan loop shared by the run-log index
/// ([`CampaignDir::index_log`]) and the telemetry event log
/// ([`crate::events`]): reads whole lines, skips blanks, treats a final
/// line that fails `on_line` validation *or* lacks its trailing newline (a
/// partially applied append — writers frame record + newline in one write)
/// as torn, and promotes the same failure mid-file to a hard corruption
/// error naming `what`.
///
/// `on_line(line_no, offset_of_line_start, trimmed_line)` returns
/// `Ok(None)` to accept the record, `Ok(Some(reason))` to mark it
/// unparseable (tolerated only as the final line), or `Err` to abort.
pub(crate) fn scan_jsonl(
    file: File,
    path: &Path,
    what: &str,
    mut on_line: impl FnMut(usize, u64, &str) -> Result<Option<String>, SpecError>,
) -> Result<JsonlScan, SpecError> {
    let mut reader = BufReader::new(file);
    let mut valid_bytes = 0u64;
    let mut offset = 0u64;
    let mut line_no = 0usize;
    // A parse failure is only tolerable if nothing follows it; remember it
    // and keep scanning so a later record can prove it mid-file.
    let mut pending_error: Option<(usize, String)> = None;
    let mut segment = String::new();
    loop {
        segment.clear();
        let read = reader
            .read_line(&mut segment)
            .map_err(|e| SpecError::new(format!("cannot read {}: {e}", path.display())))?;
        if read == 0 {
            break;
        }
        line_no += 1;
        let line_start = offset;
        offset += read as u64;
        let line = segment.trim();
        if line.is_empty() {
            continue;
        }
        if let Some((bad_line, error)) = pending_error.take() {
            return Err(SpecError::new(format!(
                "corrupt {what} on line {bad_line} of {}: {error}",
                path.display()
            )));
        }
        if !segment.ends_with('\n') {
            pending_error = Some((line_no, "missing trailing newline".to_string()));
            continue;
        }
        let leading = (segment.len() - segment.trim_start().len()) as u64;
        match on_line(line_no, line_start + leading, line)? {
            None => valid_bytes = offset,
            Some(reason) => pending_error = Some((line_no, reason)),
        }
    }
    Ok(JsonlScan {
        valid_bytes,
        truncated_tail: pending_error.is_some(),
    })
}

/// Writes `text` to `path` atomically: a temp file, then a rename, so a
/// reader never sees a partial file.
pub(crate) fn write_atomic(path: &Path, text: &str) -> Result<(), SpecError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)
        .map_err(|e| SpecError::new(format!("cannot write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| SpecError::new(format!("cannot finalize {}: {e}", path.display())))
}

/// Opens `path` for reading, or `Ok(None)` when it does not exist — every
/// torn-tail-tolerant reader treats a missing file as an empty one.
pub(crate) fn open_if_exists(path: &Path) -> Result<Option<File>, SpecError> {
    match File::open(path) {
        Ok(file) => Ok(Some(file)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(SpecError::new(format!(
            "cannot open {}: {e}",
            path.display()
        ))),
    }
}

/// Reads a whole JSONL file through [`scan_jsonl`], parsing each line with
/// `parse` (its error marks the line unparseable). A missing file reads as
/// empty. Returns the records and whether the file ends in a torn record.
pub(crate) fn read_jsonl<T>(
    path: &Path,
    what: &str,
    mut parse: impl FnMut(&str) -> Result<T, String>,
) -> Result<(Vec<T>, bool), SpecError> {
    let Some(file) = open_if_exists(path)? else {
        return Ok((Vec::new(), false));
    };
    let mut records = Vec::new();
    let scan = scan_jsonl(file, path, what, |_, _, line| match parse(line) {
        Ok(record) => {
            records.push(record);
            Ok(None)
        }
        Err(e) => Ok(Some(e)),
    })?;
    Ok((records, scan.truncated_tail))
}

/// Appends one JSONL record, given without its newline, in a single write
/// (a crash can only ever tear the final line, which the next scan heals)
/// and flushes it.
pub(crate) fn append_jsonl(
    writer: &mut File,
    mut line: String,
    path: &Path,
) -> Result<(), SpecError> {
    line.push('\n');
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| SpecError::new(format!("cannot append to {}: {e}", path.display())))
}

/// A campaign directory opened for execution — the **execute primitive**
/// under every campaign verb. Opening verifies the manifest, expands the
/// run matrix and heals a torn tail; [`Self::execute`] then runs any index
/// set on the worker pool and appends each result the moment it completes.
pub(crate) struct Target {
    pub(crate) dir: CampaignDir,
    pub(crate) manifest: Manifest,
    pub(crate) runs: Vec<RunSpec>,
    /// Which run indices the log stores, kept current across appends.
    stored: Vec<bool>,
    writer: Option<File>,
}

impl Target {
    /// Initializes a fresh directory for `spec`, whose expanded matrix is
    /// `runs`; the manifest records the shard slice the directory executes,
    /// if any.
    pub(crate) fn create(
        root: impl Into<PathBuf>,
        spec: &CampaignSpec,
        runs: Vec<RunSpec>,
        shard: Option<ShardSlice>,
    ) -> Result<Self, SpecError> {
        let (dir, manifest) = CampaignDir::create_inner(root, spec, runs.len(), shard)?;
        Ok(Target {
            dir,
            manifest,
            stored: vec![false; runs.len()],
            runs,
            writer: None,
        })
    }

    /// Opens the existing directory at `root`: verifies its manifest (and
    /// the `expected` fingerprint, when given), expands the run matrix,
    /// indexes the log and heals a torn tail. Returns the log index too —
    /// a fold replays it without scanning the log again.
    pub(crate) fn open(
        root: impl Into<PathBuf>,
        expected: Option<&str>,
    ) -> Result<(Self, LogIndex), SpecError> {
        let (dir, manifest) = CampaignDir::open_checked(root, expected)?;
        let runs = manifest.expand()?;
        let index = dir.index_log(&runs)?;
        if index.truncated_tail {
            // Heal the log: drop the torn record so the next append starts a
            // fresh line — otherwise the first re-executed record merges into
            // the partial one and corrupts the log for every later resume.
            dir.truncate_runs_to(index.valid_bytes)?;
        }
        let target = Target {
            dir,
            manifest,
            stored: index.entries.iter().map(Option::is_some).collect(),
            runs,
            writer: None,
        };
        Ok((target, index))
    }

    /// Executes every run of `indices` the log does not store yet,
    /// appending each result the moment it completes and dropping it — the
    /// pool retains no result set.
    ///
    /// A failed append aborts the pool (in-flight runs finish and are
    /// discarded), so a full disk cannot burn the rest of a long campaign on
    /// unpersistable work. A panicking run becomes an error naming its run
    /// index.
    pub(crate) fn execute(
        &mut self,
        executor: &Executor,
        indices: &[usize],
    ) -> Result<(), SpecError> {
        let pending: Vec<&RunSpec> = indices
            .iter()
            .filter(|&&i| !self.stored[i])
            .map(|&i| &self.runs[i])
            .collect();
        if pending.is_empty() {
            return Ok(());
        }
        if self.writer.is_none() {
            self.writer = Some(self.dir.open_runs_for_append()?);
        }
        let writer = self.writer.as_mut().expect("just opened");
        let (dir, stored, sim) = (&self.dir, &mut self.stored, &self.manifest.spec.sim);
        let telemetry = executor.telemetry();
        let rec = telemetry.recorder();
        let mut failure: Option<SpecError> = None;
        let done = rec.time("campaign.execute", || {
            executor.try_run_jobs_foreach(
                &pending,
                |run| {
                    let rec = telemetry.recorder();
                    let _span = rec.span_indexed("run", run.index as u64);
                    execute_run(sim, run)
                },
                |_, result| match rec.time("log.append", || dir.append_result(writer, &result)) {
                    Ok(()) => {
                        stored[result.spec.index] = true;
                        true
                    }
                    Err(e) => {
                        failure = Some(e);
                        false
                    }
                },
            )
        });
        match (done, failure) {
            (Err(panic), _) => Err(SpecError::new(format!(
                "run {} panicked: {}; every run completed before the panic is already \
                 persisted in {} — fix the cause, then resume the campaign to execute \
                 only the missing runs",
                pending[panic.job_index].index,
                panic.message,
                self.dir.root().display()
            ))),
            (_, Some(e)) => Err(e),
            (Ok(_), None) => Ok(()),
        }
    }
}

/// Executes `spec` into a fresh campaign directory at `root`: every run is
/// appended to `runs.jsonl` as it completes, then the report is folded from
/// the log and lands in `report.json`. With a `shard` slice, the manifest
/// records it, only its runs execute, and no report is built (`Ok(None)`)
/// — [`crate::merge::merge`] the shards to obtain it.
///
/// The report is byte-identical to [`Executor::execute`] +
/// [`CampaignReport::build`] on the same spec.
///
/// # Errors
///
/// Returns a [`SpecError`] on an invalid spec or slice, an
/// already-initialized directory, or any I/O failure.
pub fn run(
    executor: &Executor,
    spec: &CampaignSpec,
    root: impl Into<PathBuf>,
    shard: Option<ShardSlice>,
) -> Result<Option<CampaignReport>, SpecError> {
    let runs = grid::expand(spec)?;
    let total = runs.len();
    let target = Target::create(root, spec, runs, shard)?;
    fold(executor, target, LogIndex::empty(total), Vec::new(), true)
}

/// [`run`] of a whole campaign, returning its report.
///
/// # Errors
///
/// Returns a [`SpecError`] under the same conditions as [`run`].
pub fn run_streaming(
    executor: &Executor,
    spec: &CampaignSpec,
    root: impl Into<PathBuf>,
) -> Result<CampaignReport, SpecError> {
    run(executor, spec, root, None)
        .map(|report| report.expect("a whole campaign folds to a report"))
}

/// Resumes the campaign stored at `root`: verifies the manifest fingerprint
/// (against `expected_spec` too, when given), heals a torn tail, executes
/// the run indices the directory owes but no record stores, and folds the
/// report — byte-identical to an uninterrupted run. A shard directory
/// executes only its own slice and builds no report (`Ok(None)`).
///
/// # Errors
///
/// Returns a [`SpecError`] if the directory is missing or corrupt, or if
/// `expected_spec` fingerprints differently from the stored spec (no silent
/// partial reuse across spec changes).
pub fn resume(
    executor: &Executor,
    root: impl Into<PathBuf>,
    expected_spec: Option<&CampaignSpec>,
) -> Result<Option<CampaignReport>, SpecError> {
    let expected = expected_spec.map(spec_fingerprint);
    let (target, index) = Target::open(root, expected.as_deref())?;
    fold(executor, target, index, Vec::new(), true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::quick("stream-tiny");
        spec.grid.mesh = vec![4];
        spec.grid.fir = vec![0.8];
        spec.grid.workloads = vec!["uniform".into()];
        spec.grid.attack_placements = 2;
        spec.grid.benign_runs = 1;
        spec.grid.seeds = vec![11];
        spec.sim.warmup_cycles = 50;
        spec.sim.sample_period = 150;
        spec.sim.samples_per_run = 1;
        spec
    }

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("dl2fence-stream-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn fingerprint_is_stable_and_spec_sensitive() {
        let spec = tiny_spec();
        assert_eq!(spec_fingerprint(&spec), spec_fingerprint(&spec));
        let mut other = spec.clone();
        other.grid.seeds = vec![12];
        assert_ne!(spec_fingerprint(&spec), spec_fingerprint(&other));
    }

    #[test]
    fn shard_slices_partition_every_matrix() {
        for total in [0usize, 1, 5, 12, 97] {
            for count in 1usize..=5 {
                let mut seen = vec![false; total];
                for index in 0..count {
                    let slice = ShardSlice { index, count };
                    for i in slice.owned_indices(total) {
                        assert!(!seen[i], "index {i} owned by two slices");
                        assert!(slice.owns(i));
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "total {total} count {count}");
            }
        }
    }

    #[test]
    fn create_refuses_an_initialized_directory() {
        let root = temp_root("create");
        let spec = tiny_spec();
        let total = grid::expand(&spec).unwrap().len();
        CampaignDir::create(&root, &spec, total).unwrap();
        let err = CampaignDir::create(&root, &spec, total).unwrap_err();
        assert!(err.to_string().contains("already contains"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn streaming_run_writes_every_record_and_the_report() {
        let root = temp_root("full");
        let spec = tiny_spec();
        let report = run_streaming(&Executor::new(2), &spec, &root).unwrap();
        assert_eq!(report.total_runs, 3);
        let jsonl = std::fs::read_to_string(root.join(RUNS_FILE)).unwrap();
        assert_eq!(jsonl.lines().count(), 3);
        assert_eq!(
            std::fs::read_to_string(root.join(REPORT_FILE)).unwrap(),
            report.to_json()
        );
        // A completed campaign resumes with nothing to do, byte-identically.
        let resumed = resume(&Executor::new(3), &root, Some(&spec))
            .unwrap()
            .unwrap();
        assert_eq!(resumed.to_json(), report.to_json());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn shard_run_streams_only_owned_indices_and_no_report() {
        let root = temp_root("shard");
        let spec = tiny_spec();
        let total = grid::expand(&spec).unwrap().len();
        let shard = ShardSlice { index: 1, count: 2 };
        assert!(run(&Executor::new(2), &spec, &root, Some(shard))
            .unwrap()
            .is_none());
        let executed = shard.owned_indices(total).count();
        assert!(!root.join(REPORT_FILE).exists(), "shards build no report");

        let dir = CampaignDir::open(&root).unwrap();
        let manifest = dir.manifest().unwrap();
        assert_eq!(manifest.shard, Some(shard));
        assert_eq!(manifest.total_runs, total);
        let index = dir.index_log(&grid::expand(&spec).unwrap()).unwrap();
        assert_eq!(index.completed(), executed);
        for (i, entry) in index.entries.iter().enumerate() {
            assert_eq!(entry.is_some(), shard.owns(i));
        }
        // A complete shard resumes to Ok(None) with nothing re-executed.
        let log_before = std::fs::read_to_string(dir.runs_path()).unwrap();
        assert!(resume(&Executor::new(2), &root, Some(&spec))
            .unwrap()
            .is_none());
        assert_eq!(
            std::fs::read_to_string(dir.runs_path()).unwrap(),
            log_before
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn invalid_shard_slices_are_refused() {
        let spec = tiny_spec();
        for (index, count) in [(0, 0), (2, 2), (5, 3)] {
            let shard = Some(ShardSlice { index, count });
            let root = temp_root("badshard");
            let err = run(&Executor::new(1), &spec, root, shard).unwrap_err();
            assert!(err.to_string().contains("not a valid slice"), "{err}");
        }
    }

    #[test]
    fn index_tolerates_only_a_truncated_final_line() {
        let root = temp_root("scan");
        let spec = tiny_spec();
        run_streaming(&Executor::new(1), &spec, &root).unwrap();
        let dir = CampaignDir::open(&root).unwrap();
        let runs = grid::expand(&spec).unwrap();
        let full = std::fs::read_to_string(dir.runs_path()).unwrap();
        let mut lines: Vec<&str> = full.lines().collect();

        // Chop the final record mid-line: tolerated, index re-listed, and
        // valid_bytes points at the end of the last whole record.
        let tail = lines.pop().unwrap();
        let whole = format!("{}\n", lines.join("\n"));
        let truncated = format!("{whole}{}", &tail[..tail.len() / 2]);
        std::fs::write(dir.runs_path(), truncated).unwrap();
        let index = dir.index_log(&runs).unwrap();
        assert!(index.truncated_tail);
        assert_eq!(index.missing_indices(), vec![runs.len() - 1]);
        assert_eq!(index.valid_bytes, whole.len() as u64);

        // The same garbage mid-file is corruption, not a crash artifact.
        let garbled = format!("{}\n{}\n{}\n", &tail[..tail.len() / 2], lines[0], tail);
        std::fs::write(dir.runs_path(), garbled).unwrap();
        let err = dir.index_log(&runs).unwrap_err();
        assert!(err.to_string().contains("corrupt record"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn duplicate_records_dedupe_when_identical_and_fail_when_conflicting() {
        let root = temp_root("dup");
        let spec = tiny_spec();
        run_streaming(&Executor::new(1), &spec, &root).unwrap();
        let dir = CampaignDir::open(&root).unwrap();
        let runs = grid::expand(&spec).unwrap();
        let full = std::fs::read_to_string(dir.runs_path()).unwrap();
        let first = full.lines().next().unwrap();

        // An identical repeat dedupes cleanly (first wins).
        std::fs::write(dir.runs_path(), format!("{full}{first}\n")).unwrap();
        let index = dir.index_log(&runs).unwrap();
        assert_eq!(index.completed(), runs.len());

        // A conflicting repeat (same index, different payload) is an error.
        let tampered = tamper_metric(first);
        std::fs::write(dir.runs_path(), format!("{full}{tampered}\n")).unwrap();
        let err = dir.index_log(&runs).unwrap_err();
        assert!(err.to_string().contains("conflicting"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Alters a record's `packets_created` count, keeping the JSON valid and
    /// the embedded run spec untouched — a payload conflict, not corruption.
    pub(crate) fn tamper_metric(line: &str) -> String {
        let mut record: RunResult = serde_json::from_str(line).unwrap();
        record.metrics.packets_created += 1;
        serde_json::to_string(&record).unwrap()
    }

    #[test]
    fn replay_hands_records_over_one_at_a_time_in_index_order() {
        let root = temp_root("replay");
        let spec = tiny_spec();
        run_streaming(&Executor::new(2), &spec, &root).unwrap();
        let dir = CampaignDir::open(&root).unwrap();
        let runs = grid::expand(&spec).unwrap();
        let index = dir.index_log(&runs).unwrap();

        let mut seen = Vec::new();
        let mut live = 0usize;
        let mut peak = 0usize;
        dir.replay(&index, |record| {
            live += 1;
            peak = peak.max(live);
            seen.push(record.spec.index);
            // `record` is dropped here — replay retains nothing between
            // calls, so `live` can never exceed one.
            live -= 1;
        })
        .unwrap();
        assert_eq!(seen, (0..runs.len()).collect::<Vec<_>>());
        assert_eq!(peak, 1, "replay must materialize one record at a time");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
