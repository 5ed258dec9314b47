//! The campaign directory's eval sample store.
//!
//! `campaign compact --strip-samples` (and `campaign work --strip-samples`
//! on exit) moves each run record's labeled-sample payload out of
//! `runs.jsonl` into a [`SampleStore`], leaving a scalar-only log. The
//! report fold ([`crate::merge::fold`], behind run, resume, merge and the
//! scheduler's assembly) fills each stripped record's samples back in from
//! the store by `(mesh, run index)` before folding it, so a stripped
//! directory rebuilds a byte-identical report. Nothing else writes the
//! store: the eval phase itself trains on all of a frame geometry's samples
//! at once, so the report fold keeps them in memory.
//!
//! ```text
//! <dir>/samples/manifest.json   the owning spec's fingerprint
//! <dir>/samples/<mesh>.jsonl    one JSONL record per (run, mesh) sample
//!                               batch: {"index": run_index, "mesh": mesh,
//!                               "samples": [...]}, appended in strip order
//! ```
//!
//! Batches are **index-tagged**, so file order never matters: a lookup
//! goes by run index, which is unique across the run matrix (and so across
//! frame geometries that share a row count). Index tagging is also what
//! makes stores mergeable: [`crate::merge::merge`] unions shard stores
//! batch by batch, and a stripped record's samples are found regardless of
//! which execution produced them.
//!
//! The store tolerates exactly the failure shapes the run log does: a torn
//! final line (a crash mid-append) is healed away on attach, an identical
//! duplicate batch dedupes (runs are deterministic), and a conflicting
//! duplicate or a foreign fingerprint aborts.

use crate::spec::SpecError;
use crate::stream::{append_jsonl, read_line_at, scan_jsonl, RecordEntry};
use noc_monitor::LabeledSample;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};

/// File name of the store manifest inside a samples directory.
pub const SAMPLES_MANIFEST_FILE: &str = "manifest.json";

/// One stored record: all labeled samples one run collected, tagged with
/// the run's matrix index so a lookup finds them no matter when (or by
/// whom) the batch was written.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleBatch {
    /// Run index of the run the samples came from.
    pub index: usize,
    /// Mesh side of the run (duplicated from the file name so a record is
    /// self-describing).
    pub mesh: usize,
    /// The labeled samples, in collection order.
    pub samples: Vec<LabeledSample>,
}

/// The manifest stored at the root of a samples directory: pins the store
/// to one campaign spec so samples can never silently mix across specs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleManifest {
    /// [`crate::stream::spec_fingerprint`] of the owning campaign.
    pub fingerprint: String,
}

/// Size and health of one samples directory, as reported by
/// [`SampleStore::inspect`] (the read-only path behind `campaign status`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpillStats {
    /// Per-mesh sample files found.
    pub files: usize,
    /// Whole batches stored across all files.
    pub batches: usize,
    /// Labeled samples stored across all batches.
    pub samples: usize,
    /// Total bytes of the sample files.
    pub bytes: u64,
    /// Whether any file ends in a torn (crash-truncated) record.
    pub truncated_tail: bool,
}

/// One per-mesh sample file with its scanned batch locations.
#[derive(Debug)]
struct SamplePool {
    mesh: usize,
    path: PathBuf,
    /// `(run index, byte location)` per stored batch, in file order (the
    /// order [`SampleStore::for_each_raw`] copies in).
    entries: Vec<(usize, RecordEntry)>,
    /// Run index → byte location, for O(1) lookups and duplicate checks —
    /// big stripped campaigns append, reattach and fold in linear, not
    /// quadratic, time.
    by_index: HashMap<usize, RecordEntry>,
    /// Length of the longest whole-record prefix of the file.
    valid_bytes: u64,
    writer: Option<File>,
}

impl SamplePool {
    fn entry_for(&self, index: usize) -> Option<RecordEntry> {
        self.by_index.get(&index).copied()
    }
}

/// A disk-backed eval sample store rooted at a `samples/` directory.
///
/// Attach with [`SampleStore::attach`] (creating the directory and manifest
/// if absent) to append, or open an existing store read-only with
/// [`SampleStore::open_existing`] (merge reads shard stores this way).
#[derive(Debug)]
pub struct SampleStore {
    root: PathBuf,
    pools: Vec<SamplePool>,
    /// Whether this store may append: true for [`SampleStore::attach`]
    /// (which healed any torn tail, so appends land on a record boundary),
    /// false for [`SampleStore::open_existing`] (whose files may still end
    /// in a tolerated torn record that an append would merge into).
    writable: bool,
}

impl SampleStore {
    /// Attaches the store at `root` for reading and appending, creating the
    /// directory and manifest on first use. Pre-existing sample files are
    /// scanned (each batch parsed for validation and dropped) and a torn
    /// final record is healed away, exactly like the run-log scan.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the directory holds a store written by a
    /// different spec fingerprint, a file is corrupt mid-stream, or any I/O
    /// fails.
    pub fn attach(root: impl Into<PathBuf>, fingerprint: &str) -> Result<Self, SpecError> {
        let root = root.into();
        let manifest_path = root.join(SAMPLES_MANIFEST_FILE);
        if manifest_path.exists() {
            check_manifest(&root, Some(fingerprint))?;
        } else {
            std::fs::create_dir_all(&root)
                .map_err(|e| SpecError::new(format!("cannot create {}: {e}", root.display())))?;
            let manifest = SampleManifest {
                fingerprint: fingerprint.to_string(),
            };
            let text = serde_json::to_string_pretty(&manifest)
                .expect("sample manifest serialization cannot fail");
            std::fs::write(&manifest_path, text).map_err(|e| {
                SpecError::new(format!("cannot write {}: {e}", manifest_path.display()))
            })?;
        }
        let mut store = SampleStore {
            root,
            pools: Vec::new(),
            writable: true,
        };
        store.scan_existing(true)?;
        Ok(store)
    }

    /// Opens the store at `root` read-only, returning `Ok(None)` when no
    /// store exists there. Nothing is created or healed — a torn tail is
    /// tolerated in place (its batch treated as not stored), which is what
    /// lets merge read shard stores without modifying its inputs.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on a corrupt store or (when `fingerprint` is
    /// given) a store written by a different campaign.
    pub fn open_existing(
        root: impl Into<PathBuf>,
        fingerprint: Option<&str>,
    ) -> Result<Option<Self>, SpecError> {
        let root = root.into();
        if !root.join(SAMPLES_MANIFEST_FILE).exists() {
            return Ok(None);
        }
        check_manifest(&root, fingerprint)?;
        let mut store = SampleStore {
            root,
            pools: Vec::new(),
            writable: false,
        };
        store.scan_existing(false)?;
        Ok(Some(store))
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The mesh sides with at least one stored batch, in ascending order.
    pub fn meshes(&self) -> Vec<usize> {
        let mut meshes: Vec<usize> = self
            .pools
            .iter()
            .filter(|p| !p.entries.is_empty())
            .map(|p| p.mesh)
            .collect();
        meshes.sort_unstable();
        meshes
    }

    /// Appends one run's sample batch for `mesh`, flushing the line so a
    /// crash after this call cannot lose it. An identical batch already
    /// stored for the same run index dedupes (returns `Ok(false)`).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if a conflicting batch is already stored for
    /// the index, or the record cannot be written.
    pub fn append_batch(
        &mut self,
        mesh: usize,
        index: usize,
        samples: Vec<LabeledSample>,
    ) -> Result<bool, SpecError> {
        let batch = SampleBatch {
            index,
            mesh,
            samples,
        };
        let line = serde_json::to_string(&batch).expect("sample batch serialization cannot fail");
        self.append_line(mesh, index, &line)
    }

    /// [`Self::append_batch`] over an already serialized record line — the
    /// merge path copies batches between stores without re-encoding them.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on a conflicting duplicate or I/O failure.
    pub fn append_line(
        &mut self,
        mesh: usize,
        index: usize,
        line: &str,
    ) -> Result<bool, SpecError> {
        if !self.writable {
            // An open_existing store may still end in a tolerated torn
            // record; appending would merge into it and corrupt the file.
            return Err(SpecError::new(format!(
                "sample store {} was opened read-only; attach it to append",
                self.root.display()
            )));
        }
        let pool_path = self.root.join(format!("{mesh}.jsonl"));
        let pool = match self.pools.iter_mut().find(|p| p.mesh == mesh) {
            Some(pool) => pool,
            None => {
                self.pools.push(SamplePool {
                    mesh,
                    path: pool_path,
                    entries: Vec::new(),
                    by_index: HashMap::new(),
                    valid_bytes: 0,
                    writer: None,
                });
                self.pools.last_mut().expect("just pushed")
            }
        };
        if let Some(existing) = pool.entry_for(index) {
            // Runs are deterministic: a repeat strip of the same run's batch
            // is byte-identical. Anything else mixes campaigns.
            let mut file = File::open(&pool.path)
                .map_err(|e| SpecError::new(format!("cannot read {}: {e}", pool.path.display())))?;
            let stored = read_line_at(&mut file, &existing, &pool.path)?;
            if stored == line {
                return Ok(false);
            }
            return Err(SpecError::new(format!(
                "sample batch for run index {index} already stored in {} with a \
                 conflicting payload",
                pool.path.display()
            )));
        }
        if pool.writer.is_none() {
            pool.writer = Some(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&pool.path)
                    .map_err(|e| {
                        SpecError::new(format!("cannot open {}: {e}", pool.path.display()))
                    })?,
            );
        }
        let writer = pool.writer.as_mut().expect("just opened");
        // One write for record + newline, exactly like the run-log append:
        // never a whole line missing its newline for a later append to
        // merge into.
        append_jsonl(writer, line.to_string(), &pool.path)?;
        let entry = RecordEntry {
            offset: pool.valid_bytes,
            len: line.len(),
        };
        pool.entries.push((index, entry));
        pool.by_index.insert(index, entry);
        pool.valid_bytes += line.len() as u64 + 1;
        Ok(true)
    }

    /// Flushes every sample file this store has appended to down to stable
    /// storage (`fsync` on each open writer, then on the directory entry) —
    /// `campaign compact --strip-samples` calls this before swapping the
    /// stripped run log in, so a power loss can never leave scalar-only
    /// records whose samples exist nowhere.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if a sync fails.
    pub fn sync_all(&mut self) -> Result<(), SpecError> {
        let mut synced_any = false;
        for pool in &mut self.pools {
            if let Some(writer) = &mut pool.writer {
                writer.sync_all().map_err(|e| {
                    SpecError::new(format!("cannot sync {}: {e}", pool.path.display()))
                })?;
                synced_any = true;
            }
        }
        if synced_any {
            File::open(&self.root)
                .and_then(|dir| dir.sync_all())
                .map_err(|e| SpecError::new(format!("cannot sync {}: {e}", self.root.display())))?;
        }
        Ok(())
    }

    /// Reads back the samples stored for run `index` of `mesh`, or
    /// `Ok(None)` when the store holds no batch for it — the lookup that
    /// fills a stripped record's samples during the report fold. The run
    /// index is unique across the whole matrix, so the lookup can never
    /// hand one frame geometry another geometry's samples.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the batch cannot be re-read or re-parsed.
    pub fn batch(&self, mesh: usize, index: usize) -> Result<Option<SampleBatch>, SpecError> {
        let Some(pool) = self.pools.iter().find(|p| p.mesh == mesh) else {
            return Ok(None);
        };
        let Some(entry) = pool.entry_for(index) else {
            return Ok(None);
        };
        let mut file = File::open(&pool.path)
            .map_err(|e| SpecError::new(format!("cannot read {}: {e}", pool.path.display())))?;
        let line = read_line_at(&mut file, &entry, &pool.path)?;
        serde_json::from_str(line.trim()).map(Some).map_err(|e| {
            SpecError::new(format!(
                "sample batch at byte {} of {} changed under the index: {e}",
                entry.offset,
                pool.path.display()
            ))
        })
    }

    /// Replays every stored batch for `mesh` as raw record lines, in file
    /// order — the merge path copies shard stores with this.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if a line cannot be re-read.
    pub fn for_each_raw(
        &self,
        mesh: usize,
        mut visit: impl FnMut(usize, &str) -> Result<(), SpecError>,
    ) -> Result<(), SpecError> {
        let Some(pool) = self.pools.iter().find(|p| p.mesh == mesh) else {
            return Ok(());
        };
        if pool.entries.is_empty() {
            return Ok(());
        }
        let mut file = File::open(&pool.path)
            .map_err(|e| SpecError::new(format!("cannot read {}: {e}", pool.path.display())))?;
        for (index, entry) in &pool.entries {
            let line = read_line_at(&mut file, entry, &pool.path)?;
            visit(*index, line.trim())?;
        }
        Ok(())
    }

    /// Sizes up the samples directory at `root` without touching it:
    /// `Ok(None)` when no store exists. The read-only path behind
    /// `campaign status`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on a corrupt (mid-stream) sample file.
    pub fn inspect(root: impl AsRef<Path>) -> Result<Option<SpillStats>, SpecError> {
        let root = root.as_ref();
        if !root.join(SAMPLES_MANIFEST_FILE).exists() {
            return Ok(None);
        }
        let mut stats = SpillStats {
            files: 0,
            batches: 0,
            samples: 0,
            bytes: 0,
            truncated_tail: false,
        };
        for path in sample_files(root)? {
            let (_, scan) = scan_sample_file(&path)?;
            stats.files += 1;
            stats.batches += scan.entries.len();
            stats.samples += scan.samples;
            stats.bytes += std::fs::metadata(&path)
                .map(|m| m.len())
                .map_err(|e| SpecError::new(format!("cannot stat {}: {e}", path.display())))?;
            stats.truncated_tail |= scan.truncated_tail;
        }
        Ok(Some(stats))
    }

    /// Scans the pre-existing sample files under the root into pools,
    /// healing torn tails when `heal` is set (the writable attach path).
    fn scan_existing(&mut self, heal: bool) -> Result<(), SpecError> {
        for path in sample_files(&self.root)? {
            let (mesh, scan) = scan_sample_file(&path)?;
            if scan.truncated_tail && heal {
                OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_len(scan.valid_bytes))
                    .map_err(|e| {
                        SpecError::new(format!("cannot truncate {}: {e}", path.display()))
                    })?;
            }
            let by_index = scan.entries.iter().copied().collect();
            self.pools.push(SamplePool {
                mesh,
                path,
                entries: scan.entries,
                by_index,
                valid_bytes: scan.valid_bytes,
                writer: None,
            });
        }
        Ok(())
    }
}

/// What one pass over a sample file found.
struct SampleScan {
    entries: Vec<(usize, RecordEntry)>,
    samples: usize,
    valid_bytes: u64,
    truncated_tail: bool,
}

/// Lists the `<mesh>.jsonl` files under a samples directory, sorted by mesh
/// so scan order (and thus pool discovery order) is deterministic.
fn sample_files(root: &Path) -> Result<Vec<PathBuf>, SpecError> {
    let mut meshes: Vec<usize> = Vec::new();
    let listing = std::fs::read_dir(root)
        .map_err(|e| SpecError::new(format!("cannot list {}: {e}", root.display())))?;
    for entry in listing {
        let entry =
            entry.map_err(|e| SpecError::new(format!("cannot list {}: {e}", root.display())))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name == SAMPLES_MANIFEST_FILE {
            continue;
        }
        let Some(stem) = name.strip_suffix(".jsonl") else {
            return Err(SpecError::new(format!(
                "unexpected file {name} in sample store {}; expected <mesh>.jsonl",
                root.display()
            )));
        };
        let mesh: usize = stem.parse().map_err(|_| {
            SpecError::new(format!(
                "unexpected file {name} in sample store {}; expected <mesh>.jsonl",
                root.display()
            ))
        })?;
        meshes.push(mesh);
    }
    meshes.sort_unstable();
    Ok(meshes
        .into_iter()
        .map(|m| root.join(format!("{m}.jsonl")))
        .collect())
}

/// Scans one `<mesh>.jsonl` file: every batch parsed for validation (and
/// dropped), duplicate indices deduped when byte-identical, a torn final
/// record tolerated — the same shared scan loop as the run-log index
/// ([`scan_jsonl`]), with sample-batch validation plugged in.
fn scan_sample_file(path: &Path) -> Result<(usize, SampleScan), SpecError> {
    let mesh: usize = path
        .file_stem()
        .and_then(|s| s.to_str())
        .and_then(|s| s.parse().ok())
        .expect("sample_files only yields <mesh>.jsonl paths");
    let file = File::open(path)
        .map_err(|e| SpecError::new(format!("cannot read {}: {e}", path.display())))?;
    let mut scan = SampleScan {
        entries: Vec::new(),
        samples: 0,
        valid_bytes: 0,
        truncated_tail: false,
    };
    let mut seen: HashMap<usize, RecordEntry> = HashMap::new();
    let outcome = scan_jsonl(file, path, "sample batch", |line_no, offset, line| {
        let batch: SampleBatch = match serde_json::from_str(line) {
            Ok(batch) => batch,
            Err(e) => return Ok(Some(e.to_string())),
        };
        if batch.mesh != mesh {
            return Err(SpecError::new(format!(
                "sample batch on line {line_no} of {} is for mesh {}, not {mesh}",
                path.display(),
                batch.mesh
            )));
        }
        let sample_count = batch.samples.len();
        let index = batch.index;
        drop(batch);
        let entry = RecordEntry {
            offset,
            len: line.len(),
        };
        match seen.get(&index) {
            Some(existing) => {
                let mut file = File::open(path)
                    .map_err(|e| SpecError::new(format!("cannot read {}: {e}", path.display())))?;
                if read_line_at(&mut file, existing, path)? != line {
                    return Err(SpecError::new(format!(
                        "sample batch for run index {index} appears twice in {} with \
                         conflicting payloads (line {line_no})",
                        path.display()
                    )));
                }
            }
            None => {
                seen.insert(index, entry);
                scan.entries.push((index, entry));
                scan.samples += sample_count;
            }
        }
        Ok(None)
    })?;
    scan.valid_bytes = outcome.valid_bytes;
    scan.truncated_tail = outcome.truncated_tail;
    Ok((mesh, scan))
}

/// Reads and parses a sample-store manifest.
/// Reads the manifest of the store at `root`, refusing one written by a
/// campaign other than `expected` (when given).
fn check_manifest(root: &Path, expected: Option<&str>) -> Result<(), SpecError> {
    let path = root.join(SAMPLES_MANIFEST_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| SpecError::new(format!("cannot read {}: {e}", path.display())))?;
    let manifest: SampleManifest = serde_json::from_str(&text).map_err(|e| {
        SpecError::new(format!("malformed sample manifest {}: {e}", path.display()))
    })?;
    match expected {
        Some(expected) if manifest.fingerprint != expected => Err(SpecError::new(format!(
            "sample store {} was written by a campaign with fingerprint {}, not \
             {expected}; refusing to mix samples across campaigns",
            root.display(),
            manifest.fingerprint
        ))),
        _ => Ok(()),
    }
}
