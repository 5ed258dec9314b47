//! Integration coverage of the eval sample store
//! ([`dl2fence_campaign::spill`]), log compaction
//! ([`dl2fence_campaign::compact`]) and the read-only status inspector
//! ([`dl2fence_campaign::status`]): a stripped log rebuilds its report from
//! the store by run index — also across frame geometries that share a row
//! count — and a stripped record whose samples are nowhere is a typed
//! error, not a silently smaller training set.

use dl2fence_campaign::stream::{REPORT_FILE, RUNS_FILE, SAMPLES_DIR};
use dl2fence_campaign::{
    compact, expand, merge, resume, run, run_streaming, spec_fingerprint, status, CampaignDir,
    CampaignSpec, Executor, ReportAccumulator, RunResult, SampleBatch, SampleStore, ShardSlice,
};
use std::path::{Path, PathBuf};

/// A sample-heavy eval campaign, small enough to simulate in-test: 20 runs
/// x 4 samples = 80 labeled samples through one mesh pool.
fn sample_heavy_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::quick("spill-heavy");
    spec.grid.mesh = vec![4];
    spec.grid.fir = vec![0.4, 0.8];
    spec.grid.workloads = vec!["uniform".into(), "tornado".into()];
    spec.grid.attack_placements = 2;
    spec.grid.benign_runs = 1;
    spec.grid.seeds = vec![7, 8];
    spec.sim.warmup_cycles = 50;
    spec.sim.sample_period = 100;
    spec.sim.samples_per_run = 4;
    spec.sim.collect_samples = true;
    spec.eval.enabled = true;
    spec.eval.detector_epochs = 4;
    spec.eval.localizer_epochs = 2;
    spec
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dl2fence-spill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
fn compact_orders_dedupes_heals_and_preserves_the_report() {
    let spec = sample_heavy_spec();
    let executor = Executor::new(2);
    let root = temp_root("compact");
    let reference = run_streaming(&executor, &spec, &root).unwrap().to_json();

    // Wound the log: shuffle whole records, repeat two of them, and append
    // a torn half-record.
    let dir = CampaignDir::open(&root).unwrap();
    let full = std::fs::read_to_string(dir.runs_path()).unwrap();
    let mut lines: Vec<&str> = full.lines().collect();
    lines.rotate_left(5);
    let dup_a = lines[0];
    let dup_b = lines[3];
    let mut wounded: String = lines.iter().map(|l| format!("{l}\n")).collect();
    wounded.push_str(&format!("{dup_a}\n{dup_b}\n"));
    wounded.push_str(&dup_a[..dup_a.len() / 2]);
    std::fs::write(dir.runs_path(), &wounded).unwrap();

    let stats = compact(&root, false).unwrap();
    assert_eq!(stats.records, lines.len());
    assert_eq!(stats.dropped_duplicates, 2);
    assert!(stats.healed_torn_tail);
    assert!(stats.bytes_after < stats.bytes_before);

    // The rewritten log is index-ordered, gapless and duplicate-free.
    let compacted = std::fs::read_to_string(dir.runs_path()).unwrap();
    let indices: Vec<usize> = compacted
        .lines()
        .map(|l| serde_json::from_str::<RunResult>(l).unwrap().spec.index)
        .collect();
    assert_eq!(indices, (0..lines.len()).collect::<Vec<_>>());

    // And the directory still resumes to the identical report.
    let resumed = resume(&executor, &root, Some(&spec)).unwrap().unwrap();
    assert_eq!(resumed.to_json(), reference);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn strip_samples_shrinks_the_log_and_keeps_every_path_byte_identical() {
    let spec = sample_heavy_spec();
    let executor = Executor::new(2);
    let root = temp_root("strip");
    let reference = run_streaming(&executor, &spec, &root).unwrap().to_json();
    let bytes_full = std::fs::metadata(root.join(RUNS_FILE)).unwrap().len();

    let stats = compact(&root, true).unwrap();
    assert!(stats.stripped_samples > 0);
    assert!(
        stats.bytes_after * 2 < bytes_full,
        "stripping a sample-heavy log must shrink it substantially \
         ({bytes_full} -> {} bytes)",
        stats.bytes_after
    );
    // Stripped records really are scalar-only.
    let log = std::fs::read_to_string(root.join(RUNS_FILE)).unwrap();
    for line in log.lines() {
        let record: RunResult = serde_json::from_str(line).unwrap();
        assert!(record.samples.is_empty());
    }

    // Resume of the stripped directory rebuilds the identical report from
    // the sample store.
    let resumed = resume(&executor, &root, Some(&spec)).unwrap().unwrap();
    assert_eq!(resumed.to_json(), reference);

    // A stripped directory still merges: its store rides along into the
    // merged directory and the report comes out byte-identical.
    let merged_root = temp_root("strip-merged");
    let merged = merge(&executor, std::slice::from_ref(&root), &merged_root, false).unwrap();
    assert_eq!(merged.to_json(), reference);
    assert!(
        merged_root.join(SAMPLES_DIR).join("4.jsonl").exists(),
        "the merged directory must carry the union of the input stores"
    );

    // Compaction is idempotent: a second strip moves nothing.
    let again = compact(&root, true).unwrap();
    assert_eq!(again.stripped_samples, 0);
    assert_eq!(again.bytes_after, stats.bytes_after);

    std::fs::remove_dir_all(&root).unwrap();
    std::fs::remove_dir_all(&merged_root).unwrap();
}

/// Strips `root`'s log into its sample store and deletes the report, so
/// the next resume must rebuild everything from the stripped records.
fn strip_and_drop_report(root: &Path) {
    assert!(compact(root, true).unwrap().stripped_samples > 0);
    std::fs::remove_file(root.join(REPORT_FILE)).unwrap();
}

#[test]
fn stripped_resume_of_a_mixed_geometry_campaign_reproduces_the_report() {
    // `mesh4` and `mesh4x8` share 4 frame rows, so their batches share
    // `samples/4.jsonl` — but they train separate detectors. The fold must
    // find each stripped record's own batch by run index, never hand the
    // 4x4 pool a 4x8 batch.
    let mut spec = sample_heavy_spec();
    spec.grid.mesh = Vec::new();
    spec.grid.topology = vec!["mesh4".into(), "mesh4x8".into()];
    let executor = Executor::new(2);
    let root = temp_root("mixed");
    let reference = run_streaming(&executor, &spec, &root).unwrap();
    assert_eq!(
        reference.evaluations.len(),
        2,
        "one eval entry per geometry"
    );

    strip_and_drop_report(&root);
    let store = SampleStore::open_existing(root.join(SAMPLES_DIR), None)
        .unwrap()
        .unwrap();
    assert_eq!(store.meshes(), vec![4], "both geometries share one file");
    let resumed = resume(&executor, &root, Some(&spec)).unwrap().unwrap();
    assert_eq!(resumed.to_json(), reference.to_json());
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn stripped_record_without_a_stored_batch_is_a_typed_error() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/smoke_eval.toml");
    let spec = CampaignSpec::from_path(Path::new(path)).unwrap();
    let executor = Executor::new(2);
    let root = temp_root("lost-batch");
    run_streaming(&executor, &spec, &root).unwrap();
    strip_and_drop_report(&root);

    // Lose the second half of the store: its stripped records' samples
    // exist nowhere now.
    let pool = root.join(SAMPLES_DIR).join("4.jsonl");
    let text = std::fs::read_to_string(&pool).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 10);
    let kept: String = lines[..5].iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(&pool, kept).unwrap();
    let lost = lines[5..]
        .iter()
        .map(|l| serde_json::from_str::<SampleBatch>(l).unwrap().index)
        .min()
        .unwrap();

    // The fold refuses with the first lost run index instead of training
    // on the surviving half, and writes no report.
    let err = resume(&executor, &root, Some(&spec)).unwrap_err();
    assert!(
        err.to_string()
            .contains(&format!("run index {lost} carries no samples")),
        "{err}"
    );
    assert!(!root.join(REPORT_FILE).exists());

    // The accumulator itself refuses such a record and stays unchanged.
    let mut acc = ReportAccumulator::for_spec(&spec).unwrap();
    let record: RunResult = serde_json::from_str(
        std::fs::read_to_string(root.join(RUNS_FILE))
            .unwrap()
            .lines()
            .next()
            .unwrap(),
    )
    .unwrap();
    assert!(record.samples.is_empty());
    let err = acc.try_fold(&record).unwrap_err();
    assert!(
        err.to_string().contains(&format!(
            "run index {} carries no samples",
            record.spec.index
        )),
        "{err}"
    );
    assert_eq!(acc.folded_runs(), 0);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn sample_store_refuses_conflicts_and_foreign_fingerprints() {
    let root = temp_root("store-conflict");
    let spec = sample_heavy_spec();
    let outcome = Executor::new(1).execute(&spec).unwrap();
    let samples = outcome.runs[0].samples.clone();
    let fingerprint = spec_fingerprint(&spec);

    let mut store = SampleStore::attach(&root, &fingerprint).unwrap();
    assert!(store.append_batch(4, 0, samples.clone()).unwrap());
    // An identical re-append dedupes...
    assert!(!store.append_batch(4, 0, samples.clone()).unwrap());
    // ...but a different payload for the same run index is a conflict.
    let err = store.append_batch(4, 0, samples[..1].to_vec()).unwrap_err();
    assert!(err.to_string().contains("conflicting"), "{err}");
    drop(store);

    // Reattaching with another campaign's fingerprint is refused.
    let err = SampleStore::attach(&root, "0000000000000000").unwrap_err();
    assert!(err.to_string().contains("refusing to mix"), "{err}");
    let err = SampleStore::open_existing(&root, Some("0000000000000000")).unwrap_err();
    assert!(err.to_string().contains("refusing to mix"), "{err}");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn status_reports_progress_gaps_spill_and_union() {
    let spec = sample_heavy_spec();
    let executor = Executor::new(2);
    let root = temp_root("status");
    run_streaming(&executor, &spec, &root).unwrap();
    let runs = expand(&spec).unwrap();

    // Complete directory: no gaps, report written, and no sample store (a
    // plain run keeps its samples in the log).
    let report = status(std::slice::from_ref(&root)).unwrap();
    assert_eq!(report.dirs.len(), 1);
    let dir_status = &report.dirs[0];
    assert!(dir_status.spill.is_none());
    assert_eq!(dir_status.total_runs, runs.len());
    assert_eq!(dir_status.completed, runs.len());
    assert!(dir_status.missing.is_empty());
    assert!(dir_status.report_written);
    assert!(report.fingerprints_agree);
    assert_eq!(report.union_missing.as_deref(), Some(&[] as &[usize]));
    // JSON and human renderings both cover the headline numbers.
    assert!(report.to_json().contains("\"completed\""));
    assert!(report.render().contains("stored"));

    // Knock out records 2 and 5 and append a torn tail: status must list
    // exactly those gaps plus the torn record's index, read-only.
    let full = std::fs::read_to_string(root.join(RUNS_FILE)).unwrap();
    let kept: Vec<&str> = full
        .lines()
        .filter(|l| {
            let idx = serde_json::from_str::<RunResult>(l).unwrap().spec.index;
            idx != 2 && idx != 5
        })
        .collect();
    let mut wounded: String = kept.iter().map(|l| format!("{l}\n")).collect();
    wounded.push_str(&kept[0][..kept[0].len() / 3]);
    std::fs::write(root.join(RUNS_FILE), &wounded).unwrap();
    let before = std::fs::read_to_string(root.join(RUNS_FILE)).unwrap();

    let report = status(std::slice::from_ref(&root)).unwrap();
    assert_eq!(report.dirs[0].missing, vec![2, 5]);
    assert!(report.dirs[0].truncated_tail);
    assert_eq!(
        std::fs::read_to_string(root.join(RUNS_FILE)).unwrap(),
        before,
        "status must never modify the directory"
    );

    // A second directory holding only the missing records completes the
    // union; a foreign-fingerprint directory voids it.
    let other_root = temp_root("status-other");
    let other = CampaignDir::create(&other_root, &spec, runs.len()).unwrap();
    let missing_records: String = full
        .lines()
        .filter(|l| {
            let idx = serde_json::from_str::<RunResult>(l).unwrap().spec.index;
            idx == 2 || idx == 5
        })
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(other.runs_path(), missing_records).unwrap();
    let report = status(&[root.clone(), other_root.clone()]).unwrap();
    assert!(report.fingerprints_agree);
    assert_eq!(report.union_missing.as_deref(), Some(&[] as &[usize]));

    let foreign_root = temp_root("status-foreign");
    let mut foreign_spec = spec.clone();
    foreign_spec.grid.seeds = vec![99];
    let foreign_runs = expand(&foreign_spec).unwrap().len();
    CampaignDir::create(&foreign_root, &foreign_spec, foreign_runs).unwrap();
    let report = status(&[root.clone(), foreign_root.clone()]).unwrap();
    assert!(!report.fingerprints_agree);
    assert!(report.union_missing.is_none());
    assert!(report.render().contains("fingerprints disagree"));

    for r in [root, other_root, foreign_root] {
        let _ = std::fs::remove_dir_all(&r);
    }
}

#[test]
fn shard_status_counts_owned_indices_only() {
    let spec = sample_heavy_spec();
    let root = temp_root("shard-status");
    let shard = ShardSlice { index: 1, count: 3 };
    assert!(run(&Executor::new(2), &spec, &root, Some(shard))
        .unwrap()
        .is_none());
    let total = expand(&spec).unwrap().len();

    let report = status(std::slice::from_ref(&root)).unwrap();
    let dir_status = &report.dirs[0];
    assert_eq!(dir_status.shard, Some(shard));
    assert_eq!(dir_status.total_runs, total);
    assert_eq!(dir_status.owned_runs, shard.owned_indices(total).count());
    assert_eq!(dir_status.completed, dir_status.owned_runs);
    assert!(
        dir_status.missing.is_empty(),
        "a complete shard owes nothing"
    );
    assert!(!dir_status.report_written, "shards build no report");
    std::fs::remove_dir_all(&root).unwrap();
}
