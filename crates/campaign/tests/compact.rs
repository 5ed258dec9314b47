//! Integration coverage of log compaction ([`dl2fence_campaign::compact`])
//! and the read-only status inspector ([`dl2fence_campaign::status`]), plus
//! the fold's refusal of an eval record that carries no samples: a typed
//! error naming the run index, never a silently smaller training set.

use dl2fence_campaign::stream::{REPORT_FILE, RUNS_FILE};
use dl2fence_campaign::{
    compact, expand, merge, resume, run, run_streaming, status, CampaignDir, CampaignSpec,
    Executor, ReportAccumulator, RunResult, ShardSlice,
};
use std::path::{Path, PathBuf};

/// A sample-heavy eval campaign, small enough to simulate in-test: 20 runs
/// x 4 samples = 80 labeled samples through one mesh pool.
fn sample_heavy_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::quick("sample-heavy");
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
    let root = std::env::temp_dir().join(format!("dl2fence-compact-{tag}-{}", std::process::id()));
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

    let stats = compact(&root).unwrap();
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
fn record_without_samples_is_a_typed_error() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/smoke_eval.toml");
    let spec = CampaignSpec::from_path(Path::new(path)).unwrap();
    let executor = Executor::new(2);
    let root = temp_root("no-samples");
    run_streaming(&executor, &spec, &root).unwrap();
    std::fs::remove_file(root.join(REPORT_FILE)).unwrap();

    // Blank one record's samples, as an earlier build's sample stripping
    // or a hand edit would leave it.
    let log = std::fs::read_to_string(root.join(RUNS_FILE)).unwrap();
    let mut records: Vec<RunResult> = log
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    let middle = records.len() / 2;
    records[middle].samples.clear();
    let blanked = records[middle].clone();
    let lost = blanked.spec.index;
    let log: String = records
        .iter()
        .map(|r| format!("{}\n", serde_json::to_string(r).unwrap()))
        .collect();
    std::fs::write(root.join(RUNS_FILE), log).unwrap();
    let expected = format!("run index {lost} carries no samples");

    // Resume and merge both refuse with that run index instead of training
    // on the rest, and write no report.
    let err = resume(&executor, &root, Some(&spec)).unwrap_err();
    assert!(err.to_string().contains(&expected), "{err}");
    assert!(!root.join(REPORT_FILE).exists());
    let merged_root = temp_root("no-samples-merged");
    let err = merge(&executor, std::slice::from_ref(&root), &merged_root, false).unwrap_err();
    assert!(err.to_string().contains(&expected), "{err}");
    assert!(!merged_root.join(REPORT_FILE).exists());

    // The accumulator itself refuses such a record and stays unchanged.
    let mut acc = ReportAccumulator::for_spec(&spec).unwrap();
    let err = acc.try_fold(&blanked).unwrap_err();
    assert!(err.to_string().contains(&expected), "{err}");
    assert_eq!(acc.folded_runs(), 0);
    std::fs::remove_dir_all(&root).unwrap();
    std::fs::remove_dir_all(&merged_root).unwrap();
}

#[test]
fn status_reports_progress_gaps_and_union() {
    let spec = sample_heavy_spec();
    let executor = Executor::new(2);
    let root = temp_root("status");
    run_streaming(&executor, &spec, &root).unwrap();
    let runs = expand(&spec).unwrap();

    // Complete directory: no gaps, report written.
    let report = status(std::slice::from_ref(&root)).unwrap();
    assert_eq!(report.dirs.len(), 1);
    let dir_status = &report.dirs[0];
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
