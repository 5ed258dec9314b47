//! Integration tests of cross-machine campaign sharding: shard → merge
//! byte-identity against a single-machine run, and every merge failure
//! mode — mismatched fingerprints, gaps, conflicting duplicates, identical
//! duplicates, and torn tail records.

use dl2fence_campaign::stream::RUNS_FILE;
use dl2fence_campaign::{
    expand, merge, resume, run, run_streaming, spec_fingerprint, CampaignDir, CampaignSpec,
    Executor, RunResult, ShardSlice,
};
use std::path::PathBuf;
use std::sync::OnceLock;

/// A small campaign with samples and the eval phase enabled, so merge
/// byte-identity covers the f32 frame payloads and the trained-model
/// metrics, not just scalar latencies.
const SHARD_SPEC: &str = r#"
name = "shard-integration"

[sim]
warmup_cycles = 100
sample_period = 200
samples_per_run = 1
collect_samples = true

[grid]
mesh = [4]
fir = [0.4, 0.8]
workloads = ["uniform", "tornado"]
attack_placements = 2
benign_runs = 1
seeds = [0xDAC]

[report]
group_by = ["workload", "class"]

[eval]
enabled = true
train_fraction = 0.5
detector_epochs = 4
localizer_epochs = 2
detection_feature = "vco"
localization_feature = "boc"
"#;

fn spec() -> CampaignSpec {
    CampaignSpec::from_toml(SHARD_SPEC).unwrap()
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dl2fence-merge-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// The uninterrupted single-machine reference report (JSON), computed once.
fn reference_json() -> &'static String {
    static REFERENCE: OnceLock<String> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let root = temp_root("reference");
        let report = run_streaming(&Executor::new(4), &spec(), &root).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        report.to_json()
    })
}

/// Runs all `count` shards of the spec into `<base>/shard-<i>` directories.
fn run_shards(base: &std::path::Path, count: usize) -> Vec<PathBuf> {
    (0..count)
        .map(|index| {
            let dir = base.join(format!("shard-{index}"));
            let shard = Some(ShardSlice { index, count });
            let report = run(&Executor::new(2), &spec(), &dir, shard).unwrap();
            assert!(report.is_none(), "shards build no report");
            dir
        })
        .collect()
}

/// Merges `inputs` into `out`, refusing gaps.
fn merge_default(
    inputs: &[PathBuf],
    out: impl Into<PathBuf>,
) -> Result<dl2fence_campaign::CampaignReport, dl2fence_campaign::SpecError> {
    merge(&Executor::new(2), inputs, out, false)
}

/// Alters one record's `packets_created`, keeping the JSON valid and the
/// embedded run spec untouched — a payload conflict, not corruption.
fn tamper_metric(line: &str) -> String {
    let mut record: RunResult = serde_json::from_str(line).unwrap();
    record.metrics.packets_created += 1;
    serde_json::to_string(&record).unwrap()
}

#[test]
fn three_shards_merge_byte_identical_to_a_single_machine_run() {
    let base = temp_root("identity");
    let shards = run_shards(&base, 3);
    let total = expand(&spec()).unwrap().len();

    // Each shard streamed only its strided slice and built no report.
    for (index, dir) in shards.iter().enumerate() {
        let shard = ShardSlice { index, count: 3 };
        let log = std::fs::read_to_string(dir.join(RUNS_FILE)).unwrap();
        assert_eq!(log.lines().count(), shard.owned_indices(total).count());
        assert!(!dir.join("report.json").exists());
    }

    let out = base.join("merged");
    let report = merge(&Executor::new(3), &shards, &out, false).unwrap();
    assert_eq!(&report.to_json(), reference_json());
    assert_eq!(
        &std::fs::read_to_string(out.join("report.json")).unwrap(),
        reference_json()
    );
    // The merged log is the full matrix in run-index order.
    let merged_log = std::fs::read_to_string(out.join(RUNS_FILE)).unwrap();
    let indices: Vec<usize> = merged_log
        .lines()
        .map(|l| serde_json::from_str::<RunResult>(l).unwrap().spec.index)
        .collect();
    assert_eq!(indices, (0..total).collect::<Vec<_>>());

    // The merged directory is an ordinary campaign directory: it resumes
    // with nothing to do, byte-identically.
    let resumed = resume(&Executor::new(2), &out, Some(&spec()))
        .unwrap()
        .expect("merged directories are whole campaigns");
    assert_eq!(&resumed.to_json(), reference_json());
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn merge_refuses_mismatched_spec_fingerprints() {
    let base = temp_root("fingerprint");
    let shards = run_shards(&base, 2);

    // The same grid at a different FIR fingerprints differently.
    let mut other = spec();
    other.grid.fir = vec![0.4, 0.9];
    assert_ne!(spec_fingerprint(&spec()), spec_fingerprint(&other));
    let foreign = base.join("foreign");
    let shard = Some(ShardSlice { index: 1, count: 2 });
    run(&Executor::new(2), &other, &foreign, shard).unwrap();

    let inputs = vec![shards[0].clone(), foreign];
    let err = merge_default(&inputs, base.join("merged")).unwrap_err();
    let message = err.to_string();
    assert!(message.contains("fingerprint mismatch"), "got: {message}");
    assert!(
        message.contains(&spec_fingerprint(&other)),
        "the offending fingerprint must be named: {message}"
    );
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn merge_reports_the_exact_gap_list_when_a_shard_is_missing() {
    let base = temp_root("gaps");
    let shards = run_shards(&base, 3);
    let total = expand(&spec()).unwrap().len();

    // Merge without shard 1: every index it owns must be listed, exactly.
    let inputs = vec![shards[0].clone(), shards[2].clone()];
    let err = merge_default(&inputs, base.join("merged")).unwrap_err();
    let message = err.to_string();
    let expected: Vec<String> = ShardSlice { index: 1, count: 3 }
        .owned_indices(total)
        .map(|i| i.to_string())
        .collect();
    assert!(
        message.contains(&format!("[{}]", expected.join(", "))),
        "gap list must be exact: {message}"
    );
    assert!(
        message.contains(&format!("missing {} of {total}", expected.len())),
        "got: {message}"
    );
    std::fs::remove_dir_all(&base).unwrap();
}

/// The same lost-shard shape, but with `--reexec-gaps`: instead of refusing
/// with the gap list, the merge re-executes the missing strided slice
/// locally (runs are deterministic from spec + index) and the report stays
/// byte-identical to the single-machine run. The re-execution scratch
/// directory must not survive the merge.
#[test]
fn reexec_gaps_fills_a_lost_shard_byte_identically() {
    let base = temp_root("reexec");
    let shards = run_shards(&base, 3);
    let total = expand(&spec()).unwrap().len();

    let inputs = vec![shards[0].clone(), shards[2].clone()];
    let out = base.join("merged-reexec");
    let report = merge(&Executor::new(2), &inputs, &out, true).unwrap();
    assert_eq!(&report.to_json(), reference_json());
    assert_eq!(
        &std::fs::read_to_string(out.join("report.json")).unwrap(),
        reference_json()
    );

    // The merged log holds the full matrix in run-index order — shard 1's
    // slice re-executed, not skipped — and the scratch is cleaned up.
    let merged_log = std::fs::read_to_string(out.join(RUNS_FILE)).unwrap();
    let indices: Vec<usize> = merged_log
        .lines()
        .map(|l| serde_json::from_str::<RunResult>(l).unwrap().spec.index)
        .collect();
    assert_eq!(indices, (0..total).collect::<Vec<_>>());
    assert!(
        !out.join(".gapfill").exists(),
        "the gap re-execution scratch must be removed"
    );
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn identical_duplicates_dedupe_and_conflicting_duplicates_are_rejected() {
    let base = temp_root("dups");
    let shards = run_shards(&base, 2);

    // A whole-campaign directory overlaps every shard record; the merge of
    // all three dedupes the identical duplicates cleanly.
    let full = base.join("full");
    run_streaming(&Executor::new(2), &spec(), &full).unwrap();
    let inputs = vec![full.clone(), shards[0].clone(), shards[1].clone()];
    let report = merge_default(&inputs, base.join("merged-dedupe")).unwrap();
    assert_eq!(&report.to_json(), reference_json());

    // Tamper one record of shard 0: the same index now carries a different
    // payload than the full directory's record — refused.
    let log_path = shards[0].join(RUNS_FILE);
    let log = std::fs::read_to_string(&log_path).unwrap();
    let mut lines: Vec<String> = log.lines().map(str::to_string).collect();
    let tampered_index = serde_json::from_str::<RunResult>(&lines[0])
        .unwrap()
        .spec
        .index;
    lines[0] = tamper_metric(&lines[0]);
    std::fs::write(&log_path, format!("{}\n", lines.join("\n"))).unwrap();

    let inputs = vec![full, shards[0].clone()];
    let err = merge_default(&inputs, base.join("merged-conflict")).unwrap_err();
    let message = err.to_string();
    assert!(message.contains("conflicting payloads"), "got: {message}");
    assert!(
        message.contains(&format!("run index {tampered_index}")),
        "the conflicting index must be named: {message}"
    );
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn torn_tail_records_are_healed_exactly_as_resume_heals_them() {
    let base = temp_root("torn");
    let shards = run_shards(&base, 2);

    // Case 1: shard 0 additionally holds a torn copy of a record shard 1
    // stores completely (an append killed mid-retry). Merge ignores the
    // torn line — the index is covered elsewhere — and stays byte-identical.
    let log_path = shards[0].join(RUNS_FILE);
    let pristine = std::fs::read_to_string(&log_path).unwrap();
    let foreign_line = std::fs::read_to_string(shards[1].join(RUNS_FILE))
        .unwrap()
        .lines()
        .next()
        .unwrap()
        .to_string();
    std::fs::write(
        &log_path,
        format!("{pristine}{}", &foreign_line[..foreign_line.len() / 2]),
    )
    .unwrap();
    let report = merge_default(&shards, base.join("merged-covered")).unwrap();
    assert_eq!(&report.to_json(), reference_json());

    // Case 2: shard 0's own final record is torn (the classic crash shape).
    // Its index is stored nowhere, so merge refuses with exactly that gap...
    let mut lines: Vec<String> = pristine.lines().map(str::to_string).collect();
    let tail = lines.pop().unwrap();
    let torn_index = serde_json::from_str::<RunResult>(&tail).unwrap().spec.index;
    let mut torn_log: String = lines.iter().map(|l| format!("{l}\n")).collect();
    torn_log.push_str(&tail[..tail.len() / 2]);
    std::fs::write(&log_path, torn_log).unwrap();
    let err = merge_default(&shards, base.join("merged-gap")).unwrap_err();
    assert!(
        err.to_string().contains(&format!("[{torn_index}]")),
        "got: {err}"
    );

    // ...and resuming the shard re-executes exactly that run (healing the
    // torn line away first, as resume always does), after which the merge
    // succeeds byte-identically.
    assert!(resume(&Executor::new(2), &shards[0], Some(&spec()))
        .unwrap()
        .is_none());
    let healed = std::fs::read_to_string(&log_path).unwrap();
    assert_eq!(healed.lines().count(), pristine.lines().count());
    let dir = CampaignDir::open(&shards[0]).unwrap();
    let index = dir.index_log(&expand(&spec()).unwrap()).unwrap();
    assert!(!index.truncated_tail, "resume must heal the torn tail");
    let report = merge_default(&shards, base.join("merged-healed")).unwrap();
    assert_eq!(&report.to_json(), reference_json());
    std::fs::remove_dir_all(&base).unwrap();
}
