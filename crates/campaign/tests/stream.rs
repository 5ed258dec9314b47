//! Integration tests of the streaming/resumable engine: kill-and-resume
//! determinism down to the last report byte, spec-fingerprint enforcement,
//! and parity between the streaming, resumed and in-memory execution paths.

use dl2fence_campaign::{
    expand, resume, run_streaming, spec_fingerprint, status, CampaignReport, CampaignSpec, Executor,
};
use std::path::PathBuf;

/// A small streaming campaign with samples and the eval phase enabled, so
/// byte-identity covers the f32 frame payloads and the trained-model
/// metrics, not just scalar latencies.
const STREAM_SPEC: &str = r#"
name = "stream-integration"

[sim]
warmup_cycles = 100
sample_period = 200
samples_per_run = 2
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
detector_epochs = 6
localizer_epochs = 3
detection_feature = "vco"
localization_feature = "boc"
"#;

fn temp_root(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("dl2fence-stream-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
fn kill_and_resume_reports_are_byte_identical_to_uninterrupted_and_in_memory() {
    let spec = CampaignSpec::from_toml(STREAM_SPEC).unwrap();
    let total = expand(&spec).unwrap().len();
    assert!(
        total >= 10,
        "spec must be big enough to truncate meaningfully"
    );

    // Path 1: uninterrupted streaming run.
    let full_root = temp_root("full");
    let uninterrupted = run_streaming(&Executor::new(4), &spec, &full_root).unwrap();
    let uninterrupted_json = uninterrupted.to_json();

    // Path 2: the pre-streaming in-memory path must agree byte-for-byte.
    let outcome = Executor::new(2).execute(&spec).unwrap();
    let in_memory_json = CampaignReport::build(&outcome).unwrap().to_json();
    assert_eq!(in_memory_json, uninterrupted_json);

    // Path 3: simulate a crash after K of N records — truncate the JSONL
    // mid-record (the shape a killed process leaves), drop the report, and
    // resume with a different worker count.
    for keep in [0, 3, total - 1] {
        let crash_root = temp_root(&format!("crash{keep}"));
        std::fs::create_dir_all(&crash_root).unwrap();
        std::fs::copy(
            full_root.join("manifest.json"),
            crash_root.join("manifest.json"),
        )
        .unwrap();
        let jsonl = std::fs::read_to_string(full_root.join("runs.jsonl")).unwrap();
        let lines: Vec<&str> = jsonl.lines().collect();
        let mut truncated: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
        // Half of the (keep+1)-th record survives the "crash".
        truncated.push_str(&lines[keep][..lines[keep].len() / 2]);
        std::fs::write(crash_root.join("runs.jsonl"), truncated).unwrap();

        let resumed = resume(&Executor::new(3), &crash_root, Some(&spec))
            .unwrap()
            .expect("a whole-campaign directory resumes to a report");
        assert_eq!(
            resumed.to_json(),
            uninterrupted_json,
            "resume after {keep}/{total} records must be byte-identical"
        );
        // The resumed directory's persisted artifacts match the full run's.
        assert_eq!(
            std::fs::read_to_string(crash_root.join("report.json")).unwrap(),
            std::fs::read_to_string(full_root.join("report.json")).unwrap()
        );
        // Resume must leave a healthy log: exactly one whole record per run
        // (the torn record was truncated away, not merged into the first
        // re-executed append), so a second resume — e.g. after a crash
        // during the first — still works and is still byte-identical.
        let healed = std::fs::read_to_string(crash_root.join("runs.jsonl")).unwrap();
        assert_eq!(
            healed.lines().count(),
            total,
            "resume after {keep}/{total} must heal the log to one record per run"
        );
        let resumed_again = resume(&Executor::new(2), &crash_root, Some(&spec))
            .unwrap()
            .unwrap();
        assert_eq!(resumed_again.to_json(), uninterrupted_json);
        std::fs::remove_dir_all(&crash_root).unwrap();
    }
    std::fs::remove_dir_all(&full_root).unwrap();
}

#[test]
fn resume_refuses_a_mismatched_spec_fingerprint() {
    let spec = CampaignSpec::from_toml(STREAM_SPEC).unwrap();
    let root = temp_root("mismatch");
    run_streaming(&Executor::new(2), &spec, &root).unwrap();

    // Any grid difference fingerprints differently and must be refused —
    // no silent partial reuse of another campaign's results.
    let mut other = spec.clone();
    other.grid.fir = vec![0.4, 0.9];
    assert_ne!(spec_fingerprint(&spec), spec_fingerprint(&other));
    let err = resume(&Executor::new(2), &root, Some(&other)).unwrap_err();
    let message = err.to_string();
    assert!(message.contains("fingerprint mismatch"), "got: {message}");
    assert!(
        message.contains(&spec_fingerprint(&other)),
        "got: {message}"
    );

    // The matching spec still resumes fine afterwards.
    assert!(resume(&Executor::new(2), &root, Some(&spec)).is_ok());
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_directory_with_a_worker_tag_and_workers_subdirectory_heals_as_a_whole_campaign() {
    // Directories written by an earlier fleet scheduler carry a `worker`
    // manifest field and may hold a `workers/` subdirectory. Both are
    // ignored: the directory is an ordinary whole campaign whose own log
    // decides what is stored.
    let spec = CampaignSpec::from_toml(STREAM_SPEC).unwrap();
    let total = expand(&spec).unwrap().len();
    let full_root = temp_root("tagged-full");
    // One worker appends in matrix order, so log line i holds run index i.
    run_streaming(&Executor::new(1), &spec, &full_root).unwrap();
    let reference = std::fs::read_to_string(full_root.join("report.json")).unwrap();
    let manifest = std::fs::read_to_string(full_root.join("manifest.json")).unwrap();
    let tagged = manifest.replacen('{', "{\n  \"worker\": \"w1\",", 1);
    assert_ne!(tagged, manifest);
    let jsonl = std::fs::read_to_string(full_root.join("runs.jsonl")).unwrap();
    let lines: Vec<&str> = jsonl.lines().collect();
    let records = |range: std::ops::Range<usize>| -> String {
        lines[range].iter().map(|l| format!("{l}\n")).collect()
    };

    let root = temp_root("tagged");
    let worker_root = root.join("workers").join("w1");
    std::fs::create_dir_all(&worker_root).unwrap();
    std::fs::write(root.join("manifest.json"), &tagged).unwrap();
    std::fs::write(root.join("runs.jsonl"), records(0..3)).unwrap();
    std::fs::write(worker_root.join("manifest.json"), &tagged).unwrap();
    std::fs::write(worker_root.join("runs.jsonl"), records(3..6)).unwrap();

    let report = status(std::slice::from_ref(&root)).unwrap();
    let dir = &report.dirs[0];
    assert_eq!(dir.shard, None);
    assert_eq!(dir.owned_runs, total);
    assert_eq!(dir.completed, 3, "records under workers/ are not counted");
    assert_eq!(dir.missing, (3..total).collect::<Vec<_>>());

    let resumed = resume(&Executor::new(2), &root, Some(&spec))
        .unwrap()
        .expect("the tagged directory resumes as a whole campaign");
    assert_eq!(resumed.to_json(), reference);
    assert_eq!(
        std::fs::read_to_string(root.join("report.json")).unwrap(),
        reference
    );
    let healed = std::fs::read_to_string(root.join("runs.jsonl")).unwrap();
    assert_eq!(healed.lines().count(), total);
    assert_eq!(
        std::fs::read_to_string(worker_root.join("runs.jsonl")).unwrap(),
        records(3..6),
        "resume leaves workers/ untouched"
    );
    std::fs::remove_dir_all(&root).unwrap();
    std::fs::remove_dir_all(&full_root).unwrap();
}

#[test]
fn parallel_eval_on_pool_matches_serial_eval_for_table1_quick() {
    // The committed table-1 spec, with the simulate/train knobs shrunk so
    // the double execution stays test-sized; grid structure (workload
    // aliases, grouping, eval features) comes from the file. A second mesh
    // is added so the eval phase has two independent training groups to
    // fan out.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/table1_quick.toml");
    let mut spec = CampaignSpec::from_path(std::path::Path::new(path)).unwrap();
    assert!(spec.eval.enabled, "table1_quick must enable the eval phase");
    // Loading normalized the file's legacy mesh axis into `topology`.
    spec.grid.topology = vec!["mesh4".into(), "mesh8".into()];
    spec.grid.workloads = vec!["uniform".into(), "x264".into()];
    spec.grid.attack_placements = 2;
    spec.grid.benign_runs = 1;
    spec.sim.warmup_cycles = 100;
    spec.sim.sample_period = 200;
    spec.sim.samples_per_run = 2;
    spec.eval.detector_epochs = 6;
    spec.eval.localizer_epochs = 3;

    let outcome = Executor::new(2).execute(&spec).unwrap();
    let serial = CampaignReport::build_with(&outcome, &Executor::new(1)).unwrap();
    let parallel = CampaignReport::build_with(&outcome, &Executor::new(4)).unwrap();

    assert_eq!(serial.evaluations.len(), 2, "one eval entry per mesh");
    for (s, p) in serial.evaluations.iter().zip(&parallel.evaluations) {
        assert_eq!(s, p, "eval entries must be identical for any pool size");
    }
    assert_eq!(serial.to_json(), parallel.to_json());
}
