//! Test coverage of the [`ReportAccumulator`]: folding one run at a time
//! equals batch aggregation on the committed `table1_quick` spec, and the
//! accumulator's per-run retention stays O(1) — the guard behind the
//! bigger-than-memory claim of the streaming resume and merge paths.

use dl2fence_campaign::{
    execute_run, expand, run_streaming, CampaignDir, CampaignReport, CampaignSpec, Executor,
    ReportAccumulator,
};
use std::path::PathBuf;

/// The committed table-1 spec with the simulate/train knobs shrunk so the
/// double execution stays test-sized; grid structure (workload aliases,
/// grouping, eval features) comes from the file.
fn table1_quick_shrunk() -> CampaignSpec {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/table1_quick.toml");
    let mut spec = CampaignSpec::from_path(std::path::Path::new(path)).unwrap();
    assert!(spec.eval.enabled, "table1_quick must enable the eval phase");
    // Loading normalized the file's legacy mesh axis into `topology`.
    spec.grid.topology = vec!["mesh4".into()];
    spec.grid.workloads = vec!["uniform".into(), "x264".into()];
    spec.grid.attack_placements = 2;
    spec.grid.benign_runs = 1;
    spec.sim.warmup_cycles = 100;
    spec.sim.sample_period = 200;
    spec.sim.samples_per_run = 2;
    spec.eval.detector_epochs = 4;
    spec.eval.localizer_epochs = 2;
    spec
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dl2fence-acc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
fn fold_one_at_a_time_equals_batch_aggregation_on_table1_quick() {
    let spec = table1_quick_shrunk();
    let outcome = Executor::new(2).execute(&spec).unwrap();
    let batch = CampaignReport::build_with(&outcome, &Executor::new(2)).unwrap();

    let mut acc = ReportAccumulator::for_spec(&spec).unwrap();
    let mut expected_samples = 0;
    for run in &outcome.runs {
        acc.try_fold(run).unwrap();
        expected_samples += run.samples.len();
        // With the eval phase enabled the accumulator buffers exactly the
        // labeled samples it will train on — and nothing else per run.
        assert_eq!(acc.retained_samples(), expected_samples);
    }
    assert_eq!(acc.folded_runs(), outcome.runs.len());
    let incremental = acc.finish(&Executor::new(2)).unwrap();

    assert_eq!(incremental.to_json(), batch.to_json());
    assert!(
        !incremental.evaluations.is_empty(),
        "the comparison must cover the eval phase"
    );
}

#[test]
fn accumulator_retains_no_samples_when_the_eval_phase_is_off() {
    let mut spec = table1_quick_shrunk();
    spec.eval.enabled = false; // collect_samples stays on: runs carry samples
    let outcome = Executor::new(2).execute(&spec).unwrap();
    assert!(outcome.runs.iter().all(|r| !r.samples.is_empty()));

    let mut acc = ReportAccumulator::for_spec(&spec).unwrap();
    for run in &outcome.runs {
        acc.try_fold(run).unwrap();
        assert_eq!(
            acc.retained_samples(),
            0,
            "without an eval phase the accumulator must retain nothing per run"
        );
    }
    let report = acc.finish(&Executor::new(1)).unwrap();
    assert_eq!(report.total_runs, outcome.runs.len());
    assert!(report.evaluations.is_empty());
}

#[test]
fn streamed_replay_through_the_accumulator_peaks_at_one_retained_run() {
    // The full bigger-than-memory pipeline: a streamed campaign directory
    // replayed record by record into the accumulator, with a counting
    // observer proving the peak number of simultaneously materialized
    // RunResults is exactly one — O(1) in the campaign size.
    let mut spec = table1_quick_shrunk();
    spec.eval.enabled = false;
    spec.sim.collect_samples = false;
    let root = temp_root("peak");
    let reference = run_streaming(&Executor::new(2), &spec, &root).unwrap();

    let dir = CampaignDir::open(&root).unwrap();
    let runs = expand(&spec).unwrap();
    let index = dir.index_log(&runs).unwrap();
    assert_eq!(index.completed(), runs.len());

    let mut acc = ReportAccumulator::for_spec(&spec).unwrap();
    let mut live = 0usize;
    let mut peak = 0usize;
    dir.replay(&index, |record| {
        live += 1;
        peak = peak.max(live);
        acc.try_fold(&record).unwrap();
        assert_eq!(acc.retained_samples(), 0);
        // `record` is dropped at the end of this closure; replay holds no
        // other copy, so `live` returns to zero between records.
        live -= 1;
    })
    .unwrap();
    assert_eq!(peak, 1, "replay+fold must materialize one run at a time");
    assert_eq!(
        acc.finish(&Executor::new(1)).unwrap().to_json(),
        reference.to_json(),
        "the replayed accumulator must rebuild the streamed report byte-identically"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_run_whose_topology_does_not_parse_is_refused_before_the_fold_changes() {
    // Hand-built runs reach the fold through `CampaignReport::from_runs`. A
    // topology name that does not parse must be a typed error, not a run
    // pooled for training under a guessed geometry.
    let mut spec = table1_quick_shrunk();
    spec.sim.samples_per_run = 1;
    let runs = expand(&spec).unwrap();
    let run = execute_run(&spec.sim, &runs[0]);
    assert!(!run.samples.is_empty(), "the eval fold must see samples");

    let mut acc = ReportAccumulator::for_spec(&spec).unwrap();
    acc.try_fold(&run).unwrap();
    let mut bad = run.clone();
    bad.spec.index = 7;
    bad.spec.topology = "mesh8x".into();
    let err = acc.try_fold(&bad).unwrap_err().to_string();
    assert!(
        err.contains("run index 7") && err.contains("mesh8x"),
        "got: {err}"
    );
    assert_eq!(acc.folded_runs(), 1);
    assert_eq!(acc.retained_samples(), run.samples.len());
}
