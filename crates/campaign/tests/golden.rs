//! Golden-report regression corpus.
//!
//! Every aggregation path the engine offers — in-memory, streaming,
//! crash-resume and shard-merge — must render the committed specs to
//! **byte-identical** reports, and those bytes must never drift across
//! refactors. The fixtures under `tests/golden/` pin them: each test
//! rebuilds its spec's report through all four paths and diffs the bytes
//! against the checked-in fixture.
//!
//! To regenerate after an intentional aggregation change:
//!
//! ```text
//! DL2FENCE_BLESS=1 cargo test -p dl2fence-campaign --test golden
//! ```
//!
//! then commit the rewritten `tests/golden/*.report.json` files with an
//! explanation of why the bytes moved.

use dl2fence_campaign::stream::RUNS_FILE;
use dl2fence_campaign::{
    expand, merge, resume, run, CampaignDir, CampaignOutcome, CampaignReport, CampaignSpec,
    Executor, RunResult,
};
use std::path::{Path, PathBuf};

/// Environment variable that switches the corpus from verify to regenerate.
const BLESS_VAR: &str = "DL2FENCE_BLESS";

fn spec_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../specs")
        .join(name)
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dl2fence-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Verifies `produced` against the fixture (or rewrites it under
/// [`BLESS_VAR`]), with a message naming the bless procedure on mismatch.
fn check_fixture(name: &str, produced: &str) {
    let path = golden_path(name);
    if std::env::var_os(BLESS_VAR).is_some() {
        std::fs::write(&path, produced).unwrap_or_else(|e| panic!("cannot bless {name}: {e}"));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden fixture {name}: {e}\n\
             (first run? regenerate the corpus with {BLESS_VAR}=1 \
             cargo test -p dl2fence-campaign --test golden)"
        )
    });
    assert_eq!(
        produced, expected,
        "report bytes for {name} drifted from the golden fixture; if the \
         change is intentional, re-bless with {BLESS_VAR}=1 and commit"
    );
}

/// Reads a campaign directory's records back, sorted into matrix order —
/// the raw material for the in-memory / resume / merge rebuilds, so no
/// golden path pays for simulation twice.
fn stored_records(dir: &Path) -> Vec<RunResult> {
    let text = std::fs::read_to_string(dir.join(RUNS_FILE)).expect("streamed log must exist");
    let mut records: Vec<RunResult> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).expect("streamed records parse"))
        .collect();
    records.sort_by_key(|r| r.spec.index);
    records
}

fn write_log(dir: &CampaignDir, records: &[&RunResult]) {
    let log: String = records
        .iter()
        .map(|r| format!("{}\n", serde_json::to_string(r).unwrap()))
        .collect();
    std::fs::write(dir.runs_path(), log).unwrap();
}

/// Rebuilds `spec`'s report through all four aggregation paths and checks
/// every one against the named fixture.
fn golden_corpus(tag: &str, spec: &CampaignSpec, fixture: &str) {
    let executor = Executor::new(2);
    let runs = expand(spec).unwrap();

    // Path 1: streaming run (the only simulation this corpus pays for).
    let streamed_root = temp_root(&format!("{tag}-stream"));
    let streamed = run(&executor, spec, &streamed_root, None)
        .unwrap()
        .expect("a whole campaign builds a report")
        .to_json();
    let records = stored_records(&streamed_root);

    // Path 2: in-memory aggregation of the same runs.
    let in_memory = CampaignReport::build_with(
        &CampaignOutcome {
            spec: spec.clone(),
            runs: records.clone(),
        },
        &executor,
    )
    .unwrap()
    .to_json();

    // Path 3: crash-resume — all but the last two records stored, plus a
    // torn half-record, then resumed (re-executing the missing runs).
    let resume_root = temp_root(&format!("{tag}-resume"));
    let resume_dir = CampaignDir::create(&resume_root, spec, runs.len()).unwrap();
    let keep = records.len().saturating_sub(2);
    write_log(&resume_dir, &records[..keep].iter().collect::<Vec<_>>());
    if let Some(next) = records.get(keep) {
        let line = serde_json::to_string(next).unwrap();
        let mut log = std::fs::read_to_string(resume_dir.runs_path()).unwrap();
        log.push_str(&line[..line.len() / 2]);
        std::fs::write(resume_dir.runs_path(), log).unwrap();
    }
    let resumed = resume(&executor, &resume_root, Some(spec))
        .unwrap()
        .expect("whole-campaign resume returns a report")
        .to_json();

    // Path 4: shard-merge — records partitioned across two directories,
    // merged back.
    let merge_base = temp_root(&format!("{tag}-merge"));
    let mut inputs = Vec::new();
    for half in 0..2usize {
        let root = merge_base.join(format!("part-{half}"));
        let dir = CampaignDir::create(&root, spec, runs.len()).unwrap();
        let part: Vec<&RunResult> = records
            .iter()
            .filter(|r| r.spec.index % 2 == half)
            .collect();
        write_log(&dir, &part);
        inputs.push(root);
    }
    let merged = merge(&executor, &inputs, merge_base.join("merged"), false)
        .unwrap()
        .to_json();

    // Every path must agree with every other before any of them is allowed
    // to (re)define the fixture.
    for (path, produced) in [
        ("in-memory", &in_memory),
        ("resume", &resumed),
        ("merge", &merged),
    ] {
        assert_eq!(
            produced, &streamed,
            "{path} rebuild of {fixture} diverged from the streamed report"
        );
    }
    check_fixture(fixture, &streamed);

    for root in [streamed_root, resume_root, merge_base] {
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn golden_smoke_eval_off() {
    let spec = CampaignSpec::from_path(&spec_path("smoke.toml")).unwrap();
    assert!(!spec.eval.enabled);
    golden_corpus("smoke-off", &spec, "smoke_eval_off.report.json");
}

#[test]
fn golden_smoke_eval_on() {
    let spec = CampaignSpec::from_path(&spec_path("smoke_eval.toml")).unwrap();
    assert!(spec.eval.enabled);
    golden_corpus("smoke-on", &spec, "smoke_eval_on.report.json");
}

#[test]
fn golden_table1_quick_eval_on() {
    let spec = CampaignSpec::from_path(&spec_path("table1_quick.toml")).unwrap();
    assert!(spec.eval.enabled);
    golden_corpus("table1-on", &spec, "table1_quick_eval_on.report.json");
}

#[test]
fn golden_table1_quick_eval_off() {
    let mut spec = CampaignSpec::from_path(&spec_path("table1_quick.toml")).unwrap();
    // The eval-off variant of the same grid: identical run matrix and
    // group summaries, no evaluations array.
    spec.eval.enabled = false;
    golden_corpus("table1-off", &spec, "table1_quick_eval_off.report.json");
}

#[test]
fn golden_smoke_torus() {
    // The only committed spec that sweeps every attack family (fdos, ddos2,
    // stealth): it pins the injection draws of all three, not just fdos.
    let spec = CampaignSpec::from_path(&spec_path("smoke_torus.toml")).unwrap();
    assert_eq!(expand(&spec).unwrap().len(), 14);
    golden_corpus("smoke-torus", &spec, "smoke_torus.report.json");
}
