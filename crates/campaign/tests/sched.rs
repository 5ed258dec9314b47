//! Integration tests of the lease-based distributed scheduler: a
//! coordinator and a worker fleet over the shared-filesystem transport,
//! kill-and-release lease recovery (an aborted worker's lease expires and
//! its unfinished indices reissue to a survivor), and a property sweeping
//! arbitrary fleet sizes × lease sizes × kill points against the
//! single-machine reference report.

use dl2fence_campaign::{
    expand, merge, resume, run_streaming, sched_status, serve_sched, spec_fingerprint, status,
    work, CampaignDir, CampaignSpec, Executor, Grant, RunResult, Scheduler, ServeOptions,
    WatchSnapshot, WorkOptions,
};
use dl2fence_telemetry::{EventData, MemorySink, Telemetry};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The same small eval-enabled campaign the merge suite uses (12 runs with
/// sample payloads and trained-model metrics), so scheduler byte-identity
/// covers the samples and the eval phase, not just scalars.
const SCHED_SPEC: &str = r#"
name = "sched-integration"

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
    CampaignSpec::from_toml(SCHED_SPEC).unwrap()
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dl2fence-sched-it-{tag}-{}", std::process::id()));
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

/// Blocks until the coordinator thread has initialized the campaign
/// directory (workers refuse to join a directory with no manifest).
fn wait_for_manifest(root: &std::path::Path) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !root.join("manifest.json").exists() {
        assert!(
            Instant::now() < deadline,
            "coordinator never wrote {}",
            root.join("manifest.json").display()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn coordinator_and_two_workers_drain_the_matrix_byte_identically() {
    let root = temp_root("fleet");
    let total = expand(&spec()).unwrap().len();

    let (report, outcomes) = std::thread::scope(|s| {
        let coord_root = root.clone();
        let coordinator = s.spawn(move || {
            serve_sched(
                &Executor::new(2),
                &coord_root,
                Some(&spec()),
                &ServeOptions {
                    lease_size: 2,
                    lease_ttl: Duration::from_secs(60),
                    poll: Duration::from_millis(5),
                },
            )
        });
        wait_for_manifest(&root);
        let handles: Vec<_> = ["alpha", "beta"]
            .into_iter()
            .map(|name| {
                let wroot = root.clone();
                s.spawn(move || {
                    let mut opts = WorkOptions::named(name);
                    opts.poll = Duration::from_millis(5);
                    work(&Executor::new(2), &wroot, &opts)
                })
            })
            .collect();
        let outcomes: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        (coordinator.join().unwrap().unwrap(), outcomes)
    });

    // The fleet executed every run exactly once between them, and the
    // assembled report matches the single-machine run byte for byte.
    assert_eq!(outcomes.iter().map(|o| o.executed).sum::<usize>(), total);
    assert_eq!(&report.to_json(), reference_json());
    assert_eq!(
        &std::fs::read_to_string(root.join("report.json")).unwrap(),
        reference_json()
    );
    for name in ["alpha", "beta"] {
        assert!(
            root.join("workers")
                .join(name)
                .join("manifest.json")
                .exists(),
            "worker {name} must leave its directory behind"
        );
    }

    // The lease ledger survives for inspection: status shows the table.
    let sched = sched_status(&root).unwrap().expect("ledger written");
    assert_eq!(sched.active, 0, "no lease may stay active after drain");
    assert_eq!(sched.expired, 0, "no worker stalled");
    assert!(
        sched.issued >= (total / 2) as u64,
        "leases of 2 over {total} runs need at least {} grants, saw {}",
        total / 2,
        sched.issued
    );
    assert_eq!(sched.completed, sched.issued);
    let rendered = status(std::slice::from_ref(&root)).unwrap().render();
    assert!(rendered.contains("scheduler:"), "status:\n{rendered}");
    assert!(rendered.contains("lease"), "status:\n{rendered}");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn killed_worker_lease_expires_and_is_reissued_to_the_survivor() {
    let root = temp_root("kill");
    let total = expand(&spec()).unwrap().len();

    let report = std::thread::scope(|s| {
        let coord_root = root.clone();
        let coordinator = s.spawn(move || {
            serve_sched(
                &Executor::new(2),
                &coord_root,
                Some(&spec()),
                &ServeOptions {
                    lease_size: 3,
                    lease_ttl: Duration::from_millis(300),
                    poll: Duration::from_millis(5),
                },
            )
        });
        wait_for_manifest(&root);

        // The casualty persists one run of its first lease, then dies
        // without completing it — the crash shape the scheduler exists for.
        let mut casualty = WorkOptions::named("casualty");
        casualty.poll = Duration::from_millis(5);
        casualty.fail_after = Some(1);
        let err = work(&Executor::new(1), &root, &casualty).unwrap_err();
        assert!(err.to_string().contains("--fail-after"), "got: {err}");

        // The survivor drains the rest, including the reissued remainder of
        // the casualty's expired lease.
        let mut survivor = WorkOptions::named("survivor");
        survivor.poll = Duration::from_millis(5);
        let outcome = work(&Executor::new(2), &root, &survivor).unwrap();
        assert_eq!(
            outcome.executed,
            total - 1,
            "the casualty's persisted run must not re-execute"
        );
        coordinator.join().unwrap().unwrap()
    });

    assert_eq!(&report.to_json(), reference_json());
    assert_eq!(
        &std::fs::read_to_string(root.join("report.json")).unwrap(),
        reference_json()
    );

    let sched = sched_status(&root).unwrap().expect("ledger written");
    assert!(
        sched.expired >= 1,
        "the casualty's abandoned lease must expire: {sched:?}"
    );
    assert!(
        sched.reissued >= 1,
        "its unfinished indices must reissue: {sched:?}"
    );
    assert_eq!(sched.active, 0, "no lease may stay active after drain");
    assert!(sched
        .leases
        .iter()
        .any(|l| l.worker == "casualty" && l.state == "expired"));
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn malformed_inbox_message_is_rejected_and_the_fleet_still_drains() {
    let root = temp_root("junk");
    let total = expand(&spec()).unwrap().len();
    CampaignDir::create(&root, &spec(), total).unwrap();
    // A message file that does not parse must not stop the coordinator:
    // left in place, it would fail every restart the same way.
    let inbox = root.join("sched").join("inbox");
    std::fs::create_dir_all(&inbox).unwrap();
    let junk = inbox.join("junk-000000000001.json");
    std::fs::write(&junk, "{\"worker\": 3\n").unwrap();

    let sink = Arc::new(MemorySink::new());
    let report = std::thread::scope(|s| {
        let coord_root = root.clone();
        let sink = sink.clone();
        let coordinator = s.spawn(move || {
            serve_sched(
                &Executor::new(2).with_telemetry(Telemetry::with_sink(sink)),
                &coord_root,
                Some(&spec()),
                &ServeOptions {
                    poll: Duration::from_millis(5),
                    ..ServeOptions::default()
                },
            )
        });
        let mut opts = WorkOptions::named("w1");
        opts.poll = Duration::from_millis(5);
        opts.patience = Duration::from_secs(20);
        let worker = work(&Executor::new(2), &root, &opts);
        let report = coordinator.join().unwrap().unwrap();
        assert_eq!(worker.unwrap().executed, total);
        report
    });

    assert_eq!(&report.to_json(), reference_json());
    assert!(!junk.exists(), "the malformed message must be consumed");
    assert!(
        inbox.join("junk-000000000001.rejected").exists(),
        "the malformed message must be kept as evidence"
    );
    let rejected: u64 = sink
        .snapshot()
        .iter()
        .filter_map(|e| match &e.data {
            EventData::Counter { name, delta, .. } if name == "sched.rejected_messages" => {
                Some(*delta)
            }
            _ => None,
        })
        .sum();
    assert_eq!(rejected, 1);
    std::fs::remove_dir_all(&root).unwrap();
}

// ---------------------------------------------------------------------------
// A coordinator directory's stored set includes its workers' records.
// ---------------------------------------------------------------------------

/// A four-run campaign, cheap enough to drain by hand.
fn fleet_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::quick("fleet-drain");
    spec.sim.warmup_cycles = 50;
    spec.sim.sample_period = 100;
    spec.sim.samples_per_run = 1;
    spec.grid.mesh = vec![4];
    spec.grid.fir = vec![0.8];
    spec.grid.workloads = vec!["uniform".to_string()];
    spec.grid.attack_placements = 3;
    spec.grid.benign_runs = 1;
    spec.grid.seeds = vec![0xF1EE7];
    spec
}

/// A coordinator directory caught mid-drain: its own log is empty (it
/// stays so until final assembly) and worker `w1` holds the records of
/// `stored`, copied from a single-machine run. Returns the directory and
/// the single-machine report.
fn half_drained_fleet(tag: &str, stored: &[usize]) -> (PathBuf, String) {
    let spec = fleet_spec();
    let reference_root = temp_root(&format!("{tag}-reference"));
    let reference = run_streaming(&Executor::new(2), &spec, &reference_root).unwrap();
    let log = std::fs::read_to_string(reference_root.join("runs.jsonl")).unwrap();
    std::fs::remove_dir_all(&reference_root).unwrap();
    assert_eq!(reference.total_runs, 4);

    let root = temp_root(tag);
    CampaignDir::create(&root, &spec, 4).unwrap();
    let wroot = root.join("workers").join("w1");
    let wdir = CampaignDir::create(&wroot, &spec, 4).unwrap();
    // Exactly what `campaign work --worker w1` writes: a manifest naming
    // the worker and the records of its leased runs.
    let mut manifest = wdir.manifest().unwrap();
    manifest.worker = Some("w1".to_string());
    std::fs::write(
        wroot.join("manifest.json"),
        serde_json::to_string_pretty(&manifest).unwrap(),
    )
    .unwrap();
    let records: String = log
        .lines()
        .filter(|l| stored.contains(&serde_json::from_str::<RunResult>(l).unwrap().spec.index))
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(wdir.runs_path(), records).unwrap();
    (root, reference.to_json())
}

#[test]
fn resume_of_a_coordinator_directory_executes_only_what_its_workers_lack() {
    let (root, reference) = half_drained_fleet("resume-fleet", &[0, 1, 3]);
    let sink = Arc::new(MemorySink::new());
    let executor = Executor::new(2).with_telemetry(Telemetry::with_sink(sink.clone()));

    let report = resume(&executor, &root, Some(&fleet_spec()))
        .unwrap()
        .expect("a coordinator directory is a whole campaign");
    let executed = sink
        .snapshot()
        .iter()
        .filter(|e| matches!(&e.data, EventData::Span { name, .. } if name == "run"))
        .count();
    assert_eq!(executed, 1, "only the run no worker stored may execute");
    assert_eq!(report.to_json(), reference);
    assert_eq!(
        std::fs::read_to_string(root.join("report.json")).unwrap(),
        reference
    );
    // The worker records were folded into the coordinator's own log, which
    // is now a complete, ordinary campaign directory.
    let dir = CampaignDir::open(&root).unwrap();
    let index = dir.index_log(&expand(&fleet_spec()).unwrap()).unwrap();
    assert!(index.missing_indices().is_empty());
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn status_of_a_half_drained_fleet_counts_its_worker_records() {
    let (root, reference) = half_drained_fleet("status-fleet", &[0, 2]);
    let report = status(std::slice::from_ref(&root)).unwrap();
    let coordinator = &report.dirs[0];
    assert_eq!(coordinator.owned_runs, 4);
    assert_eq!(coordinator.completed, 2, "worker records count as stored");
    assert_eq!(coordinator.missing, vec![1, 3]);
    assert_eq!(
        report.union_missing.as_deref(),
        Some(&[1usize, 3] as &[usize])
    );
    // `campaign watch fleet/` follows the drain instead of reading 0%.
    let snapshot = WatchSnapshot::capture(&root).unwrap();
    assert_eq!(snapshot.progress, 0.5);
    assert!(!snapshot.complete());

    // A merge of the directory counts the same records: it refuses on
    // exactly the union gap list, and re-executes only those gaps.
    let out = root.with_extension("merged");
    let err = merge(&Executor::new(2), std::slice::from_ref(&root), &out, false).unwrap_err();
    assert!(
        err.to_string()
            .contains("missing 2 of 4 run indices: [1, 3]"),
        "{err}"
    );
    std::fs::remove_dir_all(&out).unwrap();
    let merged = merge(&Executor::new(2), std::slice::from_ref(&root), &out, true).unwrap();
    assert_eq!(merged.to_json(), reference);
    std::fs::remove_dir_all(&out).unwrap();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn watch_of_a_drained_coordinator_waits_for_its_report() {
    let (root, reference) = half_drained_fleet("watch-fleet", &[0, 1, 2, 3]);
    // A served directory (it has a lease ledger) whose workers hold every
    // run, plus a worker still writing its manifest.
    let ledger = dl2fence_campaign::lease::ledger_path(&root);
    std::fs::create_dir_all(ledger.parent().unwrap()).unwrap();
    std::fs::write(&ledger, "").unwrap();
    let starting = root.join("workers").join("w2");
    std::fs::create_dir_all(&starting).unwrap();
    std::fs::write(starting.join("manifest.json"), "{\n  \"schema\": \"dl2").unwrap();

    let snapshot = WatchSnapshot::capture(&root).unwrap();
    assert_eq!(snapshot.progress, 1.0);
    assert!(
        !snapshot.complete(),
        "the drain is done, but final assembly has not written the report"
    );

    std::fs::remove_dir_all(&starting).unwrap();
    let report = resume(&Executor::new(2), &root, None).unwrap().unwrap();
    assert_eq!(report.to_json(), reference);
    assert!(WatchSnapshot::capture(&root).unwrap().complete());
    std::fs::remove_dir_all(&root).unwrap();
}

// ---------------------------------------------------------------------------
// Kill-and-release property: arbitrary fleets against the golden report.
// ---------------------------------------------------------------------------

/// A small sampled campaign (eval off, samples on) executed once: the
/// record pool the simulated workers draw from — appending `lines[i]` is
/// byte-identical to really executing run `i` — plus the single-machine
/// reference report.
fn sched_seed() -> &'static (CampaignSpec, Vec<String>, String) {
    static SEED: OnceLock<(CampaignSpec, Vec<String>, String)> = OnceLock::new();
    SEED.get_or_init(|| {
        let mut spec = CampaignSpec::quick("sched-prop");
        spec.sim.warmup_cycles = 50;
        spec.sim.sample_period = 100;
        spec.sim.samples_per_run = 1;
        spec.sim.collect_samples = true;
        spec.grid.mesh = vec![4];
        spec.grid.fir = vec![0.8];
        spec.grid.workloads = vec!["uniform".to_string()];
        spec.grid.attack_placements = 3;
        spec.grid.benign_runs = 3;
        spec.grid.seeds = vec![0xFACE];
        let root = temp_root("prop-seed");
        let report = run_streaming(&Executor::new(2), &spec, &root).unwrap();
        let log = std::fs::read_to_string(root.join("runs.jsonl")).unwrap();
        // The log is in completion order; key the pool by run index.
        let mut lines = vec![String::new(); report.total_runs];
        for line in log.lines() {
            let record: RunResult = serde_json::from_str(line).unwrap();
            lines[record.spec.index] = line.to_string();
        }
        std::fs::remove_dir_all(&root).unwrap();
        (spec, lines, report.to_json())
    })
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One simulated fleet member: a real worker directory it appends
/// precomputed records into, and a kill budget drawn from the seed.
struct SimWorker {
    root: PathBuf,
    writer: std::fs::File,
    name: String,
    alive: bool,
    /// Dies after persisting this many runs; `None` is immortal.
    budget: Option<usize>,
    executed: usize,
}

proptest! {
    /// Satellite of the scheduler tentpole: for **arbitrary fleet sizes**,
    /// **lease sizes** and **kill points**, driving the [`Scheduler`] state
    /// machine exactly as the coordinator does — workers persist records
    /// before acknowledging progress, killed workers vanish mid-lease
    /// (sometimes between the append and the ack: the idempotent-replay
    /// window), overdue leases expire and reissue — always reconstructs the
    /// single-machine report **byte-identically** from the worker
    /// directories, with speculative re-execution covering whatever no
    /// worker lived to finish.
    #[test]
    fn kill_and_release_reconstructs_the_report_for_any_fleet(
        workers in 1usize..5,
        lease_size in 1usize..6,
        kill_seed in 0u64..u64::MAX,
        case in 0u64..1_000_000,
    ) {
        let (spec, lines, reference) = sched_seed();
        let total = lines.len();
        let fingerprint = spec_fingerprint(spec);
        let root = temp_root(&format!("prop-{case}"));

        let mut rng = kill_seed;
        let mut fleet = Vec::with_capacity(workers);
        for i in 0..workers {
            let name = format!("w{i}");
            let wroot = root.join("workers").join(&name);
            let writer = CampaignDir::create(&wroot, spec, total)
                .map_err(|e| e.to_string())?
                .open_runs_for_append()
                .map_err(|e| e.to_string())?;
            rng = splitmix(rng);
            // Roughly half the fleet dies, at a point drawn over the matrix.
            let budget = (rng % 2 == 0).then(|| {
                rng = splitmix(rng);
                (rng % (total as u64 + 1)) as usize
            });
            fleet.push(SimWorker {
                root: wroot,
                writer,
                name,
                alive: true,
                budget,
                executed: 0,
            });
        }

        let opts = ServeOptions {
            lease_size,
            lease_ttl: Duration::from_millis(1),
            ..ServeOptions::default()
        };
        let mut sched = Scheduler::new(&opts, &fingerprint, &vec![false; total]);
        let mut now = 0u64;
        let mut rounds = 0usize;
        while !sched.drained() {
            rounds += 1;
            prop_assert!(
                rounds <= 4 * total + 4 * workers + 8,
                "scheduler failed to drain: pending {}, round {rounds}",
                sched.pending_len()
            );
            let mut any_alive = false;
            for w in &mut fleet {
                if !w.alive {
                    continue;
                }
                any_alive = true;
                now += 1;
                let lease = match sched.grant(&w.name, now) {
                    Grant::Lease { lease, .. } => lease,
                    Grant::Wait => continue,
                    Grant::Drained => {
                        w.alive = false;
                        continue;
                    }
                };
                let mut killed = false;
                for &i in &lease.indices {
                    if w.budget == Some(w.executed) {
                        killed = true; // died before starting this run
                        break;
                    }
                    use std::io::Write as _;
                    w.writer
                        .write_all(lines[i].as_bytes())
                        .and_then(|()| w.writer.write_all(b"\n"))
                        .map_err(|e| e.to_string())?;
                    w.executed += 1;
                    rng = splitmix(rng);
                    if w.budget == Some(w.executed) && rng % 2 == 0 {
                        // Died between the append and the progress ack: the
                        // record exists but the index reissues — merge must
                        // dedupe the identical duplicate.
                        killed = true;
                        break;
                    }
                    sched.progress(lease.id, i, now);
                }
                if killed {
                    w.alive = false;
                } else {
                    sched.complete(lease.id);
                }
            }
            // Time passes beyond the ttl: whatever the dead still hold
            // expires and returns to the queue.
            now += 2_000;
            sched.expire_overdue(now);
            if !any_alive {
                break; // the whole fleet died; assembly re-executes the rest
            }
        }

        if sched.drained() {
            prop_assert_eq!(sched.pending_len(), 0);
            let counters = sched.counters();
            prop_assert!(
                counters.issued >= (total.div_ceil(lease_size)) as u64,
                "covering {total} runs with leases of {lease_size} needs more grants \
                 than {}",
                counters.issued
            );
        }

        for w in &mut fleet {
            use std::io::Write as _;
            w.writer.flush().map_err(|e| e.to_string())?;
        }
        let inputs: Vec<PathBuf> = fleet.iter().map(|w| w.root.clone()).collect();
        drop(fleet);
        let report = merge(&Executor::new(2), &inputs, root.join("merged"), true)
            .map_err(|e| e.to_string())?;
        prop_assert_eq!(&report.to_json(), reference);
        std::fs::remove_dir_all(&root).map_err(|e| e.to_string())?;
    }
}
