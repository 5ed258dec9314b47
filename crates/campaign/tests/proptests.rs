//! Property tests of the spec and streaming codecs: TOML/JSON spec
//! round-trips over arbitrary grids, lossless RunResult JSONL
//! encode/decode, resume-after-arbitrary-prefix scan recovery, shard-merge
//! byte-identity over arbitrary partitions of the run matrix, logged-vs-
//! in-memory eval report byte-identity over arbitrary grids, resume of a
//! wounded log (arbitrary prefix, order and duplicate injection, torn
//! tail), and `campaign status` gap-list correctness.

use dl2fence_campaign::stream::{CampaignDir, RUNS_FILE};
use dl2fence_campaign::{
    execute_run, expand, merge, resume, run_streaming, spec_fingerprint, status, CampaignOutcome,
    CampaignReport, CampaignSpec, Executor, RunMetrics, RunResult, RunSpec,
};
use noc_monitor::{DirectionalFrames, FeatureFrame, FeatureKind, GroundTruth, LabeledSample};
use noc_sim::Direction;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

const WORKLOADS: [&str; 6] = [
    "uniform",
    "tornado",
    "shuffle",
    "bit-complement",
    "blackscholes",
    "x264",
];
const GROUP_KEYS: [&str; 8] = [
    "workload",
    "fir",
    "mesh",
    "seed",
    "attackers",
    "class",
    "topology",
    "attack",
];

/// Builds a valid spec from drawn raw values (the strategy surface the
/// proptest shim offers is integer/float ranges, so enumerations are picked
/// by index).
#[allow(clippy::too_many_arguments)]
fn build_spec(
    mesh_a: usize,
    mesh_b: usize,
    fir_pct: u64,
    workload_i: usize,
    workload_j: usize,
    placements: usize,
    benign: usize,
    seed: u64,
    inj_ppm: u64,
    key_i: usize,
) -> CampaignSpec {
    let mut spec = CampaignSpec::quick(format!("prop-{seed}"));
    // Topology family and attack mix derive from the existing draws so the
    // property sweeps all three families and all attack axes for free.
    let kind = ["mesh", "torus", "ring"][(mesh_a + mesh_b) % 3];
    spec.grid.topology = if mesh_a == mesh_b {
        vec![format!("{kind}{mesh_a}")]
    } else {
        vec![format!("{kind}{mesh_a}"), format!("{kind}{mesh_b}")]
    };
    spec.grid.attack = match fir_pct % 4 {
        0 => vec![],
        1 => vec!["ddos2".to_string()],
        2 => vec!["stealth".to_string()],
        _ => vec![
            "fdos".to_string(),
            "ddos3".to_string(),
            "stealth".to_string(),
        ],
    };
    spec.grid.fir = vec![fir_pct as f64 / 100.0];
    spec.grid.workloads = if workload_i == workload_j {
        vec![WORKLOADS[workload_i].to_string()]
    } else {
        vec![
            WORKLOADS[workload_i].to_string(),
            WORKLOADS[workload_j].to_string(),
        ]
    };
    spec.grid.attack_placements = placements;
    spec.grid.benign_runs = benign;
    spec.grid.seeds = vec![seed];
    spec.grid.injection_rate = inj_ppm as f64 / 1_000_000.0;
    spec.report.group_by = vec![GROUP_KEYS[key_i].to_string()];
    spec
}

/// Renders the drawn grid as TOML (there is no TOML serializer in the
/// offline shim set, so the round-trip is text → spec → JSON → spec).
fn spec_toml(spec: &CampaignSpec) -> String {
    let topology: Vec<String> = spec
        .grid
        .topology
        .iter()
        .map(|t| format!("{t:?}"))
        .collect();
    let attack: Vec<String> = spec.grid.attack.iter().map(|a| format!("{a:?}")).collect();
    let workloads: Vec<String> = spec
        .grid
        .workloads
        .iter()
        .map(|w| format!("{w:?}"))
        .collect();
    format!(
        "name = {:?}\n[grid]\ntopology = [{}]\nattack = [{}]\nfir = [{}]\nworkloads = [{}]\n\
         attack_placements = {}\nbenign_runs = {}\nseeds = [{}]\ninjection_rate = {}\n\
         [report]\ngroup_by = [{:?}]\n",
        spec.name,
        topology.join(", "),
        attack.join(", "),
        spec.grid.fir[0],
        workloads.join(", "),
        spec.grid.attack_placements,
        spec.grid.benign_runs,
        spec.grid.seeds[0],
        spec.grid.injection_rate,
        spec.report.group_by[0],
    )
}

/// One executed tiny campaign, shared by the JSONL and resume properties so
/// no property pays for simulation 256 times.
fn seed_results() -> &'static (CampaignSpec, Vec<RunResult>) {
    static SEED: OnceLock<(CampaignSpec, Vec<RunResult>)> = OnceLock::new();
    SEED.get_or_init(|| {
        let mut spec = CampaignSpec::quick("prop-seed");
        spec.grid.mesh = vec![4];
        spec.grid.fir = vec![0.8];
        spec.grid.workloads = vec!["uniform".into()];
        spec.grid.attack_placements = 3;
        spec.grid.benign_runs = 2;
        spec.grid.seeds = vec![0xBADC0DE];
        spec.sim.warmup_cycles = 50;
        spec.sim.sample_period = 100;
        spec.sim.samples_per_run = 2;
        spec.sim.collect_samples = true;
        let outcome = Executor::new(2).execute(&spec).unwrap();
        (spec, outcome.runs)
    })
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dl2fence-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// splitmix64 — the partition/shuffle randomness of the merge properties
/// (deterministic per drawn seed, independent of the engine's own seeding).
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// In-place Fisher–Yates driven by [`splitmix`].
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = splitmix(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// A deterministic synthetic result for `run` — exactly lossless under the
/// JSONL codec, so grid-arbitrary merge properties need no simulation.
fn synthetic_result(run: &RunSpec) -> RunResult {
    let i = run.index as f64;
    RunResult {
        spec: run.clone(),
        metrics: RunMetrics {
            packet_latency: 10.0 + i * 0.5,
            packet_queue_latency: 2.0 + i * 0.25,
            flit_latency: 8.0 + i * 0.125,
            flit_queue_latency: 1.0 + i,
            packets_created: 1000 + run.index as u64,
            packets_received: 900 + run.index as u64,
            malicious_packets_received: run.index as u64 % 7,
            saturated: run.index.is_multiple_of(3),
            energy_nj: 5000.0 + i * 3.0,
            power_mw: 12.0 + i * 0.0625,
        },
        samples: Vec::new(),
    }
}

/// Writes `results` partitioned into `count` campaign directories under
/// `base` (run `i` goes to the shard `assign(i)` picks), each shard's log
/// in a drawn completion order, and returns the shard paths.
fn write_partitioned_shards(
    base: &std::path::Path,
    spec: &CampaignSpec,
    results: &[RunResult],
    count: usize,
    assign: impl Fn(usize) -> usize,
    shuffle_seed: u64,
) -> Vec<PathBuf> {
    let mut buckets: Vec<Vec<&RunResult>> = (0..count).map(|_| Vec::new()).collect();
    for (i, result) in results.iter().enumerate() {
        buckets[assign(i) % count].push(result);
    }
    write_shards(base, spec, results.len(), buckets, shuffle_seed)
}

/// Writes each bucket of records into its own campaign directory under
/// `base`, in a drawn completion order, and returns the shard paths.
fn write_shards(
    base: &std::path::Path,
    spec: &CampaignSpec,
    total: usize,
    buckets: Vec<Vec<&RunResult>>,
    shuffle_seed: u64,
) -> Vec<PathBuf> {
    buckets
        .into_iter()
        .enumerate()
        .map(|(s, mut bucket)| {
            // Out-of-order completion within the shard.
            shuffle(&mut bucket, splitmix(shuffle_seed ^ s as u64));
            let root = base.join(format!("shard-{s}"));
            CampaignDir::create(&root, spec, total).unwrap();
            let log: String = bucket
                .iter()
                .map(|r| format!("{}\n", serde_json::to_string(r).unwrap()))
                .collect();
            std::fs::write(root.join(RUNS_FILE), log).unwrap();
            root
        })
        .collect()
}

proptest! {
    #[test]
    fn spec_round_trips_through_toml_and_json(
        mesh_a in 2usize..12,
        mesh_b in 2usize..12,
        fir_pct in 1u64..101,
        workload_i in 0usize..6,
        workload_j in 0usize..6,
        placements in 1usize..5,
        benign in 0usize..4,
        seed in 0u64..1_000_000_000_000,
        inj_ppm in 1u64..200_000,
        key_i in 0usize..8,
    ) {
        let spec = build_spec(
            mesh_a, mesh_b, fir_pct, workload_i, workload_j, placements,
            benign, seed, inj_ppm, key_i,
        );
        prop_assert!(spec.validate().is_ok(), "drawn spec must be valid");

        // TOML text → spec: every drawn field survives the parse.
        let from_toml = CampaignSpec::from_toml(&spec_toml(&spec))
            .map_err(|e| e.to_string())?;
        prop_assert_eq!(&from_toml.grid, &spec.grid);
        prop_assert_eq!(&from_toml.report.group_by, &spec.report.group_by);

        // spec → JSON → spec is the identity, and the fingerprint pins it.
        let json = serde_json::to_string(&spec).map_err(|e| e.to_string())?;
        let back = CampaignSpec::from_json(&json).map_err(|e| e.to_string())?;
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(spec_fingerprint(&back), spec_fingerprint(&spec));

        // The expansion contract: dense in-order indices, spec-derived seeds.
        let runs = expand(&spec).map_err(|e| e.to_string())?;
        for (i, run) in runs.iter().enumerate() {
            prop_assert_eq!(run.index, i);
            prop_assert_eq!(
                run.run_seed,
                dl2fence_campaign::derive_run_seed(run.campaign_seed, i)
            );
        }
    }

    #[test]
    fn run_result_jsonl_record_round_trips_losslessly(
        case in 0usize..5,
        latency_bits in 0u64..u64::MAX,
        energy_bits in 0u64..u64::MAX,
        packets in 0u64..u64::MAX,
    ) {
        // Real simulator output (frames included) with adversarial float
        // payloads grafted in: any finite f64 bit pattern must survive the
        // JSONL text codec bit-for-bit.
        let (_, results) = seed_results();
        let mut result = results[case % results.len()].clone();
        let graft = |bits: u64| {
            let f = f64::from_bits(bits);
            if f.is_finite() { f } else { bits as f64 / 7.0 }
        };
        result.metrics.packet_latency = graft(latency_bits);
        result.metrics.energy_nj = graft(energy_bits);
        result.metrics.packets_created = packets;

        let line = serde_json::to_string(&result).map_err(|e| e.to_string())?;
        prop_assert!(!line.contains('\n'), "a JSONL record is one line");
        let back: RunResult = serde_json::from_str(&line).map_err(|e| e.to_string())?;
        prop_assert_eq!(&back, &result);
        // Idempotent re-encode: scan+append cycles cannot drift.
        prop_assert_eq!(serde_json::to_string(&back).map_err(|e| e.to_string())?, line);
    }

    #[test]
    fn scan_recovers_exactly_the_missing_indices_after_any_prefix(
        keep in 0usize..9,
        chop in 1usize..40,
    ) {
        let (spec, results) = seed_results();
        let runs = expand(spec).map_err(|e| e.to_string())?;
        let keep = keep.min(results.len());

        let root = temp_root("scan");
        let dir = CampaignDir::create(&root, spec, results.len()).map_err(|e| e.to_string())?;
        let mut jsonl = String::new();
        for result in &results[..keep] {
            jsonl.push_str(&serde_json::to_string(result).map_err(|e| e.to_string())?);
            jsonl.push('\n');
        }
        if keep < results.len() {
            // A crash-truncated partial record of the next run.
            let next = serde_json::to_string(&results[keep]).map_err(|e| e.to_string())?;
            jsonl.push_str(&next[..chop.min(next.len() - 1)]);
        }
        std::fs::write(dir.runs_path(), &jsonl).map_err(|e| e.to_string())?;

        let index = dir.index_log(&runs).map_err(|e| e.to_string())?;
        prop_assert_eq!(index.completed(), keep);
        prop_assert_eq!(
            index.missing_indices(),
            (keep..results.len()).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&root).map_err(|e| e.to_string())?;
    }
}

proptest! {
    /// Satellite of the sharding tentpole: for **arbitrary spec grids** and
    /// **arbitrary splits** of the run matrix into 1–5 shards, with
    /// out-of-order completion inside every shard, `merge` rebuilds the
    /// report byte-identically to the single uninterrupted aggregation of
    /// the same runs. Three input shapes:
    ///
    /// - a partition, strided like `campaign shard` or fully irregular;
    /// - overlapping, non-strided subsets — every run lands in one or two
    ///   shards (sometimes twice in one log), so identical duplicates must
    ///   dedupe across and within directories;
    /// - a partition with one subset dropped, folded with gap
    ///   re-execution: the fold's execute primitive simulates the dropped
    ///   runs, and the reference aggregates those real results.
    ///
    /// Stored results are synthetic (losslessly codable), so the property
    /// sweeps grids without paying for simulation beyond the dropped runs,
    /// whose sim phase is kept short.
    #[test]
    fn merge_of_any_partition_of_any_grid_is_byte_identical(
        mesh_a in 2usize..10,
        fir_pct in 1u64..101,
        workload_i in 0usize..6,
        workload_j in 0usize..6,
        placements in 1usize..5,
        benign in 0usize..4,
        seed in 0u64..1_000_000_000_000,
        shards in 1usize..6,
        assign_seed in 0u64..u64::MAX,
        shuffle_seed in 0u64..u64::MAX,
        strided in 0usize..2,
        shape in 0usize..3,
    ) {
        let mut spec = build_spec(
            mesh_a, mesh_a, fir_pct, workload_i, workload_j, placements,
            benign, seed, 20_000, seed as usize % 6,
        );
        spec.sim.warmup_cycles = 10;
        spec.sim.sample_period = 20;
        spec.sim.samples_per_run = 1;
        let runs = expand(&spec).map_err(|e| e.to_string())?;
        let synthetic: Vec<RunResult> = runs.iter().map(synthetic_result).collect();
        let assign = |i: usize, salt: u64| {
            let drawn = splitmix(assign_seed ^ salt ^ i as u64) as usize;
            if strided == 0 && shape != 1 { i % shards } else { drawn % shards }
        };
        let dropped = (shape == 2).then(|| (splitmix(assign_seed) as usize) % shards);
        let mut buckets: Vec<Vec<&RunResult>> = vec![Vec::new(); shards];
        for (i, result) in synthetic.iter().enumerate() {
            if Some(assign(i, 0)) != dropped {
                buckets[assign(i, 0)].push(result);
            }
            if shape == 1 && splitmix(shuffle_seed ^ i as u64).is_multiple_of(2) {
                buckets[assign(i, 0x5EED)].push(result);
            }
        }
        // The reference aggregates what the merge must end up holding:
        // the stored synthetic records, and real results for the runs the
        // fold re-executes.
        let expected: Vec<RunResult> = synthetic
            .iter()
            .enumerate()
            .map(|(i, result)| match dropped {
                Some(s) if assign(i, 0) == s => execute_run(&spec.sim, &runs[i]),
                _ => result.clone(),
            })
            .collect();
        let reference = CampaignReport::build_with(
            &CampaignOutcome { spec: spec.clone(), runs: expected },
            &Executor::new(1),
        )
        .map_err(|e| e.to_string())?
        .to_json();

        let base = temp_root("merge-grid");
        let inputs = write_shards(&base, &spec, runs.len(), buckets, shuffle_seed);
        let out = base.join("merged");
        let merged = merge(&Executor::new(1), &inputs, out, dropped.is_some())
            .map_err(|e| e.to_string())?;
        prop_assert_eq!(merged.to_json(), reference);
        std::fs::remove_dir_all(&base).map_err(|e| e.to_string())?;
    }

    /// The same partition property over **real simulated runs** (frame
    /// payloads included): any 1–5-way split of the shared seed campaign's
    /// records, shuffled within each shard, merges back byte-identically to
    /// the uninterrupted `campaign run` report.
    #[test]
    fn merge_of_any_partition_of_simulated_runs_is_byte_identical(
        shards in 1usize..6,
        assign_seed in 0u64..u64::MAX,
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let (spec, results) = seed_results();
        let reference = streamed_reference();
        let base = temp_root("merge-sim");
        let inputs = write_partitioned_shards(
            &base,
            spec,
            results,
            shards,
            |i| (splitmix(assign_seed ^ i as u64)) as usize,
            shuffle_seed,
        );
        let merged = merge(&Executor::new(2), &inputs, base.join("merged"), false)
            .map_err(|e| e.to_string())?;
        prop_assert_eq!(&merged.to_json(), reference);
        std::fs::remove_dir_all(&base).map_err(|e| e.to_string())?;
    }
}

/// The uninterrupted streaming report of [`seed_results`]' campaign,
/// computed once and shared by the 256 merge-partition cases.
fn streamed_reference() -> &'static String {
    static REFERENCE: OnceLock<String> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let (spec, _) = seed_results();
        let root = temp_root("merge-sim-reference");
        let report = run_streaming(&Executor::new(2), spec, &root).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        report.to_json()
    })
}

/// One synthetic directional frame bundle with deterministic dyadic pixel
/// values (exact under the JSON f32 codec), driven by [`splitmix`].
fn synthetic_frames(kind: FeatureKind, mesh: usize, state: &mut u64) -> DirectionalFrames {
    let frames = Direction::CARDINAL
        .into_iter()
        .map(|direction| {
            let data: Vec<f32> = (0..mesh * mesh)
                .map(|_| {
                    *state = splitmix(*state);
                    (*state % 256) as f32 / 256.0
                })
                .collect();
            FeatureFrame::new(direction, kind, mesh, mesh, data)
        })
        .collect();
    DirectionalFrames::new(frames)
}

/// A [`synthetic_result`] carrying `samples_per_run` synthetic labeled
/// samples whose ground truth mirrors the run's scenario — enough for the
/// eval phase to train on, with no simulation.
fn synthetic_sampled_result(run: &RunSpec, samples_per_run: usize) -> RunResult {
    let mut result = synthetic_result(run);
    let truth = if run.is_attack() {
        GroundTruth {
            under_attack: true,
            attackers: run.scenario.attackers.clone(),
            attack_pairs: run
                .scenario
                .attackers
                .iter()
                .map(|&a| (a, run.scenario.victim))
                .collect(),
            victims: vec![run.scenario.victim],
            rows: run.mesh,
            cols: run.mesh,
        }
    } else {
        GroundTruth::benign(run.mesh, run.mesh)
    };
    let mut state = splitmix(run.run_seed ^ 0x5A5A_5A5A);
    for _ in 0..samples_per_run {
        result.samples.push(LabeledSample {
            vco: synthetic_frames(FeatureKind::Vco, run.mesh, &mut state),
            boc: synthetic_frames(FeatureKind::Boc, run.mesh, &mut state),
            truth: truth.clone(),
            benchmark: run.workload.clone(),
        });
    }
    result
}

proptest! {
    /// Logged eval rebuild: for **arbitrary grids** with the eval phase
    /// enabled, a log holding every record with its samples inline resumes
    /// to a report byte-identical to the all-in-memory build.
    #[test]
    fn logged_eval_report_is_byte_identical_to_in_memory_for_any_grid(
        // DL2Fence's detector CNN needs at least a 4x4 mesh.
        mesh in 4usize..6,
        fir_pct in 1u64..101,
        workload_i in 0usize..6,
        placements in 1usize..4,
        benign in 1usize..3,
        seed in 0u64..1_000_000_000_000,
        // At least two samples per run: with the alternating 0.5 split,
        // every run (in particular every attack run — the localizer needs
        // one to train) then contributes a sample to the training side.
        samples_per_run in 2usize..4,
    ) {
        let mut spec = build_spec(
            mesh, mesh, fir_pct, workload_i, workload_i, placements,
            benign, seed, 20_000, seed as usize % 6,
        );
        // The eval phase trains on meshes only (see `require_mesh`).
        spec.grid.topology = vec![format!("mesh{mesh}")];
        spec.sim.collect_samples = true;
        spec.sim.samples_per_run = samples_per_run;
        spec.eval.enabled = true;
        spec.eval.train_fraction = 0.5;
        spec.eval.detector_epochs = 1;
        spec.eval.localizer_epochs = 1;
        prop_assert!(spec.validate().is_ok(), "drawn spec must be valid");

        let runs = expand(&spec).map_err(|e| e.to_string())?;
        let results: Vec<RunResult> = runs
            .iter()
            .map(|r| synthetic_sampled_result(r, samples_per_run))
            .collect();
        let executor = Executor::new(1);
        let reference = CampaignReport::build_with(
            &CampaignOutcome { spec: spec.clone(), runs: results.clone() },
            &executor,
        )
        .map_err(|e| e.to_string())?
        .to_json();

        let root = temp_root("eval-grid");
        let dir = CampaignDir::create(&root, &spec, runs.len()).map_err(|e| e.to_string())?;
        let log: String = results
            .iter()
            .map(|r| format!("{}\n", serde_json::to_string(r).unwrap()))
            .collect();
        std::fs::write(dir.runs_path(), log).map_err(|e| e.to_string())?;
        let rebuilt = resume(&executor, &root, Some(&spec))
            .map_err(|e| e.to_string())?
            .expect("whole-campaign resume returns a report")
            .to_json();
        prop_assert_eq!(rebuilt, reference);
        std::fs::remove_dir_all(&root).map_err(|e| e.to_string())?;
    }

    /// Wounded-log resume: starting from an **arbitrary prefix** of the
    /// seed campaign's records, in arbitrary order, with arbitrary
    /// identical-duplicate injection and a torn tail, the log index counts
    /// every wound and a resume rebuilds the uninterrupted report
    /// byte-identically — no rewrite of the log is ever needed.
    #[test]
    fn wounded_log_resume_matches_the_reference_after_any_prefix(
        keep in 2usize..6,
        dup_a in 0usize..8,
        dup_b in 0usize..8,
        shuffle_seed in 0u64..u64::MAX,
        chop in 5usize..60,
    ) {
        let (spec, results) = seed_results();
        let keep = keep.min(results.len());
        let root = temp_root("wounded-resume");
        let dir = CampaignDir::create(&root, spec, results.len()).map_err(|e| e.to_string())?;

        let mut stored: Vec<&RunResult> = results[..keep].iter().collect();
        shuffle(&mut stored, shuffle_seed);
        let mut lines: Vec<String> = stored
            .iter()
            .map(|r| serde_json::to_string(r).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        // Duplicate two stored records (identical bytes — the legal kind).
        if !lines.is_empty() {
            lines.push(lines[dup_a % lines.len()].clone());
            lines.push(lines[dup_b % lines.len()].clone());
        }
        let mut jsonl: String = lines.iter().map(|l| format!("{l}\n")).collect();
        if keep < results.len() {
            // A torn half-record of the next run.
            let next = serde_json::to_string(&results[keep]).map_err(|e| e.to_string())?;
            jsonl.push_str(&next[..chop.min(next.len() - 1)]);
        }
        std::fs::write(dir.runs_path(), &jsonl).map_err(|e| e.to_string())?;

        let runs = expand(spec).map_err(|e| e.to_string())?;
        let index = dir.index_log(&runs).map_err(|e| e.to_string())?;
        prop_assert_eq!(index.completed(), keep);
        prop_assert_eq!(index.duplicate_records, if keep == 0 { 0 } else { 2 });
        prop_assert_eq!(index.truncated_tail, keep < results.len());

        let report = resume(&Executor::new(2), &root, Some(spec))
            .map_err(|e| e.to_string())?
            .expect("whole-campaign resume returns a report");
        prop_assert_eq!(&report.to_json(), streamed_reference());
        std::fs::remove_dir_all(&root).map_err(|e| e.to_string())?;
    }

    /// `campaign status` reports exactly the gap list the log index
    /// computes, for any stored subset of the run matrix.
    #[test]
    fn status_gap_list_matches_the_log_index(
        mask in 0u64..32,
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let (spec, results) = seed_results();
        let root = temp_root("status-gaps");
        let dir = CampaignDir::create(&root, spec, results.len()).map_err(|e| e.to_string())?;
        let mut stored: Vec<&RunResult> = results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| (mask & (1 << i) != 0).then_some(r))
            .collect();
        shuffle(&mut stored, shuffle_seed);
        let jsonl: String = stored
            .iter()
            .map(|r| format!("{}\n", serde_json::to_string(r).unwrap()))
            .collect();
        std::fs::write(dir.runs_path(), jsonl).map_err(|e| e.to_string())?;

        let runs = expand(spec).map_err(|e| e.to_string())?;
        let index = dir.index_log(&runs).map_err(|e| e.to_string())?;
        let report = status(std::slice::from_ref(&root)).map_err(|e| e.to_string())?;
        prop_assert_eq!(&report.dirs[0].missing, &index.missing_indices());
        prop_assert_eq!(report.dirs[0].completed, index.completed());
        prop_assert_eq!(
            report.union_missing.as_ref().expect("one fingerprint"),
            &index.missing_indices()
        );
        std::fs::remove_dir_all(&root).map_err(|e| e.to_string())?;
    }
}

/// Full resume equality over every possible prefix length — the executable
/// complement of the scan property (kept out of the 256-case proptest loop
/// because each resume re-runs real simulations).
#[test]
fn resume_after_every_prefix_matches_the_uninterrupted_report() {
    let (spec, results) = seed_results();
    let full_root = temp_root("resume-full");
    let reference = run_streaming(&Executor::new(2), spec, &full_root)
        .unwrap()
        .to_json();
    std::fs::remove_dir_all(&full_root).unwrap();

    for keep in 0..=results.len() {
        let root = temp_root(&format!("resume-{keep}"));
        let dir = CampaignDir::create(&root, spec, results.len()).unwrap();
        let mut jsonl = String::new();
        for result in &results[..keep] {
            jsonl.push_str(&serde_json::to_string(result).unwrap());
            jsonl.push('\n');
        }
        std::fs::write(root.join(RUNS_FILE), &jsonl).unwrap();
        drop(dir);

        let report = resume(&Executor::new(3), &root, Some(spec))
            .unwrap()
            .unwrap();
        assert_eq!(report.to_json(), reference, "prefix {keep} diverged");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
