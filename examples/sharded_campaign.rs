//! Cross-machine sharding demo: split one campaign into three shards (as
//! three machines would each run one), merge the shard directories, and
//! verify the merged report is byte-identical to a single-machine run.
//!
//! ```bash
//! cargo run --release --example sharded_campaign
//! ```

use dl2fence_campaign::{
    expand, merge, run, run_streaming, spec_fingerprint, CampaignSpec, Executor, ShardSlice,
};

const SPEC: &str = r#"
name = "sharding-demo"

[sim]
warmup_cycles = 100
sample_period = 300
samples_per_run = 1

[grid]
mesh = [8]
fir = [0.4, 0.8]
workloads = ["uniform", "shuffle"]
attack_placements = 3
benign_runs = 1
seeds = [0xDAC]

[report]
group_by = ["workload", "class"]
"#;

fn main() {
    let spec = CampaignSpec::from_toml(SPEC).expect("demo spec is valid");
    let executor = Executor::with_available_parallelism();
    let root = std::env::temp_dir().join(format!("dl2fence-sharding-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let total = expand(&spec).expect("expansion").len();
    const SHARDS: usize = 3;

    println!(
        "campaign `{}` (fingerprint {}): {total} runs split {SHARDS} ways",
        spec.name,
        spec_fingerprint(&spec),
    );

    // One machine per shard: each executes the strided slice of the matrix
    // it owns into an ordinary campaign directory (in production these run
    // concurrently on different hosts and the directories are rsync'd back).
    let mut shard_dirs = Vec::new();
    for index in 0..SHARDS {
        let shard = ShardSlice {
            index,
            count: SHARDS,
        };
        let dir = root.join(format!("shard-{index}"));
        let report = run(&executor, &spec, &dir, Some(shard)).expect("shard run");
        assert!(report.is_none(), "a shard builds no report");
        println!(
            "shard {index}/{SHARDS}: {} runs streamed to {}",
            shard.owned_indices(total).count(),
            dir.display()
        );
        shard_dirs.push(dir);
    }

    // Merge verifies the shared fingerprint, unions the run logs (refusing
    // gaps and conflicts) and rebuilds the report incrementally.
    let merged_dir = root.join("merged");
    let merged = merge(&executor, &shard_dirs, &merged_dir, false).expect("merge");
    println!("merged {SHARDS} shards into {}", merged_dir.display());

    // The proof: a single-machine run of the same spec, byte-for-byte.
    let single_dir = root.join("single");
    let single = run_streaming(&executor, &spec, &single_dir).expect("single-machine run");
    assert_eq!(
        merged.to_json(),
        single.to_json(),
        "merged report must be byte-identical to the single-machine run"
    );
    println!(
        "merged report is byte-identical to the single-machine run ({} bytes of JSON)",
        merged.to_json().len()
    );
    print!("{}", merged.render());

    std::fs::remove_dir_all(&root).expect("cleanup");
}
