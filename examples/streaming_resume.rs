//! Streaming + resume demo: run a campaign into a campaign directory (one
//! JSONL record per finished run), simulate a crash by chopping the run log
//! mid-record, resume it, and verify the resumed report is byte-identical
//! to the uninterrupted one.
//!
//! ```bash
//! cargo run --release --example streaming_resume
//! ```

use dl2fence_campaign::stream::RUNS_FILE;
use dl2fence_campaign::{resume, run_streaming, spec_fingerprint, CampaignSpec, Executor};

const SPEC: &str = r#"
name = "streaming-demo"

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
    let root = std::env::temp_dir().join(format!("dl2fence-streaming-demo-{}", std::process::id()));
    let crashed = root.join("crashed");
    let full = root.join("full");
    let _ = std::fs::remove_dir_all(&root);

    println!(
        "campaign `{}` (fingerprint {}) on {} workers",
        spec.name,
        spec_fingerprint(&spec),
        executor.workers()
    );

    // Uninterrupted streaming run: every finished run lands in runs.jsonl
    // the moment it completes; report.json is written last.
    let reference = run_streaming(&executor, &spec, &full).expect("streaming run");
    println!(
        "uninterrupted: {} runs streamed to {}",
        reference.total_runs,
        full.display()
    );

    // Simulate a crash: keep the manifest and the first 4½ JSONL records.
    std::fs::create_dir_all(&crashed).expect("create crash dir");
    std::fs::copy(full.join("manifest.json"), crashed.join("manifest.json"))
        .expect("copy manifest");
    let log = std::fs::read_to_string(full.join(RUNS_FILE)).expect("read run log");
    let lines: Vec<&str> = log.lines().collect();
    let mut partial: String = lines[..4].iter().map(|l| format!("{l}\n")).collect();
    partial.push_str(&lines[4][..lines[4].len() / 2]); // the killed append
    std::fs::write(crashed.join(RUNS_FILE), partial).expect("write truncated log");
    println!(
        "simulated crash: 4 complete records (+1 torn) of {} survive",
        lines.len()
    );

    // Resume re-executes only the missing indices and rebuilds the report.
    let resumed = resume(&executor, &crashed, Some(&spec))
        .expect("resume")
        .expect("a whole-campaign directory resumes to a report");
    assert_eq!(
        resumed.to_json(),
        reference.to_json(),
        "resumed report must be byte-identical to the uninterrupted one"
    );
    println!(
        "resume re-executed {} runs; report is byte-identical ({} bytes of JSON)",
        lines.len() - 4,
        resumed.to_json().len()
    );
    print!("{}", resumed.render());

    std::fs::remove_dir_all(&root).expect("cleanup");
}
