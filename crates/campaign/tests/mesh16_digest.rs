//! Byte-identity pin for 16×16 simulation.
//!
//! The golden corpus covers 4×4 and 8×8 grids and its reports carry no
//! samples. This test runs a tiny eval-off campaign on a 16×16 mesh with
//! `collect_samples = true` and compares an FNV-1a 64 digest of every run's
//! serialized `RunResult` (metrics plus every VCO/BOC frame) against
//! committed constants. Any change to the simulator's stepping, VC
//! allocation or sampling that moves a single byte of a run shows up here.
//!
//! To regenerate after an intentional behaviour change, run
//!
//! ```text
//! cargo test -p dl2fence-campaign --test mesh16_digest
//! ```
//!
//! copy the `produced` array from the failure message into [`EXPECTED`],
//! and commit it with an explanation of why the bytes moved.

use dl2fence_campaign::{expand, CampaignSpec, Executor};

/// One benign run and three flooding placements at FIR 0.8: 4 runs of
/// 300 cycles (100 warm-up + 2 windows of 100), one sample per window.
const SPEC: &str = r#"
name = "mesh16-digest"

[sim]
warmup_cycles = 100
sample_period = 100
samples_per_run = 2
collect_samples = true

[grid]
topology = ["mesh16"]
fir = [0.8]
workloads = ["uniform"]
attack_placements = 3
benign_runs = 1
seeds = [0x16D1]

[report]
group_by = ["workload", "class"]
"#;

/// Digests of the four runs, in matrix order.
const EXPECTED: [u64; 4] = [
    0x147f32c6f61946a0,
    0x3fb8695937ec7ae5,
    0x1f671913fb9d157a,
    0x0d71df1a59ae65c4,
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

#[test]
fn mesh16_runs_are_byte_identical() {
    let spec = CampaignSpec::from_toml(SPEC).unwrap();
    assert!(!spec.eval.enabled);
    let runs = expand(&spec).unwrap();
    assert_eq!(runs.len(), EXPECTED.len());
    let results = Executor::new(2).execute_runs(&spec.sim, &runs);
    assert!(results.iter().all(|r| r.samples.len() == 2));
    let produced: Vec<u64> = results
        .iter()
        .map(|r| fnv1a(serde_json::to_string(r).unwrap().as_bytes()))
        .collect();
    assert_eq!(
        produced, EXPECTED,
        "16×16 run bytes drifted; produced = {produced:#018x?}"
    );
}
