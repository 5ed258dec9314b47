//! # dl2fence-bench — harness regenerating every table and figure of the
//! DL2Fence paper
//!
//! Each binary in `src/bin/` regenerates one table or figure from the
//! campaign specs of one spec directory. The directory is the binary's only
//! (optional) argument: without it, the workspace's `specs/` (the quick
//! scale, seconds per binary); `specs/paper` holds the same campaigns at the
//! paper's scale (16×16 STP mesh, 18 attack placements per benchmark,
//! longer sampling windows):
//!
//! ```text
//! cargo run --release -p dl2fence-bench --bin table3_vco_boc -- specs/paper
//! ```
//!
//! The Criterion benches in `benches/` measure the runtime cost of the
//! simulator and of model inference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dl2fence::EvaluationReport;
use dl2fence_campaign::{CampaignReport, CampaignSpec, Executor};
use std::path::PathBuf;

/// Loads `<dir>/<name>.toml` from the spec directory named by the first
/// command-line argument, or from the workspace's `specs/` without one.
/// Exits with status 1 and the spec error if the file is missing or
/// invalid.
pub fn load_spec(name: &str) -> CampaignSpec {
    let dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs")));
    let path = dir.join(format!("{name}.toml"));
    CampaignSpec::from_path(&path).unwrap_or_else(|e| {
        eprintln!("error: {}: {e}", path.display());
        std::process::exit(1)
    })
}

/// Runs an eval-enabled single-topology campaign on every available core
/// and returns its per-benchmark evaluation.
///
/// # Panics
///
/// Panics if the spec has no eval phase or the phase fails.
pub fn evaluate(spec: &CampaignSpec) -> EvaluationReport {
    let outcome = Executor::with_available_parallelism()
        .execute(spec)
        .expect("loaded spec is valid");
    let report = CampaignReport::build(&outcome).expect("eval phase must succeed");
    report
        .evaluations
        .into_iter()
        .next()
        .expect("spec enables the eval phase")
        .report
}

/// Prints a table experiment's STP and PARSEC evaluations in the paper's
/// layout.
pub fn print_table(title: &str, stp: &EvaluationReport, parsec: &EvaluationReport) {
    println!("=== {title} ===");
    println!("--- Synthetic Traffic Patterns ---");
    print!("{}", stp.render_table());
    println!("--- PARSEC-like workloads ---");
    print!("{}", parsec.render_table());
    println!();
}
