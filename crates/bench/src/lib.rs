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

use dl2fence::evaluation::evaluate;
use dl2fence::{Dl2Fence, FenceModelExport};
use dl2fence_campaign::{CampaignSpec, EvalJob, Executor, ReportAccumulator};
use dl2fence_telemetry::Recorder;
use std::path::PathBuf;
use tinycnn::quantize::quantize_model;
use tinycnn::BinaryConfusion;

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

/// The side of the square mesh `spec`'s first topology describes. Exits
/// with status 1 and an error naming `binary` and the spec's `rows×cols`
/// when it is not square: Table 4's area model and Figure 4's example
/// placements exist only for square meshes.
pub fn square_side(spec: &CampaignSpec, binary: &str) -> usize {
    let topology = spec.resolved_topologies().expect("loaded spec is valid")[0];
    let (rows, cols) = (topology.rows(), topology.cols());
    if rows != cols {
        eprintln!(
            "error: {binary} needs a square mesh, but spec `{}` runs on {rows}x{cols}",
            spec.name
        );
        std::process::exit(1)
    }
    rows
}

/// Executes `spec` once on every available core and returns its eval
/// phase's job for the first frame geometry: the configuration, train split
/// and test split behind the first entry of the spec's campaign report.
/// Tables 1–4, Figure 4 and the ablations all start here, so each scores
/// the eval phase's own split and models.
///
/// # Panics
///
/// Panics if the spec has no eval phase or the phase fails.
pub fn eval_job(spec: &CampaignSpec) -> EvalJob {
    let outcome = Executor::with_available_parallelism()
        .execute(spec)
        .expect("loaded spec is valid");
    let mut acc = ReportAccumulator::for_spec(spec).expect("loaded spec is valid");
    for run in outcome.runs {
        acc.try_fold(&run).expect("executed runs carry samples");
    }
    acc.into_eval_jobs()
        .expect("eval phase must succeed")
        .into_iter()
        .next()
        .expect("spec enables the eval phase")
}

/// The detection confusion on `job`'s test split of the trained pipeline
/// `fence` with its detector weights quantized to `bits` (2..=16); 32 keeps
/// the float weights, which is the eval phase's own detection.
pub fn quantized_detection(job: &EvalJob, fence: &FenceModelExport, bits: u32) -> BinaryConfusion {
    let mut export = fence.clone();
    if bits < 32 {
        export.detector = quantize_model(&export.detector, bits);
    }
    evaluate(&mut Dl2Fence::from_export(export), &job.test).overall_detection()
}

/// Prints a table experiment's STP and PARSEC evaluations (each spec's
/// [`eval_job`], trained and scored) in the paper's layout.
pub fn print_table(title: &str, stp: &CampaignSpec, parsec: &CampaignSpec) {
    let [stp, parsec] = [stp, parsec].map(|spec| eval_job(spec).run(&Recorder::default()).report);
    println!("=== {title} ===");
    println!("--- Synthetic Traffic Patterns ---");
    print!("{}", stp.render_table());
    println!("--- PARSEC-like workloads ---");
    print!("{}", parsec.render_table());
    println!();
}
