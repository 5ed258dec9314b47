//! Ablation: Multi-Frame-Fusion binarization threshold sweep.
//!
//! Runs the `stp` spec's eval phase once per binarization threshold applied
//! to the segmentation outputs, changing only `fusion_threshold`, and
//! compares localization on the phase's held-out test set; the 0.5 row is
//! Table 3's STP localization. Run with `-- specs/paper` for the
//! paper-scale 16×16 mesh.

use dl2fence_bench::{eval_job, load_spec};
use dl2fence_telemetry::Recorder;

fn main() {
    let spec = load_spec("stp");
    let mut job = eval_job(&spec);
    let (rows, cols) = (job.config.rows, job.config.cols);
    println!("Ablation — MFF binarization threshold sweep ({rows}x{cols} mesh)");

    println!(
        "{:>9} {:>10} {:>11} {:>8} {:>8}",
        "threshold", "accuracy", "precision", "recall", "f1"
    );
    for threshold in [0.3f32, 0.4, 0.5, 0.6, 0.7] {
        job.config.fusion_threshold = threshold;
        let loc = job.run(&Recorder::default()).report.overall_localization();
        println!(
            "{:>9.1} {:>10.3} {:>11.3} {:>8.3} {:>8.3}",
            threshold,
            loc.accuracy(),
            loc.precision(),
            loc.recall(),
            loc.f1()
        );
    }
    println!();
    println!(
        "Expected shape: low thresholds trade precision for recall; the default 0.5\n\
         sits near the F1 optimum."
    );
}
