//! Ablation: effect of the Victim Completing Enhancement (VCE) stage on
//! localization quality.
//!
//! Runs the `stp` spec's eval phase once per setting (VCE on / VCE off),
//! changing only `vce_enabled`, and compares the localization confusion on
//! the phase's held-out test set; the VCE-on row is Table 3's STP
//! localization. Run with `-- specs/paper` for the paper-scale 16×16 mesh.

use dl2fence_bench::{eval_job, load_spec};
use dl2fence_telemetry::Recorder;

fn main() {
    let spec = load_spec("stp");
    let mut job = eval_job(&spec);
    let (rows, cols) = (job.config.rows, job.config.cols);
    println!("Ablation — Victim Completing Enhancement ({rows}x{cols} mesh)");

    for vce in [false, true] {
        job.config.vce_enabled = vce;
        let loc = job.run(&Recorder::default()).report.overall_localization();
        println!(
            "VCE {:<3}: localization accuracy {:.3}  precision {:.3}  recall {:.3}  f1 {:.3}",
            if vce { "on" } else { "off" },
            loc.accuracy(),
            loc.precision(),
            loc.recall(),
            loc.f1()
        );
    }
    println!();
    println!(
        "Expected shape: VCE raises recall (missed routing-path victims are deduced\n\
         from XY routing) at little or no cost in precision."
    );
}
