//! Regenerates **Table 4**: the comparison against related works (ML model,
//! hardware overhead, NoC scale, detection/localization metrics).
//!
//! Literature rows use the numbers reported by the cited works; the
//! "Our Work" row combines the analytical area model with the metrics
//! measured by Table 3's STP campaign (the `stp` spec, VCO detection + BOC
//! localization). Run with `-- specs/paper` for the paper-scale 16×16 mesh.
//! The area model covers square meshes only, so a rectangular `stp` mesh is
//! refused with exit status 1.

use dl2fence_bench::{evaluate, load_spec, square_side};
use hw_overhead::comparison::{our_work_entry, related_works};
use hw_overhead::{AreaModel, RouterParams};

fn fmt_pct(v: Option<f64>) -> String {
    v.map(|x| format!("{:.1}%", x * 100.0))
        .unwrap_or_else(|| "N/A".to_string())
}

fn main() {
    let stp = load_spec("stp");
    let mesh = square_side(&stp, "table4_comparison");
    println!("Table 4 — comparison to related works (measuring our metrics at {mesh}x{mesh})");
    let report = evaluate(&stp);
    let detection = report.overall_detection();
    let localization = report.overall_localization();

    let model = AreaModel::new(RouterParams::default());
    let mut rows = related_works();
    rows.push(our_work_entry(
        &model,
        mesh,
        detection.accuracy(),
        detection.precision(),
        localization.accuracy(),
        localization.precision(),
    ));

    println!(
        "{:<24} {:<26} {:>9} {:>7} {:>8} {:>8} {:>8} {:>8}",
        "Work", "ML model", "overhead", "scale", "D-acc", "D-prec", "L-acc", "L-prec"
    );
    for r in &rows {
        println!(
            "{:<24} {:<26} {:>9} {:>5}x{:<1} {:>8} {:>8} {:>8} {:>8}",
            r.work,
            r.ml_model,
            fmt_pct(r.hardware_overhead),
            r.noc_scale,
            r.noc_scale,
            fmt_pct(r.detection_accuracy),
            fmt_pct(r.detection_precision),
            fmt_pct(r.localization_accuracy),
            fmt_pct(r.localization_precision),
        );
    }
    println!();
    println!(
        "Additional overhead points from the area model: 8x8 = {:.2}%, 16x16 = {:.2}%",
        model.dl2fence_overhead(8) * 100.0,
        model.dl2fence_overhead(16) * 100.0
    );
    println!(
        "Paper reference: DL2Fence reports 1.9% (8x8) / 0.45% (16x16) overhead,\n\
         detection acc 95.8% / precision 98.5%, localization acc 91.7% / precision 99.3%,\n\
         and is the only scheme evaluated at 16x16."
    );
}
