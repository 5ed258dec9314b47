//! Ablation: accelerator weight precision. The hardware model assumes 16-bit
//! fixed-point weights; this experiment measures how much detection accuracy
//! the trained detector loses when its weights are quantized to various bit
//! widths.
//!
//! The samples come from the `stp` spec's campaign, run on the campaign
//! engine's worker pool; the binary then trains the float detector on the
//! per-benchmark train split and re-scores it per precision. Run with
//! `-- specs/paper` for the paper-scale 16×16 mesh.

use dl2fence::{DosDetector, FenceConfig};
use dl2fence_bench::load_spec;
use dl2fence_campaign::{split_by_benchmark, Executor};
use noc_monitor::FeatureKind;
use tinycnn::quantize::quantize_model;
use tinycnn::BinaryConfusion;

fn main() {
    let spec = load_spec("stp");
    let mesh = spec.resolved_topologies().expect("loaded spec is valid")[0].rows();
    let seed = spec.grid.seeds[0];
    println!("Ablation — detector weight quantization ({mesh}x{mesh} mesh)");
    let outcome = Executor::with_available_parallelism()
        .execute(&spec)
        .expect("loaded spec is valid");
    let (train, test) = split_by_benchmark(outcome.runs, spec.eval.train_fraction);

    let config = FenceConfig::new(mesh, mesh);
    let mut detector = DosDetector::new(mesh, mesh, config.seed);
    detector.train(&train, FeatureKind::Vco, spec.eval.detector_epochs, seed);
    let export = detector.export();

    println!(
        "{:>10} {:>10} {:>11} {:>8}",
        "precision", "accuracy", "precision", "recall"
    );
    for bits in [4u32, 8, 12, 16, 32] {
        let mut quantized = if bits >= 32 {
            DosDetector::from_export(mesh, mesh, export.clone())
        } else {
            DosDetector::from_export(mesh, mesh, quantize_model(&export, bits))
        };
        let mut confusion = BinaryConfusion::new();
        for sample in &test {
            let result = quantized.detect(&sample.vco);
            confusion.record(result.detected, sample.truth.under_attack);
        }
        println!(
            "{:>7}bit {:>10.3} {:>11.3} {:>8.3}",
            if bits >= 32 { 32 } else { bits },
            confusion.accuracy(),
            confusion.precision(),
            confusion.recall()
        );
    }
    println!();
    println!(
        "Expected shape: 16-bit and 12-bit weights match the float model; accuracy only\n\
         starts to drop at very low precisions — supporting the 16-bit accelerator assumption."
    );
}
