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
    let topology = spec.resolved_topologies().expect("loaded spec is valid")[0];
    let (rows, cols) = (topology.rows(), topology.cols());
    let seed = spec.grid.seeds[0];
    println!("Ablation — detector weight quantization ({rows}x{cols} mesh)");
    let outcome = Executor::with_available_parallelism()
        .execute(&spec)
        .expect("loaded spec is valid");
    let (train, test) = split_by_benchmark(outcome.runs, spec.eval.train_fraction);

    let config = FenceConfig::new(rows, cols);
    let mut detector = DosDetector::new(rows, cols, config.seed);
    detector.train(&train, FeatureKind::Vco, spec.eval.detector_epochs, seed);
    let export = detector.export();

    println!(
        "{:>10} {:>10} {:>11} {:>8}",
        "precision", "accuracy", "precision", "recall"
    );
    // Widths from narrowest to the float model (32); `quantize_tensor`
    // accepts 2..=16 bits.
    let widths = [2u32, 3, 4, 8, 12, 16, 32];
    let mut accuracies = Vec::with_capacity(widths.len());
    for bits in widths {
        let mut quantized = if bits >= 32 {
            DosDetector::from_export(rows, cols, export.clone())
        } else {
            DosDetector::from_export(rows, cols, quantize_model(&export, bits))
        };
        let mut confusion = BinaryConfusion::new();
        for sample in &test {
            let result = quantized.detect(&sample.vco);
            confusion.record(result.detected, sample.truth.under_attack);
        }
        println!(
            "{:>7}bit {:>10.3} {:>11.3} {:>8.3}",
            bits,
            confusion.accuracy(),
            confusion.precision(),
            confusion.recall()
        );
        accuracies.push((bits, confusion.accuracy()));
    }
    println!();
    println!("{}", precision_verdict(&accuracies));
}

/// Summarizes the table from the float model down: the narrowest width
/// whose accuracy still equals the float model's, and the widest width
/// where it first differs. `rows` runs from narrowest to widest, ending with
/// the float model.
fn precision_verdict(rows: &[(u32, f64)]) -> String {
    let (&(_, float), quantized) = rows.split_last().expect("the float model is always scored");
    let Some(k) = quantized.iter().rev().position(|&(_, a)| a != float) else {
        return format!(
            "Measured: accuracy equals the float model's ({float:.3}) at every width down to \
             {} bits; no tested width makes it fall.",
            quantized[0].0
        );
    };
    let (bits, accuracy) = quantized[quantized.len() - 1 - k];
    let moved = if accuracy < float { "falls" } else { "rises" };
    if k == 0 {
        return format!(
            "Measured: accuracy already {moved} at {bits} bits, the widest quantized width \
             ({accuracy:.3} against the float model's {float:.3})."
        );
    }
    format!(
        "Measured: accuracy equals the float model's ({float:.3}) down to {}-bit weights and \
         first {moved} at {bits} bits ({accuracy:.3}).",
        quantized[quantized.len() - k].0
    )
}
