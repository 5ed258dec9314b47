//! Ablation: accelerator weight precision. The hardware model assumes 16-bit
//! fixed-point weights; this experiment measures how much detection accuracy
//! the trained detector loses when its weights are quantized to various bit
//! widths.
//!
//! The float model is the detector of the `stp` spec's eval phase (its
//! 32-bit row is Table 4's detection): the binary trains the phase's job
//! once and re-scores its held-out split per precision. Run with
//! `-- specs/paper` for the paper-scale 16×16 mesh.

use dl2fence_bench::{eval_job, load_spec, quantized_detection};
use dl2fence_telemetry::Recorder;

fn main() {
    let spec = load_spec("stp");
    let job = eval_job(&spec);
    let (rows, cols) = (job.config.rows, job.config.cols);
    println!("Ablation — detector weight quantization ({rows}x{cols} mesh)");
    let export = job.train_fence(&Recorder::default()).export_model();

    println!(
        "{:>10} {:>10} {:>11} {:>8}",
        "precision", "accuracy", "precision", "recall"
    );
    // Widths from narrowest to the float model (32); `quantize_tensor`
    // accepts 2..=16 bits.
    let widths = [2u32, 3, 4, 8, 12, 16, 32];
    let mut accuracies = Vec::with_capacity(widths.len());
    for bits in widths {
        let confusion = quantized_detection(&job, &export, bits);
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
