//! Ablation: localizer depth versus dice accuracy versus hardware cost.
//! The paper notes that "adding more convolutional layers might enhance
//! dice accuracy, but it would substantially inflate the model's hardware
//! overhead".
//!
//! Each depth trains on the `stp` spec's eval-phase train split with the
//! phase's localization feature, epochs and seed, and is scored on the
//! phase's held-out attack windows; run with `-- specs/paper` for the
//! paper-scale 16×16 mesh.

use dl2fence::input::{direction_masks, sample_frames};
use dl2fence::DosLocalizer;
use dl2fence_bench::{eval_job, load_spec};
use hw_overhead::area::AcceleratorParams;
use noc_sim::Direction;
use tinycnn::{dice_coefficient, Tensor};

fn main() {
    let spec = load_spec("stp");
    let job = eval_job(&spec);
    let config = job.config;
    let (rows, cols) = (config.rows, config.cols);
    println!("Ablation — localizer depth vs dice accuracy vs area ({rows}x{cols} mesh)");
    let attack_tests: Vec<_> = job.test.iter().filter(|s| s.truth.under_attack).collect();

    println!(
        "{:>11} {:>10} {:>12} {:>14}",
        "conv layers", "params", "mean dice", "accel gates"
    );
    for conv_layers in [2usize, 3, 4] {
        let mut localizer =
            DosLocalizer::with_architecture(rows, cols, 8, conv_layers, config.seed);
        localizer.train(
            &job.train,
            config.localization_feature,
            config.localizer_epochs,
            config.seed,
        );
        // Mean dice over every direction of every attack test sample.
        let mut dice_sum = 0.0;
        let mut count = 0usize;
        for s in &attack_tests {
            let segs = localizer.segment_bundle(sample_frames(s, config.localization_feature));
            let masks = direction_masks(&s.truth);
            for dir in Direction::CARDINAL {
                let pred = Tensor::from_vec(segs[dir.index()].clone(), &[rows * cols]);
                let truth = Tensor::from_vec(masks[dir.index()].clone(), &[rows * cols]);
                dice_sum += dice_coefficient(&pred, &truth, 0.5);
                count += 1;
            }
        }
        // Area of an accelerator storing this model's weights.
        let accel = AcceleratorParams {
            weight_count: localizer.parameter_count(),
            ..AcceleratorParams::localizer()
        };
        println!(
            "{:>11} {:>10} {:>12.3} {:>14.0}",
            conv_layers,
            localizer.parameter_count(),
            dice_sum / count.max(1) as f64,
            accel.gates()
        );
    }
    println!();
    println!(
        "Expected shape: dice accuracy saturates after 2–3 layers while the\n\
         accelerator area keeps growing — the paper's rationale for the minimal model."
    );
}
