//! Ablation: localizer depth versus dice accuracy versus hardware cost.
//! The paper notes that "adding more convolutional layers might enhance
//! dice accuracy, but it would substantially inflate the model's hardware
//! overhead".
//!
//! The samples come from the `stp` spec's campaign, split per benchmark;
//! run with `-- specs/paper` for the paper-scale 16×16 mesh.

use dl2fence::input::direction_masks;
use dl2fence::DosLocalizer;
use dl2fence_bench::load_spec;
use dl2fence_campaign::{split_by_benchmark, Executor};
use hw_overhead::area::AcceleratorParams;
use noc_monitor::FeatureKind;
use noc_sim::Direction;
use tinycnn::{dice_coefficient, Tensor};

fn main() {
    let spec = load_spec("stp");
    let mesh = spec.resolved_topologies().expect("loaded spec is valid")[0].rows();
    let seed = spec.grid.seeds[0];
    println!("Ablation — localizer depth vs dice accuracy vs area ({mesh}x{mesh} mesh)");
    let outcome = Executor::with_available_parallelism()
        .execute(&spec)
        .expect("loaded spec is valid");
    let (train, test) = split_by_benchmark(outcome.runs, spec.eval.train_fraction);
    let attack_tests: Vec<_> = test.iter().filter(|s| s.truth.under_attack).collect();

    println!(
        "{:>11} {:>10} {:>12} {:>14}",
        "conv layers", "params", "mean dice", "accel gates"
    );
    for conv_layers in [2usize, 3, 4] {
        let mut localizer = DosLocalizer::with_architecture(mesh, mesh, 8, conv_layers, seed);
        localizer.train(&train, FeatureKind::Boc, spec.eval.localizer_epochs, seed);
        // Mean dice over every direction of every attack test sample.
        let mut dice_sum = 0.0;
        let mut count = 0usize;
        for s in &attack_tests {
            let segs = localizer.segment_bundle(&s.boc);
            let masks = direction_masks(&s.truth);
            for dir in Direction::CARDINAL {
                let pred = Tensor::from_vec(segs[dir.index()].clone(), &[mesh * mesh]);
                let truth = Tensor::from_vec(masks[dir.index()].clone(), &[mesh * mesh]);
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
