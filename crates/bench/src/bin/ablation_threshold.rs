//! Ablation: Multi-Frame-Fusion binarization threshold sweep.
//!
//! Trains one DL2Fence instance per binarization threshold applied to the
//! segmentation outputs, on the `stp` spec's campaign split per benchmark,
//! and compares localization on the held-out test set. Run with
//! `-- specs/paper` for the paper-scale 16×16 mesh.

use dl2fence::evaluation::evaluate;
use dl2fence::{Dl2Fence, FenceConfig};
use dl2fence_bench::load_spec;
use dl2fence_campaign::{split_by_benchmark, Executor};
use noc_monitor::FeatureKind;

fn main() {
    let spec = load_spec("stp");
    let mesh = spec.resolved_topologies().expect("loaded spec is valid")[0].rows();
    let seed = spec.grid.seeds[0];
    println!("Ablation — MFF binarization threshold sweep ({mesh}x{mesh} mesh)");
    let outcome = Executor::with_available_parallelism()
        .execute(&spec)
        .expect("loaded spec is valid");
    let (train, test) = split_by_benchmark(outcome.runs, spec.eval.train_fraction);

    println!(
        "{:>9} {:>10} {:>11} {:>8} {:>8}",
        "threshold", "accuracy", "precision", "recall", "f1"
    );
    for threshold in [0.3f32, 0.4, 0.5, 0.6, 0.7] {
        let mut config = FenceConfig::new(mesh, mesh)
            .with_seed(seed)
            .with_epochs(spec.eval.detector_epochs, spec.eval.localizer_epochs);
        config.detection_feature = FeatureKind::Vco;
        config.localization_feature = FeatureKind::Boc;
        config.fusion_threshold = threshold;
        let mut fence = Dl2Fence::new(config);
        fence.train(&train);
        let report = evaluate(&mut fence, &test);
        let loc = report.overall_localization();
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
