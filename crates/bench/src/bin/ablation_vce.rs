//! Ablation: effect of the Victim Completing Enhancement (VCE) stage on
//! localization quality.
//!
//! Trains one DL2Fence instance per setting (VCE on / VCE off) on the `stp`
//! spec's campaign split per benchmark and compares the localization
//! confusion on the held-out test set. Run with `-- specs/paper` for the
//! paper-scale 16×16 mesh.

use dl2fence::evaluation::evaluate;
use dl2fence::{Dl2Fence, FenceConfig};
use dl2fence_bench::load_spec;
use dl2fence_campaign::{split_by_benchmark, Executor};
use noc_monitor::FeatureKind;

fn main() {
    let spec = load_spec("stp");
    let topology = spec.resolved_topologies().expect("loaded spec is valid")[0];
    let (rows, cols) = (topology.rows(), topology.cols());
    let seed = spec.grid.seeds[0];
    println!("Ablation — Victim Completing Enhancement ({rows}x{cols} mesh)");
    let outcome = Executor::with_available_parallelism()
        .execute(&spec)
        .expect("loaded spec is valid");
    let (train, test) = split_by_benchmark(outcome.runs, spec.eval.train_fraction);

    for vce in [false, true] {
        let mut config = FenceConfig::new(rows, cols)
            .with_seed(seed)
            .with_epochs(spec.eval.detector_epochs, spec.eval.localizer_epochs)
            .with_vce(vce);
        config.detection_feature = FeatureKind::Vco;
        config.localization_feature = FeatureKind::Boc;
        let mut fence = Dl2Fence::new(config);
        fence.train(&train);
        let report = evaluate(&mut fence, &test);
        let loc = report.overall_localization();
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
