//! Trains the two CNN models separately, saves their weights to JSON, reloads
//! them and runs the full detection → segmentation → fusion → TLM chain on a
//! live simulation — the workflow a downstream user of the library would
//! follow to deploy DL2Fence as a runtime monitor.
//!
//! ```bash
//! cargo run --release --example train_and_detect
//! ```

use dl2fence::{
    DosDetector, DosLocalizer, MultiFrameFusion, TableLikeMethod, VictimComplementingEnhancement,
};
use dl2fence_repro::quick_dataset;
use noc_monitor::{FeatureKind, FrameSampler};
use noc_sim::{NocConfig, NodeId, Topology};
use noc_traffic::{AttackKind, AttackScenario, DosAttack, SyntheticPattern};
use tinycnn::serialize::ModelExport;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mesh = 8;

    println!("1. Collecting training data and training both models...");
    // Enough placement diversity that the detector generalizes to the
    // unseen attack route simulated below.
    let train = quick_dataset(mesh, 14, 7);
    let mut detector = DosDetector::new(mesh, mesh, 7);
    detector.train(&train, FeatureKind::Vco, 60, 1);
    let mut localizer = DosLocalizer::new(mesh, mesh, 8);
    localizer.train(&train, FeatureKind::Boc, 40, 2);

    println!("2. Exporting trained weights to JSON and reloading them...");
    let detector_json = detector.export().to_json()?;
    let localizer_json = localizer.export().to_json()?;
    println!(
        "   detector export: {} bytes, localizer export: {} bytes",
        detector_json.len(),
        localizer_json.len()
    );
    let mut detector =
        DosDetector::from_export(mesh, mesh, ModelExport::from_json(&detector_json)?);
    let mut localizer =
        DosLocalizer::from_export(mesh, mesh, ModelExport::from_json(&localizer_json)?);

    println!("3. Running a live simulation with an attacker at node 56 flooding node 7...");
    // The benign pattern matches the training distribution (quick_dataset
    // collects under Uniform Random); detecting attacks under *unseen*
    // benign workloads needs them in the training set, as the paper's
    // benchmark groups do.
    let mut scenario = AttackScenario::builder(NocConfig::mesh(mesh, mesh))
        .benign(SyntheticPattern::UniformRandom, 0.02)
        .attack(DosAttack::new(
            AttackKind::Fdos,
            vec![NodeId(56)],
            NodeId(7),
            0.8,
        ))
        .seed(33)
        .build();
    scenario.run(1_500);

    println!("4. Sampling frames and running the full pipeline by hand...");
    let vco = FrameSampler::sample(scenario.network(), FeatureKind::Vco);
    let boc = FrameSampler::sample(scenario.network(), FeatureKind::Boc);
    let detection = detector.detect(&vco);
    println!(
        "   detector: p(attack) = {:.3} -> {}",
        detection.probability,
        if detection.detected {
            "ATTACK"
        } else {
            "clean"
        }
    );
    if detection.detected {
        let segmentations = localizer.segment_bundle(&boc);
        let topology = Topology::mesh(mesh, mesh);
        let fusion = MultiFrameFusion::new().fuse(&segmentations, mesh, mesh);
        let victims = VictimComplementingEnhancement::new(topology).complete(&fusion);
        let attackers = TableLikeMethod::new(topology).localize(&fusion, &victims);
        println!(
            "   victims (attack route): {:?}",
            victims.iter().map(|v| v.0).collect::<Vec<_>>()
        );
        println!(
            "   attackers: {:?} (ground truth [56])",
            attackers.iter().map(|a| a.0).collect::<Vec<_>>()
        );
        println!(
            "   ground-truth route: {:?}",
            scenario
                .victim_nodes()
                .iter()
                .map(|v| v.0)
                .collect::<Vec<_>>()
        );
    }
    Ok(())
}
