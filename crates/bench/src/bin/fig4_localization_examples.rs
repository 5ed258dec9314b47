//! Regenerates **Figure 4**: localization examples on the synthetic-traffic
//! benchmark — a single-attacker case (attacker 104 → victim 0) and a
//! two-attacker case (attackers 192 and 15 → victim 85) on a 16×16 mesh,
//! showing the reconstructed attack route and the per-example localization
//! accuracy / precision / recall.
//!
//! The fence is the `fig4_localization` spec's eval-phase model, trained on
//! the phase's train split of a campaign with enough attack placements that
//! straight and L-shaped routes in every direction are represented. The quick
//! spec uses an 8×8 mesh with analogous attacker placements; run with
//! `-- specs/paper` for the paper's 16×16 mesh and placements. The
//! placements exist for square meshes only, so a rectangular mesh is refused
//! with exit status 1.

use dl2fence::evaluation::evaluate;
use dl2fence_bench::{eval_job, load_spec, square_side};
use dl2fence_telemetry::Recorder;
use noc_monitor::dataset::{CollectionConfig, DatasetGenerator, ScenarioSpec};
use noc_sim::{NocConfig, NodeId};
use noc_traffic::{BenignWorkload, SyntheticPattern};

fn render_map(victims: &[NodeId], attackers: &[NodeId], rows: usize, cols: usize) -> String {
    let mut out = String::new();
    for y in (0..rows).rev() {
        for x in 0..cols {
            let node = NodeId(y * cols + x);
            let c = if attackers.contains(&node) {
                'A'
            } else if victims.contains(&node) {
                'V'
            } else {
                '.'
            };
            out.push(c);
            out.push(' ');
        }
        out.push('\n');
    }
    out
}

fn main() {
    let spec = load_spec("fig4_localization");
    let mesh = square_side(&spec, "fig4_localization_examples");
    let seed = spec.grid.seeds[0];
    let fir = spec.grid.fir[0];
    let workload =
        BenignWorkload::Synthetic(SyntheticPattern::UniformRandom, spec.grid.injection_rate);

    // The two example placements of Figure 4, scaled to the mesh in use.
    let (single, double) = if mesh >= 16 {
        (
            (vec![NodeId(104)], NodeId(0)),
            (vec![NodeId(192), NodeId(15)], NodeId(85)),
        )
    } else {
        // Analogous placements on an 8x8 mesh.
        (
            (vec![NodeId(52)], NodeId(0)),
            (vec![NodeId(56), NodeId(7)], NodeId(27)),
        )
    };

    // Train the eval phase's fence on the spec's campaign (uniform traffic
    // with extra attack placements).
    println!(
        "Figure 4 — localization examples on a {mesh}x{mesh} mesh (training the models first)..."
    );
    let mut fence = eval_job(&spec).train_fence(&Recorder::default());

    // Collect the two example scenarios and analyse them.
    let collection = CollectionConfig {
        noc: NocConfig::mesh(mesh, mesh),
        warmup_cycles: spec.sim.warmup_cycles,
        sample_period: spec.sim.sample_period,
        samples_per_run: 1,
        seed: seed + 99,
    };
    let generator = DatasetGenerator::new(collection);
    for (label, (attackers, victim)) in [("Single attacker", single), ("Two attackers", double)] {
        let scenario = ScenarioSpec::attacked(workload, attackers.clone(), victim, fir);
        let samples = generator.collect_run(&scenario, seed + 7);
        let sample = &samples[0];
        let report = fence.analyze(sample);
        let metrics = evaluate(&mut fence, &samples);
        println!();
        println!(
            "{label}: attackers {:?} -> victim {victim} (FIR {fir})",
            attackers.iter().map(|a| a.0).collect::<Vec<_>>(),
        );
        println!(
            "  detected: {} (p = {:.3})",
            report.detected, report.detection.probability
        );
        println!(
            "  localized victims: {:?}",
            report.victims.iter().map(|v| v.0).collect::<Vec<_>>()
        );
        println!(
            "  ground-truth victims: {:?}",
            sample.truth.victims.iter().map(|v| v.0).collect::<Vec<_>>()
        );
        println!(
            "  localized attackers: {:?} (truth {:?})",
            report.attackers.iter().map(|a| a.0).collect::<Vec<_>>(),
            attackers.iter().map(|a| a.0).collect::<Vec<_>>()
        );
        let loc = metrics.overall_localization();
        println!(
            "  localization: accuracy {:.3}  precision {:.3}  recall {:.3}",
            loc.accuracy(),
            loc.precision(),
            loc.recall()
        );
        println!("  reconstructed map (A = localized attacker, V = localized victim):");
        print!(
            "{}",
            render_map(&report.victims, &report.attackers, mesh, mesh)
        );
    }
    println!();
    println!(
        "Paper reference: accuracy 1.0 / precision 1.0 / recall 1.0 for the single-attacker\n\
         example and accuracy 0.96 / precision 1.0 / recall 0.96 for the two-attacker example."
    );
}
