//! Integration of the simulator, monitor and the post-processing stages
//! (MFF + VCE + TLM) *without* the CNNs: an oracle segmentation built by
//! thresholding real BOC frames must let the fusion/TLM chain recover the
//! attacker exactly. This isolates the geometric reasoning of the framework
//! from model quality.

use dl2fence::{MultiFrameFusion, TableLikeMethod, VictimComplementingEnhancement};
use noc_monitor::{FeatureKind, FrameSampler};
use noc_sim::{Direction, NocConfig, NodeId, Topology};
use noc_traffic::{AttackKind, AttackScenario, DosAttack, SyntheticPattern};

/// Threshold-based oracle segmentation of the four BOC frames, relative to
/// the bundle maximum.
fn oracle_segmentation(
    frames: &noc_monitor::DirectionalFrames,
    relative_threshold: f32,
) -> [Vec<f32>; 4] {
    let max = frames.max_value().max(1.0);
    let mut out: [Vec<f32>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for dir in Direction::CARDINAL {
        out[dir.index()] = frames
            .frame(dir)
            .data()
            .iter()
            .map(|&v| {
                if v / max > relative_threshold {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
    }
    out
}

fn run_case(
    mesh: usize,
    attackers: Vec<NodeId>,
    victim: NodeId,
) -> (Vec<NodeId>, Vec<NodeId>, Vec<NodeId>, Vec<NodeId>) {
    let mut scenario = AttackScenario::builder(NocConfig::mesh(mesh, mesh))
        .benign(SyntheticPattern::UniformRandom, 0.005)
        .attack(DosAttack::new(
            AttackKind::Fdos,
            attackers.clone(),
            victim,
            0.9,
        ))
        .seed(42)
        .build();
    scenario.run(3_000);
    let boc = FrameSampler::sample(scenario.network(), FeatureKind::Boc);
    let segs = oracle_segmentation(&boc, 0.35);
    let topology = Topology::mesh(mesh, mesh);
    let fusion = MultiFrameFusion::new().fuse(&segs, mesh, mesh);
    let victims = VictimComplementingEnhancement::new(topology).complete(&fusion);
    let found_attackers = TableLikeMethod::new(topology).localize(&fusion, &victims);
    (
        victims,
        found_attackers,
        scenario.victim_nodes(),
        scenario.attacker_nodes(),
    )
}

#[test]
fn oracle_pipeline_recovers_single_row_attacker() {
    // Attacker at the east end of row 0 flooding the west end.
    let (victims, attackers, truth_victims, truth_attackers) =
        run_case(8, vec![NodeId(7)], NodeId(0));
    assert_eq!(
        attackers, truth_attackers,
        "attacker must be pinpointed exactly"
    );
    // Every true routing-path victim must be recovered.
    for v in &truth_victims {
        assert!(victims.contains(v), "missing victim {v}");
    }
}

#[test]
fn oracle_pipeline_recovers_l_shaped_route_attacker() {
    // Attacker in the far corner flooding node 0: an L-shaped XY route.
    let (victims, attackers, truth_victims, truth_attackers) =
        run_case(8, vec![NodeId(63)], NodeId(0));
    assert_eq!(attackers, truth_attackers);
    for v in &truth_victims {
        assert!(victims.contains(v), "missing victim {v}");
    }
}

#[test]
fn oracle_pipeline_recovers_two_attackers_on_opposite_sides() {
    // Two attackers flooding the same victim from opposite row ends.
    let (victims, attackers, truth_victims, truth_attackers) =
        run_case(8, vec![NodeId(7), NodeId(0)], NodeId(3));
    assert_eq!(attackers, truth_attackers);
    for v in &truth_victims {
        assert!(victims.contains(v), "missing victim {v}");
    }
}

#[test]
fn oracle_pipeline_on_16x16_paper_example() {
    // The paper's Figure 4 single-attacker example: attacker 104, victim 0.
    let (victims, attackers, truth_victims, truth_attackers) =
        run_case(16, vec![NodeId(104)], NodeId(0));
    assert_eq!(attackers, truth_attackers);
    let recovered = truth_victims.iter().filter(|v| victims.contains(v)).count();
    assert!(
        recovered as f64 / truth_victims.len() as f64 > 0.9,
        "recovered only {recovered}/{} routing-path victims",
        truth_victims.len()
    );
}

/// Uniform benign traffic has no single dominant route, so a high relative
/// threshold flags few pixels and TLM implicates few nodes. One seed
/// implicates 0 to 4 (more than 2 on ~45% of seeds), so the claim is
/// stated over the pre-declared seeds 0..24: none implicates more than 4,
/// and the mean stays at most 3.
#[test]
fn benign_traffic_produces_no_attackers_via_oracle() {
    let mesh = 8;
    let implicated: Vec<usize> = (0..24)
        .map(|seed| {
            let mut scenario = AttackScenario::builder(NocConfig::mesh(mesh, mesh))
                .benign(SyntheticPattern::UniformRandom, 0.01)
                .seed(seed)
                .build();
            scenario.run(3_000);
            let boc = FrameSampler::sample(scenario.network(), FeatureKind::Boc);
            let segs = oracle_segmentation(&boc, 0.9);
            let fusion = MultiFrameFusion::new().fuse(&segs, mesh, mesh);
            let tlm = TableLikeMethod::new(Topology::mesh(mesh, mesh));
            tlm.localize(&fusion, &fusion.victims).len()
        })
        .collect();
    assert!(
        implicated.iter().all(|&n| n <= 4),
        "benign traffic should not implicate many attackers: {implicated:?}"
    );
    let mean = implicated.iter().sum::<usize>() as f64 / implicated.len() as f64;
    assert!(
        mean <= 3.0,
        "mean implicated {mean} above 3: {implicated:?}"
    );
}
