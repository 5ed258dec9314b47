//! Cross-crate integration tests of the simulation substrate: the flooding
//! model, the traffic patterns and the monitor must interact the way the
//! paper's threat model describes.

use dl2fence_campaign::{execute_run, runs_from_scenarios, SimParams};
use noc_monitor::{FeatureKind, FrameSampler, ScenarioSpec};
use noc_sim::{NocConfig, NodeId, Topology};
use noc_traffic::{
    AttackKind, AttackScenario, BenignWorkload, DosAttack, ParsecWorkload, SyntheticPattern,
};

/// "Normal communication on all nodes must not be paused or halted, but just
/// be slowed down": benign packets still get delivered under a strong attack.
#[test]
fn benign_traffic_keeps_flowing_under_attack() {
    let mut scenario = AttackScenario::builder(NocConfig::mesh(8, 8))
        .benign(SyntheticPattern::UniformRandom, 0.02)
        .attack(DosAttack::new(
            AttackKind::Fdos,
            vec![NodeId(63)],
            NodeId(0),
            0.8,
        ))
        .seed(100)
        .build();
    scenario.run(4_000);
    let stats = scenario.network().stats();
    let benign_received = stats.packets_received - stats.malicious_packets_received;
    assert!(
        benign_received > 100,
        "benign traffic starved: only {benign_received} packets delivered"
    );
    assert!(stats.malicious_packets_received > 100);
}

/// Figure 1's monotone trend: latency at FIR 0.8 far exceeds latency at 0.1,
/// which in turn exceeds the attack-free baseline.
#[test]
fn latency_increases_monotonically_across_fir_regimes() {
    let workload = BenignWorkload::Parsec(ParsecWorkload::Blackscholes);
    let scenarios = [0.0, 0.1, 0.8]
        .map(|fir| ScenarioSpec::attacked(workload, vec![NodeId(63)], NodeId(0), fir));
    let sim = SimParams {
        warmup_cycles: 0,
        sample_period: 4_000,
        samples_per_run: 1,
        collect_samples: false,
        injection_queue_capacity: 256,
    };
    let points: Vec<_> = runs_from_scenarios(2, &Topology::mesh(8, 8), scenarios)
        .iter()
        .map(|run| execute_run(&sim, run).metrics)
        .collect();
    assert!(points[1].packet_latency >= points[0].packet_latency * 0.9);
    assert!(
        points[2].packet_latency > points[1].packet_latency,
        "FIR 0.8 latency {} should exceed FIR 0.1 latency {}",
        points[2].packet_latency,
        points[1].packet_latency
    );
}

/// The paper's feature-selection argument: under attack, the BOC frames of
/// the flooded direction dominate the frames of quiet directions.
#[test]
fn attack_route_dominates_boc_frames() {
    let mut scenario = AttackScenario::builder(NocConfig::mesh(8, 8))
        .benign(SyntheticPattern::UniformRandom, 0.01)
        .attack(DosAttack::new(
            AttackKind::Fdos,
            vec![NodeId(7)],
            NodeId(0),
            0.9,
        ))
        .seed(8)
        .build();
    scenario.run(2_000);
    let boc = FrameSampler::sample(scenario.network(), FeatureKind::Boc);
    // The flood flows westwards along row 0, so the East frame's row-0 pixels
    // carry the bundle maximum.
    let east = boc.frame(noc_sim::Direction::East);
    let max_pixel = boc.max_value();
    let row0_max = (0..7).map(|x| east.get(x, 0)).fold(0.0f32, f32::max);
    assert_eq!(
        row0_max, max_pixel,
        "the attack route must carry the hottest pixel"
    );
}

/// PARSEC-like workloads are much less traffic-intensive than the synthetic
/// patterns (the property that makes flooding easier to spot on PARSEC).
#[test]
fn parsec_is_sparser_than_stp_at_scale() {
    let run = |workload: BenignWorkload| {
        let mut scenario = AttackScenario::builder(NocConfig::mesh(8, 8))
            .workload(workload)
            .seed(3)
            .build();
        scenario.run(4_000);
        scenario.network().stats().packets_created
    };
    let parsec = run(BenignWorkload::Parsec(ParsecWorkload::X264));
    let stp = run(BenignWorkload::Synthetic(
        SyntheticPattern::UniformRandom,
        0.02,
    ));
    assert!(
        parsec * 2 < stp,
        "PARSEC-like traffic ({parsec}) should be well below STP ({stp})"
    );
}

/// All six synthetic patterns drive a deliverable workload on a 16×16 mesh
/// (the paper's evaluation scale).
#[test]
fn all_stp_patterns_run_on_16x16() {
    for pattern in SyntheticPattern::ALL {
        let mut scenario = AttackScenario::builder(NocConfig::mesh(16, 16))
            .benign(pattern, 0.01)
            .seed(4)
            .build();
        scenario.run(1_500);
        let stats = scenario.network().stats();
        assert!(
            stats.packets_received > 0,
            "{pattern} delivered no packets on 16x16"
        );
        assert!(
            stats.delivery_ratio() > 0.5,
            "{pattern} delivery ratio too low"
        );
    }
}

/// The monitoring window protocol: sampling BOC, resetting, and sampling
/// again yields fresh counts that reflect only the new window.
#[test]
fn boc_windows_are_independent_after_reset() {
    let mut scenario = AttackScenario::builder(NocConfig::mesh(8, 8))
        .benign(SyntheticPattern::Shuffle, 0.02)
        .seed(5)
        .build();
    scenario.run(1_000);
    let first = FrameSampler::sample(scenario.network(), FeatureKind::Boc).max_value();
    scenario.network_mut().reset_boc();
    let immediately_after = FrameSampler::sample(scenario.network(), FeatureKind::Boc).max_value();
    scenario.run(1_000);
    let second = FrameSampler::sample(scenario.network(), FeatureKind::Boc).max_value();
    assert!(first > 0.0);
    assert_eq!(immediately_after, 0.0);
    assert!(second > 0.0);
}
