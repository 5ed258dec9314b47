//! Extraction of directional feature frames from a live simulation.

use crate::frame::{DirectionalFrames, FeatureFrame, FeatureKind};
use noc_sim::{Direction, Network};

/// Samples VCO or BOC feature frames from a [`Network`].
///
/// Sampling never perturbs the simulation; resetting the BOC window between
/// samples is an explicit, separate call
/// ([`noc_sim::Network::reset_boc`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameSampler;

impl FrameSampler {
    /// Samples the four cardinal-direction frames of the requested feature.
    pub fn sample(network: &Network, kind: FeatureKind) -> DirectionalFrames {
        let (vco, boc) = Self::sample_both(network);
        match kind {
            FeatureKind::Vco => vco,
            FeatureKind::Boc => boc,
        }
    }

    /// Samples both features at once (VCO first, BOC second) in one pass
    /// over the nodes. Frame data is row-major over `y · cols + x`, which is
    /// the node id, so pixel `id` is the port of node `id`; a missing port
    /// leaves its pixel 0.
    pub fn sample_both(network: &Network) -> (DirectionalFrames, DirectionalFrames) {
        let topology = network.topology();
        let (rows, cols) = (topology.rows(), topology.cols());
        let mut vco = [(); 4].map(|_| vec![0.0f32; rows * cols]);
        let mut boc = vco.clone();
        for id in topology.nodes() {
            for (d, dir) in Direction::CARDINAL.into_iter().enumerate() {
                if let Some(v) = network.vco(id, dir) {
                    vco[d][id.0] = v;
                }
                if let Some(b) = network.boc(id, dir) {
                    boc[d][id.0] = b as f32;
                }
            }
        }
        let frames = |kind, planes: [Vec<f32>; 4]| {
            let frames = Direction::CARDINAL.into_iter().zip(planes);
            DirectionalFrames::new(
                frames
                    .map(|(dir, data)| FeatureFrame::new(dir, kind, rows, cols, data))
                    .collect(),
            )
        };
        (frames(FeatureKind::Vco, vco), frames(FeatureKind::Boc, boc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{NocConfig, NodeId};
    use noc_traffic::{AttackKind, AttackScenario, DosAttack, SyntheticPattern};

    fn attacked_scenario() -> AttackScenario {
        AttackScenario::builder(NocConfig::mesh(8, 8))
            .benign(SyntheticPattern::UniformRandom, 0.01)
            .attack(DosAttack::new(
                AttackKind::Fdos,
                vec![NodeId(7)],
                NodeId(0),
                0.9,
            ))
            .seed(21)
            .build()
    }

    #[test]
    fn idle_network_frames_are_zero() {
        let net = noc_sim::Network::new(NocConfig::mesh(4, 4));
        let vco = FrameSampler::sample(&net, FeatureKind::Vco);
        assert_eq!(vco.max_value(), 0.0);
        let boc = FrameSampler::sample(&net, FeatureKind::Boc);
        assert_eq!(boc.max_value(), 0.0);
    }

    #[test]
    fn frames_have_mesh_shape() {
        let net = noc_sim::Network::new(NocConfig::mesh(6, 9));
        let vco = FrameSampler::sample(&net, FeatureKind::Vco);
        assert_eq!(vco.rows(), 6);
        assert_eq!(vco.cols(), 9);
    }

    #[test]
    fn edge_ports_without_neighbor_stay_zero() {
        let mut scenario = attacked_scenario();
        scenario.run(2_000);
        let boc = FrameSampler::sample(scenario.network(), FeatureKind::Boc);
        // The East input port of the east-most column (x = 7) does not exist,
        // so its pixels must remain zero regardless of traffic.
        let east = boc.frame(Direction::East);
        for y in 0..8 {
            assert_eq!(east.get(7, y), 0.0);
        }
        // Same for the West input ports of column 0.
        let west = boc.frame(Direction::West);
        for y in 0..8 {
            assert_eq!(west.get(0, y), 0.0);
        }
    }

    #[test]
    fn flooding_shows_up_on_the_attack_route() {
        // Attacker node 7 (east end of row 0) floods node 0 (west end):
        // traffic flows westwards, arriving on East input ports of row 0.
        let mut scenario = attacked_scenario();
        scenario.run(2_000);
        let boc = FrameSampler::sample(scenario.network(), FeatureKind::Boc);
        let east = boc.frame(Direction::East);
        let on_route_mean: f32 = (0..7).map(|x| east.get(x, 0)).sum::<f32>() / 7.0;
        let off_route_mean: f32 = (0..7).map(|x| east.get(x, 5)).sum::<f32>() / 7.0;
        assert!(
            on_route_mean > 3.0 * (off_route_mean + 1.0),
            "attack route BOC {on_route_mean} should dominate off-route {off_route_mean}"
        );
    }

    #[test]
    fn vco_values_stay_in_unit_range() {
        let mut scenario = attacked_scenario();
        scenario.run(1_500);
        let vco = FrameSampler::sample(scenario.network(), FeatureKind::Vco);
        for f in vco.iter() {
            assert!(f.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn boc_reset_empties_next_sample() {
        let mut scenario = attacked_scenario();
        scenario.run(500);
        let before = FrameSampler::sample(scenario.network(), FeatureKind::Boc);
        assert!(before.max_value() > 0.0);
        scenario.network_mut().reset_boc();
        let after = FrameSampler::sample(scenario.network(), FeatureKind::Boc);
        assert_eq!(after.max_value(), 0.0);
    }

    #[test]
    fn sample_both_matches_per_port_reads() {
        let mut scenario = attacked_scenario();
        scenario.run(1_500);
        let net = scenario.network();
        let (vco, boc) = FrameSampler::sample_both(net);
        assert_eq!(vco, FrameSampler::sample(net, FeatureKind::Vco));
        assert_eq!(boc, FrameSampler::sample(net, FeatureKind::Boc));
        let cols = net.topology().cols();
        for id in net.topology().nodes() {
            let (x, y) = (id.0 % cols, id.0 / cols);
            for dir in Direction::CARDINAL {
                assert_eq!(vco.frame(dir).get(x, y), net.vco(id, dir).unwrap_or(0.0));
                let b = net.boc(id, dir).map_or(0.0, |b| b as f32);
                assert_eq!(boc.frame(dir).get(x, y), b);
            }
        }
        assert!(boc.max_value() > 0.0);
    }

    #[test]
    fn sample_both_returns_matching_shapes() {
        let net = noc_sim::Network::new(NocConfig::mesh(4, 4));
        let (vco, boc) = FrameSampler::sample_both(&net);
        assert_eq!(vco.kind(), FeatureKind::Vco);
        assert_eq!(boc.kind(), FeatureKind::Boc);
        assert_eq!(vco.rows(), boc.rows());
    }
}
