//! Ground-truth labels for training and evaluating the detector and
//! localizer.

use noc_sim::NodeId;
use noc_traffic::AttackScenario;
use serde::{Deserialize, Serialize};

/// The ground truth of one sampled frame bundle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Whether a flooding attack with non-zero FIR was active.
    pub under_attack: bool,
    /// The attacker nodes (empty when not under attack).
    pub attackers: Vec<NodeId>,
    /// Every `(attacker, target victim)` pair of the active attacks.
    pub attack_pairs: Vec<(NodeId, NodeId)>,
    /// All victims: the target victims plus every routing-path victim.
    pub victims: Vec<NodeId>,
    /// Mesh rows (needed to interpret the victim mask).
    pub rows: usize,
    /// Mesh columns.
    pub cols: usize,
}

impl GroundTruth {
    /// Builds the ground truth of a scenario.
    pub fn of_scenario(scenario: &AttackScenario) -> Self {
        let topology = scenario.network().topology();
        GroundTruth {
            under_attack: scenario.is_under_attack(),
            attackers: scenario.attacker_nodes(),
            attack_pairs: scenario.attack_pairs(),
            victims: scenario.victim_nodes(),
            rows: topology.rows(),
            cols: topology.cols(),
        }
    }

    /// Builds an attack-free ground truth for a `rows × cols` mesh.
    pub fn benign(rows: usize, cols: usize) -> Self {
        GroundTruth {
            under_attack: false,
            attackers: Vec::new(),
            attack_pairs: Vec::new(),
            victims: Vec::new(),
            rows,
            cols,
        }
    }

    /// The binary victim mask as a row-major `rows × cols` buffer
    /// (1.0 at victim nodes) — the segmentation target.
    pub fn victim_mask(&self) -> Vec<f32> {
        let mut mask = vec![0.0f32; self.rows * self.cols];
        for v in &self.victims {
            if v.0 < mask.len() {
                mask[v.0] = 1.0;
            }
        }
        mask
    }

    /// The detector label: 1.0 under attack, 0.0 otherwise.
    pub fn detection_label(&self) -> f32 {
        if self.under_attack {
            1.0
        } else {
            0.0
        }
    }

    /// Converts a pixel coordinate of the victim mask back into a node id.
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        NodeId(y * self.cols + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::NocConfig;
    use noc_traffic::{AttackKind, DosAttack, SyntheticPattern};

    #[test]
    fn benign_ground_truth_is_all_zero() {
        let gt = GroundTruth::benign(4, 4);
        assert!(!gt.under_attack);
        assert_eq!(gt.detection_label(), 0.0);
        assert!(gt.victim_mask().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn scenario_ground_truth_marks_route() {
        let scenario = AttackScenario::builder(NocConfig::mesh(4, 4))
            .benign(SyntheticPattern::UniformRandom, 0.01)
            .attack(DosAttack::new(
                AttackKind::Fdos,
                vec![NodeId(3)],
                NodeId(0),
                0.8,
            ))
            .build();
        let gt = GroundTruth::of_scenario(&scenario);
        assert!(gt.under_attack);
        assert_eq!(gt.detection_label(), 1.0);
        let mask = gt.victim_mask();
        // Route 3 -> 0 passes nodes 2, 1, 0 (attacker 3 excluded).
        assert_eq!(mask[0], 1.0);
        assert_eq!(mask[1], 1.0);
        assert_eq!(mask[2], 1.0);
        assert_eq!(mask[3], 0.0);
        assert_eq!(mask.iter().filter(|&&v| v == 1.0).count(), 3);
    }

    #[test]
    fn node_at_matches_row_major_layout() {
        let gt = GroundTruth::benign(4, 4);
        assert_eq!(gt.node_at(0, 0), NodeId(0));
        assert_eq!(gt.node_at(3, 0), NodeId(3));
        assert_eq!(gt.node_at(0, 1), NodeId(4));
        assert_eq!(gt.node_at(3, 3), NodeId(15));
    }

    #[test]
    fn attack_pairs_recorded() {
        let scenario = AttackScenario::builder(NocConfig::mesh(4, 4))
            .attack(DosAttack::new(
                AttackKind::Fdos,
                vec![NodeId(3), NodeId(12)],
                NodeId(5),
                0.8,
            ))
            .build();
        let gt = GroundTruth::of_scenario(&scenario);
        assert_eq!(
            gt.attack_pairs,
            vec![(NodeId(3), NodeId(5)), (NodeId(12), NodeId(5))]
        );
    }

    #[test]
    fn mesh_round_trip() {
        let gt = GroundTruth::benign(8, 8);
        assert_eq!(gt.victim_mask().len(), 64);
        assert_eq!(gt.node_at(7, 7), NodeId(63));
    }
}
