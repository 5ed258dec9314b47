//! Victim Complementing Enhancement (VCE): completing routing-path victims
//! by reverse routing deduction.
//!
//! Segmentation occasionally misses pixels in the middle of an attack route
//! (e.g. a router whose buffers happened to drain at the sampling instant).
//! Because every flooding packet follows the topology's deterministic
//! routing (XY on a mesh), the full routing-path-victim (RPV) set can be
//! *deduced* from two endpoints: a pseudo-source adjacent to the attacker
//! and the target victim. VCE fills the gaps by re-running the routing
//! between those endpoints and adding any missing nodes to the victim set.

use crate::fusion::FusionResult;
use crate::tlm::nearest_to_attacker;
use noc_sim::{Direction, NodeId, Topology};

/// The configurable VCE stage.
///
/// The paper notes VCE "yields the best results when the initial detection
/// phase is accurate enough"; it is therefore optional and enabled through
/// [`crate::FenceConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimComplementingEnhancement {
    topology: Topology,
}

impl VictimComplementingEnhancement {
    /// Creates a VCE stage for the protected NoC's topology.
    pub fn new(topology: Topology) -> Self {
        VictimComplementingEnhancement { topology }
    }

    /// The pseudo-source: the flagged node closest to the attacker in the
    /// primary abnormal direction (largest id for E/N floods, smallest id for
    /// W/S floods), or `None` when nothing was flagged.
    pub fn pseudo_source(&self, fusion: &FusionResult) -> Option<NodeId> {
        // Horizontal directions take priority because XY routing always
        // traverses the X leg (the leg adjacent to the attacker) first.
        [
            Direction::East,
            Direction::West,
            Direction::North,
            Direction::South,
        ]
        .into_iter()
        .find_map(|dir| nearest_to_attacker(dir, &fusion.flagged_by_direction[dir.index()]))
    }

    /// The deduced destination: the detected victim farthest (in minimal
    /// hop distance, Manhattan on a mesh) from the pseudo-source — for a
    /// dimension-ordered route this is the target victim at the far end of
    /// the attack path.
    pub fn deduced_destination(&self, fusion: &FusionResult, pseudo_src: NodeId) -> Option<NodeId> {
        fusion
            .victims
            .iter()
            .copied()
            .max_by_key(|v| self.topology.min_distance(*v, pseudo_src))
            .filter(|v| *v != pseudo_src || fusion.victims.len() == 1)
    }

    /// Completes the victim set: the detected victims plus every node on the
    /// route from the pseudo-source to the deduced destination.
    ///
    /// Returns the input victims unchanged when the fusion result is empty.
    pub fn complete(&self, fusion: &FusionResult) -> Vec<NodeId> {
        let mut victims = fusion.victims.clone();
        let Some(pseudo_src) = self.pseudo_source(fusion) else {
            return victims;
        };
        let Some(dst) = self.deduced_destination(fusion, pseudo_src) else {
            return victims;
        };
        let route = self
            .topology
            .route_path(pseudo_src, dst)
            .expect("fused victims lie on the topology");
        for node in route {
            if !victims.contains(&node) {
                victims.push(node);
            }
        }
        victims.sort();
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::tests::random_segmentations;
    use crate::fusion::MultiFrameFusion;
    use noc_sim::Coord;
    use proptest::prelude::*;

    fn fusion_from(rows: usize, cols: usize, east: &[usize], north: &[usize]) -> FusionResult {
        let mut segs = [
            vec![0.0f32; rows * cols],
            vec![0.0f32; rows * cols],
            vec![0.0f32; rows * cols],
            vec![0.0f32; rows * cols],
        ];
        for &n in east {
            segs[0][n] = 0.9;
        }
        for &n in north {
            segs[1][n] = 0.9;
        }
        MultiFrameFusion::new().fuse(&segs, rows, cols)
    }

    #[test]
    fn empty_fusion_is_returned_unchanged() {
        let fusion = fusion_from(4, 4, &[], &[]);
        let vce = VictimComplementingEnhancement::new(Topology::mesh(4, 4));
        assert!(vce.complete(&fusion).is_empty());
    }

    #[test]
    fn gap_in_straight_route_is_filled() {
        // Attacker 3 -> victim 0: true RPVs are {0, 1, 2}, but segmentation
        // missed node 1.
        let fusion = fusion_from(4, 4, &[0, 2], &[]);
        let vce = VictimComplementingEnhancement::new(Topology::mesh(4, 4));
        assert_eq!(vce.pseudo_source(&fusion), Some(NodeId(2)));
        let completed = vce.complete(&fusion);
        assert_eq!(completed, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn gap_in_l_shaped_route_is_filled() {
        // Attacker 15 -> victim 0 on a 4x4 mesh: route 15,14,13,12,8,4,0.
        // East frame flags 14..12, North frame misses node 4.
        let fusion = fusion_from(4, 4, &[12, 13, 14], &[0, 8]);
        let vce = VictimComplementingEnhancement::new(Topology::mesh(4, 4));
        assert_eq!(vce.pseudo_source(&fusion), Some(NodeId(14)));
        let completed = vce.complete(&fusion);
        assert!(
            completed.contains(&NodeId(4)),
            "missing RPV 4 should be deduced"
        );
        assert!(completed.contains(&NodeId(12)));
        assert!(completed.contains(&NodeId(0)));
    }

    #[test]
    fn complete_never_removes_detected_victims() {
        let fusion = fusion_from(4, 4, &[5, 6], &[9]);
        let vce = VictimComplementingEnhancement::new(Topology::mesh(4, 4));
        let completed = vce.complete(&fusion);
        for v in &fusion.victims {
            assert!(completed.contains(v));
        }
    }

    #[test]
    fn westward_pseudo_source_uses_minimum() {
        // West frame abnormal: attacker is to the west, pseudo source is the
        // smallest flagged id.
        let mut segs = [
            vec![0.0f32; 16],
            vec![0.0f32; 16],
            vec![0.0f32; 16],
            vec![0.0f32; 16],
        ];
        segs[Direction::West.index()][1] = 0.9;
        segs[Direction::West.index()][2] = 0.9;
        let fusion = MultiFrameFusion::new().fuse(&segs, 4, 4);
        let vce = VictimComplementingEnhancement::new(Topology::mesh(4, 4));
        assert_eq!(vce.pseudo_source(&fusion), Some(NodeId(1)));
    }

    /// The earlier `pseudo_source`, `deduced_destination` and `complete`,
    /// kept as the oracle: Manhattan distance from `Coord::from_id` and a
    /// mesh rebuilt from `rows`/`cols` on every call.
    mod oracle {
        use super::*;

        pub fn pseudo_source(fusion: &FusionResult) -> Option<NodeId> {
            for dir in [
                Direction::East,
                Direction::West,
                Direction::North,
                Direction::South,
            ] {
                let flagged = &fusion.flagged_by_direction[dir.index()];
                if flagged.is_empty() {
                    continue;
                }
                let node = match dir {
                    Direction::East | Direction::North => flagged.iter().max().copied(),
                    Direction::West | Direction::South => flagged.iter().min().copied(),
                    Direction::Local => None,
                };
                if node.is_some() {
                    return node;
                }
            }
            None
        }

        pub fn deduced_destination(
            cols: usize,
            fusion: &FusionResult,
            pseudo_src: NodeId,
        ) -> Option<NodeId> {
            let src = Coord::from_id(pseudo_src, cols);
            fusion
                .victims
                .iter()
                .copied()
                .max_by_key(|v| Coord::from_id(*v, cols).manhattan(src))
                .filter(|v| *v != pseudo_src || fusion.victims.len() == 1)
        }

        pub fn complete(rows: usize, cols: usize, fusion: &FusionResult) -> Vec<NodeId> {
            let mut victims = fusion.victims.clone();
            let Some(pseudo_src) = pseudo_source(fusion) else {
                return victims;
            };
            let Some(dst) = deduced_destination(cols, fusion, pseudo_src) else {
                return victims;
            };
            let route = Topology::mesh(rows, cols)
                .route_path(pseudo_src, dst)
                .expect("fused victims lie on the mesh");
            for node in route {
                if !victims.contains(&node) {
                    victims.push(node);
                }
            }
            victims.sort();
            victims
        }
    }

    proptest! {
        /// VCE over the stage's own `Topology` equals the earlier
        /// coordinate arithmetic on random rectangular meshes and random
        /// fused victim maps: the pseudo-source, the deduced destination
        /// (from the pseudo-source and from a random node) and the
        /// completed victim set.
        #[test]
        fn vce_matches_the_coordinate_arithmetic(
            rows in 1usize..17,
            cols in 1usize..17,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = TestRng::new(seed);
            let segs = random_segmentations(&mut rng, rows, cols, 0.5);
            let fusion = MultiFrameFusion::new().fuse(&segs, rows, cols);
            let vce = VictimComplementingEnhancement::new(Topology::mesh(rows, cols));
            let pseudo_src = vce.pseudo_source(&fusion);
            prop_assert_eq!(pseudo_src, oracle::pseudo_source(&fusion));
            let random = NodeId((rng.next_u64() % (rows * cols) as u64) as usize);
            for src in pseudo_src.into_iter().chain([random]) {
                prop_assert_eq!(
                    vce.deduced_destination(&fusion, src),
                    oracle::deduced_destination(cols, &fusion, src)
                );
            }
            prop_assert_eq!(vce.complete(&fusion), oracle::complete(rows, cols, &fusion));
        }
    }
}
