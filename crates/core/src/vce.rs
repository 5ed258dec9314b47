//! Victim Complementing Enhancement (VCE): completing routing-path victims
//! by reverse XY-routing deduction.
//!
//! Segmentation occasionally misses pixels in the middle of an attack route
//! (e.g. a router whose buffers happened to drain at the sampling instant).
//! Because every flooding packet follows deterministic XY routing, the full
//! routing-path-victim (RPV) set can be *deduced* from two endpoints: a
//! pseudo-source adjacent to the attacker and the target victim. VCE fills
//! the gaps by re-running XY routing between those endpoints and adding any
//! missing nodes to the victim set.

use crate::fusion::FusionResult;
use noc_sim::{Coord, Direction, NodeId, Topology};
use serde::{Deserialize, Serialize};

/// The configurable VCE stage.
///
/// The paper notes VCE "yields the best results when the initial detection
/// phase is accurate enough"; it is therefore optional and enabled through
/// [`crate::FenceConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VictimComplementingEnhancement {
    rows: usize,
    cols: usize,
}

impl VictimComplementingEnhancement {
    /// Creates a VCE stage for a `rows × cols` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "mesh dimensions must be non-zero");
        VictimComplementingEnhancement { rows, cols }
    }

    /// The pseudo-source: the flagged node closest to the attacker in the
    /// primary abnormal direction (largest id for E/N floods, smallest id for
    /// W/S floods), or `None` when nothing was flagged.
    pub fn pseudo_source(&self, fusion: &FusionResult) -> Option<NodeId> {
        // Horizontal directions take priority because XY routing always
        // traverses the X leg (the leg adjacent to the attacker) first.
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

    /// The deduced destination: the detected victim farthest (in Manhattan
    /// distance) from the pseudo-source — for an XY route this is the target
    /// victim at the far end of the attack path.
    pub fn deduced_destination(&self, fusion: &FusionResult, pseudo_src: NodeId) -> Option<NodeId> {
        let src = Coord::from_id(pseudo_src, self.cols);
        fusion
            .victims
            .iter()
            .copied()
            .max_by_key(|v| Coord::from_id(*v, self.cols).manhattan(src))
            .filter(|v| *v != pseudo_src || fusion.victims.len() == 1)
    }

    /// Completes the victim set: the detected victims plus every node on the
    /// XY route from the pseudo-source to the deduced destination.
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
        let route = Topology::mesh(self.rows, self.cols)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::MultiFrameFusion;

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
        MultiFrameFusion::for_mesh(rows, cols).fuse(&segs, rows, cols)
    }

    #[test]
    fn empty_fusion_is_returned_unchanged() {
        let fusion = fusion_from(4, 4, &[], &[]);
        let vce = VictimComplementingEnhancement::new(4, 4);
        assert!(vce.complete(&fusion).is_empty());
    }

    #[test]
    fn gap_in_straight_route_is_filled() {
        // Attacker 3 -> victim 0: true RPVs are {0, 1, 2}, but segmentation
        // missed node 1.
        let fusion = fusion_from(4, 4, &[0, 2], &[]);
        let vce = VictimComplementingEnhancement::new(4, 4);
        assert_eq!(vce.pseudo_source(&fusion), Some(NodeId(2)));
        let completed = vce.complete(&fusion);
        assert_eq!(completed, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn gap_in_l_shaped_route_is_filled() {
        // Attacker 15 -> victim 0 on a 4x4 mesh: route 15,14,13,12,8,4,0.
        // East frame flags 14..12, North frame misses node 4.
        let fusion = fusion_from(4, 4, &[12, 13, 14], &[0, 8]);
        let vce = VictimComplementingEnhancement::new(4, 4);
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
        let vce = VictimComplementingEnhancement::new(4, 4);
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
        let fusion = MultiFrameFusion::for_mesh(4, 4).fuse(&segs, 4, 4);
        let vce = VictimComplementingEnhancement::new(4, 4);
        assert_eq!(vce.pseudo_source(&fusion), Some(NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_mesh_panics() {
        VictimComplementingEnhancement::new(0, 4);
    }
}
