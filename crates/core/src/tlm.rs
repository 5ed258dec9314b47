//! The Table-Like Method (TLM) for attacker localization (Figure 3 of the
//! paper).
//!
//! Once Multi-Frame Fusion has reconstructed the attack route (the
//! routing-path victims, RPV), the attacker itself sits just *beyond* the
//! route in the direction the abnormal frames point to, because flooding
//! packets follow the topology's deterministic routing. The attacker is
//! the [`Topology::neighbor`], in the abnormal direction, of the flagged
//! node nearest to it; on a mesh (XY routing) that is the paper's table:
//!
//! * an abnormal **East** frame means traffic arrives from the East, so the
//!   attacker id is `Max(E-flagged RPV) + 1`;
//! * **North** → `Max(N-flagged RPV) + width` (one row up);
//! * **West** → `Min(W-flagged RPV) − 1`;
//! * **South** → `Min(S-flagged RPV) − width` (one row down).
//!
//! Candidates that land on an already-identified victim are routing-path
//! continuations (the Y leg of an L-shaped route), not attackers, and are
//! discarded — this implements the single/multi-attacker disambiguation
//! conditions of the paper's table. Multi-attacker scenarios may need
//! several detection rounds; each round localizes the attackers whose legs
//! are visible in the current frames.

use crate::fusion::FusionResult;
use noc_sim::{Direction, NodeId, Topology};

/// The Table-Like Method attacker localizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableLikeMethod {
    topology: Topology,
}

impl TableLikeMethod {
    /// Creates a TLM stage for the protected NoC's topology.
    pub fn new(topology: Topology) -> Self {
        TableLikeMethod { topology }
    }

    /// The attacker candidate implied by one abnormal direction: the
    /// neighbour in `dir` of the flagged node nearest the attacker. `None`
    /// when nothing is flagged or the candidate would fall off the topology.
    pub fn candidate(&self, dir: Direction, flagged: &[NodeId]) -> Option<NodeId> {
        self.topology
            .neighbor(nearest_to_attacker(dir, flagged)?, dir)
    }

    /// Localizes the attackers of one fusion result, using `victims` (the
    /// possibly VCE-completed victim set) to discard route continuations.
    ///
    /// Returns the attacker ids in ascending order, deduplicated.
    pub fn localize(&self, fusion: &FusionResult, victims: &[NodeId]) -> Vec<NodeId> {
        let mut attackers = Vec::new();
        for dir in Direction::CARDINAL {
            if !fusion.abnormal_directions.contains(&dir) {
                continue;
            }
            let flagged = &fusion.flagged_by_direction[dir.index()];
            if let Some(candidate) = self.candidate(dir, flagged) {
                // A candidate that is itself a victim is the continuation of
                // an L-shaped route, not an attacker.
                if victims.contains(&candidate) {
                    continue;
                }
                if !attackers.contains(&candidate) {
                    attackers.push(candidate);
                }
            }
        }
        attackers.sort();
        attackers
    }
}

/// The flagged node nearest the attacker of a flood seen in direction
/// `dir`: the largest id for East/North, the smallest for West/South.
/// `None` when nothing is flagged or `dir` is `Local`.
pub(crate) fn nearest_to_attacker(dir: Direction, flagged: &[NodeId]) -> Option<NodeId> {
    match dir {
        Direction::East | Direction::North => flagged.iter().max().copied(),
        Direction::West | Direction::South => flagged.iter().min().copied(),
        Direction::Local => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::MultiFrameFusion;
    use noc_sim::Coord;
    use proptest::prelude::*;

    fn fusion_with(rows: usize, cols: usize, per_direction: [&[usize]; 4]) -> FusionResult {
        let mut segs = [
            vec![0.0f32; rows * cols],
            vec![0.0f32; rows * cols],
            vec![0.0f32; rows * cols],
            vec![0.0f32; rows * cols],
        ];
        for (d, nodes) in per_direction.iter().enumerate() {
            for &n in nodes.iter() {
                segs[d][n] = 0.9;
            }
        }
        MultiFrameFusion::new().fuse(&segs, rows, cols)
    }

    #[test]
    fn single_east_attacker() {
        // Attacker 3 floods victim 0 on 4x4: East frame flags {0, 1, 2}.
        let fusion = fusion_with(4, 4, [&[0, 1, 2], &[], &[], &[]]);
        let tlm = TableLikeMethod::new(Topology::mesh(4, 4));
        assert_eq!(tlm.localize(&fusion, &fusion.victims), vec![NodeId(3)]);
    }

    #[test]
    fn single_west_attacker() {
        // Attacker 0 floods victim 3: West frame flags {1, 2, 3}.
        let fusion = fusion_with(4, 4, [&[], &[], &[1, 2, 3], &[]]);
        let tlm = TableLikeMethod::new(Topology::mesh(4, 4));
        assert_eq!(tlm.localize(&fusion, &fusion.victims), vec![NodeId(0)]);
    }

    #[test]
    fn single_north_attacker_straight_column() {
        // Attacker 12 floods victim 0 on 4x4 (same column): North frame flags
        // {0, 4, 8}.
        let fusion = fusion_with(4, 4, [&[], &[0, 4, 8], &[], &[]]);
        let tlm = TableLikeMethod::new(Topology::mesh(4, 4));
        assert_eq!(tlm.localize(&fusion, &fusion.victims), vec![NodeId(12)]);
    }

    #[test]
    fn single_south_attacker_straight_column() {
        // Attacker 0 floods victim 12: South frame flags {4, 8, 12}.
        let fusion = fusion_with(4, 4, [&[], &[], &[], &[4, 8, 12]]);
        let tlm = TableLikeMethod::new(Topology::mesh(4, 4));
        assert_eq!(tlm.localize(&fusion, &fusion.victims), vec![NodeId(0)]);
    }

    #[test]
    fn l_shaped_route_yields_single_attacker() {
        // Attacker 15 -> victim 0 on 4x4: route 15,14,13,12 (E ports), then
        // 8, 4, 0 (N ports). The North candidate (Max(N)+4 = 12) is itself a
        // victim and must be discarded; only node 15 is an attacker.
        let fusion = fusion_with(4, 4, [&[12, 13, 14], &[0, 4, 8], &[], &[]]);
        let tlm = TableLikeMethod::new(Topology::mesh(4, 4));
        assert_eq!(tlm.localize(&fusion, &fusion.victims), vec![NodeId(15)]);
    }

    #[test]
    fn opposite_side_attackers_are_both_found() {
        // Victim 5 on a 4x4 mesh flooded from 7 (east side, E ports of 5, 6)
        // and from 4 (west side, W port of 5).
        let fusion = fusion_with(4, 4, [&[5, 6], &[], &[5], &[]]);
        let tlm = TableLikeMethod::new(Topology::mesh(4, 4));
        assert_eq!(
            tlm.localize(&fusion, &fusion.victims),
            vec![NodeId(4), NodeId(7)]
        );
    }

    #[test]
    fn paper_example_attacker_104_victim_0() {
        // Figure 4's first example on a 16x16 mesh: attacker 104, victim 0.
        // Route: 104..96 westwards (E ports of 96..103), then 96..0 southwards
        // in column 0 — wait, 96 = (0, 6), so the Y leg descends via S? No:
        // victim 0 = (0, 0) lies south of 96, so traffic flows southwards and
        // arrives on the NORTH ports of 80, 64, 48, 32, 16, 0.
        let east: Vec<usize> = (96..104).collect();
        let north: Vec<usize> = vec![0, 16, 32, 48, 64, 80];
        let fusion = fusion_with(16, 16, [&east, &north, &[], &[]]);
        let tlm = TableLikeMethod::new(Topology::mesh(16, 16));
        assert_eq!(tlm.localize(&fusion, &fusion.victims), vec![NodeId(104)]);
    }

    #[test]
    fn candidate_off_mesh_is_rejected() {
        // East frame flags the east-most column: the "+1" candidate would
        // wrap to the next row, which is not a physical neighbour.
        let tlm = TableLikeMethod::new(Topology::mesh(4, 4));
        assert_eq!(tlm.candidate(Direction::East, &[NodeId(3)]), None);
        assert_eq!(tlm.candidate(Direction::West, &[NodeId(0)]), None);
        assert_eq!(tlm.candidate(Direction::North, &[NodeId(13)]), None);
        assert_eq!(tlm.candidate(Direction::South, &[NodeId(2)]), None);
    }

    #[test]
    fn empty_fusion_has_no_attackers() {
        let fusion = fusion_with(4, 4, [&[], &[], &[], &[]]);
        let tlm = TableLikeMethod::new(Topology::mesh(4, 4));
        assert!(tlm.localize(&fusion, &[]).is_empty());
    }

    #[test]
    fn candidate_of_empty_flag_set_is_none() {
        let tlm = TableLikeMethod::new(Topology::mesh(4, 4));
        assert_eq!(tlm.candidate(Direction::East, &[]), None);
    }

    /// The earlier hand-written `candidate` arms, kept as the oracle for
    /// the delegation to [`Topology::neighbor`].
    fn oracle_candidate(
        rows: usize,
        cols: usize,
        dir: Direction,
        flagged: &[NodeId],
    ) -> Option<NodeId> {
        if flagged.is_empty() {
            return None;
        }
        let n = rows * cols;
        match dir {
            Direction::East => {
                let max = flagged.iter().max().copied()?;
                let c = Coord::from_id(max, cols);
                (c.x + 1 < cols).then(|| NodeId(max.0 + 1))
            }
            Direction::West => {
                let min = flagged.iter().min().copied()?;
                let c = Coord::from_id(min, cols);
                (c.x > 0).then(|| NodeId(min.0 - 1))
            }
            Direction::North => {
                let max = flagged.iter().max().copied()?;
                (max.0 + cols < n).then(|| NodeId(max.0 + cols))
            }
            Direction::South => {
                let min = flagged.iter().min().copied()?;
                (min.0 >= cols).then(|| NodeId(min.0 - cols))
            }
            Direction::Local => None,
        }
    }

    proptest! {
        /// `candidate` equals the earlier `±1` / `±cols` arms with their
        /// edge checks on random rectangular meshes, for random flagged
        /// sets (empty, one node, or many in random order with repeats)
        /// and all five directions.
        #[test]
        fn candidate_matches_the_hand_written_arms(
            rows in 1usize..17,
            cols in 1usize..17,
            size in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = TestRng::new(seed);
            let n = rows * cols;
            let count = [0, 1, 2, n][size];
            let flagged: Vec<NodeId> = (0..count)
                .map(|_| NodeId((rng.next_u64() % n as u64) as usize))
                .collect();
            let tlm = TableLikeMethod::new(Topology::mesh(rows, cols));
            for dir in Direction::ALL {
                prop_assert_eq!(
                    tlm.candidate(dir, &flagged),
                    oracle_candidate(rows, cols, dir, &flagged)
                );
            }
        }
    }
}
