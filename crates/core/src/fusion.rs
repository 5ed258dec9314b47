//! Multi-Frame Fusion (MFF): merging per-direction segmentation results into
//! a single victim map (Algorithm 1 of the paper).

use noc_sim::{Direction, NodeId};
use serde::{Deserialize, Serialize};

/// The side of the fused grid: the paper pads every mesh's maps to a fixed
/// 16×16 grid so that one fusion accelerator serves every mesh size. Larger
/// meshes keep their own size.
const FUSION_GRID: usize = 16;

/// The result of fusing the directional segmentation maps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FusionResult {
    /// The fused frame: per node, the number of directions that flagged it
    /// (after binarization and padding).
    pub fused: Vec<f32>,
    /// Rows of the (padded) fused frame.
    pub rows: usize,
    /// Columns of the (padded) fused frame.
    pub cols: usize,
    /// The victims: nodes flagged by at least one direction.
    pub victims: Vec<NodeId>,
    /// The directions whose segmentation contained at least one flagged
    /// pixel (the "abnormal frames" consumed by the Table-Like Method).
    pub abnormal_directions: Vec<Direction>,
    /// Per-direction flagged node sets, in ascending order (used by the
    /// Table-Like Method to compute `Max('D')` / `Min('D')`).
    pub flagged_by_direction: [Vec<NodeId>; 4],
}

/// Multi-Frame Fusion: binarize each directional segmentation map, zero-pad
/// it to the standard 16×16 grid, and accumulate the four maps. Nodes with
/// a fused value ≥ 1 are victims.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiFrameFusion {
    /// Segmentation probability threshold used for binarization.
    pub threshold: f32,
}

impl MultiFrameFusion {
    /// Creates a fusion stage with the paper's default threshold, 0.5.
    pub fn new() -> Self {
        MultiFrameFusion { threshold: 0.5 }
    }

    /// Overrides the binarization threshold (used by the threshold ablation).
    ///
    /// # Panics
    ///
    /// Panics if the threshold is outside `(0, 1)`.
    pub fn with_threshold(mut self, threshold: f32) -> Self {
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "threshold must be in (0, 1)"
        );
        self.threshold = threshold;
        self
    }

    /// Fuses the four directional segmentation maps (each a `rows × cols`
    /// row-major probability buffer in E, N, W, S order, where buffer index
    /// = node id). The fused frame is `max(16, rows) × max(16, cols)`.
    ///
    /// # Panics
    ///
    /// Panics if any map's length differs from `rows * cols`.
    pub fn fuse(&self, segmentations: &[Vec<f32>; 4], rows: usize, cols: usize) -> FusionResult {
        for seg in segmentations {
            assert_eq!(seg.len(), rows * cols, "segmentation size mismatch");
        }
        let out_rows = rows.max(FUSION_GRID);
        let out_cols = cols.max(FUSION_GRID);
        let padded = |node: usize| (node / cols) * out_cols + node % cols;
        let mut fused = vec![0.0f32; out_rows * out_cols];
        let mut abnormal_directions = Vec::new();
        let mut flagged_by_direction: [Vec<NodeId>; 4] = Default::default();

        for (d, seg) in segmentations.iter().enumerate() {
            let flagged = &mut flagged_by_direction[d];
            for (node, &p) in seg.iter().enumerate() {
                if p > self.threshold {
                    fused[padded(node)] += 1.0;
                    flagged.push(NodeId(node));
                }
            }
            if !flagged.is_empty() {
                abnormal_directions.push(Direction::from_index(d));
            }
        }

        // Victims: any node of the *original* mesh flagged at least once.
        let victims = (0..rows * cols)
            .filter(|&node| fused[padded(node)] >= 1.0)
            .map(NodeId)
            .collect();

        FusionResult {
            fused,
            rows: out_rows,
            cols: out_cols,
            victims,
            abnormal_directions,
            flagged_by_direction,
        }
    }
}

impl Default for MultiFrameFusion {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seg_with(rows: usize, cols: usize, nodes: &[usize]) -> Vec<f32> {
        let mut v = vec![0.0f32; rows * cols];
        for &n in nodes {
            v[n] = 0.9;
        }
        v
    }

    #[test]
    fn empty_segmentations_fuse_to_nothing() {
        let mff = MultiFrameFusion::new();
        let segs = [vec![0.0; 16], vec![0.0; 16], vec![0.0; 16], vec![0.0; 16]];
        let r = mff.fuse(&segs, 4, 4);
        assert!(r.victims.is_empty());
        assert!(r.abnormal_directions.is_empty());
    }

    #[test]
    fn single_direction_route_is_reconstructed() {
        let mff = MultiFrameFusion::new();
        // East frame flags nodes 0, 1, 2 (a westward flood along row 0).
        let segs = [
            seg_with(4, 4, &[0, 1, 2]),
            vec![0.0; 16],
            vec![0.0; 16],
            vec![0.0; 16],
        ];
        let r = mff.fuse(&segs, 4, 4);
        assert_eq!(r.victims, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(r.abnormal_directions, vec![Direction::East]);
        assert_eq!(
            r.flagged_by_direction[0],
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn fusion_unions_multiple_directions() {
        let mff = MultiFrameFusion::new();
        // L-shaped route: east leg on row 0 plus north leg on column 0.
        let segs = [
            seg_with(4, 4, &[1, 2]),
            seg_with(4, 4, &[0, 4, 8]),
            vec![0.0; 16],
            vec![0.0; 16],
        ];
        let r = mff.fuse(&segs, 4, 4);
        assert_eq!(
            r.victims,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(4), NodeId(8)]
        );
        assert_eq!(
            r.abnormal_directions,
            vec![Direction::East, Direction::North]
        );
    }

    #[test]
    fn overlapping_pixels_accumulate() {
        let mff = MultiFrameFusion::new();
        let segs = [
            seg_with(4, 4, &[5]),
            seg_with(4, 4, &[5]),
            vec![0.0; 16],
            vec![0.0; 16],
        ];
        let r = mff.fuse(&segs, 4, 4);
        // Node 5 = (x=1, y=1) → padded index y*out_cols + x.
        assert_eq!(r.fused[r.cols + 1], 2.0);
        assert_eq!(r.victims, vec![NodeId(5)]);
    }

    #[test]
    fn fused_frame_is_padded_to_16x16() {
        let mff = MultiFrameFusion::new();
        let segs = [
            seg_with(4, 4, &[3]),
            vec![0.0; 16],
            vec![0.0; 16],
            vec![0.0; 16],
        ];
        let r = mff.fuse(&segs, 4, 4);
        assert_eq!(r.rows, 16);
        assert_eq!(r.cols, 16);
        assert_eq!(r.fused.len(), 256);
        // Node 3 of the 4x4 mesh is (x=3, y=0) → padded index 3.
        assert_eq!(r.fused[3], 1.0);
        assert_eq!(r.victims, vec![NodeId(3)]);
    }

    #[test]
    fn threshold_controls_binarization() {
        let strict = MultiFrameFusion::new().with_threshold(0.95);
        let segs = [
            seg_with(4, 4, &[1]), // value 0.9 < 0.95
            vec![0.0; 16],
            vec![0.0; 16],
            vec![0.0; 16],
        ];
        let r = strict.fuse(&segs, 4, 4);
        assert!(r.victims.is_empty());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn invalid_threshold_panics() {
        MultiFrameFusion::new().with_threshold(0.0);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_segmentation_panics() {
        let mff = MultiFrameFusion::new();
        let segs = [vec![0.0; 4], vec![0.0; 16], vec![0.0; 16], vec![0.0; 16]];
        mff.fuse(&segs, 4, 4);
    }

    fn unit(rng: &mut TestRng) -> f32 {
        (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Four random `rows × cols` segmentation maps for the equivalence
    /// properties: per direction nothing, a few or many pixels stand out
    /// from a low background, and a standing-out pixel is `NaN`, `1.0`,
    /// exactly `threshold` or a random probability.
    pub(crate) fn random_segmentations(
        rng: &mut TestRng,
        rows: usize,
        cols: usize,
        threshold: f32,
    ) -> [Vec<f32>; 4] {
        std::array::from_fn(|_| {
            let density = [0.0, 0.05, 0.3, 0.8][(rng.next_u64() % 4) as usize];
            (0..rows * cols)
                .map(|_| {
                    if unit(rng) >= density {
                        return unit(rng) * 0.1;
                    }
                    match rng.next_u64() % 5 {
                        0 => f32::NAN,
                        1 => 1.0,
                        2 => threshold,
                        _ => unit(rng),
                    }
                })
                .collect()
        })
    }

    /// The earlier `fuse`, kept as the oracle: it pads to
    /// `max(target, mesh)` per side, walks `(y, x)`, deduplicates each
    /// direction's nodes with `contains` and re-sorts them.
    fn oracle_fuse(
        threshold: f32,
        target_rows: usize,
        target_cols: usize,
        segmentations: &[Vec<f32>; 4],
        rows: usize,
        cols: usize,
    ) -> FusionResult {
        let out_rows = target_rows.max(rows);
        let out_cols = target_cols.max(cols);
        let mut fused = vec![0.0f32; out_rows * out_cols];
        let mut abnormal_directions = Vec::new();
        let mut flagged_by_direction: [Vec<NodeId>; 4] =
            [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for (d, seg) in segmentations.iter().enumerate() {
            let mut any = false;
            for y in 0..rows {
                for x in 0..cols {
                    if seg[y * cols + x] > threshold {
                        any = true;
                        fused[y * out_cols + x] += 1.0;
                        let node = NodeId(y * cols + x);
                        if !flagged_by_direction[d].contains(&node) {
                            flagged_by_direction[d].push(node);
                        }
                    }
                }
            }
            if any {
                abnormal_directions.push(Direction::from_index(d));
            }
        }
        let mut victims = Vec::new();
        for y in 0..rows {
            for x in 0..cols {
                if fused[y * out_cols + x] >= 1.0 {
                    victims.push(NodeId(y * cols + x));
                }
            }
        }
        victims.sort();
        for f in &mut flagged_by_direction {
            f.sort();
        }
        FusionResult {
            fused,
            rows: out_rows,
            cols: out_cols,
            victims,
            abnormal_directions,
            flagged_by_direction,
        }
    }

    proptest! {
        /// `fuse` equals the earlier row/column walk on random rectangular
        /// meshes (up to 20 per side, so some exceed the 16×16 grid) and
        /// random thresholds, with both of the earlier constructors'
        /// padding targets: `new()` (16×16) and `for_mesh(rows, cols)`.
        #[test]
        fn fuse_matches_the_row_column_walk(
            rows in 1usize..21,
            cols in 1usize..21,
            milli in 1u32..1000,
            seed in 0u64..u64::MAX,
        ) {
            let threshold = milli as f32 / 1000.0;
            let mut rng = TestRng::new(seed);
            let segs = random_segmentations(&mut rng, rows, cols, threshold);
            let fused = MultiFrameFusion::new()
                .with_threshold(threshold)
                .fuse(&segs, rows, cols);
            prop_assert_eq!(&fused, &oracle_fuse(threshold, 16, 16, &segs, rows, cols));
            let for_mesh = oracle_fuse(threshold, rows.max(16), cols.max(16), &segs, rows, cols);
            prop_assert_eq!(&fused, &for_mesh);
        }
    }
}
