//! Conversion between monitor feature frames and model tensors, and
//! construction of per-direction segmentation ground truth.

use noc_monitor::{DirectionalFrames, FeatureFrame, FeatureKind, GroundTruth, LabeledSample};
use noc_sim::{Direction, Topology};
use tinycnn::Tensor;

/// Converts one directional frame into a single-channel `[1, rows, cols]`
/// tensor, normalizing first when the feature kind requires it (BOC).
pub fn frame_to_tensor(frame: &FeatureFrame) -> Tensor {
    let source = if frame.kind().needs_normalization() {
        frame.normalized()
    } else {
        frame.clone()
    };
    Tensor::from_vec(source.data().to_vec(), &[1, frame.rows(), frame.cols()])
}

/// Converts a four-direction bundle into the detector's 4-channel
/// `[4, rows, cols]` input tensor (E, N, W, S channel order), normalizing
/// when the feature requires it.
pub fn frames_to_detector_input(frames: &DirectionalFrames) -> Tensor {
    let source = if frames.kind().needs_normalization() {
        frames.normalized()
    } else {
        frames.clone()
    };
    Tensor::from_vec(source.to_channels(), &[4, frames.rows(), frames.cols()])
}

/// Converts all four directional frames into single-channel `[1, rows, cols]`
/// tensors scaled by the *bundle-wide* maximum (E, N, W, S order).
///
/// Sharing one scale across the four directions is what makes the attack
/// route stand out to the localizer: the route direction carries the bundle
/// maximum while quiet directions stay near zero, instead of having their
/// background noise stretched to full scale by per-frame normalization.
pub fn frames_to_localizer_inputs(frames: &DirectionalFrames) -> [Tensor; 4] {
    let scale = frames.max_value();
    let shape = [1, frames.rows(), frames.cols()];
    let make = |frame: &FeatureFrame| {
        if scale <= f32::EPSILON {
            Tensor::zeros(&shape)
        } else {
            Tensor::from_vec(frame.data().iter().map(|v| v / scale).collect(), &shape)
        }
    };
    let mut out: Vec<Tensor> = frames.iter().map(make).collect();
    let d = out.pop().expect("four frames");
    let c = out.pop().expect("four frames");
    let b = out.pop().expect("four frames");
    let a = out.pop().expect("four frames");
    [a, b, c, d]
}

/// Selects the VCO or BOC bundle of a labeled sample.
pub fn sample_frames(sample: &LabeledSample, kind: FeatureKind) -> &DirectionalFrames {
    match kind {
        FeatureKind::Vco => &sample.vco,
        FeatureKind::Boc => &sample.boc,
    }
}

/// The per-direction segmentation ground truth of a sample: for each
/// cardinal direction, a `rows × cols` mask marking the routers whose input
/// port *in that direction* lies on an attack route.
///
/// The union of the four masks over all directions equals the victim mask
/// (the attacking route), which is exactly what Multi-Frame Fusion
/// reconstructs at inference time.
///
/// Routes are XY routes on a `rows × cols` mesh: DL2Fence's localization is
/// defined only for XY-routed meshes.
///
/// # Panics
///
/// Panics if an attack pair lies outside the mesh.
pub fn direction_masks(truth: &GroundTruth) -> [Vec<f32>; 4] {
    let mesh = Topology::mesh(truth.rows, truth.cols);
    let n = mesh.node_count();
    let mut masks = [
        vec![0.0f32; n],
        vec![0.0f32; n],
        vec![0.0f32; n],
        vec![0.0f32; n],
    ];
    for &(attacker, victim) in &truth.attack_pairs {
        let path = mesh
            .route_path(attacker, victim)
            .unwrap_or_else(|e| panic!("attack pair off the mesh: {e}"));
        // Traffic leaving `from` towards `to` arrives on the input port of
        // `to` that faces back the way it came.
        for hop in path.windows(2) {
            let (from, to) = (hop[0], hop[1]);
            let port = mesh.next_hop(from, victim).opposite();
            masks[port.index()][to.0] = 1.0;
        }
    }
    masks
}

/// The ground-truth mask for one direction as a `[1, rows, cols]` tensor.
pub fn direction_mask_tensor(truth: &GroundTruth, dir: Direction) -> Tensor {
    let masks = direction_masks(truth);
    Tensor::from_vec(masks[dir.index()].clone(), &[1, truth.rows, truth.cols])
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{NocConfig, NodeId};
    use noc_traffic::{AttackKind, AttackScenario, DosAttack};

    fn truth_single_attack() -> GroundTruth {
        GroundTruth {
            under_attack: true,
            attackers: vec![NodeId(3)],
            attack_pairs: vec![(NodeId(3), NodeId(0))],
            victims: vec![NodeId(0), NodeId(1), NodeId(2)],
            rows: 4,
            cols: 4,
        }
    }

    #[test]
    fn frame_to_tensor_normalizes_boc() {
        let frame = FeatureFrame::new(
            Direction::East,
            FeatureKind::Boc,
            2,
            2,
            vec![0.0, 10.0, 20.0, 40.0],
        );
        let t = frame_to_tensor(&frame);
        assert_eq!(t.shape(), &[1, 2, 2]);
        assert_eq!(t.max(), 1.0);
        assert_eq!(t.min(), 0.0);
    }

    #[test]
    fn frame_to_tensor_keeps_vco_raw() {
        let frame = FeatureFrame::new(
            Direction::East,
            FeatureKind::Vco,
            2,
            2,
            vec![0.25, 0.5, 0.5, 0.75],
        );
        let t = frame_to_tensor(&frame);
        assert_eq!(t.data(), &[0.25, 0.5, 0.5, 0.75]);
    }

    #[test]
    fn detector_input_has_four_channels() {
        let frames = DirectionalFrames::new(
            Direction::CARDINAL
                .into_iter()
                .map(|d| FeatureFrame::zeros(d, FeatureKind::Vco, 4, 4))
                .collect(),
        );
        let t = frames_to_detector_input(&frames);
        assert_eq!(t.shape(), &[4, 4, 4]);
    }

    #[test]
    fn westward_attack_marks_east_direction_mask() {
        // Attacker 3 -> victim 0 on a 4x4 mesh: traffic flows west, arriving
        // on the EAST input ports of nodes 2, 1, 0.
        let truth = truth_single_attack();
        let masks = direction_masks(&truth);
        let east = &masks[Direction::East.index()];
        assert_eq!(east[0], 1.0);
        assert_eq!(east[1], 1.0);
        assert_eq!(east[2], 1.0);
        assert_eq!(east[3], 0.0);
        // No other direction sees the attack.
        for dir in [Direction::North, Direction::West, Direction::South] {
            assert!(masks[dir.index()].iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn arrival_ports_face_the_upstream_router() {
        let marked = |attacker: usize, victim: usize, dir: Direction| {
            let truth = GroundTruth {
                attack_pairs: vec![(NodeId(attacker), NodeId(victim))],
                ..GroundTruth::benign(4, 4)
            };
            let masks = direction_masks(&truth);
            let on: Vec<usize> = (0..16).filter(|&i| masks[dir.index()][i] > 0.0).collect();
            let total: f32 = masks.iter().flatten().sum();
            assert_eq!(
                total as usize,
                on.len(),
                "{attacker} -> {victim}: only {dir} ports"
            );
            on
        };
        // An eastward flood arrives on West ports, a westward one on East
        // ports and a northward leg on South ports.
        assert_eq!(marked(0, 3, Direction::West), vec![1, 2, 3]);
        assert_eq!(marked(3, 0, Direction::East), vec![0, 1, 2]);
        assert_eq!(marked(0, 12, Direction::South), vec![4, 8, 12]);
    }

    #[test]
    fn union_of_direction_masks_equals_victim_mask() {
        // Every single-attacker pair of a square and a rectangular mesh; the
        // rectangular one catches a rows/cols swap.
        for (rows, cols) in [(4, 4), (3, 5)] {
            let n = rows * cols;
            for (attacker, victim) in (0..n).flat_map(|a| (0..n).map(move |v| (a, v))) {
                if attacker == victim {
                    continue;
                }
                let attack = DosAttack::new(
                    AttackKind::Fdos,
                    vec![NodeId(attacker)],
                    NodeId(victim),
                    0.8,
                );
                let scenario = AttackScenario::builder(NocConfig::mesh(rows, cols))
                    .attack(attack)
                    .build();
                let truth = GroundTruth::of_scenario(&scenario);
                let masks = direction_masks(&truth);
                let mut union = vec![0.0f32; n];
                for m in &masks {
                    for (u, &v) in union.iter_mut().zip(m) {
                        if v > 0.0 {
                            *u = 1.0;
                        }
                    }
                }
                assert_eq!(
                    union,
                    truth.victim_mask(),
                    "{rows}x{cols}: {attacker} -> {victim}"
                );
            }
        }
    }

    #[test]
    fn benign_truth_has_empty_masks() {
        let truth = GroundTruth::benign(4, 4);
        for m in direction_masks(&truth) {
            assert!(m.iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn mask_tensor_shape() {
        let truth = truth_single_attack();
        let t = direction_mask_tensor(&truth, Direction::East);
        assert_eq!(t.shape(), &[1, 4, 4]);
        assert_eq!(t.sum(), 3.0);
    }
}
