//! The DoS profile localizer: a CNN segmentation model over single
//! directional BOC feature frames.

use crate::input::{direction_masks, frame_to_tensor, frames_to_localizer_inputs, sample_frames};
use noc_monitor::{DirectionalFrames, FeatureFrame, FeatureKind, LabeledSample};
use noc_sim::Direction;
use tinycnn::prelude::*;
use tinycnn::serialize::ModelExport;

/// The paper's DoS profile localizer: a fully convolutional segmentation
/// model (`Conv2d(1→8) → ReLU → Conv2d(8→8) → ReLU → Conv2d(8→1) → Sigmoid`,
/// all 3×3 with same-padding) that maps one directional feature frame to a
/// per-pixel probability that the corresponding router input port lies on a
/// flooding route.
///
/// Only the frames the detector flagged as abnormal need to be segmented
/// ("E ‖ N ‖ W ‖ S" in the paper's Figure 2), which keeps inference cost
/// low; segmenting a quiet frame simply yields an empty mask.
///
/// # Examples
///
/// ```
/// use dl2fence::DosLocalizer;
///
/// let localizer = DosLocalizer::new(8, 8, 7);
/// assert!(localizer.parameter_count() > 0);
/// ```
pub struct DosLocalizer {
    model: Sequential,
    rows: usize,
    cols: usize,
    kernels: usize,
    conv_layers: usize,
}

impl DosLocalizer {
    /// Number of convolution kernels per hidden layer in the paper's model.
    pub const DEFAULT_KERNELS: usize = 8;
    /// Number of convolution layers in the paper's model (two hidden plus the
    /// output projection).
    pub const DEFAULT_CONV_LAYERS: usize = 3;

    /// Builds an untrained localizer for a `rows × cols` mesh.
    pub fn new(rows: usize, cols: usize, seed: u64) -> Self {
        Self::with_architecture(
            rows,
            cols,
            Self::DEFAULT_KERNELS,
            Self::DEFAULT_CONV_LAYERS,
            seed,
        )
    }

    /// Builds a localizer with a custom number of kernels and convolution
    /// layers (used by the depth ablation; the paper notes that extra layers
    /// improve dice accuracy but inflate hardware overhead).
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is zero or `conv_layers < 2`.
    pub fn with_architecture(
        rows: usize,
        cols: usize,
        kernels: usize,
        conv_layers: usize,
        seed: u64,
    ) -> Self {
        assert!(kernels > 0, "at least one kernel is required");
        assert!(
            conv_layers >= 2,
            "the localizer needs at least two conv layers"
        );
        let mut model = Sequential::new()
            .push(Conv2d::new(1, kernels, 3, Padding::Same, seed))
            .push(Relu::new());
        for i in 0..conv_layers.saturating_sub(2) {
            model = model
                .push(Conv2d::new(
                    kernels,
                    kernels,
                    3,
                    Padding::Same,
                    seed.wrapping_add(1 + i as u64),
                ))
                .push(Relu::new());
        }
        model = model
            .push(Conv2d::new(
                kernels,
                1,
                3,
                Padding::Same,
                seed.wrapping_add(100),
            ))
            .push(Sigmoid::new());
        DosLocalizer {
            model,
            rows,
            cols,
            kernels,
            conv_layers,
        }
    }

    /// Rebuilds a localizer around previously exported weights.
    pub fn from_export(rows: usize, cols: usize, export: ModelExport) -> Self {
        DosLocalizer {
            model: export.into_model(),
            rows,
            cols,
            kernels: Self::DEFAULT_KERNELS,
            conv_layers: Self::DEFAULT_CONV_LAYERS,
        }
    }

    /// Number of convolution kernels per hidden layer.
    pub fn kernels(&self) -> usize {
        self.kernels
    }

    /// Number of convolution layers.
    pub fn conv_layers(&self) -> usize {
        self.conv_layers
    }

    /// Attaches a telemetry recorder: the model times every layer's forward
    /// and backward pass into `nn.localizer.*` histograms.
    pub fn set_telemetry(&mut self, recorder: dl2fence_telemetry::Recorder) {
        self.model.set_telemetry(recorder, "nn.localizer");
    }

    /// Total trainable parameters (used by the hardware model).
    pub fn parameter_count(&self) -> usize {
        self.model.param_count()
    }

    /// Builds the segmentation training dataset: one `(frame, mask)` pair per
    /// *attack* sample per cardinal direction, using the requested feature
    /// (the paper uses normalized BOC).
    ///
    /// Only attack samples are included because, at inference time, the
    /// localizer only ever sees frames the detector has already flagged as
    /// abnormal. The off-route directions of an attack sample still
    /// contribute (near-)empty masks, teaching the model to stay silent on
    /// benign congestion. All four frames of one sample share a single
    /// normalization scale (see [`frames_to_localizer_inputs`]).
    pub fn build_dataset(samples: &[LabeledSample], kind: FeatureKind) -> Dataset {
        let mut ds = Dataset::new();
        for s in samples {
            if !s.truth.under_attack {
                continue;
            }
            let frames = sample_frames(s, kind);
            let inputs = frames_to_localizer_inputs(frames);
            let masks = direction_masks(&s.truth);
            for dir in Direction::CARDINAL {
                let target =
                    Tensor::from_vec(masks[dir.index()].clone(), &[1, s.truth.rows, s.truth.cols]);
                ds.push(inputs[dir.index()].clone(), target);
            }
        }
        ds
    }

    /// Trains the localizer on `samples` with the Dice loss the paper uses
    /// as feedback.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or the frame shape does not match.
    pub fn train(
        &mut self,
        samples: &[LabeledSample],
        kind: FeatureKind,
        epochs: usize,
        seed: u64,
    ) -> TrainingReport {
        assert!(!samples.is_empty(), "cannot train on an empty sample set");
        assert_eq!(samples[0].vco.rows(), self.rows, "mesh rows mismatch");
        assert_eq!(samples[0].vco.cols(), self.cols, "mesh cols mismatch");
        let dataset = Self::build_dataset(samples, kind);
        assert!(
            !dataset.is_empty(),
            "the localizer needs at least one attack sample to train on"
        );
        let mut trainer = Trainer::new(
            Adam::new(0.01),
            DiceLoss::new(),
            TrainingConfig {
                epochs,
                batch_size: 4,
                shuffle_seed: seed,
                accuracy_threshold: 0.5,
            },
        );
        trainer.fit(&mut self.model, &dataset)
    }

    /// Segments one directional frame in isolation (normalizing the frame on
    /// its own), returning the per-pixel route probability map as a
    /// `rows × cols` buffer. Prefer [`DosLocalizer::segment_bundle`] when the
    /// whole four-direction bundle is available. Runs on the inference-only
    /// forward (no gradient caches).
    pub fn segment(&mut self, frame: &FeatureFrame) -> Vec<f32> {
        let input = frame_to_tensor(frame).into_shape(&[1, 1, frame.rows(), frame.cols()]);
        let output = self.model.predict(&input);
        output.into_vec()
    }

    /// Segments all four directional frames of a bundle using a shared
    /// normalization scale (matching how the model was trained). Returns the
    /// per-direction probability maps in E, N, W, S order.
    ///
    /// The four frames run as **one** batched `[4, 1, h, w]` model
    /// invocation; per-direction maps are bit-identical to segmenting each
    /// frame separately.
    pub fn segment_bundle(&mut self, frames: &DirectionalFrames) -> [Vec<f32>; 4] {
        let inputs = frames_to_localizer_inputs(frames);
        let (h, w) = (frames.rows(), frames.cols());
        let batched = Tensor::from_vec(inputs.map(Tensor::into_vec).concat(), &[4, 1, h, w]);
        let output = self.model.predict(&batched);
        let data = output.data();
        std::array::from_fn(|d| data[d * h * w..][..h * w].to_vec())
    }

    /// The hard Dice coefficient between a segmentation of `frame` and a
    /// ground-truth mask, thresholding the prediction at 0.5.
    pub fn dice_against(&mut self, frame: &FeatureFrame, mask: &[f32]) -> f64 {
        let seg = self.segment(frame);
        let pred = Tensor::from_vec(seg, &[frame.rows() * frame.cols()]);
        let truth = Tensor::from_vec(mask.to_vec(), &[mask.len()]);
        dice_coefficient(&pred, &truth, 0.5)
    }

    /// Exports the trained weights for storage.
    pub fn export(&self) -> ModelExport {
        self.model.export()
    }
}

impl std::fmt::Debug for DosLocalizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DosLocalizer({}x{}, {} kernels, {} conv layers, {} params)",
            self.rows,
            self.cols,
            self.kernels,
            self.conv_layers,
            self.parameter_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_monitor::dataset::{CollectionConfig, DatasetGenerator, ScenarioSpec};
    use noc_sim::{NocConfig, NodeId};
    use noc_traffic::{BenignWorkload, SyntheticPattern};

    fn samples_with_row_attack() -> Vec<LabeledSample> {
        let config = CollectionConfig {
            noc: NocConfig::mesh(8, 8),
            warmup_cycles: 150,
            sample_period: 400,
            samples_per_run: 3,
            seed: 9,
        };
        let generator = DatasetGenerator::new(config);
        let workload = BenignWorkload::Synthetic(SyntheticPattern::UniformRandom, 0.01);
        let specs = vec![
            ScenarioSpec::attacked(workload, vec![NodeId(7)], NodeId(0), 0.9),
            ScenarioSpec::attacked(workload, vec![NodeId(56)], NodeId(63), 0.9),
            ScenarioSpec::benign(workload),
        ];
        generator.collect(&specs)
    }

    #[test]
    fn segmentation_output_covers_the_mesh() {
        let samples = samples_with_row_attack();
        let mut loc = DosLocalizer::new(8, 8, 3);
        let seg = loc.segment(samples[0].boc.frame(Direction::East));
        assert_eq!(seg.len(), 64);
        assert!(seg.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn dataset_has_four_entries_per_attack_sample() {
        let samples = samples_with_row_attack();
        let attack_samples = samples.iter().filter(|s| s.truth.under_attack).count();
        let ds = DosLocalizer::build_dataset(&samples, FeatureKind::Boc);
        assert_eq!(ds.len(), attack_samples * 4);
    }

    #[test]
    fn training_improves_dice_on_attack_route() {
        let samples = samples_with_row_attack();
        let mut loc = DosLocalizer::new(8, 8, 11);
        loc.train(&samples, FeatureKind::Boc, 60, 1);
        // Evaluate on the first attack sample (route of 7 -> 0 along row 0,
        // arriving on East input ports).
        let segs = loc.segment_bundle(&samples[0].boc);
        let mask = direction_masks(&samples[0].truth)[Direction::East.index()].clone();
        let pred = Tensor::from_vec(segs[Direction::East.index()].clone(), &[64]);
        let truth = Tensor::from_vec(mask, &[64]);
        let dice = dice_coefficient(&pred, &truth, 0.5);
        assert!(dice > 0.5, "trained dice too low: {dice}");
    }

    #[test]
    fn batched_bundle_segmentation_is_bitwise_identical_to_per_frame() {
        let samples = samples_with_row_attack();
        let mut loc = DosLocalizer::new(8, 8, 6);
        let frames = &samples[0].boc;
        let batched = loc.segment_bundle(frames);
        // Reproduce the pre-batching behaviour: one [1,1,h,w] forward per
        // direction over the same shared-scale inputs.
        let inputs = crate::input::frames_to_localizer_inputs(frames);
        for (i, input) in inputs.iter().enumerate() {
            let single = loc
                .model
                .predict(&input.reshape(&[1, 1, frames.rows(), frames.cols()]));
            assert_eq!(batched[i].len(), single.data().len());
            for (a, b) in batched[i].iter().zip(single.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "direction {i} drifted");
            }
        }
    }

    #[test]
    fn depth_ablation_builds_deeper_models() {
        let shallow = DosLocalizer::with_architecture(8, 8, 8, 2, 0);
        let deep = DosLocalizer::with_architecture(8, 8, 8, 4, 0);
        assert!(deep.parameter_count() > shallow.parameter_count());
        assert_eq!(deep.conv_layers(), 4);
    }

    #[test]
    fn export_round_trip_preserves_segmentation() {
        let samples = samples_with_row_attack();
        let mut loc = DosLocalizer::new(8, 8, 5);
        let frame = samples[0].boc.frame(Direction::East);
        let before = loc.segment(frame);
        let mut restored = DosLocalizer::from_export(8, 8, loc.export());
        let after = restored.segment(frame);
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "at least two conv layers")]
    fn single_layer_localizer_panics() {
        DosLocalizer::with_architecture(8, 8, 8, 1, 0);
    }
}
