//! The DoS detector: a lightweight CNN classification model over the four
//! directional VCO feature frames.

use crate::input::{frames_to_detector_input, sample_frames};
use noc_monitor::{DirectionalFrames, FeatureKind, LabeledSample};
use serde::{Deserialize, Serialize};
use tinycnn::prelude::*;
use tinycnn::serialize::ModelExport;

/// The outcome of running the detector on one frame bundle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionResult {
    /// The model's attack probability in `[0, 1]`.
    pub probability: f32,
    /// `probability > threshold`.
    pub detected: bool,
}

/// The paper's DoS detector: `Conv2d(4→8, 3×3) → ReLU → MaxPool2d(2) →
/// Flatten → Dense → Sigmoid`, consuming the four directional frames as a
/// 4-channel image.
///
/// # Examples
///
/// ```
/// use dl2fence::DosDetector;
///
/// let detector = DosDetector::new(8, 8, 42);
/// assert!(detector.parameter_count() > 0);
/// ```
pub struct DosDetector {
    model: Sequential,
    rows: usize,
    cols: usize,
    threshold: f32,
}

impl DosDetector {
    /// Number of convolution kernels in the paper's minimal model.
    pub const DEFAULT_KERNELS: usize = 8;

    /// Builds an untrained detector for a `rows × cols` mesh.
    ///
    /// # Panics
    ///
    /// Panics if the mesh is smaller than 4×4 (the conv + pool stack needs at
    /// least a 4-pixel spatial extent).
    pub fn new(rows: usize, cols: usize, seed: u64) -> Self {
        assert!(rows >= 4 && cols >= 4, "mesh must be at least 4x4");
        let kernels = Self::DEFAULT_KERNELS;
        let pooled_h = (rows - 2) / 2;
        let pooled_w = (cols - 2) / 2;
        let model = Sequential::new()
            .push(Conv2d::new(4, kernels, 3, Padding::Valid, seed))
            .push(Relu::new())
            .push(MaxPool2d::new(2))
            .push(Flatten::new())
            .push(Dense::new(
                kernels * pooled_h * pooled_w,
                1,
                seed.wrapping_add(1),
            ))
            .push(Sigmoid::new());
        DosDetector {
            model,
            rows,
            cols,
            threshold: 0.5,
        }
    }

    /// Rebuilds a detector around previously exported weights.
    pub fn from_export(rows: usize, cols: usize, export: ModelExport) -> Self {
        DosDetector {
            model: export.into_model(),
            rows,
            cols,
            threshold: 0.5,
        }
    }

    /// The decision threshold (default 0.5).
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Number of convolution kernels.
    pub fn kernels(&self) -> usize {
        Self::DEFAULT_KERNELS
    }

    /// Attaches a telemetry recorder: the model times every layer's forward
    /// and backward pass into `nn.detector.*` histograms.
    pub fn set_telemetry(&mut self, recorder: dl2fence_telemetry::Recorder) {
        self.model.set_telemetry(recorder, "nn.detector");
    }

    /// Total trainable parameters of the model (used by the hardware model).
    pub fn parameter_count(&self) -> usize {
        self.model.param_count()
    }

    /// Builds the training dataset from labeled samples using the requested
    /// feature (the paper uses VCO for detection).
    pub fn build_dataset(samples: &[LabeledSample], kind: FeatureKind) -> Dataset {
        samples
            .iter()
            .map(|s| {
                (
                    frames_to_detector_input(sample_frames(s, kind)),
                    Tensor::from_vec(vec![s.truth.detection_label()], &[1]),
                )
            })
            .collect()
    }

    /// Trains the detector on `samples` using the given feature.
    ///
    /// Returns the training report (per-epoch loss/accuracy history).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or the frame shape does not match the
    /// detector's mesh size.
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
        let mut trainer = Trainer::new(
            Adam::new(0.01),
            BinaryCrossEntropy::new(),
            TrainingConfig {
                epochs,
                batch_size: 8,
                shuffle_seed: seed,
                accuracy_threshold: self.threshold,
            },
        );
        trainer.fit(&mut self.model, &dataset)
    }

    /// Runs the detector on one frame bundle.
    ///
    /// Uses the inference-only forward ([`Sequential::predict`]): no layer
    /// caches its input, so runtime monitoring does not pay training-path
    /// allocations.
    pub fn detect(&mut self, frames: &DirectionalFrames) -> DetectionResult {
        self.detect_batch(&[frames])[0]
    }

    /// Runs the detector on a whole batch of frame bundles with **one**
    /// model invocation: the bundles are stacked into a `[n, 4, h, w]`
    /// input and pushed through the batched GEMM kernels. Per-bundle results
    /// are bit-identical to calling [`DosDetector::detect`] one bundle at a
    /// time. An empty batch (the shape of an idle flush tick in a serving
    /// loop) is a no-op returning no results.
    ///
    /// # Panics
    ///
    /// Panics if the frame shapes disagree.
    pub fn detect_batch(&mut self, bundles: &[&DirectionalFrames]) -> Vec<DetectionResult> {
        if bundles.is_empty() {
            return Vec::new();
        }
        let inputs: Vec<Tensor> = bundles
            .iter()
            .map(|b| frames_to_detector_input(b))
            .collect();
        let input_refs: Vec<&Tensor> = inputs.iter().collect();
        let batched = Tensor::stack(&input_refs);
        let output = self.model.predict(&batched);
        output
            .data()
            .iter()
            .map(|&probability| DetectionResult {
                probability,
                detected: probability > self.threshold,
            })
            .collect()
    }

    /// Exports the trained weights for storage.
    pub fn export(&self) -> ModelExport {
        self.model.export()
    }
}

impl std::fmt::Debug for DosDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DosDetector({}x{}, {} kernels, {} params)",
            self.rows,
            self.cols,
            Self::DEFAULT_KERNELS,
            self.parameter_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_monitor::dataset::{specs_for_benchmark, CollectionConfig, DatasetGenerator};
    use noc_sim::NocConfig;
    use noc_traffic::{BenignWorkload, SyntheticPattern};

    fn small_samples() -> Vec<LabeledSample> {
        let config = CollectionConfig {
            noc: NocConfig::mesh(8, 8),
            warmup_cycles: 150,
            sample_period: 300,
            samples_per_run: 2,
            seed: 5,
        };
        let generator = DatasetGenerator::new(config);
        let workload = BenignWorkload::Synthetic(SyntheticPattern::UniformRandom, 0.02);
        generator.collect(&specs_for_benchmark(workload, 8, 8, 4, 4, 0.8))
    }

    #[test]
    fn untrained_detector_outputs_probability() {
        let samples = small_samples();
        let mut detector = DosDetector::new(8, 8, 1);
        let r = detector.detect(&samples[0].vco);
        assert!((0.0..=1.0).contains(&r.probability));
    }

    #[test]
    fn training_separates_attack_from_benign() {
        let samples = small_samples();
        let mut detector = DosDetector::new(8, 8, 7);
        let report = detector.train(&samples, FeatureKind::Vco, 40, 3);
        assert!(
            report.final_accuracy().unwrap() >= 0.75,
            "training accuracy too low: {:?}",
            report.final_accuracy()
        );
        // The mean probability over attack samples must exceed the mean over
        // benign samples.
        let mut attack_p = 0.0;
        let mut attack_n = 0;
        let mut benign_p = 0.0;
        let mut benign_n = 0;
        for s in &samples {
            let p = detector.detect(&s.vco).probability;
            if s.truth.under_attack {
                attack_p += p;
                attack_n += 1;
            } else {
                benign_p += p;
                benign_n += 1;
            }
        }
        assert!(attack_p / attack_n as f32 > benign_p / benign_n as f32);
    }

    #[test]
    fn dataset_has_one_entry_per_sample() {
        let samples = small_samples();
        let ds = DosDetector::build_dataset(&samples, FeatureKind::Vco);
        assert_eq!(ds.len(), samples.len());
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let d = DosDetector::new(16, 16, 0);
        // conv: 8*4*3*3 + 8 ; dense: 8*7*7 * 1 + 1
        assert_eq!(d.parameter_count(), 8 * 4 * 9 + 8 + 8 * 7 * 7 + 1);
    }

    #[test]
    fn export_round_trip_preserves_behavior() {
        let samples = small_samples();
        let mut detector = DosDetector::new(8, 8, 2);
        let before = detector.detect(&samples[0].vco).probability;
        let export = detector.export();
        let mut restored = DosDetector::from_export(8, 8, export);
        let after = restored.detect(&samples[0].vco).probability;
        assert!((before - after).abs() < 1e-6);
    }

    #[test]
    fn batched_detection_is_bitwise_identical_to_per_sample() {
        let samples = small_samples();
        let mut detector = DosDetector::new(8, 8, 4);
        let bundles: Vec<&DirectionalFrames> = samples.iter().map(|s| &s.vco).collect();
        let batched = detector.detect_batch(&bundles);
        assert_eq!(batched.len(), samples.len());
        for (s, batch_result) in samples.iter().zip(&batched) {
            let single = detector.detect(&s.vco);
            assert_eq!(
                single.probability.to_bits(),
                batch_result.probability.to_bits(),
                "batched probability drifted from per-sample inference"
            );
            assert_eq!(single.detected, batch_result.detected);
        }
    }

    #[test]
    #[should_panic(expected = "at least 4x4")]
    fn tiny_mesh_panics() {
        DosDetector::new(2, 2, 0);
    }
}
