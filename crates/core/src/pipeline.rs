//! The end-to-end DL2Fence pipeline: detect → segment → fuse → localize.

use crate::detector::{DetectionResult, DosDetector};
use crate::fusion::{FusionResult, MultiFrameFusion};
use crate::input::sample_frames;
use crate::localizer::DosLocalizer;
use crate::tlm::TableLikeMethod;
use crate::vce::VictimComplementingEnhancement;
use dl2fence_telemetry::Recorder;
use noc_monitor::{DirectionalFrames, FeatureKind, FrameSampler, LabeledSample};
use noc_sim::{Network, NodeId, Topology};
use serde::{Deserialize, Serialize};
use tinycnn::serialize::ModelExport;
use tinycnn::TrainingReport;

/// Configuration of a [`Dl2Fence`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FenceConfig {
    /// Mesh rows of the protected NoC.
    pub rows: usize,
    /// Mesh columns.
    pub cols: usize,
    /// Feature used by the detector (the paper chooses VCO because it needs
    /// no normalization and less memory).
    pub detection_feature: FeatureKind,
    /// Feature used by the localizer (the paper chooses BOC for its clearer
    /// route profiles).
    pub localization_feature: FeatureKind,
    /// Whether the Victim Completing Enhancement stage is enabled.
    pub vce_enabled: bool,
    /// Binarization threshold used by Multi-Frame Fusion.
    pub fusion_threshold: f32,
    /// Detector training epochs.
    pub detector_epochs: usize,
    /// Localizer training epochs.
    pub localizer_epochs: usize,
    /// Master seed for model initialization and training shuffles.
    pub seed: u64,
}

impl FenceConfig {
    /// The paper's chosen configuration for a `rows × cols` mesh: VCO
    /// detection, BOC localization, VCE enabled.
    pub fn new(rows: usize, cols: usize) -> Self {
        FenceConfig {
            rows,
            cols,
            detection_feature: FeatureKind::Vco,
            localization_feature: FeatureKind::Boc,
            vce_enabled: true,
            fusion_threshold: 0.5,
            detector_epochs: 40,
            localizer_epochs: 30,
            seed: 0xDF,
        }
    }

    /// Uses the same feature for both tasks (the single-feature ablations of
    /// Tables 1 and 2).
    pub fn with_single_feature(mut self, kind: FeatureKind) -> Self {
        self.detection_feature = kind;
        self.localization_feature = kind;
        self
    }

    /// Enables or disables the VCE stage.
    pub fn with_vce(mut self, enabled: bool) -> Self {
        self.vce_enabled = enabled;
        self
    }

    /// Overrides the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the training epoch counts.
    pub fn with_epochs(mut self, detector: usize, localizer: usize) -> Self {
        self.detector_epochs = detector;
        self.localizer_epochs = localizer;
        self
    }
}

/// The result of analysing one monitoring window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FenceReport {
    /// Detector output.
    pub detection: DetectionResult,
    /// Whether the pipeline escalated to localization (equals
    /// `detection.detected`).
    pub detected: bool,
    /// Victims (the attacking route) after fusion and optional VCE; empty
    /// when no attack was detected.
    pub victims: Vec<NodeId>,
    /// Localized attackers; empty when no attack was detected.
    pub attackers: Vec<NodeId>,
    /// The fused frame, for inspection/visualization.
    pub fusion: Option<FusionResult>,
}

/// Training history of both models.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FenceTrainingReport {
    /// Detector training history.
    pub detector: TrainingReport,
    /// Localizer training history.
    pub localizer: TrainingReport,
}

/// A serializable snapshot of a trained [`Dl2Fence`]: the configuration plus
/// both f32 model exports. This is the unit a serving layer ships, versions
/// and hot-swaps — [`Dl2Fence::from_export`] rebuilds an instance that is
/// bit-identical to the exporter on every input.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FenceModelExport {
    /// The configuration the models were trained under.
    pub config: FenceConfig,
    /// Detector weights.
    pub detector: ModelExport,
    /// Localizer weights.
    pub localizer: ModelExport,
}

impl FenceModelExport {
    /// Serializes the export to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` if serialization fails.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses an export from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` if the JSON is malformed.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// The DL2Fence framework instance: a trained detector and localizer plus
/// the fusion, VCE and TLM post-processing stages.
pub struct Dl2Fence {
    config: FenceConfig,
    detector: DosDetector,
    localizer: DosLocalizer,
    fusion: MultiFrameFusion,
    vce: VictimComplementingEnhancement,
    tlm: TableLikeMethod,
    /// Stage-timing recorder; disabled (free) by default.
    telemetry: Recorder,
}

impl Dl2Fence {
    /// Creates an untrained framework instance from a configuration.
    pub fn new(config: FenceConfig) -> Self {
        Self::assemble(
            config,
            DosDetector::new(config.rows, config.cols, config.seed),
            DosLocalizer::new(config.rows, config.cols, config.seed.wrapping_add(7)),
        )
    }

    /// Wires the two models to the fusion, VCE and TLM stages of `config`'s
    /// mesh.
    fn assemble(config: FenceConfig, detector: DosDetector, localizer: DosLocalizer) -> Self {
        let topology = Topology::mesh(config.rows, config.cols);
        Dl2Fence {
            detector,
            localizer,
            fusion: MultiFrameFusion::new().with_threshold(config.fusion_threshold),
            vce: VictimComplementingEnhancement::new(topology),
            tlm: TableLikeMethod::new(topology),
            config,
            telemetry: Recorder::default(),
        }
    }

    /// Attaches a telemetry recorder: [`Self::analyze_frames`] times the
    /// detect/segment/fuse/localize stages into `stage.*` histograms,
    /// [`Self::train`] times both model fits, and the CNN models time every
    /// layer pass (`nn.detector.*` / `nn.localizer.*`). A disabled recorder
    /// (the default) keeps everything on the untimed fast path, so outputs
    /// are bit-identical with telemetry on or off.
    pub fn set_telemetry(&mut self, recorder: Recorder) {
        self.detector.set_telemetry(recorder.clone());
        self.localizer.set_telemetry(recorder.clone());
        self.telemetry = recorder;
    }

    /// The configuration this instance was built from.
    pub fn config(&self) -> &FenceConfig {
        &self.config
    }

    /// The detector model (e.g. to export weights).
    pub fn detector(&self) -> &DosDetector {
        &self.detector
    }

    /// The localizer model.
    pub fn localizer(&self) -> &DosLocalizer {
        &self.localizer
    }

    /// Exports the full trained pipeline (configuration + both f32 models)
    /// as one serializable artifact.
    pub fn export_model(&self) -> FenceModelExport {
        FenceModelExport {
            config: self.config,
            detector: self.detector.export(),
            localizer: self.localizer.export(),
        }
    }

    /// Rebuilds a pipeline from an exported artifact. The restored instance
    /// produces bit-identical reports to the exporter: the fusion/VCE/TLM
    /// stages are pure functions of the configuration, and the model exports
    /// round-trip weights losslessly.
    pub fn from_export(export: FenceModelExport) -> Self {
        let config = export.config;
        Self::assemble(
            config,
            DosDetector::from_export(config.rows, config.cols, export.detector),
            DosLocalizer::from_export(config.rows, config.cols, export.localizer),
        )
    }

    /// Trains both CNN models on a collected dataset.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or its frames do not match the configured
    /// mesh size.
    pub fn train(&mut self, samples: &[LabeledSample]) -> FenceTrainingReport {
        let rec = self.telemetry.clone();
        let detector = rec.time("train.detector", || {
            self.detector.train(
                samples,
                self.config.detection_feature,
                self.config.detector_epochs,
                self.config.seed,
            )
        });
        let localizer = rec.time("train.localizer", || {
            self.localizer.train(
                samples,
                self.config.localization_feature,
                self.config.localizer_epochs,
                self.config.seed.wrapping_add(1),
            )
        });
        FenceTrainingReport {
            detector,
            localizer,
        }
    }

    /// Analyses one pair of frame bundles (the detector sees
    /// `detection_frames`, the localizer `localization_frames`).
    pub fn analyze_frames(
        &mut self,
        detection_frames: &DirectionalFrames,
        localization_frames: &DirectionalFrames,
    ) -> FenceReport {
        let rec = self.telemetry.clone();
        let detection = rec.time("stage.detect", || self.detector.detect(detection_frames));
        self.report_for_detection(detection, localization_frames)
    }

    /// Runs the post-detection stages (segment → fuse → localize) for one
    /// window, or short-circuits when nothing was detected.
    ///
    /// This is the tail a serving layer runs after producing the
    /// [`DetectionResult`] itself — e.g. from a hot-swapped
    /// [`crate::QuantizedDetector`] — while keeping the f32 localization
    /// stack. [`Self::analyze_frames`] is `detect` + this.
    pub fn report_for_detection(
        &mut self,
        detection: DetectionResult,
        localization_frames: &DirectionalFrames,
    ) -> FenceReport {
        if !detection.detected {
            return FenceReport {
                detection,
                detected: false,
                victims: Vec::new(),
                attackers: Vec::new(),
                fusion: None,
            };
        }
        let rec = self.telemetry.clone();
        // Segment each directional frame (shared normalization) and fuse.
        let rows = localization_frames.rows();
        let cols = localization_frames.cols();
        let segmentations = rec.time("stage.segment", || {
            self.localizer.segment_bundle(localization_frames)
        });
        let fusion = rec.time("stage.fuse", || {
            self.fusion.fuse(&segmentations, rows, cols)
        });
        let (victims, attackers) = rec.time("stage.localize", || {
            let victims = if self.config.vce_enabled {
                self.vce.complete(&fusion)
            } else {
                fusion.victims.clone()
            };
            let attackers = self.tlm.localize(&fusion, &victims);
            (victims, attackers)
        });
        FenceReport {
            detection,
            detected: true,
            victims,
            attackers,
            fusion: Some(fusion),
        }
    }

    /// Analyses one labeled sample (convenience for evaluation harnesses).
    pub fn analyze(&mut self, sample: &LabeledSample) -> FenceReport {
        let det = sample_frames(sample, self.config.detection_feature);
        let loc = sample_frames(sample, self.config.localization_feature);
        self.analyze_frames(det, loc)
    }

    /// Detection frames per batched-inference chunk in
    /// [`Self::analyze_frames_batch`]. Keeps the stacked input tensor bounded
    /// (a chunk of an 8×8 mesh is ~64 KiB) while amortizing the per-layer
    /// dispatch over many windows.
    pub const DETECT_BATCH: usize = 64;

    /// Analyses a set of labeled samples with **batched** detector
    /// inference: [`Self::analyze_frames_batch`] over each sample's
    /// detection- and localization-feature bundles.
    ///
    /// Reports are bit-identical to calling [`Self::analyze`] per sample —
    /// every layer of the CNN treats batch elements independently — so
    /// evaluation harnesses can batch freely without perturbing golden
    /// outputs.
    pub fn analyze_batch(&mut self, samples: &[LabeledSample]) -> Vec<FenceReport> {
        let (det, loc) = (
            self.config.detection_feature,
            self.config.localization_feature,
        );
        let windows: Vec<_> = samples
            .iter()
            .map(|s| (sample_frames(s, det), sample_frames(s, loc)))
            .collect();
        self.analyze_frames_batch(&windows)
    }

    /// Analyses a set of already-assembled monitoring windows with batched
    /// detector inference — the serving-side analogue of
    /// [`Self::analyze_batch`], which takes [`LabeledSample`]s instead. Each
    /// window pairs the detection-feature bundle with the
    /// localization-feature bundle; detection frames are stacked in chunks of
    /// [`Self::DETECT_BATCH`] and classified in one model invocation per
    /// chunk, and only flagged windows run the segment → fuse → localize
    /// tail. Reports are bit-identical to calling [`Self::analyze_frames`]
    /// per window, and an empty slice (an idle flush tick) returns an empty
    /// vector without touching the models.
    pub fn analyze_frames_batch(
        &mut self,
        windows: &[(&DirectionalFrames, &DirectionalFrames)],
    ) -> Vec<FenceReport> {
        let rec = self.telemetry.clone();
        let mut reports = Vec::with_capacity(windows.len());
        for chunk in windows.chunks(Self::DETECT_BATCH) {
            let bundles: Vec<&DirectionalFrames> = chunk.iter().map(|(det, _)| *det).collect();
            let detections = rec.time("stage.detect", || self.detector.detect_batch(&bundles));
            for ((_, loc), detection) in chunk.iter().zip(detections) {
                reports.push(self.report_for_detection(detection, loc));
            }
        }
        reports
    }

    /// Samples the live network and analyses the current monitoring window.
    /// The caller is responsible for resetting BOC counters between windows.
    pub fn monitor(&mut self, network: &Network) -> FenceReport {
        let (vco, boc) = FrameSampler::sample_both(network);
        let frames = |kind| match kind {
            FeatureKind::Vco => &vco,
            FeatureKind::Boc => &boc,
        };
        self.analyze_frames(
            frames(self.config.detection_feature),
            frames(self.config.localization_feature),
        )
    }
}

impl std::fmt::Debug for Dl2Fence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Dl2Fence({}x{}, detect on {}, localize on {}, VCE {})",
            self.config.rows,
            self.config.cols,
            self.config.detection_feature,
            self.config.localization_feature,
            if self.config.vce_enabled { "on" } else { "off" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_monitor::dataset::{CollectionConfig, DatasetGenerator, ScenarioSpec};
    use noc_sim::NocConfig;
    use noc_traffic::{BenignWorkload, SyntheticPattern};

    fn collect_samples() -> Vec<LabeledSample> {
        let config = CollectionConfig {
            noc: NocConfig::mesh(8, 8),
            warmup_cycles: 150,
            sample_period: 400,
            samples_per_run: 3,
            seed: 13,
        };
        let generator = DatasetGenerator::new(config);
        let workload = BenignWorkload::Synthetic(SyntheticPattern::UniformRandom, 0.015);
        let specs = vec![
            ScenarioSpec::attacked(workload, vec![NodeId(7)], NodeId(0), 0.9),
            ScenarioSpec::attacked(workload, vec![NodeId(63)], NodeId(56), 0.9),
            ScenarioSpec::attacked(workload, vec![NodeId(56)], NodeId(0), 0.9),
            ScenarioSpec::benign(workload),
            ScenarioSpec::benign(workload),
        ];
        generator.collect(&specs)
    }

    #[test]
    fn untrained_pipeline_produces_a_report() {
        let samples = collect_samples();
        let mut fence = Dl2Fence::new(FenceConfig::new(8, 8).with_epochs(1, 1));
        let report = fence.analyze(&samples[0]);
        // Untrained output is arbitrary but must be structurally valid.
        assert!((0.0..=1.0).contains(&report.detection.probability));
        if !report.detected {
            assert!(report.victims.is_empty());
            assert!(report.attackers.is_empty());
        }
    }

    #[test]
    fn trained_pipeline_detects_and_localizes() {
        let samples = collect_samples();
        let mut fence = Dl2Fence::new(FenceConfig::new(8, 8).with_epochs(40, 30).with_seed(2));
        fence.train(&samples);

        // Evaluate on the training samples (a smoke check of the full loop;
        // generalization is measured by the evaluation module / benches).
        let mut detected_attacks = 0;
        let mut total_attacks = 0;
        for s in &samples {
            let report = fence.analyze(s);
            if s.truth.under_attack {
                total_attacks += 1;
                if report.detected {
                    detected_attacks += 1;
                    assert!(
                        !report.victims.is_empty(),
                        "a detected attack must localize at least one victim"
                    );
                }
            }
        }
        assert!(
            detected_attacks * 2 >= total_attacks,
            "too few attacks detected: {detected_attacks}/{total_attacks}"
        );
    }

    #[test]
    fn telemetry_records_stages_without_changing_outputs() {
        use dl2fence_telemetry::{MemorySink, Telemetry};
        use std::sync::Arc;
        let samples = collect_samples();
        let config = FenceConfig::new(8, 8).with_epochs(4, 3).with_seed(2);

        let mut plain = Dl2Fence::new(config);
        plain.train(&samples);
        let baseline: Vec<FenceReport> = samples.iter().map(|s| plain.analyze(s)).collect();

        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        let rec = tel.recorder();
        let mut timed = Dl2Fence::new(config);
        timed.set_telemetry(rec.clone());
        timed.train(&samples);
        let reports: Vec<FenceReport> = samples.iter().map(|s| timed.analyze(s)).collect();
        rec.flush();

        assert_eq!(baseline, reports, "telemetry must not perturb the pipeline");
        let names: Vec<String> = sink.take().iter().map(|e| e.name().to_string()).collect();
        for expected in ["stage.detect", "train.detector", "train.localizer"] {
            assert!(
                names.iter().any(|n| n == expected),
                "missing {expected} in {names:?}"
            );
        }
        assert!(
            names.iter().any(|n| n.starts_with("nn.detector.fwd.")),
            "per-layer detector timings missing"
        );
    }

    #[test]
    fn analyze_batch_is_bit_identical_to_per_sample_analyze() {
        let samples = collect_samples();
        let mut fence = Dl2Fence::new(FenceConfig::new(8, 8).with_epochs(6, 4).with_seed(2));
        fence.train(&samples);
        let batched = fence.analyze_batch(&samples);
        assert_eq!(batched.len(), samples.len());
        for (sample, batched_report) in samples.iter().zip(&batched) {
            let single = fence.analyze(sample);
            assert_eq!(
                single.detection.probability.to_bits(),
                batched_report.detection.probability.to_bits(),
                "batched detection probability drifted"
            );
            assert_eq!(&single, batched_report, "batched report diverged");
        }
    }

    #[test]
    fn empty_and_singleton_batches_are_total() {
        let samples = collect_samples();
        let mut fence = Dl2Fence::new(FenceConfig::new(8, 8).with_epochs(1, 1));
        // Empty flush tick: no panic, no output, models untouched.
        assert!(fence.analyze_batch(&[]).is_empty());
        assert!(fence.analyze_frames_batch(&[]).is_empty());
        // Lone straggler bundle: bit-identical to the per-sample path.
        let single = fence.analyze(&samples[0]);
        let batched = fence.analyze_batch(&samples[..1]);
        assert_eq!(batched.len(), 1);
        assert_eq!(single, batched[0]);
    }

    #[test]
    fn analyze_frames_batch_matches_per_window_analyze_frames() {
        let samples = collect_samples();
        let mut fence = Dl2Fence::new(FenceConfig::new(8, 8).with_epochs(6, 4).with_seed(2));
        fence.train(&samples);
        let windows: Vec<(&DirectionalFrames, &DirectionalFrames)> = samples
            .iter()
            .map(|s| {
                (
                    sample_frames(s, fence.config().detection_feature),
                    sample_frames(s, fence.config().localization_feature),
                )
            })
            .collect();
        let batched = fence.analyze_frames_batch(&windows);
        assert_eq!(batched.len(), windows.len());
        for ((det, loc), batched_report) in windows.iter().zip(&batched) {
            let single = fence.analyze_frames(det, loc);
            assert_eq!(
                single.detection.probability.to_bits(),
                batched_report.detection.probability.to_bits(),
                "frame-batched detection probability drifted"
            );
            assert_eq!(&single, batched_report, "frame-batched report diverged");
        }
    }

    #[test]
    fn model_export_round_trips_bit_identically() {
        let samples = collect_samples();
        let mut fence = Dl2Fence::new(FenceConfig::new(8, 8).with_epochs(6, 4).with_seed(5));
        fence.train(&samples);

        let json = fence.export_model().to_json().unwrap();
        let restored_export = FenceModelExport::from_json(&json).unwrap();
        assert_eq!(restored_export.config, *fence.config());
        let mut restored = Dl2Fence::from_export(restored_export);

        for s in &samples {
            let a = fence.analyze(s);
            let b = restored.analyze(s);
            assert_eq!(
                a.detection.probability.to_bits(),
                b.detection.probability.to_bits(),
                "restored pipeline's probability drifted"
            );
            assert_eq!(a, b, "restored pipeline diverged from the exporter");
        }
    }

    #[test]
    fn config_builders_apply() {
        let cfg = FenceConfig::new(16, 16)
            .with_single_feature(FeatureKind::Boc)
            .with_vce(false)
            .with_seed(9)
            .with_epochs(5, 6);
        assert_eq!(cfg.detection_feature, FeatureKind::Boc);
        assert_eq!(cfg.localization_feature, FeatureKind::Boc);
        assert!(!cfg.vce_enabled);
        assert_eq!(cfg.detector_epochs, 5);
        assert_eq!(cfg.localizer_epochs, 6);
    }

    #[test]
    fn monitor_analyses_a_live_network() {
        use noc_traffic::{AttackKind, AttackScenario, DosAttack};
        let mut scenario = AttackScenario::builder(NocConfig::mesh(8, 8))
            .benign(SyntheticPattern::UniformRandom, 0.01)
            .attack(DosAttack::new(
                AttackKind::Fdos,
                vec![NodeId(7)],
                NodeId(0),
                0.9,
            ))
            .seed(3)
            .build();
        scenario.run(1_000);
        let mut fence = Dl2Fence::new(FenceConfig::new(8, 8).with_epochs(1, 1));
        let report = fence.monitor(scenario.network());
        assert!((0.0..=1.0).contains(&report.detection.probability));
    }
}
