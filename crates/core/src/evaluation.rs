//! Evaluation of detection and localization quality — the metrics reported
//! in Tables 1–3 of the paper (accuracy, precision, recall, F1 for both
//! tasks, per benchmark and averaged).

use crate::pipeline::Dl2Fence;
use noc_monitor::LabeledSample;
use noc_sim::NodeId;
use serde::{Deserialize, Serialize};
use tinycnn::BinaryConfusion;

/// Detection and localization confusion matrices for one benchmark.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkMetrics {
    /// Benchmark name (e.g. "Uniform Random", "Blackscholes").
    pub benchmark: String,
    /// Sample-level detection confusion (one observation per monitoring
    /// window).
    pub detection: BinaryConfusion,
    /// Node-level localization confusion, accumulated over the attack
    /// windows only (benign windows have no localization task).
    pub localization: BinaryConfusion,
    /// Number of samples evaluated.
    pub samples: usize,
}

impl BenchmarkMetrics {
    /// Creates an empty metrics block for `benchmark`.
    pub fn new(benchmark: impl Into<String>) -> Self {
        BenchmarkMetrics {
            benchmark: benchmark.into(),
            ..Default::default()
        }
    }

    /// One formatted table row: `name  D:acc/prec/rec/f1  L:acc/prec/rec/f1`.
    pub fn table_row(&self) -> String {
        format!(
            "{:<16} | D: acc {:.3} prec {:.3} rec {:.3} f1 {:.3} | L: acc {:.3} prec {:.3} rec {:.3} f1 {:.3}",
            self.benchmark,
            self.detection.accuracy(),
            self.detection.precision(),
            self.detection.recall(),
            self.detection.f1(),
            self.localization.accuracy(),
            self.localization.precision(),
            self.localization.recall(),
            self.localization.f1(),
        )
    }
}

/// The full evaluation report: per-benchmark metrics plus aggregates.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EvaluationReport {
    /// Metrics per benchmark, in first-seen order.
    pub benchmarks: Vec<BenchmarkMetrics>,
}

impl EvaluationReport {
    /// The metrics of one benchmark, if present.
    pub fn benchmark(&self, name: &str) -> Option<&BenchmarkMetrics> {
        self.benchmarks.iter().find(|b| b.benchmark == name)
    }

    /// Detection confusion aggregated over all benchmarks.
    pub fn overall_detection(&self) -> BinaryConfusion {
        let mut c = BinaryConfusion::new();
        for b in &self.benchmarks {
            c.merge(&b.detection);
        }
        c
    }

    /// Localization confusion aggregated over all benchmarks.
    pub fn overall_localization(&self) -> BinaryConfusion {
        let mut c = BinaryConfusion::new();
        for b in &self.benchmarks {
            c.merge(&b.localization);
        }
        c
    }

    /// Renders the report as the per-benchmark table layout of the paper's
    /// Tables 1–3 (one row per benchmark plus an average row).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for b in &self.benchmarks {
            out.push_str(&b.table_row());
            out.push('\n');
        }
        let d = self.overall_detection();
        let l = self.overall_localization();
        out.push_str(&format!(
            "{:<16} | D: acc {:.3} prec {:.3} rec {:.3} f1 {:.3} | L: acc {:.3} prec {:.3} rec {:.3} f1 {:.3}\n",
            "Average",
            d.accuracy(),
            d.precision(),
            d.recall(),
            d.f1(),
            l.accuracy(),
            l.precision(),
            l.recall(),
            l.f1(),
        ));
        out
    }
}

/// Records one analysed sample into the localization confusion: each node of
/// the mesh is one observation (predicted victim vs ground-truth victim).
fn record_localization(
    confusion: &mut BinaryConfusion,
    predicted: &[NodeId],
    truth: &[NodeId],
    node_count: usize,
) {
    for id in 0..node_count {
        let node = NodeId(id);
        confusion.record(predicted.contains(&node), truth.contains(&node));
    }
}

/// Evaluates a trained [`Dl2Fence`] instance on a set of labeled samples,
/// grouping the metrics by benchmark.
///
/// Detector inference runs batched ([`Dl2Fence::analyze_batch`]), which is
/// bit-identical to per-sample analysis, so reports match the per-sample
/// path byte for byte.
pub fn evaluate(fence: &mut Dl2Fence, samples: &[LabeledSample]) -> EvaluationReport {
    let mut report = EvaluationReport::default();
    let analysed_reports = fence.analyze_batch(samples);
    for (sample, analysed) in samples.iter().zip(analysed_reports) {
        let idx = match report
            .benchmarks
            .iter()
            .position(|b| b.benchmark == sample.benchmark)
        {
            Some(i) => i,
            None => {
                report
                    .benchmarks
                    .push(BenchmarkMetrics::new(sample.benchmark.clone()));
                report.benchmarks.len() - 1
            }
        };
        let entry = &mut report.benchmarks[idx];
        entry.samples += 1;
        entry
            .detection
            .record(analysed.detected, sample.truth.under_attack);
        if sample.truth.under_attack {
            let node_count = sample.truth.rows * sample.truth.cols;
            record_localization(
                &mut entry.localization,
                &analysed.victims,
                &sample.truth.victims,
                node_count,
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::FenceConfig;
    use noc_monitor::dataset::{CollectionConfig, DatasetGenerator, ScenarioSpec};
    use noc_sim::NocConfig;
    use noc_traffic::{BenignWorkload, SyntheticPattern};

    fn samples() -> Vec<LabeledSample> {
        let config = CollectionConfig {
            noc: NocConfig::mesh(8, 8),
            warmup_cycles: 100,
            sample_period: 300,
            samples_per_run: 2,
            seed: 17,
        };
        let generator = DatasetGenerator::new(config);
        let w1 = BenignWorkload::Synthetic(SyntheticPattern::UniformRandom, 0.015);
        let w2 = BenignWorkload::Synthetic(SyntheticPattern::Tornado, 0.015);
        generator.collect(&[
            ScenarioSpec::attacked(w1, vec![NodeId(7)], NodeId(0), 0.9),
            ScenarioSpec::benign(w1),
            ScenarioSpec::attacked(w2, vec![NodeId(63)], NodeId(56), 0.9),
            ScenarioSpec::benign(w2),
        ])
    }

    #[test]
    fn evaluation_groups_by_benchmark() {
        let samples = samples();
        let mut fence = Dl2Fence::new(FenceConfig::new(8, 8).with_epochs(2, 2));
        fence.train(&samples);
        let report = evaluate(&mut fence, &samples);
        assert_eq!(report.benchmarks.len(), 2);
        assert!(report.benchmark("Uniform Random").is_some());
        assert!(report.benchmark("Tornado").is_some());
        assert_eq!(report.benchmark("Tornado").unwrap().samples, 4);
    }

    #[test]
    fn overall_metrics_merge_benchmarks() {
        let samples = samples();
        let mut fence = Dl2Fence::new(FenceConfig::new(8, 8).with_epochs(2, 2));
        fence.train(&samples);
        let report = evaluate(&mut fence, &samples);
        let total: u64 = report.benchmarks.iter().map(|b| b.detection.total()).sum();
        assert_eq!(report.overall_detection().total(), total);
    }

    #[test]
    fn table_rendering_contains_all_benchmarks() {
        let samples = samples();
        let mut fence = Dl2Fence::new(FenceConfig::new(8, 8).with_epochs(1, 1));
        let report = evaluate(&mut fence, &samples);
        let table = report.render_table();
        assert!(table.contains("Uniform Random"));
        assert!(table.contains("Tornado"));
        assert!(table.contains("Average"));
    }

    #[test]
    fn localization_confusion_counts_every_node() {
        let mut c = BinaryConfusion::new();
        record_localization(&mut c, &[NodeId(0)], &[NodeId(0), NodeId(1)], 16);
        assert_eq!(c.total(), 16);
        assert_eq!(c.true_positives, 1);
        assert_eq!(c.false_negatives, 1);
        assert_eq!(c.true_negatives, 14);
    }
}
