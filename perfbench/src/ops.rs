//! The operations the benchmark times and the checks on their outputs:
//! streaming campaigns, model training, and a live detection service.

use crate::stats::{cpu_s, permutation};
use crate::workload::{serve_config, Workload, TENANTS};
use dl2fence::evaluation::evaluate;
use dl2fence::input::sample_frames;
use dl2fence::pipeline::{FenceReport, FenceTrainingReport};
use dl2fence::{Dl2Fence, FenceModelExport};
use dl2fence_campaign::report::split_samples;
use dl2fence_campaign::{
    run_streaming, CampaignDir, CampaignReport, CampaignSpec, Executor, RunMetrics, RunSpec,
};
use dl2fence_serve::{DetectionService, ModelBundle};
use dl2fence_telemetry::Recorder;
use noc_monitor::{FeatureFrame, LabeledSample};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// Runs one streaming campaign into the fresh directory `dir` and returns
/// its wall time (first run to finished `report.json`) with the report.
pub fn run_campaign(
    executor: &Executor,
    spec: &CampaignSpec,
    dir: &Path,
) -> Result<(f64, CampaignReport), String> {
    let start = Instant::now();
    let report = run_streaming(executor, spec, dir).map_err(|e| e.to_string())?;
    Ok((start.elapsed().as_secs_f64(), report))
}

/// What reading a finished campaign directory back found.
#[derive(Debug, Default)]
pub struct CampaignCheck {
    /// Runs missing from the log or report, or with invalid records.
    pub failed_runs: u64,
    /// Per-run measurements, by run index (`None` where missing).
    pub metrics: Vec<Option<RunMetrics>>,
    /// Every run's samples concatenated in run-index order (the eval
    /// phase's pool order).
    pub samples: Vec<LabeledSample>,
}

/// Reads a finished campaign back and counts its failed runs: a run fails
/// if it has no record (or the report does not count it), delivers more
/// packets than it created, or holds other than `samples_per_run` samples.
pub fn check_campaign(
    spec: &CampaignSpec,
    runs: &[RunSpec],
    dir: &Path,
    report: &CampaignReport,
) -> Result<CampaignCheck, String> {
    let campaign = CampaignDir::open(dir).map_err(|e| e.to_string())?;
    let index = campaign.index_log(runs).map_err(|e| e.to_string())?;
    let mut check = CampaignCheck {
        failed_runs: index.missing_indices().len() as u64,
        metrics: vec![None; runs.len()],
        samples: Vec::new(),
    };
    let expected_samples = if spec.sim.collect_samples {
        spec.sim.samples_per_run
    } else {
        0
    };
    campaign
        .replay(&index, |mut run| {
            let m = &run.metrics;
            if m.packets_received > m.packets_created || run.samples.len() != expected_samples {
                check.failed_runs += 1;
            }
            check.samples.append(&mut run.samples);
            check.metrics[run.spec.index] = Some(run.metrics);
        })
        .map_err(|e| e.to_string())?;
    let counted: usize = report.groups.iter().map(|g| g.runs).sum();
    let uncounted = runs.len().saturating_sub(counted.min(report.total_runs));
    check.failed_runs = (check.failed_runs + uncounted as u64).min(runs.len() as u64);
    Ok(check)
}

/// Share of created packets the network delivered, over every group.
pub fn delivery_ratio(report: &CampaignReport) -> f64 {
    let created: u64 = report.groups.iter().map(|g| g.packets_created).sum();
    let received: u64 = report.groups.iter().map(|g| g.packets_received).sum();
    received as f64 / created.max(1) as f64
}

/// Held-out detection and localization accuracy of an evaluation.
pub fn accuracies(report: &dl2fence::EvaluationReport) -> (f64, f64) {
    (
        report.overall_detection().accuracy(),
        report.overall_localization().accuracy(),
    )
}

/// A model trained the way the campaign eval phase trains one: split the
/// pool, fit both CNNs on the training part, evaluate the held-out part.
pub struct Trained {
    pub fence: Dl2Fence,
    pub training: FenceTrainingReport,
    pub train_s: f64,
    pub train_samples: usize,
    pub evaluation: dl2fence::EvaluationReport,
}

impl Trained {
    /// Both final training losses, or `None` if either is missing or not
    /// finite.
    pub fn final_losses(&self) -> Option<(f32, f32)> {
        let d = self.training.detector.final_loss()?;
        let l = self.training.localizer.final_loss()?;
        (d.is_finite() && l.is_finite()).then_some((d, l))
    }
}

/// Trains `workload.model` on the eval split of `pool`, optionally with a
/// telemetry recorder attached (per-layer nn timings).
pub fn train(workload: &Workload, pool: &[LabeledSample], recorder: Option<Recorder>) -> Trained {
    let (train, test) = split_samples(pool.to_vec(), workload.train_fraction);
    let mut fence = Dl2Fence::new(workload.model);
    if let Some(rec) = recorder {
        fence.set_telemetry(rec);
    }
    let start = Instant::now();
    let training = fence.train(&train);
    let train_s = start.elapsed().as_secs_f64();
    let evaluation = evaluate(&mut fence, &test);
    Trained {
        fence,
        training,
        train_s,
        train_samples: train.len(),
        evaluation,
    }
}

/// The eight frames of one window in ingest order: the four detection
/// frames, then the four localization frames.
pub fn window_frames(fence: &FenceModelExport, sample: &LabeledSample) -> Vec<FeatureFrame> {
    let mut frames = sample_frames(sample, fence.config.detection_feature)
        .clone()
        .into_frames();
    frames.extend(
        sample_frames(sample, fence.config.localization_feature)
            .clone()
            .into_frames(),
    );
    frames
}

/// The offline reference: [`Dl2Fence::analyze_frames_batch`] over every
/// window, which the service's verdicts must equal bit for bit.
pub fn offline_reports(export: &FenceModelExport, samples: &[LabeledSample]) -> Vec<FenceReport> {
    let mut fence = Dl2Fence::from_export(export.clone());
    let det = export.config.detection_feature;
    let loc = export.config.localization_feature;
    let pairs: Vec<_> = samples
        .iter()
        .map(|s| (sample_frames(s, det), sample_frames(s, loc)))
        .collect();
    fence.analyze_frames_batch(&pairs)
}

/// Outcome of auditing a batch of answers against the offline reference.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Audit {
    /// Answers that matched a pending window and its reference.
    pub matched: u64,
    /// Mismatching, unexpected or missing answers.
    pub failed: u64,
    /// Matched answers whose detection agrees with the ground truth.
    pub truth_agree: u64,
}

/// Audits `answers` (`(tenant, seq, report)`) against `expected`: each must
/// answer a pending window (`pending[tenant][seq]` = window index) and
/// equal that window's reference exactly. Windows still pending afterwards
/// never got an answer and fail too; `pending` is left empty.
pub fn audit<R: PartialEq>(
    answers: Vec<(u64, u64, R)>,
    pending: &mut [BTreeMap<u64, usize>],
    expected: &[R],
    agrees_with_truth: impl Fn(usize, &R) -> bool,
) -> Audit {
    let mut out = Audit::default();
    for (tenant, seq, report) in answers {
        let window = pending
            .get_mut(tenant as usize)
            .and_then(|p| p.remove(&seq));
        match window {
            Some(w) if expected.get(w) == Some(&report) => {
                out.matched += 1;
                out.truth_agree += u64::from(agrees_with_truth(w, &report));
            }
            _ => out.failed += 1,
        }
    }
    for p in pending.iter_mut() {
        out.failed += p.len() as u64;
        p.clear();
    }
    out
}

/// Instrumentation of a traced serve session.
#[derive(Debug, Default)]
pub struct ServeTrace {
    pub ingest: Duration,
    pub frames: u64,
    /// Time blocked in `drain_until_idle` during latency rounds.
    pub wait: Duration,
    pub rounds: u64,
    /// Σ (round latency − offline compute of its windows), seconds.
    pub overhead_s: f64,
    pub batches: BTreeSet<u64>,
    pub verdicts: u64,
    /// Offline compute per window, seconds (set by the caller).
    pub offline_s: Vec<f64>,
}

/// A live service fed from a corpus, with per-window verdict auditing.
pub struct ServeSession {
    service: DetectionService,
    frames: Vec<Vec<FeatureFrame>>,
    expected: Vec<FenceReport>,
    truth: Vec<bool>,
    order: Vec<usize>,
    cursor: usize,
    pending: Vec<BTreeMap<u64, usize>>,
    pub attempted: u64,
    pub failed: u64,
    pub verdicts: u64,
    pub truth_agree: u64,
    pub trace: Option<ServeTrace>,
}

impl ServeSession {
    /// Starts a service on `export` (one pipeline worker) that streams
    /// `samples` in the seeded order `order_seed`. Verdicts are audited
    /// against [`Self::set_reference`] (every verdict fails until it is set).
    pub fn start(export: &FenceModelExport, samples: &[LabeledSample], order_seed: u64) -> Self {
        ServeSession {
            service: DetectionService::new(serve_config(), ModelBundle::f32_only(export.clone())),
            frames: samples.iter().map(|s| window_frames(export, s)).collect(),
            expected: Vec::new(),
            truth: samples.iter().map(|s| s.truth.under_attack).collect(),
            order: permutation(samples.len(), order_seed),
            cursor: 0,
            pending: vec![BTreeMap::new(); TENANTS],
            attempted: 0,
            failed: 0,
            verdicts: 0,
            truth_agree: 0,
            trace: None,
        }
    }

    /// Installs the offline reference reports, one per corpus window.
    pub fn set_reference(&mut self, expected: Vec<FenceReport>) {
        self.expected = expected;
    }

    fn next_window(&mut self) -> usize {
        let w = self.order[self.cursor % self.order.len()];
        self.cursor += 1;
        w
    }

    /// Ingests one window for `tenant`; a rejection counts as a failure.
    fn ingest(&mut self, tenant: usize, window: usize, frames: Vec<FeatureFrame>) {
        self.attempted += 1;
        let mut last = Ok(None);
        for frame in frames {
            if let Some(t) = &mut self.trace {
                let start = Instant::now();
                last = self.service.ingest(tenant as u64, frame);
                t.ingest += start.elapsed();
                t.frames += 1;
            } else {
                last = self.service.ingest(tenant as u64, frame);
            }
            if last.is_err() {
                break;
            }
        }
        match last {
            Ok(Some(seq)) => {
                self.pending[tenant].insert(seq, window);
            }
            _ => self.failed += 1,
        }
    }

    fn drain(&mut self) {
        match &mut self.trace {
            Some(t) => {
                let start = Instant::now();
                self.service.drain_until_idle();
                t.wait += start.elapsed();
            }
            None => self.service.drain_until_idle(),
        }
    }

    /// Audits every verdict produced so far.
    fn collect(&mut self) {
        let verdicts = self.service.take_verdicts();
        if let Some(t) = &mut self.trace {
            t.verdicts += verdicts.len() as u64;
            t.batches.extend(verdicts.iter().map(|v| v.batch));
        }
        self.verdicts += verdicts.len() as u64;
        let answers = verdicts
            .into_iter()
            .map(|v| (v.tenant, v.seq, v.report))
            .collect();
        let truth = &self.truth;
        let a = audit(answers, &mut self.pending, &self.expected, |w, r| {
            r.detected == truth[w]
        });
        self.failed += a.failed;
        self.truth_agree += a.truth_agree;
    }

    /// One sampling instant: every tenant submits one window, timed from the
    /// first ingest until `drain_until_idle` returns. Returns the latency
    /// and the CPU time all service threads spent on it, in seconds.
    pub fn round(&mut self) -> (f64, f64) {
        let batch: Vec<(usize, Vec<FeatureFrame>)> = (0..TENANTS)
            .map(|_| {
                let w = self.next_window();
                (w, self.frames[w].clone())
            })
            .collect();
        let windows: Vec<usize> = batch.iter().map(|(w, _)| *w).collect();
        let cpu = cpu_s();
        let start = Instant::now();
        for (tenant, (w, frames)) in batch.into_iter().enumerate() {
            self.ingest(tenant, w, frames);
        }
        self.drain();
        let latency = start.elapsed().as_secs_f64();
        let cpu = cpu_s() - cpu;
        if let Some(t) = &mut self.trace {
            t.rounds += 1;
            let offline: f64 = windows.iter().map(|&w| t.offline_s[w]).sum();
            t.overhead_s += latency - offline;
        }
        self.collect();
        (latency, cpu)
    }

    /// Closed-loop capacity: every tenant fills its ring (never past its
    /// capacity), then the loop waits for all verdicts. Returns the windows,
    /// the wall seconds and the CPU seconds of the block.
    pub fn capacity_block(&mut self) -> (u64, f64, f64) {
        let per_tenant = serve_config().queue_capacity;
        let batch: Vec<(usize, usize, Vec<FeatureFrame>)> = (0..per_tenant * TENANTS)
            .map(|i| {
                let w = self.next_window();
                (i % TENANTS, w, self.frames[w].clone())
            })
            .collect();
        let windows = batch.len() as u64;
        let cpu = cpu_s();
        let start = Instant::now();
        for (tenant, w, frames) in batch {
            self.ingest(tenant, w, frames);
        }
        // Not `drain`: `ServeTrace::wait` is per latency round.
        self.service.drain_until_idle();
        let secs = start.elapsed().as_secs_f64();
        let cpu = cpu_s() - cpu;
        self.collect();
        (windows, secs, cpu)
    }

    /// Stops the service; windows still unanswered count as failures.
    pub fn finish(mut self) -> Self {
        self.drain();
        self.collect();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(entries: &[(usize, u64, usize)]) -> Vec<BTreeMap<u64, usize>> {
        let mut p = vec![BTreeMap::new(); 2];
        for &(t, seq, w) in entries {
            p[t].insert(seq, w);
        }
        p
    }

    #[test]
    fn matching_answers_pass_the_audit() {
        let mut p = pending(&[(0, 0, 0), (1, 0, 1)]);
        let a = audit(vec![(0, 0, 10), (1, 0, 11)], &mut p, &[10, 11], |_, _| true);
        assert_eq!(
            a,
            Audit {
                matched: 2,
                failed: 0,
                truth_agree: 2
            }
        );
    }

    #[test]
    fn an_injected_verdict_mismatch_is_a_failure() {
        let mut p = pending(&[(0, 0, 0), (1, 0, 1)]);
        // Window 1's answer differs from its offline reference.
        let a = audit(vec![(0, 0, 10), (1, 0, 99)], &mut p, &[10, 11], |_, _| true);
        assert_eq!(a.matched, 1);
        assert_eq!(a.failed, 1);
    }

    #[test]
    fn missing_and_unexpected_answers_are_failures() {
        let mut p = pending(&[(0, 0, 0), (0, 1, 1)]);
        // seq 1 never answered; (1, 5) was never submitted.
        let a = audit(vec![(0, 0, 10), (1, 5, 10)], &mut p, &[10, 11], |_, _| {
            false
        });
        assert_eq!(a.matched, 1);
        assert_eq!(a.failed, 2);
        assert_eq!(a.truth_agree, 0);
        assert!(p.iter().all(BTreeMap::is_empty));
    }
}
