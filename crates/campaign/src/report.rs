//! Aggregated campaign reports: per-run measurements grouped by the spec's
//! `report.group_by` keys, plus the optional train/evaluate phase behind the
//! paper's table-style experiments.
//!
//! All aggregation flows through one incremental code path, the
//! [`ReportAccumulator`]: it folds [`RunResult`]s one at a time into running
//! group statistics and (when the eval phase is enabled) per-mesh sample
//! pools, never retaining the runs themselves — which is what lets the
//! streaming, resume and merge paths ([`crate::stream`], [`crate::merge`])
//! aggregate campaigns bigger than memory (with the eval phase on, the
//! labeled samples it trains on stay resident). The in-memory
//! [`CampaignReport::build_with`] is the same fold over an outcome's run
//! vector.
//!
//! Everything here is deterministic: groups appear in first-seen run order,
//! aggregates are accumulated in run-index order, and serialization goes
//! through the order-preserving `serde` value tree — so a report rendered
//! from a 16-worker campaign is byte-identical to the serial one.

use crate::executor::{CampaignOutcome, Executor, RunResult};
use crate::spec::{parse_feature, validate_group_by, CampaignSpec, EvalSpec, SpecError};
use dl2fence::evaluation::evaluate;
use dl2fence::{Dl2Fence, EvaluationReport, FenceConfig};
use noc_monitor::LabeledSample;
use noc_sim::Topology;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Aggregated measurements of one report group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupSummary {
    /// The group key as ordered `(axis, value)` pairs.
    pub key: Vec<(String, String)>,
    /// Runs aggregated into this group.
    pub runs: usize,
    /// How many of them contained an attack.
    pub attack_runs: usize,
    /// How many saturated an injection queue ("system crashed").
    pub saturated_runs: usize,
    /// Packets created across the group.
    pub packets_created: u64,
    /// Packets delivered across the group.
    pub packets_received: u64,
    /// Malicious packets delivered across the group.
    pub malicious_packets_received: u64,
    /// Mean of the per-run mean packet latencies, cycles.
    pub mean_packet_latency: f64,
    /// Mean of the per-run mean packet queueing latencies, cycles.
    pub mean_packet_queue_latency: f64,
    /// Mean of the per-run mean flit latencies, cycles.
    pub mean_flit_latency: f64,
    /// Mean of the per-run mean flit queueing latencies, cycles.
    pub mean_flit_queue_latency: f64,
    /// Largest per-run mean packet latency, cycles.
    pub max_packet_latency: f64,
    /// Total estimated energy, nanojoules.
    pub energy_nj: f64,
    /// Mean estimated power, milliwatts.
    pub mean_power_mw: f64,
}

/// Detection/localization quality of one evaluation group.
///
/// Following the paper's protocol, one DL2Fence instance is trained per
/// mesh size over that mesh's whole benchmark group; the embedded
/// [`EvaluationReport`] then breaks the held-out metrics down per benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalEntry {
    /// Mesh side of the group.
    pub mesh: usize,
    /// Training-set size (monitoring windows).
    pub train_samples: usize,
    /// Test-set size (monitoring windows).
    pub test_samples: usize,
    /// Per-benchmark detection and localization confusions.
    pub report: EvaluationReport,
}

/// The serialized output of a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Campaign name from the spec.
    pub campaign: String,
    /// Total runs executed.
    pub total_runs: usize,
    /// Runs containing an attack.
    pub attack_runs: usize,
    /// The grouping keys the summaries use.
    pub group_by: Vec<String>,
    /// Aggregates per group, in first-seen run order.
    pub groups: Vec<GroupSummary>,
    /// Evaluation-phase results (empty unless `eval.enabled`).
    pub evaluations: Vec<EvalEntry>,
}

impl CampaignReport {
    /// Builds the report of a finished campaign, running the evaluation
    /// phase (on every available core) if the spec enables it.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the eval phase is enabled but its
    /// configuration is invalid.
    pub fn build(outcome: &CampaignOutcome) -> Result<Self, SpecError> {
        Self::build_with(outcome, &Executor::with_available_parallelism())
    }

    /// [`Self::build`] with an explicit worker pool for the eval phase.
    ///
    /// This is the in-memory entry to the one shared aggregation path: it
    /// folds the outcome's runs through a [`ReportAccumulator`] in matrix
    /// order, exactly as the streaming resume and merge paths fold records
    /// replayed from a run log — so all three produce byte-identical
    /// reports from the same runs.
    ///
    /// Per-mesh-group training jobs are independent (each trains its own
    /// DL2Fence instance from its own spec-derived seed), so they fan out
    /// over `executor` and are reassembled in group order — the entries are
    /// byte-identical for any worker count, including the serial
    /// `Executor::new(1)`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the eval phase is enabled but its
    /// configuration is invalid or a run carries no samples.
    pub fn build_with(outcome: &CampaignOutcome, executor: &Executor) -> Result<Self, SpecError> {
        let mut acc = ReportAccumulator::for_spec(&outcome.spec)?;
        for run in &outcome.runs {
            acc.try_fold(run)?;
        }
        acc.finish(executor)
    }

    /// Builds a report (without an eval phase) directly from executed runs
    /// — the entry point for harnesses that drive the engine with an
    /// explicit run matrix instead of a full spec.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if `group_by` contains an unknown key (this
    /// path bypasses spec validation, so the keys are checked here).
    pub fn from_runs(
        campaign: impl Into<String>,
        group_by: Vec<String>,
        runs: &[RunResult],
    ) -> Result<Self, SpecError> {
        let mut acc = ReportAccumulator::new(campaign, group_by, EvalSpec::default())?;
        for run in runs {
            acc.try_fold(run)?;
        }
        acc.finish(&Executor::new(1))
    }

    /// Serializes the report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// Parses a report back from JSON (the `campaign report` subcommand).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on malformed JSON.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        serde_json::from_str(text).map_err(|e| SpecError::new(e.to_string()))
    }

    /// Renders the report as a human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign `{}`: {} runs ({} attacked), grouped by [{}]",
            self.campaign,
            self.total_runs,
            self.attack_runs,
            self.group_by.join(", ")
        );
        let _ = writeln!(
            out,
            "{:<40} {:>5} {:>9} {:>12} {:>12} {:>9} {:>12}",
            "group", "runs", "saturated", "pkt lat", "queue lat", "pkts/run", "energy (µJ)"
        );
        for g in &self.groups {
            let name: Vec<String> = g.key.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(
                out,
                "{:<40} {:>5} {:>9} {:>12.2} {:>12.2} {:>9} {:>12.2}",
                name.join(" "),
                g.runs,
                g.saturated_runs,
                g.mean_packet_latency,
                g.mean_packet_queue_latency,
                g.packets_received / g.runs.max(1) as u64,
                g.energy_nj / 1_000.0,
            );
        }
        for e in &self.evaluations {
            let _ = writeln!(
                out,
                "\n--- eval: {}x{} mesh ({} train / {} test windows) ---",
                e.mesh, e.mesh, e.train_samples, e.test_samples
            );
            out.push_str(&e.report.render_table());
        }
        out
    }
}

/// The rendered value of one grouping axis for one run.
fn axis_value(run: &RunResult, topology: &Topology, axis: &str) -> String {
    match axis {
        "workload" => run.spec.workload.clone(),
        "fir" => format!("{}", run.spec.scenario.fir),
        "mesh" => format!("{}", run.spec.mesh),
        "topology" => topology.name(),
        "attack" => {
            if run.spec.attack.is_empty() && !run.spec.is_attack() {
                "none".to_string()
            } else if run.spec.attack.is_empty() {
                run.spec.scenario.attack.name().to_string()
            } else {
                run.spec.attack.clone()
            }
        }
        "seed" => format!("{}", run.spec.campaign_seed),
        "attackers" => format!("{}", run.spec.scenario.attackers.len()),
        "class" => if run.spec.is_attack() {
            "attack"
        } else {
            "benign"
        }
        .to_string(),
        other => unreachable!("validated group_by key `{other}`"),
    }
}

/// Running aggregates of one report group — the incremental form of a
/// [`GroupSummary`], finalized (sums divided into means) by
/// [`ReportAccumulator::finish`].
#[derive(Debug, Clone)]
struct GroupAccumulator {
    key: Vec<(String, String)>,
    runs: usize,
    attack_runs: usize,
    saturated_runs: usize,
    packets_created: u64,
    packets_received: u64,
    malicious_packets_received: u64,
    sum_packet_latency: f64,
    sum_packet_queue_latency: f64,
    sum_flit_latency: f64,
    sum_flit_queue_latency: f64,
    max_packet_latency: f64,
    energy_nj: f64,
    sum_power_mw: f64,
}

impl GroupAccumulator {
    fn new(key: Vec<(String, String)>) -> Self {
        GroupAccumulator {
            key,
            runs: 0,
            attack_runs: 0,
            saturated_runs: 0,
            packets_created: 0,
            packets_received: 0,
            malicious_packets_received: 0,
            sum_packet_latency: 0.0,
            sum_packet_queue_latency: 0.0,
            sum_flit_latency: 0.0,
            sum_flit_queue_latency: 0.0,
            max_packet_latency: 0.0,
            energy_nj: 0.0,
            sum_power_mw: 0.0,
        }
    }

    fn fold(&mut self, run: &RunResult) {
        self.runs += 1;
        self.attack_runs += usize::from(run.spec.is_attack());
        self.saturated_runs += usize::from(run.metrics.saturated);
        self.packets_created += run.metrics.packets_created;
        self.packets_received += run.metrics.packets_received;
        self.malicious_packets_received += run.metrics.malicious_packets_received;
        self.sum_packet_latency += run.metrics.packet_latency;
        self.sum_packet_queue_latency += run.metrics.packet_queue_latency;
        self.sum_flit_latency += run.metrics.flit_latency;
        self.sum_flit_queue_latency += run.metrics.flit_queue_latency;
        self.max_packet_latency = self.max_packet_latency.max(run.metrics.packet_latency);
        self.energy_nj += run.metrics.energy_nj;
        self.sum_power_mw += run.metrics.power_mw;
    }

    fn finish(self) -> GroupSummary {
        // Sums are folded in run-index order, so dividing once here yields
        // the same f64 bits as the historical batch `sum / n` computation.
        let n = self.runs.max(1) as f64;
        GroupSummary {
            key: self.key,
            runs: self.runs,
            attack_runs: self.attack_runs,
            saturated_runs: self.saturated_runs,
            packets_created: self.packets_created,
            packets_received: self.packets_received,
            malicious_packets_received: self.malicious_packets_received,
            mean_packet_latency: self.sum_packet_latency / n,
            mean_packet_queue_latency: self.sum_packet_queue_latency / n,
            mean_flit_latency: self.sum_flit_latency / n,
            mean_flit_queue_latency: self.sum_flit_queue_latency / n,
            max_packet_latency: self.max_packet_latency,
            energy_nj: self.energy_nj,
            mean_power_mw: self.sum_power_mw / n,
        }
    }
}

/// One per-frame-geometry sample pool feeding the eval phase: the only
/// thing the accumulator retains from a run beyond scalar aggregates, and
/// only when the eval phase is enabled.
///
/// Pools are keyed by frame geometry `(mesh, cols)`, so topologies sharing
/// a geometry (e.g. `mesh4` and `torus4`) train one detector over their
/// combined samples, exactly as the frame-based detector sees them.
#[derive(Debug)]
struct EvalPool {
    /// Frame rows (the legacy mesh side).
    mesh: usize,
    /// Frame columns.
    cols: usize,
    seed: u64,
    /// Every folded run's samples, in fold (run-index) order.
    samples: Vec<LabeledSample>,
}

/// Streaming report builder: folds [`RunResult`]s one at a time, in run-
/// index order, into running group statistics and (when the eval phase is
/// enabled) per-mesh sample pools — **never retaining the runs
/// themselves**. [`Self::finish`] turns the aggregates into a
/// [`CampaignReport`].
///
/// This is the single aggregation code path shared by the in-memory
/// ([`CampaignReport::build_with`]), resume ([`crate::stream::resume`]) and
/// merge ([`crate::merge::merge`]) paths: feeding the same runs in the same
/// order produces byte-identical reports on all three, and because a folded
/// run is dropped immediately, report building works on campaigns whose
/// full result set would not fit in memory.
#[derive(Debug)]
pub struct ReportAccumulator {
    campaign: String,
    group_by: Vec<String>,
    eval: EvalSpec,
    total_runs: usize,
    attack_runs: usize,
    groups: Vec<GroupAccumulator>,
    eval_pools: Vec<EvalPool>,
}

impl ReportAccumulator {
    /// An accumulator aggregating exactly as a campaign run from `spec`
    /// would: the spec's grouping keys, name, and eval configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if `spec.report.group_by` holds an unknown
    /// key.
    pub fn for_spec(spec: &CampaignSpec) -> Result<Self, SpecError> {
        Self::new(
            spec.name.clone(),
            spec.report.group_by.clone(),
            spec.eval.clone(),
        )
    }

    /// An accumulator from explicit parts (harnesses that bypass specs).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if `group_by` holds an unknown key.
    pub fn new(
        campaign: impl Into<String>,
        group_by: Vec<String>,
        eval: EvalSpec,
    ) -> Result<Self, SpecError> {
        validate_group_by(&group_by)?;
        Ok(ReportAccumulator {
            campaign: campaign.into(),
            group_by,
            eval,
            total_runs: 0,
            attack_runs: 0,
            groups: Vec::new(),
            eval_pools: Vec::new(),
        })
    }

    /// Folds one run into the aggregates. Call in run-index order — the
    /// fold order fixes both group ordering (first-seen) and the f64
    /// summation order, which is what the byte-identity guarantee rests on.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the run index if the run's topology
    /// name does not parse (expanded and executed runs always carry a valid
    /// one, so this is a hand-built run), or if the eval phase is enabled
    /// and the run carries no samples (spec validation requires sample
    /// collection whenever eval is on, so an empty run is a record stripped
    /// by an earlier build or edited by hand — training on the rest would
    /// silently shrink the training set). The accumulator is left
    /// unchanged.
    pub fn try_fold(&mut self, run: &RunResult) -> Result<(), SpecError> {
        let topology = run.spec.topology().map_err(|e| {
            SpecError::new(format!(
                "run index {} has an invalid topology: {e}",
                run.spec.index
            ))
        })?;
        if self.eval.enabled && run.samples.is_empty() {
            return Err(SpecError::new(format!(
                "run index {} carries no samples but the eval phase needs them; \
                 re-execute it (delete its record from runs.jsonl and resume)",
                run.spec.index
            )));
        }
        self.total_runs += 1;
        self.attack_runs += usize::from(run.spec.is_attack());
        let key: Vec<(String, String)> = self
            .group_by
            .iter()
            .map(|axis| (axis.clone(), axis_value(run, &topology, axis)))
            .collect();
        match self.groups.iter_mut().find(|g| g.key == key) {
            Some(group) => group.fold(run),
            None => {
                let mut group = GroupAccumulator::new(key);
                group.fold(run);
                self.groups.push(group);
            }
        }
        if self.eval.enabled {
            let (rows, cols) = (topology.rows(), topology.cols());
            let pool = match self
                .eval_pools
                .iter_mut()
                .find(|p| p.mesh == rows && p.cols == cols)
            {
                Some(pool) => pool,
                None => {
                    self.eval_pools.push(EvalPool {
                        mesh: rows,
                        cols,
                        seed: run.spec.campaign_seed,
                        samples: Vec::new(),
                    });
                    self.eval_pools.last_mut().expect("just pushed")
                }
            };
            pool.samples.extend_from_slice(&run.samples);
        }
        Ok(())
    }

    /// Runs folded so far.
    pub fn folded_runs(&self) -> usize {
        self.total_runs
    }

    /// How many eval-phase samples the accumulator currently buffers.
    ///
    /// This is the accumulator's entire per-run retention: zero unless the
    /// eval phase is enabled (the O(1)-retention guard in the test suite),
    /// and only the labeled samples — never the runs — when it is.
    pub fn retained_samples(&self) -> usize {
        self.eval_pools.iter().map(|p| p.samples.len()).sum()
    }

    /// Finalizes the aggregates into a [`CampaignReport`], running the eval
    /// phase (fanned out over `executor`) if the spec enabled it.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the eval phase is enabled but its
    /// configuration is invalid or a frame-geometry group has no test
    /// samples.
    pub fn finish(self, executor: &Executor) -> Result<CampaignReport, SpecError> {
        let evaluations = if self.eval.enabled {
            run_eval_phase(self.eval_pools, &self.eval, executor)?
        } else {
            Vec::new()
        };
        Ok(CampaignReport {
            campaign: self.campaign,
            total_runs: self.total_runs,
            attack_runs: self.attack_runs,
            group_by: self.group_by,
            groups: self
                .groups
                .into_iter()
                .map(GroupAccumulator::finish)
                .collect(),
            evaluations,
        })
    }
}

/// Splits a group's samples into deterministic, interleaved train and test
/// sets — the single split policy shared by the eval phase and the bench
/// harness, so every attack placement contributes to both sides.
///
/// `train_fraction` is clamped to `[0.05, 0.95]`; both partitions are
/// non-empty whenever at least two samples exist.
pub fn split_samples(
    samples: Vec<LabeledSample>,
    train_fraction: f64,
) -> (Vec<LabeledSample>, Vec<LabeledSample>) {
    let fraction = train_fraction.clamp(0.05, 0.95);
    let mut train = Vec::new();
    let mut test = Vec::new();
    if fraction >= 0.5 {
        // Majority train: every `stride`-th sample goes to the test set.
        let stride = (1.0 / (1.0 - fraction)).round() as usize;
        for (i, s) in samples.into_iter().enumerate() {
            if i % stride == stride - 1 {
                test.push(s);
            } else {
                train.push(s);
            }
        }
    } else {
        // Minority train: every `stride`-th sample goes to the train set.
        let stride = (1.0 / fraction).round() as usize;
        for (i, s) in samples.into_iter().enumerate() {
            if i % stride == stride - 1 {
                train.push(s);
            } else {
                test.push(s);
            }
        }
    }
    (train, test)
}

/// One prepared per-mesh eval job: everything a worker needs to train and
/// score one DL2Fence instance, with no shared mutable state.
struct EvalJob {
    mesh: usize,
    cols: usize,
    seed: u64,
    train: Vec<LabeledSample>,
    test: Vec<LabeledSample>,
}

/// Splits executed runs' samples into train/test sets per benchmark (groups
/// by workload name in first-seen run order, then applies [`split_samples`]
/// within each group), so every benchmark and attack placement contributes
/// to both sides.
///
/// This is the collection half of the table-style experiments, shared by
/// the eval phase's callers and the bench harness.
pub fn split_by_benchmark(
    results: Vec<RunResult>,
    train_fraction: f64,
) -> (Vec<LabeledSample>, Vec<LabeledSample>) {
    let mut by_workload: Vec<(String, Vec<LabeledSample>)> = Vec::new();
    for result in results {
        match by_workload
            .iter_mut()
            .find(|(name, _)| *name == result.spec.workload)
        {
            Some((_, samples)) => samples.extend(result.samples),
            None => by_workload.push((result.spec.workload, result.samples)),
        }
    }
    let mut train = Vec::new();
    let mut test = Vec::new();
    for (_, samples) in by_workload {
        let (tr, te) = split_samples(samples, train_fraction);
        train.extend(tr);
        test.extend(te);
    }
    (train, test)
}

/// The evaluation phase: per mesh size, split the accumulated samples,
/// train one DL2Fence instance over the whole benchmark group (the paper's
/// protocol) and evaluate it on the held-out set, broken down per benchmark.
///
/// Pools arrive from the [`ReportAccumulator`] in first-seen mesh order
/// with samples in run-index order — identical to grouping a full in-memory
/// result set. Splits are prepared serially (cheap), then the expensive
/// train/evaluate jobs fan out over `executor`'s worker pool so the eval
/// phase no longer serializes the tail of a campaign. Jobs are independent
/// and reassembled in group order, so the entries are identical for any
/// worker count.
fn run_eval_phase(
    pools: Vec<EvalPool>,
    eval: &EvalSpec,
    executor: &Executor,
) -> Result<Vec<EvalEntry>, SpecError> {
    let detection = parse_feature(&eval.detection_feature)?;
    let localization = parse_feature(&eval.localization_feature)?;

    let mut jobs = Vec::new();
    for pool in pools {
        let EvalPool {
            mesh,
            cols,
            seed,
            samples,
        } = pool;
        let (train, test) = split_samples(samples, eval.train_fraction);
        if test.is_empty() {
            return Err(SpecError::new(format!(
                "eval group for the {mesh}x{cols} frame geometry has no test samples; \
                 lower eval.train_fraction or add runs"
            )));
        }
        jobs.push(EvalJob {
            mesh,
            cols,
            seed,
            train,
            test,
        });
    }

    let telemetry = executor.telemetry();
    Ok(executor.run_jobs(&jobs, |job| {
        let rec = telemetry.recorder();
        let mut config = FenceConfig::new(job.mesh, job.cols)
            .with_seed(job.seed)
            .with_epochs(eval.detector_epochs, eval.localizer_epochs);
        config.detection_feature = detection;
        config.localization_feature = localization;
        let mut fence = Dl2Fence::new(config);
        fence.set_telemetry(rec.clone());
        rec.time("eval.train", || fence.train(&job.train));
        EvalEntry {
            mesh: job.mesh,
            train_samples: job.train.len(),
            test_samples: job.test.len(),
            report: rec.time("eval.evaluate", || evaluate(&mut fence, &job.test)),
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::spec::CampaignSpec;

    fn outcome(workers: usize) -> CampaignOutcome {
        let mut spec = CampaignSpec::quick("report-test");
        spec.grid.mesh = vec![4];
        spec.grid.fir = vec![0.4, 0.8];
        spec.grid.workloads = vec!["uniform".into()];
        spec.grid.attack_placements = 2;
        spec.grid.benign_runs = 1;
        spec.grid.seeds = vec![5];
        spec.sim.warmup_cycles = 50;
        spec.sim.sample_period = 150;
        spec.sim.samples_per_run = 1;
        spec.report.group_by = vec!["class".into(), "fir".into()];
        Executor::new(workers).execute(&spec).unwrap()
    }

    #[test]
    fn groups_follow_first_seen_order_and_sum_runs() {
        let report = CampaignReport::build(&outcome(1)).unwrap();
        assert_eq!(report.total_runs, 5);
        assert_eq!(report.attack_runs, 4);
        let total: usize = report.groups.iter().map(|g| g.runs).sum();
        assert_eq!(total, 5);
        assert_eq!(report.groups[0].key[0].1, "benign");
        assert!(report.groups.iter().all(|g| g.packets_received > 0));
    }

    #[test]
    fn from_runs_rejects_unknown_group_keys() {
        let outcome = outcome(1);
        let err = CampaignReport::from_runs("direct", vec!["FIR".into()], &outcome.runs)
            .expect_err("unknown key must be rejected, not panic");
        assert!(err.to_string().contains("unknown report.group_by key"));
        let ok = CampaignReport::from_runs("direct", vec!["fir".into()], &outcome.runs).unwrap();
        assert_eq!(ok.total_runs, outcome.runs.len());
        assert!(ok.evaluations.is_empty());
    }

    #[test]
    fn json_round_trip_preserves_the_report() {
        let report = CampaignReport::build(&outcome(2)).unwrap();
        let json = report.to_json();
        let back = CampaignReport::from_json(&json).unwrap();
        assert_eq!(report, back);
        assert!(!report.render().is_empty());
    }

    #[test]
    fn split_samples_partitions_deterministically() {
        let outcome = {
            let mut spec = CampaignSpec::quick("split");
            spec.grid.mesh = vec![4];
            spec.sim.collect_samples = true;
            spec.sim.warmup_cycles = 50;
            spec.sim.sample_period = 100;
            spec.sim.samples_per_run = 3;
            Executor::new(1).execute(&spec).unwrap()
        };
        let samples: Vec<LabeledSample> = outcome
            .runs
            .iter()
            .flat_map(|r| r.samples.iter().cloned())
            .collect();
        let (train, test) = split_samples(samples.clone(), 0.6);
        assert_eq!(train.len() + test.len(), samples.len());
        assert!(!train.is_empty() && !test.is_empty());
        assert!(train.len() > test.len());

        // Regression: minority-train fractions must not collapse the test
        // set (the old stride formula sent everything to train below ~1/3).
        let (train, test) = split_samples(samples.clone(), 0.25);
        assert_eq!(train.len() + test.len(), samples.len());
        assert!(!train.is_empty() && !test.is_empty());
        assert!(test.len() > train.len());
        let quarter = samples.len() as f64 * 0.25;
        assert!((train.len() as f64 - quarter).abs() <= 2.0);
    }
}
