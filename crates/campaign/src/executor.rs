//! The campaign executor: a worker pool running independent simulations
//! concurrently with a parallel-equals-serial determinism guarantee.
//!
//! Every run's seed is derived from the spec alone
//! ([`crate::grid::derive_run_seed`]), workers pull run indices from a
//! shared atomic counter, and results are reassembled in index order before
//! aggregation — so the number of workers affects wall-clock time only,
//! never a single output byte.

use crate::grid::{self, RunSpec};
use crate::spec::{CampaignSpec, SimParams, SpecError};
use dl2fence_telemetry::{Recorder, Telemetry};
use noc_monitor::{FrameSampler, GroundTruth, LabeledSample};
use noc_sim::{EnergyModel, NocConfig};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Scalar measurements of one finished run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Mean end-to-end packet latency, cycles.
    pub packet_latency: f64,
    /// Mean packet queueing latency (creation → head injection), cycles.
    pub packet_queue_latency: f64,
    /// Mean end-to-end flit latency, cycles.
    pub flit_latency: f64,
    /// Mean flit queueing latency, cycles.
    pub flit_queue_latency: f64,
    /// Packets created during the run.
    pub packets_created: u64,
    /// Packets delivered during the run.
    pub packets_received: u64,
    /// Malicious packets delivered during the run.
    pub malicious_packets_received: u64,
    /// Whether an injection queue saturated (the paper's "system crashed").
    pub saturated: bool,
    /// Estimated total dynamic + static energy, nanojoules.
    pub energy_nj: f64,
    /// Estimated average power, milliwatts.
    pub power_mw: f64,
}

/// One finished run: its spec, measurements and (optionally) the labeled
/// monitoring-window samples for the evaluation phase.
///
/// Serializes losslessly (floats use shortest round-trip formatting), which
/// is what lets [`crate::stream`] persist results as JSONL records and
/// rebuild a byte-identical report on resume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// The run that was executed.
    pub spec: RunSpec,
    /// Scalar measurements.
    pub metrics: RunMetrics,
    /// Labeled VCO/BOC samples (empty unless `sim.collect_samples`).
    pub samples: Vec<LabeledSample>,
}

/// A fully executed campaign: the spec plus every run's result, in matrix
/// order.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The spec the campaign ran from.
    pub spec: CampaignSpec,
    /// Results, ordered by run index.
    pub runs: Vec<RunResult>,
}

/// Executes one run of a campaign.
pub fn execute_run(sim: &SimParams, run: &RunSpec) -> RunResult {
    let topology = run
        .topology()
        .unwrap_or_else(|e| panic!("run {} has an invalid topology: {e}", run.index));
    let mut noc = NocConfig::for_topology(&topology);
    if sim.injection_queue_capacity > 0 {
        noc = noc.with_injection_queue_capacity(sim.injection_queue_capacity);
    }
    let mut scenario = run.scenario.build(noc, run.run_seed);
    let truth = GroundTruth::of_scenario(&scenario);
    scenario.run(sim.warmup_cycles);
    scenario.network_mut().reset_boc();
    let mut samples = Vec::new();
    for _ in 0..sim.samples_per_run {
        scenario.run(sim.sample_period);
        if sim.collect_samples {
            let (vco, boc) = FrameSampler::sample_both(scenario.network());
            samples.push(LabeledSample {
                vco,
                boc,
                truth: truth.clone(),
                benchmark: run.workload.clone(),
            });
        }
        scenario.network_mut().reset_boc();
    }
    let stats = scenario.network().stats();
    let energy = EnergyModel::new().estimate(stats, topology.node_count());
    RunResult {
        spec: run.clone(),
        metrics: RunMetrics {
            packet_latency: stats.packet_latency.mean(),
            packet_queue_latency: stats.packet_queue_latency.mean(),
            flit_latency: stats.flit_latency.mean(),
            flit_queue_latency: stats.flit_queue_latency.mean(),
            packets_created: stats.packets_created,
            packets_received: stats.packets_received,
            malicious_packets_received: stats.malicious_packets_received,
            saturated: scenario.network().is_saturated(),
            energy_nj: energy.total_nj,
            power_mw: energy.average_mw,
        },
        samples,
    }
}

/// A worker job panicked.
///
/// The pool catches the unwind and reports the exact job index plus the
/// rendered panic payload, so campaign tooling can name the failed run
/// instead of surfacing an opaque pool panic. Every run that completed
/// before the panic has already been delivered to the observer (and, in the
/// streaming layer, persisted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the job whose closure panicked.
    pub job_index: usize,
    /// The panic payload rendered as text (`&str` / `String` payloads are
    /// kept verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker job {} panicked: {}",
            self.job_index, self.message
        )
    }
}

impl std::error::Error for JobPanic {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs campaigns over a pool of worker threads.
#[derive(Debug, Clone)]
pub struct Executor {
    workers: usize,
    telemetry: Telemetry,
}

impl Executor {
    /// Creates an executor with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Executor {
            workers: workers.max(1),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle. Each worker thread then records
    /// per-job queue-wait (`worker.queue_wait`) and per-worker busy time and
    /// job counts (`worker.busy_us` / `worker.jobs`, indexed by the worker's
    /// pool ordinal), and caught panics increment `executor.worker_panics`.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The executor's telemetry handle (disabled unless
    /// [`Self::with_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// An executor sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Expands and executes `spec`, returning results in matrix order.
    ///
    /// The output is byte-for-byte identical for any worker count.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the spec fails validation.
    ///
    /// # Panics
    ///
    /// Panics if a run panics (a bug in the simulator stack), naming the
    /// failed run's job index (see [`JobPanic`]).
    pub fn execute(&self, spec: &CampaignSpec) -> Result<CampaignOutcome, SpecError> {
        let runs = grid::expand(spec)?;
        let results = self.execute_runs(&spec.sim, &runs);
        Ok(CampaignOutcome {
            spec: spec.clone(),
            runs: results,
        })
    }

    /// Executes an already expanded run matrix, returning results in matrix
    /// order.
    ///
    /// Callers that persist results and do not need them reassembled (the
    /// streaming layer, [`crate::stream`]) use [`Self::try_run_jobs_foreach`]
    /// instead, which retains nothing.
    pub fn execute_runs(&self, sim: &SimParams, runs: &[RunSpec]) -> Vec<RunResult> {
        self.run_jobs(runs, |run| execute_run(sim, run))
    }

    /// Runs arbitrary independent jobs on the worker pool, returning results
    /// in job order regardless of the worker count.
    ///
    /// This is the generic pool behind both run execution and the parallel
    /// eval phase: workers pull job indices from a shared atomic counter and
    /// results are slotted back by index.
    ///
    /// # Panics
    ///
    /// Panics if a job closure panics, with a message naming the job index
    /// (see [`JobPanic`]).
    pub fn run_jobs<T, R>(&self, jobs: &[T], job: impl Fn(&T) -> R + Sync) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        let mut slots: Vec<Option<R>> = (0..jobs.len()).map(|_| None).collect();
        self.try_run_jobs_foreach(jobs, job, |i, result| {
            slots[i] = Some(result);
            true
        })
        .unwrap_or_else(|p| panic!("{p}"));
        slots
            .into_iter()
            .map(|r| r.expect("every job index is executed exactly once"))
            .collect()
    }

    /// The streaming primitive behind the pool: runs every job, handing each
    /// `(job index, result)` pair to `observer` **by value** on the calling
    /// thread, in completion order, and retaining nothing — the observer
    /// drops (or persists) each result before the next one is delivered, so
    /// peak memory is one in-flight result per worker regardless of how many
    /// jobs the matrix holds.
    ///
    /// Returning `false` from the observer aborts: no new jobs are
    /// scheduled, in-flight jobs finish and are discarded, and the call
    /// yields `Ok(None)`. This is what lets bigger-than-memory campaigns
    /// stream every run straight to disk ([`crate::stream`]) without the
    /// pool ever collecting a `Vec` of results.
    ///
    /// # Errors
    ///
    /// A panicking job closure is caught and returned as a [`JobPanic`]
    /// naming the failing job index; no new jobs are scheduled after the
    /// panic, and results already handed to the observer stay delivered.
    pub fn try_run_jobs_foreach<T, R>(
        &self,
        jobs: &[T],
        job: impl Fn(&T) -> R + Sync,
        mut observer: impl FnMut(usize, R) -> bool,
    ) -> Result<Option<()>, JobPanic>
    where
        T: Sync,
        R: Send,
    {
        if jobs.is_empty() {
            return Ok(Some(()));
        }
        // One job on worker `w`: queue wait, busy time and job count go to
        // telemetry, and a panic is caught as its rendered message.
        let run_one = |rec: &Recorder, w: u64, idle_since: &mut Option<Instant>, i: usize| {
            if let Some(at) = *idle_since {
                rec.record("worker.queue_wait", at.elapsed());
            }
            let started = idle_since.is_some().then(Instant::now);
            let outcome = catch_unwind(AssertUnwindSafe(|| job(&jobs[i])));
            if let Some(at) = started {
                rec.add_indexed("worker.busy_us", w, at.elapsed().as_micros() as u64);
                rec.add_indexed("worker.jobs", w, 1);
                *idle_since = Some(Instant::now());
            }
            outcome.map_err(|payload| {
                rec.add("executor.worker_panics", 1);
                panic_message(payload)
            })
        };
        let workers = self.workers.min(jobs.len());
        if workers == 1 {
            let rec = self.telemetry.recorder();
            let mut idle_since = rec.is_enabled().then(Instant::now);
            for i in 0..jobs.len() {
                let result = run_one(&rec, 0, &mut idle_since, i).map_err(|message| JobPanic {
                    job_index: i,
                    message,
                })?;
                if !observer(i, result) {
                    return Ok(None);
                }
            }
            return Ok(Some(()));
        }
        enum WorkerMsg<R> {
            Done(usize, R),
            Panicked(usize, String),
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<WorkerMsg<R>>();
        let mut aborted = false;
        let mut panicked: Option<JobPanic> = None;
        let telemetry = &self.telemetry;
        std::thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let run_one = &run_one;
                scope.spawn(move || {
                    let rec = telemetry.recorder();
                    let mut idle_since = rec.is_enabled().then(Instant::now);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        let msg = match run_one(&rec, w as u64, &mut idle_since, i) {
                            Ok(result) => WorkerMsg::Done(i, result),
                            Err(message) => {
                                // Stop handing out new indices; sibling
                                // workers finish their in-flight job and
                                // drain.
                                next.store(jobs.len(), Ordering::Relaxed);
                                WorkerMsg::Panicked(i, message)
                            }
                        };
                        let stop = matches!(msg, WorkerMsg::Panicked(..));
                        if tx.send(msg).is_err() || stop {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            // Streamed delivery: each result is observed (and dropped) as it
            // arrives instead of buffering channel messages until the end.
            for msg in rx {
                match msg {
                    WorkerMsg::Done(i, result) => {
                        if !observer(i, result) {
                            // Abort: stop handing out new job indices and
                            // drop the receiver so in-flight senders unblock
                            // and drain.
                            aborted = true;
                            next.store(jobs.len(), Ordering::Relaxed);
                            break;
                        }
                    }
                    WorkerMsg::Panicked(i, message) => {
                        panicked = Some(JobPanic {
                            job_index: i,
                            message,
                        });
                        next.store(jobs.len(), Ordering::Relaxed);
                        break;
                    }
                }
            }
        });
        if let Some(p) = panicked {
            Err(p)
        } else if aborted {
            Ok(None)
        } else {
            Ok(Some(()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::quick("tiny");
        spec.grid.mesh = vec![4];
        spec.grid.fir = vec![0.8];
        spec.grid.workloads = vec!["uniform".into()];
        spec.grid.attack_placements = 2;
        spec.grid.benign_runs = 1;
        spec.grid.seeds = vec![3];
        spec.sim.warmup_cycles = 50;
        spec.sim.sample_period = 150;
        spec.sim.samples_per_run = 1;
        spec
    }

    #[test]
    fn attack_runs_deliver_malicious_packets() {
        let outcome = Executor::new(1).execute(&tiny_spec()).unwrap();
        assert_eq!(outcome.runs.len(), 3);
        for run in &outcome.runs {
            assert!(run.metrics.packets_received > 0, "run delivered no packets");
            assert_eq!(
                run.metrics.malicious_packets_received > 0,
                run.spec.is_attack()
            );
            assert!(run.metrics.energy_nj > 0.0);
        }
    }

    #[test]
    fn parallel_and_serial_runs_are_identical() {
        let spec = tiny_spec();
        let serial = Executor::new(1).execute(&spec).unwrap();
        let parallel = Executor::new(4).execute(&spec).unwrap();
        assert_eq!(serial.runs.len(), parallel.runs.len());
        for (s, p) in serial.runs.iter().zip(&parallel.runs) {
            assert_eq!(s.spec, p.spec);
            assert_eq!(s.metrics, p.metrics);
        }
    }

    #[test]
    fn observer_sees_every_result_exactly_once() {
        let spec = tiny_spec();
        let runs = grid::expand(&spec).unwrap();
        for workers in [1, 4] {
            let mut seen = Vec::new();
            let done = Executor::new(workers).try_run_jobs_foreach(
                &runs,
                |run| execute_run(&spec.sim, run),
                |i, r| {
                    assert_eq!(r.spec.index, runs[i].index);
                    seen.push(r.spec.index);
                    true
                },
            );
            assert_eq!(done, Ok(Some(())));
            seen.sort_unstable();
            assert_eq!(seen, (0..runs.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_jobs_returns_results_in_job_order_for_any_worker_count() {
        let jobs: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for workers in [1, 3, 16] {
            assert_eq!(Executor::new(workers).run_jobs(&jobs, |&j| j * j), expected);
        }
    }

    #[test]
    fn foreach_delivers_every_result_once_and_aborts_on_false() {
        let jobs: Vec<u64> = (0..25).collect();
        for workers in [1, 4] {
            let mut seen = vec![false; jobs.len()];
            let done = Executor::new(workers).try_run_jobs_foreach(
                &jobs,
                |&j| j + 1,
                |i, r| {
                    assert_eq!(r, jobs[i] + 1);
                    assert!(!seen[i], "job {i} delivered twice");
                    seen[i] = true;
                    true
                },
            );
            assert_eq!(done, Ok(Some(())));
            assert!(seen.iter().all(|&s| s));

            let mut count = 0;
            let aborted = Executor::new(workers).try_run_jobs_foreach(
                &jobs,
                |&j| j,
                |_, _| {
                    count += 1;
                    count < 3
                },
            );
            assert_eq!(aborted, Ok(None), "a false observer must abort the pool");
        }
    }

    #[test]
    fn worker_panic_is_surfaced_with_its_job_index() {
        let jobs: Vec<u64> = (0..8).collect();
        for workers in [1, 4] {
            let err = Executor::new(workers)
                .try_run_jobs_foreach(
                    &jobs,
                    |&j| {
                        if j == 5 {
                            panic!("boom on {j}");
                        }
                        j
                    },
                    |i, r| {
                        assert_eq!(r, jobs[i]);
                        true
                    },
                )
                .unwrap_err();
            assert_eq!(err.job_index, 5);
            assert!(err.message.contains("boom on 5"), "{err:?}");
            assert!(err.to_string().contains("worker job 5 panicked"));
        }
    }

    #[test]
    #[should_panic(expected = "worker job 3 panicked: boom on 3")]
    fn run_jobs_panic_names_the_job_index() {
        let jobs: Vec<u64> = (0..8).collect();
        Executor::new(4).run_jobs(&jobs, |&j| {
            if j == 3 {
                panic!("boom on {j}");
            }
            j
        });
    }

    #[test]
    fn worker_panics_are_counted_in_telemetry() {
        use dl2fence_telemetry::{EventData, MemorySink, Telemetry};
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::new());
        let executor = Executor::new(2).with_telemetry(Telemetry::with_sink(sink.clone()));
        let jobs: Vec<u64> = (0..6).collect();
        let err = executor
            .try_run_jobs_foreach(
                &jobs,
                |&j| {
                    if j == 2 {
                        panic!("sim bug");
                    }
                    j
                },
                |_, _| true,
            )
            .unwrap_err();
        assert_eq!(err.job_index, 2);
        let events = sink.snapshot();
        let panics: u64 = events
            .iter()
            .filter_map(|e| match &e.data {
                EventData::Counter { name, delta, .. } if name == "executor.worker_panics" => {
                    Some(*delta)
                }
                _ => None,
            })
            .sum();
        assert_eq!(panics, 1, "exactly one panic must be counted");
        assert!(
            events.iter().any(
                |e| matches!(&e.data, EventData::Counter { name, .. } if name == "worker.jobs")
            ),
            "workers must report job counts"
        );
    }

    #[test]
    fn samples_are_collected_only_on_request() {
        let mut spec = tiny_spec();
        let without = Executor::new(2).execute(&spec).unwrap();
        assert!(without.runs.iter().all(|r| r.samples.is_empty()));
        spec.sim.collect_samples = true;
        let with = Executor::new(2).execute(&spec).unwrap();
        assert!(with
            .runs
            .iter()
            .all(|r| r.samples.len() == spec.sim.samples_per_run));
        assert_eq!(
            with.runs[0].samples[0].truth.under_attack,
            with.runs[0].spec.is_attack()
        );
    }
}
