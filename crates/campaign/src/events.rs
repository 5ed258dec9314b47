//! Reading and summarizing a campaign's telemetry event log.
//!
//! A campaign executed with telemetry enabled streams index-tagged JSONL
//! events (spans, counter deltas, histogram deltas — see
//! [`dl2fence_telemetry`]) into `events.jsonl` next to `runs.jsonl`. This
//! module is the read side: [`read_events`] loads the log through the same
//! torn-tail-tolerant scanner as the run log (a torn final line is the
//! shape of an in-flight append, not corruption), and [`summarize`] folds
//! the events into a [`TimingSummary`] — per-stage latency histograms
//! (p50/p90/p99/max), per-worker utilization and counter totals — which is
//! what `campaign watch` renders live and `campaign report --timings`
//! emits as the benchmark baseline schema.

use crate::spec::SpecError;
use crate::stream::read_jsonl;
use dl2fence_telemetry::{Event, EventData, Histogram};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Schema tag stamped into every [`TimingSummary`] so committed baselines
/// (`BENCH_campaign.json`) are self-describing. Defined once in
/// [`dl2fence_telemetry::schema`] alongside every other artifact schema.
pub use dl2fence_telemetry::schema::TIMINGS_SCHEMA;

/// A loaded telemetry event log.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// Every whole event, in file order.
    pub events: Vec<Event>,
    /// Whether the log ended in a torn (in-flight or crash-truncated) line.
    pub truncated_tail: bool,
}

/// Reads `events.jsonl` at `path`. A missing file yields an empty log (a
/// campaign run without telemetry has no events — that is not an error);
/// a torn final line is tolerated and flagged, mid-file garbage is not.
///
/// # Errors
///
/// Returns a [`SpecError`] if the log holds an unparseable line that is
/// *not* the final one, or on any I/O failure other than the file missing.
pub fn read_events(path: &Path) -> Result<EventLog, SpecError> {
    let (events, truncated_tail) = read_jsonl(path, "event log", |line| {
        Event::parse(line).map_err(|e| e.0)
    })?;
    Ok(EventLog {
        events,
        truncated_tail,
    })
}

/// One named stage's aggregated timing distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage name (`stage.detect`, `run`, `nn.detector.fwd.0.Conv2d`, ...).
    pub name: String,
    /// Observations aggregated into the distribution.
    pub count: u64,
    /// Mean duration, microseconds.
    pub mean_us: u64,
    /// Median duration, microseconds.
    pub p50_us: u64,
    /// 90th-percentile duration, microseconds.
    pub p90_us: u64,
    /// 99th-percentile duration, microseconds.
    pub p99_us: u64,
    /// Largest observed duration, microseconds.
    pub max_us: u64,
}

/// One worker thread's aggregated busy time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerUtilization {
    /// The worker's pool ordinal.
    pub worker: u64,
    /// Jobs the worker completed.
    pub jobs: u64,
    /// Total busy time, microseconds.
    pub busy_us: u64,
    /// `busy_us` over the log's wall-clock extent, in `[0, 1]`.
    pub utilization: f64,
}

/// One counter's summed total.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterTotal {
    /// Counter name.
    pub name: String,
    /// Sum of every recorded delta.
    pub total: u64,
}

/// One recording session's extent within a (possibly resume-appended)
/// event log.
///
/// Every process that appends to `events.jsonl` restarts its telemetry
/// epoch, so `t_us` drops back near zero at each resume while `seq` keeps
/// climbing. [`segment_sessions`] detects those resets and splits the log,
/// so wall-clock arithmetic never mixes epochs.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SessionSummary {
    /// Whole events recorded in the session.
    pub events: usize,
    /// The session's wall-clock extent: its largest event end time,
    /// microseconds since that process's telemetry epoch.
    pub wall_us: u64,
    /// `run` spans observed in the session (completed campaign runs).
    pub runs: u64,
}

/// The aggregate view over one telemetry event log: what `campaign watch`
/// renders and `campaign report --timings` emits.
///
/// Stages merge both sources of duration data — explicit `hist` delta
/// events and individual `span` events — bucket-exactly, so a stage timed
/// via [`dl2fence_telemetry::Recorder::time`] and one timed via spans land
/// in the same table. Stages, workers and counters are sorted by name /
/// ordinal for deterministic output.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TimingSummary {
    /// Schema tag ([`TIMINGS_SCHEMA`]).
    pub schema: String,
    /// Whole events aggregated.
    pub events: usize,
    /// Whether the log ended in a torn line (campaign still writing).
    pub truncated_tail: bool,
    /// The log's wall-clock extent: the per-session wall clocks
    /// ([`SessionSummary::wall_us`]) **summed**, so a resume-appended log
    /// measures actual recording time, not one epoch polluted by another.
    pub wall_us: u64,
    /// The recording sessions the log splits into, in file order — one per
    /// process that appended to it (a never-resumed log has exactly one).
    #[serde(default)]
    pub sessions: Vec<SessionSummary>,
    /// Per-stage latency distributions, sorted by name.
    pub stages: Vec<StageTiming>,
    /// Per-worker busy time, sorted by ordinal. Only workers that recorded
    /// `worker.busy_us` / `worker.jobs` counters appear.
    pub workers: Vec<WorkerUtilization>,
    /// Counter totals, sorted by name (`worker.*` counters are folded into
    /// [`Self::workers`] instead).
    pub counters: Vec<CounterTotal>,
}

impl TimingSummary {
    /// Serializes the summary as pretty JSON — the `campaign report
    /// --timings` output and the committed `BENCH_campaign.json` schema.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("timing serialization cannot fail")
    }

    /// Parses a summary back from [`Self::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on malformed JSON.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        serde_json::from_str(text).map_err(|e| SpecError::new(format!("invalid timings: {e}")))
    }

    /// The named stage, if present.
    pub fn stage(&self, name: &str) -> Option<&StageTiming> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// The named counter total (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.total)
            .unwrap_or(0)
    }
}

/// The end time of one event on its own session's clock: a span covers
/// `[t_us, t_us + dur_us]`, every other payload is a point.
fn event_end_us(event: &Event) -> u64 {
    match &event.data {
        EventData::Span { dur_us, .. } => event.t_us.saturating_add(*dur_us),
        _ => event.t_us,
    }
}

/// Splits a (possibly resume-appended) event log into recording sessions.
///
/// Each process that appends to `events.jsonl` restarts `t_us` at its own
/// telemetry epoch, so naive `max(t_us + dur)` arithmetic mixes epochs.
/// Within one session, file order is near-monotone in event **end** time
/// (spans are recorded when they close, counters and histograms when they
/// flush), so a session boundary shows up as an end time collapsing far
/// below the running wall clock. The split fires when an event ends below
/// half the current session's wall *and* more than a second under it — the
/// absolute floor keeps late-flushed batches from early in a session (which
/// legitimately carry small end times) from fabricating a boundary.
/// Sessions shorter than the floor can therefore still conflate; their
/// wall-clock error is bounded by the floor itself.
pub fn segment_sessions(events: &[Event]) -> Vec<SessionSummary> {
    /// Minimum absolute collapse (µs) treated as a session reset.
    const SESSION_RESET_FLOOR_US: u64 = 1_000_000;
    let mut sessions = Vec::new();
    let mut cur = SessionSummary::default();
    for event in events {
        let end_us = event_end_us(event);
        if cur.events > 0
            && end_us < cur.wall_us / 2
            && cur.wall_us - end_us > SESSION_RESET_FLOOR_US
        {
            sessions.push(std::mem::take(&mut cur));
        }
        cur.events += 1;
        cur.wall_us = cur.wall_us.max(end_us);
        if let EventData::Span { name, .. } = &event.data {
            if name == "run" {
                cur.runs += 1;
            }
        }
    }
    if cur.events > 0 {
        sessions.push(cur);
    }
    sessions
}

/// Folds an event log into its [`TimingSummary`].
pub fn summarize(log: &EventLog) -> TimingSummary {
    let mut stages: Vec<(String, Histogram)> = Vec::new();
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut workers: Vec<(u64, u64, u64)> = Vec::new(); // (ordinal, jobs, busy_us)
    let sessions = segment_sessions(&log.events);
    let wall_us: u64 = sessions.iter().map(|s| s.wall_us).sum();
    for event in &log.events {
        match &event.data {
            EventData::Span { name, dur_us, .. } => {
                stage_mut(&mut stages, name).record_us(*dur_us);
            }
            EventData::Hist { name, .. } => {
                if let Some(hist) = event.as_histogram() {
                    stage_mut(&mut stages, name).merge(&hist);
                }
            }
            EventData::Counter { name, delta, index } => match (name.as_str(), index) {
                ("worker.jobs", Some(w)) => worker_mut(&mut workers, *w).1 += delta,
                ("worker.busy_us", Some(w)) => worker_mut(&mut workers, *w).2 += delta,
                _ => match counters.iter_mut().find(|(n, _)| n == name) {
                    Some((_, total)) => *total += delta,
                    None => counters.push((name.clone(), *delta)),
                },
            },
        }
    }
    let mut stages: Vec<StageTiming> = stages
        .into_iter()
        .map(|(name, hist)| StageTiming {
            name,
            count: hist.count(),
            mean_us: hist.mean_us(),
            p50_us: hist.p50_us(),
            p90_us: hist.p90_us(),
            p99_us: hist.p99_us(),
            max_us: hist.max_us(),
        })
        .collect();
    stages.sort_by(|a, b| a.name.cmp(&b.name));
    let mut workers: Vec<WorkerUtilization> = workers
        .into_iter()
        .map(|(worker, jobs, busy_us)| WorkerUtilization {
            worker,
            jobs,
            busy_us,
            utilization: if wall_us > 0 {
                let utilization = busy_us as f64 / wall_us as f64;
                // With per-session walls summed, busy time can no longer
                // exceed recorded wall time; >1 means session segmentation
                // failed (e.g. sub-second sessions conflated), which the old
                // `.min(1.0)` clamp used to paper over.
                debug_assert!(
                    utilization <= 1.0 + 1e-6,
                    "worker {worker} busy {busy_us}µs exceeds the summed session \
                     wall {wall_us}µs"
                );
                utilization
            } else {
                0.0
            },
        })
        .collect();
    workers.sort_by_key(|w| w.worker);
    let mut counters: Vec<CounterTotal> = counters
        .into_iter()
        .map(|(name, total)| CounterTotal { name, total })
        .collect();
    counters.sort_by(|a, b| a.name.cmp(&b.name));
    TimingSummary {
        schema: TIMINGS_SCHEMA.to_string(),
        events: log.events.len(),
        truncated_tail: log.truncated_tail,
        wall_us,
        sessions,
        stages,
        workers,
        counters,
    }
}

/// [`read_events`] + [`summarize`] in one call.
///
/// # Errors
///
/// Returns a [`SpecError`] under the same conditions as [`read_events`].
pub fn summarize_events(path: &Path) -> Result<TimingSummary, SpecError> {
    Ok(summarize(&read_events(path)?))
}

fn stage_mut<'a>(stages: &'a mut Vec<(String, Histogram)>, name: &str) -> &'a mut Histogram {
    if let Some(i) = stages.iter().position(|(n, _)| n == name) {
        return &mut stages[i].1;
    }
    stages.push((name.to_string(), Histogram::new()));
    &mut stages.last_mut().expect("just pushed").1
}

fn worker_mut(workers: &mut Vec<(u64, u64, u64)>, ordinal: u64) -> &mut (u64, u64, u64) {
    if let Some(i) = workers.iter().position(|(w, _, _)| *w == ordinal) {
        return &mut workers[i];
    }
    workers.push((ordinal, 0, 0));
    workers.last_mut().expect("just pushed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl2fence_telemetry::{MemorySink, Telemetry};
    use std::sync::Arc;

    fn write_log(dir: &Path, lines: &[&str]) -> std::path::PathBuf {
        let path = dir.join("events.jsonl");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        path
    }

    fn events_from_recorder(f: impl FnOnce(&dl2fence_telemetry::Recorder)) -> Vec<Event> {
        let sink = Arc::new(MemorySink::new());
        let telemetry = Telemetry::with_sink(sink.clone());
        let rec = telemetry.recorder();
        f(&rec);
        drop(rec);
        sink.take()
    }

    #[test]
    fn missing_log_is_empty_not_an_error() {
        let dir = std::env::temp_dir().join("dl2fence-events-missing");
        let log = read_events(&dir.join("nope.jsonl")).unwrap();
        assert!(log.events.is_empty());
        assert!(!log.truncated_tail);
        let summary = summarize(&log);
        assert_eq!(summary.events, 0);
        assert!(summary.stages.is_empty());
    }

    #[test]
    fn torn_tail_is_tolerated_mid_file_garbage_is_not() {
        let dir = std::env::temp_dir().join("dl2fence-events-torn");
        std::fs::create_dir_all(&dir).unwrap();
        let events = events_from_recorder(|rec| {
            rec.time("stage.detect", || {
                std::thread::sleep(std::time::Duration::from_micros(50))
            });
            rec.add("runs", 2);
        });
        let mut lines: Vec<String> = events.iter().map(|e| e.emit()).collect();
        assert!(lines.len() >= 2, "expected hist + counter deltas");
        let whole = lines.clone();
        lines.push("{\"seq\":99,\"t_us\":1,\"wor".to_string()); // torn tail
        let path = write_log(&dir, &lines.iter().map(String::as_str).collect::<Vec<_>>());
        let log = read_events(&path).unwrap();
        assert_eq!(log.events.len(), whole.len());
        assert!(log.truncated_tail);

        let mut bad = whole.clone();
        bad.insert(0, "not json".to_string());
        let path = write_log(&dir, &bad.iter().map(String::as_str).collect::<Vec<_>>());
        assert!(read_events(&path).is_err(), "mid-file garbage must error");
    }

    fn span(seq: u64, t_us: u64, name: &str, dur_us: u64) -> Event {
        Event {
            seq,
            t_us,
            worker: 0,
            data: EventData::Span {
                name: name.to_string(),
                dur_us,
                parent: None,
                index: None,
            },
        }
    }

    fn counter(seq: u64, t_us: u64, name: &str, delta: u64, index: Option<u64>) -> Event {
        Event {
            seq,
            t_us,
            worker: 0,
            data: EventData::Counter {
                name: name.to_string(),
                delta,
                index,
            },
        }
    }

    #[test]
    fn summary_merges_spans_hists_and_worker_counters() {
        // A time-consistent synthetic session: 10ms of wall clock, with the
        // worker counters well inside it (the utilization debug assertion
        // rejects busy time exceeding recorded wall time).
        let mut events = vec![span(0, 0, "campaign.execute", 10_000)];
        for (i, mut event) in events_from_recorder(|rec| {
            rec.record_us("stage.detect", 100);
            rec.record_us("stage.detect", 300);
        })
        .into_iter()
        .enumerate()
        {
            event.seq = 1 + i as u64;
            event.t_us = 5_000;
            events.push(event);
        }
        events.push(counter(10, 9_000, "worker.jobs", 3, Some(0)));
        events.push(counter(11, 9_000, "worker.busy_us", 900, Some(0)));
        events.push(counter(12, 9_000, "worker.jobs", 2, Some(1)));
        events.push(counter(13, 9_000, "worker.busy_us", 500, Some(1)));
        events.push(counter(14, 9_000, "executor.worker_panics", 1, None));
        let summary = summarize(&EventLog {
            events,
            truncated_tail: false,
        });
        let detect = summary.stage("stage.detect").unwrap();
        assert_eq!(detect.count, 2);
        assert!(detect.max_us >= 256, "300µs lands in the [256,512) bucket");
        assert!(summary.stage("campaign.execute").is_some());
        assert_eq!(summary.wall_us, 10_000);
        assert_eq!(summary.sessions.len(), 1);
        assert_eq!(summary.workers.len(), 2);
        assert_eq!(summary.workers[0].worker, 0);
        assert_eq!(summary.workers[0].jobs, 3);
        assert_eq!(summary.workers[0].busy_us, 900);
        assert!((summary.workers[0].utilization - 0.09).abs() < 1e-9);
        assert_eq!(summary.workers[1].jobs, 2);
        assert_eq!(summary.counter("executor.worker_panics"), 1);
        assert!(
            summary
                .counters
                .iter()
                .all(|c| !c.name.starts_with("worker.")),
            "worker counters fold into the workers table"
        );
        // Deterministic ordering and a lossless JSON round trip.
        let parsed = TimingSummary::from_json(&summary.to_json()).unwrap();
        assert_eq!(parsed, summary);
        assert_eq!(parsed.schema, TIMINGS_SCHEMA);
    }

    #[test]
    fn resume_appended_logs_split_into_sessions_and_walls_sum() {
        // Session 1: 5s of recording, worker 0 busy 4s. Session 2 appends
        // after a resume — its epoch restarts near zero — 3s of recording,
        // busy another 2.5s. The old `max(t_us + dur)` arithmetic kept
        // wall at 5s and yielded busy/wall = 6.5/5 = 1.3, silently clamped
        // to 1.0.
        let events = vec![
            span(0, 0, "run", 2_000_000),
            span(1, 2_000_000, "run", 3_000_000),
            // A late-flushed batch carrying early end times must NOT split
            // a session (the gap exceeds 1s but not half the wall... it is
            // above wall/2): end 4s > 5s/2.
            counter(2, 4_000_000, "log.appends", 2, None),
            counter(3, 5_000_000, "worker.busy_us", 4_000_000, Some(0)),
            counter(4, 5_000_000, "worker.jobs", 2, Some(0)),
            // Resume: t_us collapses far below the running wall.
            span(5, 1_000, "run", 1_500_000),
            counter(6, 3_000_000, "worker.busy_us", 2_500_000, Some(0)),
            counter(7, 3_000_000, "worker.jobs", 1, Some(0)),
        ];
        let summary = summarize(&EventLog {
            events,
            truncated_tail: false,
        });
        assert_eq!(summary.sessions.len(), 2, "one session per process");
        assert_eq!(summary.sessions[0].wall_us, 5_000_000);
        assert_eq!(summary.sessions[0].runs, 2);
        assert_eq!(summary.sessions[1].wall_us, 3_000_000);
        assert_eq!(summary.sessions[1].runs, 1);
        assert_eq!(summary.wall_us, 8_000_000, "session walls sum");
        let worker = &summary.workers[0];
        assert_eq!(worker.busy_us, 6_500_000);
        assert!(
            worker.utilization <= 1.0,
            "busy time cannot exceed summed recorded wall time"
        );
        assert!((worker.utilization - 6.5 / 8.0).abs() < 1e-9);
        // `sessions` survives the JSON round trip (and old baselines
        // without the field still parse — it defaults empty).
        let parsed = TimingSummary::from_json(&summary.to_json()).unwrap();
        assert_eq!(parsed.sessions, summary.sessions);
        let legacy = TimingSummary::from_json(
            "{\"schema\":\"dl2fence-campaign/timings/v1\",\"events\":0,\
             \"truncated_tail\":false,\"wall_us\":0,\"stages\":[],\
             \"workers\":[],\"counters\":[]}",
        )
        .unwrap();
        assert!(legacy.sessions.is_empty(), "pre-sessions baselines parse");
    }
}
