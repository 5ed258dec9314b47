//! Live campaign progress: `campaign watch <dir>`.
//!
//! [`WatchSnapshot::capture`] combines the read-only directory inspection
//! of [`crate::status`] with the telemetry event log ([`crate::events`])
//! into one moment-in-time progress view: completed/missing runs,
//! throughput and ETA (derived from the telemetry wall clock), per-worker
//! utilization and per-stage latency quantiles. Everything is read-only
//! and torn-tail-tolerant, so watching a campaign mid-execution is safe —
//! the same guarantee `campaign status` gives, plus the live numbers.

use crate::events::{summarize_events, TimingSummary};
use crate::spec::SpecError;
use crate::status::{human_bytes, status, DirStatus};
use crate::stream::EVENTS_FILE;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::Path;

/// One moment-in-time view of a running (or finished) campaign directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WatchSnapshot {
    /// The directory's stored/missing state (see [`crate::status`]).
    pub dir: DirStatus,
    /// Completed fraction of the owned runs, always finite and in
    /// `[0, 1]`. A spec that expands to zero runs (an empty grid) is
    /// complete by definition, so it reports `1.0` — never `NaN`.
    pub progress: f64,
    /// Aggregated telemetry, when the campaign runs with `--telemetry`.
    /// `None` means no event log exists — progress still works, rates
    /// don't.
    pub timings: Option<TimingSummary>,
    /// Completed runs per second, measured over the **current recording
    /// session's** window — dead time between sessions (a resume) would
    /// otherwise deflate the rate and inflate the ETA. Falls back to completed-runs over whole-log wall
    /// time when the current session carries no timed runs. `None` without
    /// telemetry, and `None` while the log is still warming up — events
    /// exist but no run has both completed and advanced the telemetry
    /// wall clock (`wall_us == 0`), where a naive division would report
    /// `inf` runs/s and a `0.0s` ETA.
    pub runs_per_sec: Option<f64>,
    /// Estimated seconds until the missing runs complete at the observed
    /// rate. `None` whenever [`Self::runs_per_sec`] is.
    pub eta_secs: Option<f64>,
}

impl WatchSnapshot {
    /// Captures one snapshot of the campaign directory at `path`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if `path` is not a campaign directory or a
    /// log is corrupt mid-file (torn tails are tolerated).
    pub fn capture(path: &Path) -> Result<Self, SpecError> {
        let mut report = status(&[path.to_path_buf()])?;
        let dir = report.dirs.remove(0);
        let timings = {
            let summary = summarize_events(&path.join(EVENTS_FILE))?;
            (summary.events > 0).then_some(summary)
        };
        // `0/0` runs is a complete (if vacuous) campaign, not NaN.
        let progress = if dir.owned_runs > 0 {
            (dir.completed as f64 / dir.owned_runs as f64).clamp(0.0, 1.0)
        } else {
            1.0
        };
        // A zero wall clock means the log exists but no flushed event has
        // advanced time yet (first batch in flight): dividing would yield
        // `inf` runs/s and a 0.0s ETA, so stay in the warming-up state.
        let runs_per_sec = timings.as_ref().and_then(|t| {
            // Rate over the *current* session's window: a resume-appended
            // log carries dead time between sessions that is not execution
            // time. A current session with no timed runs (counter-only
            // telemetry) falls back to the whole-log rate.
            match t.sessions.last() {
                Some(s) if s.runs > 0 && s.wall_us > 0 => {
                    Some(s.runs as f64 / (s.wall_us as f64 / 1e6))
                }
                _ => (t.wall_us > 0 && dir.completed > 0)
                    .then(|| dir.completed as f64 / (t.wall_us as f64 / 1e6)),
            }
        });
        let eta_secs = runs_per_sec
            .filter(|rps| *rps > 0.0)
            .map(|rps| dir.missing.len() as f64 / rps);
        Ok(WatchSnapshot {
            dir,
            progress,
            timings,
            runs_per_sec,
            eta_secs,
        })
    }

    /// `true` once every owned run is stored — the watch loop's exit
    /// condition.
    pub fn complete(&self) -> bool {
        self.dir.missing.is_empty()
    }

    /// Serializes the snapshot as pretty JSON (`campaign watch --json`).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization cannot fail")
    }

    /// Renders the snapshot as a human-readable progress screen.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: campaign `{}`{}",
            self.dir.path,
            self.dir.name,
            match self.dir.shard {
                Some(s) => format!(" [shard {}/{}]", s.index, s.count),
                None => String::new(),
            }
        );
        let _ = writeln!(
            out,
            "  [{}] {}/{} runs ({:.0}%){}{}",
            progress_bar(self.progress, 30),
            self.dir.completed,
            self.dir.owned_runs,
            self.progress * 100.0,
            if self.dir.truncated_tail {
                ", appending"
            } else {
                ""
            },
            if self.dir.report_written {
                ", report written"
            } else {
                ""
            },
        );
        if self.dir.owned_runs == 0 {
            let _ = writeln!(out, "  (spec expands to zero runs — nothing to execute)");
        }
        let _ = writeln!(out, "  log: {}", human_bytes(self.dir.runs_bytes));
        match (self.runs_per_sec, self.eta_secs) {
            (Some(rps), Some(eta)) if !self.complete() => {
                let _ = writeln!(out, "  throughput: {rps:.2} runs/s, ETA {eta:.1}s");
            }
            (Some(rps), _) => {
                let _ = writeln!(out, "  throughput: {rps:.2} runs/s");
            }
            (None, _) if self.timings.is_some() && !self.complete() => {
                let _ = writeln!(out, "  throughput: warming up (no timed runs yet)");
            }
            _ => {}
        }
        if let Some(t) = &self.timings {
            if t.sessions.len() > 1 {
                let _ = writeln!(
                    out,
                    "  sessions: {} (rates measured over the current one)",
                    t.sessions.len()
                );
            }
        }
        if let Some(t) = &self.timings {
            if !t.workers.is_empty() {
                let line: Vec<String> = t
                    .workers
                    .iter()
                    .map(|w| {
                        format!(
                            "w{} {:.0}% ({} jobs)",
                            w.worker,
                            w.utilization * 100.0,
                            w.jobs
                        )
                    })
                    .collect();
                let _ = writeln!(out, "  workers: {}", line.join(", "));
            }
            let panics = t.counter("executor.worker_panics");
            if panics > 0 {
                let _ = writeln!(out, "  PANICS: {panics} worker job(s) panicked");
            }
            if !t.stages.is_empty() {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
                    "stage", "count", "mean µs", "p50 µs", "p99 µs", "max µs"
                );
                for s in &t.stages {
                    let _ = writeln!(
                        out,
                        "  {:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
                        s.name, s.count, s.mean_us, s.p50_us, s.p99_us, s.max_us
                    );
                }
            }
        } else {
            let _ = writeln!(
                out,
                "  (no events.jsonl — run the campaign with --telemetry for rates \
                 and stage timings)"
            );
        }
        out
    }
}

fn progress_bar(fraction: f64, width: usize) -> String {
    let clamped = fraction.clamp(0.0, 1.0);
    // Fill with floor, not round: 29.5/30 must render one cell short — a
    // full bar before the campaign completes reads as "done". The bar only
    // fills completely at fraction >= 1.0.
    let filled = if clamped >= 1.0 {
        width
    } else {
        ((clamped * width as f64).floor() as usize).min(width.saturating_sub(1))
    };
    let mut bar = String::with_capacity(width);
    for _ in 0..filled {
        bar.push('#');
    }
    for _ in filled..width {
        bar.push('.');
    }
    bar
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_bar_fills_proportionally() {
        assert_eq!(progress_bar(0.0, 10), "..........");
        assert_eq!(progress_bar(0.5, 10), "#####.....");
        assert_eq!(progress_bar(1.0, 10), "##########");
        assert_eq!(progress_bar(7.5, 10), "##########"); // clamped
    }

    #[test]
    fn progress_bar_never_fills_before_completion() {
        // 29.5/30 used to round up to a full bar — it must stay one short.
        assert_eq!(progress_bar(29.5 / 30.0, 30).matches('#').count(), 29);
        assert_eq!(progress_bar(0.99, 10), "#########.");
        assert_eq!(progress_bar(0.049, 10), "..........");
        // Anything short of 1.0 leaves at least one empty cell, even when
        // floating-point puts the product within rounding of the width.
        assert_eq!(progress_bar(1.0 - 1e-12, 10).matches('#').count(), 9);
        assert_eq!(progress_bar(1.0, 1), "#");
        assert_eq!(progress_bar(0.9, 1), ".");
    }
}
