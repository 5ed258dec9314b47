//! The service's observable state: SLO metrics and accounting as one
//! serializable snapshot (`dl2fence-serve status --json`).

use dl2fence_campaign::StageTiming;
use serde::{Deserialize, Serialize};

/// Schema tag stamped into every [`ServeStatus`]. Defined once in
/// [`dl2fence_telemetry::schema`] alongside every other artifact schema.
pub use dl2fence_telemetry::schema::STATUS_SCHEMA;

/// One rejection reason's count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectCount {
    /// Reason name (see [`crate::RejectReason::name`]).
    pub reason: String,
    /// Windows/frames rejected for this reason.
    pub count: u64,
}

/// A moment-in-time snapshot of a running service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStatus {
    /// Schema tag ([`STATUS_SCHEMA`]).
    pub schema: String,
    /// Open tenant sessions.
    pub tenants: usize,
    /// Frames offered to ingestion (accepted or not).
    pub ingested_frames: u64,
    /// Windows that completed assembly and entered a ring.
    pub assembled_windows: u64,
    /// Rejections by reason, sorted by reason name. The backpressure
    /// contract: nothing is silently dropped, so
    /// `assembled + rejected-window reasons` accounts for every completed
    /// window.
    pub rejected: Vec<RejectCount>,
    /// Sum over [`Self::rejected`].
    pub rejected_total: u64,
    /// Windows currently queued in tenant rings.
    pub queued: usize,
    /// Windows taken by workers but not yet verdicted.
    pub in_flight: usize,
    /// Verdicts produced since start.
    pub verdicts: u64,
    /// Verdicts whose window was flagged (ran the localization tail).
    pub flagged: u64,
    /// The current model bundle version.
    pub model_version: u64,
    /// Fingerprint of the served pipeline, weights and configuration (see
    /// [`crate::ModelBundle::fingerprint`]).
    pub model_fingerprint: u64,
    /// Completed hot-swaps since start.
    pub swaps: u64,
    /// End-to-end latency (window assembled → verdict recorded); `None`
    /// before the first verdict.
    pub e2e: Option<StageTiming>,
    /// Per-stage latencies (`stage.detect`, `stage.segment`, ...), sorted
    /// by name.
    pub stages: Vec<StageTiming>,
}

impl ServeStatus {
    /// Serializes the snapshot as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("status serialization cannot fail")
    }

    /// Parses a snapshot back from [`Self::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on malformed input.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// The named stage summary, if present.
    pub fn stage(&self, name: &str) -> Option<&StageTiming> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// The count for one rejection reason (0 if never hit).
    pub fn rejected_for(&self, reason: &str) -> u64 {
        self.rejected
            .iter()
            .find(|r| r.reason == reason)
            .map(|r| r.count)
            .unwrap_or(0)
    }

    /// Renders the snapshot as a human-readable screen.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "dl2fence-serve: {} tenant(s), model v{} (fingerprint {:016x}), {} swap(s)",
            self.tenants, self.model_version, self.model_fingerprint, self.swaps,
        );
        let _ = writeln!(
            out,
            "  frames: {} in, windows: {} assembled, {} queued, {} in flight",
            self.ingested_frames, self.assembled_windows, self.queued, self.in_flight
        );
        let _ = writeln!(
            out,
            "  verdicts: {} ({} flagged), rejected: {}",
            self.verdicts, self.flagged, self.rejected_total
        );
        for r in &self.rejected {
            if r.count > 0 {
                let _ = writeln!(out, "    reject.{}: {}", r.reason, r.count);
            }
        }
        let mut rows: Vec<&StageTiming> = Vec::new();
        if let Some(e2e) = &self.e2e {
            rows.push(e2e);
        }
        rows.extend(self.stages.iter());
        if !rows.is_empty() {
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "latency", "count", "mean µs", "p50 µs", "p99 µs", "max µs"
            );
            for s in rows {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
                    s.name, s.count, s.mean_us, s.p50_us, s.p99_us, s.max_us
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_round_trips_through_json() {
        let status = ServeStatus {
            schema: STATUS_SCHEMA.to_string(),
            tenants: 3,
            ingested_frames: 96,
            assembled_windows: 12,
            rejected: vec![RejectCount {
                reason: "queue_full".to_string(),
                count: 1,
            }],
            rejected_total: 1,
            queued: 0,
            in_flight: 0,
            verdicts: 11,
            flagged: 4,
            model_version: 1,
            model_fingerprint: 0xDEADBEEF,
            swaps: 1,
            e2e: Some(StageTiming {
                name: "serve.e2e".to_string(),
                count: 11,
                mean_us: 800,
                p50_us: 700,
                p90_us: 1500,
                p99_us: 2100,
                max_us: 2500,
            }),
            stages: vec![],
        };
        let parsed = ServeStatus::from_json(&status.to_json()).unwrap();
        assert_eq!(parsed, status);
        assert_eq!(parsed.rejected_for("queue_full"), 1);
        assert_eq!(parsed.rejected_for("shape_mismatch"), 0);
        let screen = status.render();
        assert!(screen.contains("model v1 (fingerprint 00000000deadbeef)"));
        assert!(screen.contains("reject.queue_full: 1"));
        assert!(screen.contains("serve.e2e"));
    }

    #[test]
    fn a_v1_snapshot_with_its_quantized_flag_still_renders() {
        let v1 = r#"{
  "schema": "dl2fence-serve/status/v1",
  "tenants": 3,
  "ingested_frames": 96,
  "assembled_windows": 12,
  "rejected": [{"reason": "queue_full", "count": 1}],
  "rejected_total": 1,
  "queued": 0,
  "in_flight": 0,
  "verdicts": 11,
  "flagged": 4,
  "model_version": 1,
  "model_fingerprint": 3735928559,
  "quantized": true,
  "swaps": 1,
  "e2e": {"name": "serve.e2e", "count": 11, "mean_us": 800, "p50_us": 700,
          "p90_us": 1500, "p99_us": 2100, "max_us": 2500},
  "stages": []
}"#;
        let status = ServeStatus::from_json(v1).expect("v1 snapshots stay readable");
        assert_eq!(status.schema, "dl2fence-serve/status/v1");
        assert_eq!(status.e2e.as_ref().map(|e| e.p99_us), Some(2100));
        let screen = status.render();
        assert!(screen.contains("model v1 (fingerprint 00000000deadbeef), 1 swap(s)"));
        assert!(screen.contains("reject.queue_full: 1"));
    }
}
