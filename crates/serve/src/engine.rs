//! The multi-tenant ingestion engine: sessions, accounting and fair
//! cross-tenant draining.
//!
//! [`ServeEngine`] is the synchronous core of the service — no threads, no
//! locks — so every ingest/drain/accounting behavior is unit-testable
//! deterministically. [`crate::DetectionService`] wraps it in a mutex and
//! adds a worker pool that drains batches from it directly.

use crate::assembler::{AssembledWindow, FrameAssembler, RejectReason};
use noc_monitor::{FeatureFrame, FeatureKind};
use std::collections::BTreeMap;

/// Monotonic ingestion counters — the accounting half of the backpressure
/// contract: every ingested frame is either absorbed, completes an
/// accepted window, or increments exactly one rejection counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Frames offered to `ingest`, accepted or not.
    pub ingested_frames: u64,
    /// Windows that completed assembly and entered a ring.
    pub assembled_windows: u64,
    /// Rejections by reason name (see [`RejectReason::name`]).
    pub rejected: BTreeMap<&'static str, u64>,
}

impl EngineCounters {
    /// Total rejections across all reasons.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.values().sum()
    }

    /// The count for one reason (0 if never hit).
    pub fn rejected_for(&self, reason: RejectReason) -> u64 {
        self.rejected.get(reason.name()).copied().unwrap_or(0)
    }
}

/// The synchronous multi-tenant ingestion engine.
pub struct ServeEngine {
    rows: usize,
    cols: usize,
    detection_kind: FeatureKind,
    localization_kind: FeatureKind,
    queue_capacity: usize,
    max_tenants: usize,
    sessions: BTreeMap<u64, FrameAssembler>,
    counters: EngineCounters,
    /// Round-robin resume point so one chatty tenant cannot starve others.
    next_drain_tenant: u64,
}

impl ServeEngine {
    /// Creates an engine serving `rows × cols` meshes with the given
    /// feature pair, per-tenant ring capacity and tenant limit.
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity` or `max_tenants` is zero.
    pub fn new(
        rows: usize,
        cols: usize,
        detection_kind: FeatureKind,
        localization_kind: FeatureKind,
        queue_capacity: usize,
        max_tenants: usize,
    ) -> Self {
        assert!(queue_capacity > 0, "queue capacity must be positive");
        assert!(max_tenants > 0, "at least one tenant must fit");
        ServeEngine {
            rows,
            cols,
            detection_kind,
            localization_kind,
            queue_capacity,
            max_tenants,
            sessions: BTreeMap::new(),
            counters: EngineCounters::default(),
            next_drain_tenant: 0,
        }
    }

    /// Ingests one frame for `tenant`, opening a session on first contact.
    ///
    /// Returns `Ok(Some(seq))` when the frame completed window `seq`,
    /// `Ok(None)` when absorbed, `Err(reason)` when rejected. Every
    /// outcome is counted — rejection is explicit, never a silent drop.
    pub fn ingest(
        &mut self,
        tenant: u64,
        frame: FeatureFrame,
    ) -> Result<Option<u64>, RejectReason> {
        self.counters.ingested_frames += 1;
        if !self.sessions.contains_key(&tenant) {
            if self.sessions.len() >= self.max_tenants {
                return Err(self.reject(RejectReason::TenantLimit));
            }
            self.sessions.insert(
                tenant,
                FrameAssembler::new(
                    tenant,
                    self.rows,
                    self.cols,
                    self.detection_kind,
                    self.localization_kind,
                    self.queue_capacity,
                ),
            );
        }
        let session = self.sessions.get_mut(&tenant).expect("just ensured");
        match session.ingest(frame) {
            Ok(Some(seq)) => {
                self.counters.assembled_windows += 1;
                Ok(Some(seq))
            }
            Ok(None) => Ok(None),
            Err(reason) => Err(self.reject(reason)),
        }
    }

    fn reject(&mut self, reason: RejectReason) -> RejectReason {
        *self.counters.rejected.entry(reason.name()).or_insert(0) += 1;
        reason
    }

    /// Drains up to `max` ready windows, round-robin across tenants so a
    /// backlogged tenant cannot starve the rest. Returns fewer (possibly
    /// zero) when the rings hold less.
    pub fn drain(&mut self, max: usize) -> Vec<AssembledWindow> {
        let mut out = Vec::new();
        if max == 0 || self.sessions.is_empty() {
            return out;
        }
        loop {
            let mut popped_any = false;
            // One round: a single window from each tenant, starting after
            // the previous round's resume point.
            let tenants: Vec<u64> = self
                .sessions
                .range(self.next_drain_tenant..)
                .map(|(t, _)| *t)
                .chain(
                    self.sessions
                        .range(..self.next_drain_tenant)
                        .map(|(t, _)| *t),
                )
                .collect();
            for tenant in tenants {
                if out.len() >= max {
                    self.next_drain_tenant = tenant;
                    return out;
                }
                if let Some(w) = self.sessions.get_mut(&tenant).expect("listed").pop() {
                    out.push(w);
                    popped_any = true;
                }
            }
            if !popped_any || out.len() >= max {
                return out;
            }
        }
    }

    /// Total windows queued across all tenants.
    pub fn queued(&self) -> usize {
        self.sessions.values().map(|s| s.queued()).sum()
    }

    /// Open tenant sessions.
    pub fn tenants(&self) -> usize {
        self.sessions.len()
    }

    /// The accounting counters.
    pub fn counters(&self) -> &EngineCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::Direction;

    fn window_frames(kind_pair: (FeatureKind, FeatureKind)) -> Vec<FeatureFrame> {
        let mut frames = Vec::new();
        for kind in [kind_pair.0, kind_pair.1] {
            for dir in Direction::CARDINAL {
                frames.push(FeatureFrame::zeros(dir, kind, 4, 4));
            }
            if kind_pair.0 == kind_pair.1 {
                break;
            }
        }
        frames
    }

    fn ingest_window(engine: &mut ServeEngine, tenant: u64) -> Result<Option<u64>, RejectReason> {
        let mut last = Ok(None);
        for f in window_frames((FeatureKind::Vco, FeatureKind::Boc)) {
            last = engine.ingest(tenant, f);
        }
        last
    }

    fn engine(capacity: usize, max_tenants: usize) -> ServeEngine {
        ServeEngine::new(
            4,
            4,
            FeatureKind::Vco,
            FeatureKind::Boc,
            capacity,
            max_tenants,
        )
    }

    #[test]
    fn accounting_identity_holds() {
        let mut e = engine(1, 4);
        assert_eq!(ingest_window(&mut e, 0), Ok(Some(0)));
        assert_eq!(ingest_window(&mut e, 0), Err(RejectReason::QueueFull));
        assert_eq!(ingest_window(&mut e, 1), Ok(Some(0)));
        let c = e.counters();
        assert_eq!(c.ingested_frames, 24);
        assert_eq!(c.assembled_windows, 2);
        assert_eq!(c.rejected_for(RejectReason::QueueFull), 1);
        assert_eq!(c.rejected_total(), 1);
        assert_eq!(e.queued(), 2);
    }

    #[test]
    fn tenant_limit_rejects_new_sessions_only() {
        let mut e = engine(2, 2);
        assert_eq!(ingest_window(&mut e, 0), Ok(Some(0)));
        assert_eq!(ingest_window(&mut e, 1), Ok(Some(0)));
        // A third tenant is rejected on its very first frame...
        let first = window_frames((FeatureKind::Vco, FeatureKind::Boc)).remove(0);
        assert_eq!(e.ingest(2, first), Err(RejectReason::TenantLimit));
        // ...but existing tenants keep streaming.
        assert_eq!(ingest_window(&mut e, 0), Ok(Some(1)));
        assert_eq!(e.tenants(), 2);
        assert_eq!(e.counters().rejected_for(RejectReason::TenantLimit), 1);
    }

    #[test]
    fn drain_is_round_robin_fair() {
        let mut e = engine(4, 4);
        // Tenant 0 queues three windows, tenant 5 queues two.
        for _ in 0..3 {
            ingest_window(&mut e, 0).unwrap();
        }
        for _ in 0..2 {
            ingest_window(&mut e, 5).unwrap();
        }
        let drained = e.drain(4);
        let order: Vec<(u64, u64)> = drained.iter().map(|w| (w.tenant, w.seq)).collect();
        // Alternating rounds, not tenant 0 exhausted first.
        assert_eq!(order, vec![(0, 0), (5, 0), (0, 1), (5, 1)]);
        assert_eq!(e.queued(), 1);
        let rest = e.drain(10);
        assert_eq!(rest.len(), 1);
        assert_eq!((rest[0].tenant, rest[0].seq), (0, 2));
        assert!(e.drain(10).is_empty(), "an idle drain tick is empty");
    }
}
