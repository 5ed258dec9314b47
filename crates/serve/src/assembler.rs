//! Per-tenant frame assembly with bounded buffering and explicit
//! backpressure.
//!
//! The monitor layer delivers feature frames one direction at a time (the
//! wire shape of a mesh streaming its sampler output). A
//! [`FrameAssembler`] reassembles them into the 4-frame
//! [`DirectionalFrames`] bundles the pipeline consumes — one bundle per
//! feature kind — and queues completed windows in a bounded ring. When the
//! ring is full the completing window is **rejected with a reason**, never
//! silently dropped: the caller learns, the counter increments, and the
//! tenant can replay the window once the ring drains.

use noc_monitor::{DirectionalFrames, FeatureFrame, FeatureKind};
use noc_sim::Direction;
use std::collections::VecDeque;
use std::time::Instant;

/// Why an ingested frame (or the window it completed) was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The window completed while the tenant's ring buffer was full. The
    /// whole window is rejected; replay it after the ring drains.
    QueueFull,
    /// The service is at its tenant limit and cannot open a new session.
    TenantLimit,
    /// The frame's mesh shape does not match the served model.
    ShapeMismatch,
    /// The frame's feature kind is neither the detection nor the
    /// localization feature of the served model.
    KindMismatch,
    /// The frame arrived out of E, N, W, S order for its kind; the
    /// partially assembled bundle of that kind is discarded.
    DirectionOrder,
    /// The frame holds a NaN or infinite value. The frame is rejected
    /// before assembly; the partial bundle of its kind is kept, so the
    /// tenant can resend a finite frame for the same direction.
    NonFinite,
}

impl RejectReason {
    /// The stable counter suffix for this reason (`serve.reject.<name>`).
    pub fn name(&self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::TenantLimit => "tenant_limit",
            RejectReason::ShapeMismatch => "shape_mismatch",
            RejectReason::KindMismatch => "kind_mismatch",
            RejectReason::DirectionOrder => "direction_order",
            RejectReason::NonFinite => "non_finite",
        }
    }

    /// Every reason, for exhaustive counter reporting.
    pub const ALL: [RejectReason; 6] = [
        RejectReason::QueueFull,
        RejectReason::TenantLimit,
        RejectReason::ShapeMismatch,
        RejectReason::KindMismatch,
        RejectReason::DirectionOrder,
        RejectReason::NonFinite,
    ];
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One fully assembled monitoring window, ready for inference.
#[derive(Debug, Clone)]
pub struct AssembledWindow {
    /// The owning tenant.
    pub tenant: u64,
    /// The tenant's monotonically increasing window sequence number.
    pub seq: u64,
    /// The detection-feature bundle (what the detector CNN sees).
    pub detection: DirectionalFrames,
    /// The localization-feature bundle (what the segment → fuse →
    /// localize tail sees when the window is flagged).
    pub localization: DirectionalFrames,
    /// When assembly completed — the start of the end-to-end latency
    /// measurement.
    pub assembled_at: Instant,
}

/// One tenant's reassembly state plus its bounded ready-window ring.
#[derive(Debug)]
pub struct FrameAssembler {
    tenant: u64,
    rows: usize,
    cols: usize,
    detection_kind: FeatureKind,
    localization_kind: FeatureKind,
    capacity: usize,
    partial_detection: Vec<FeatureFrame>,
    partial_localization: Vec<FeatureFrame>,
    pending_detection: Option<DirectionalFrames>,
    pending_localization: Option<DirectionalFrames>,
    ready: VecDeque<AssembledWindow>,
    next_seq: u64,
}

impl FrameAssembler {
    /// Creates an assembler for one tenant streaming `rows × cols` frames.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a ring that can hold nothing would
    /// reject every window.
    pub fn new(
        tenant: u64,
        rows: usize,
        cols: usize,
        detection_kind: FeatureKind,
        localization_kind: FeatureKind,
        capacity: usize,
    ) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        FrameAssembler {
            tenant,
            rows,
            cols,
            detection_kind,
            localization_kind,
            capacity,
            partial_detection: Vec::with_capacity(4),
            partial_localization: Vec::with_capacity(4),
            pending_detection: None,
            pending_localization: None,
            ready: VecDeque::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Ingests one directional frame.
    ///
    /// Returns `Ok(Some(seq))` when the frame completed window `seq` and
    /// the window was queued, `Ok(None)` when the frame was absorbed into a
    /// partial bundle, and `Err` when the frame (or the window it would
    /// have completed) was rejected. On [`RejectReason::QueueFull`] the
    /// completed window is discarded but fully accounted: the tenant
    /// replays the same window's frames once the ring drains — its
    /// sequence number is not consumed.
    pub fn ingest(&mut self, frame: FeatureFrame) -> Result<Option<u64>, RejectReason> {
        if frame.rows() != self.rows || frame.cols() != self.cols {
            return Err(RejectReason::ShapeMismatch);
        }
        let kind = frame.kind();
        if kind != self.detection_kind && kind != self.localization_kind {
            return Err(RejectReason::KindMismatch);
        }
        if !frame.data().iter().all(|v| v.is_finite()) {
            return Err(RejectReason::NonFinite);
        }
        let partial = if kind == self.detection_kind {
            &mut self.partial_detection
        } else {
            &mut self.partial_localization
        };
        if frame.direction() != Direction::CARDINAL[partial.len()] {
            partial.clear();
            return Err(RejectReason::DirectionOrder);
        }
        partial.push(frame);
        if partial.len() == 4 {
            let bundle = DirectionalFrames::new(std::mem::take(partial));
            if kind == self.detection_kind {
                self.pending_detection = Some(bundle);
            } else {
                self.pending_localization = Some(bundle);
            }
        }
        self.try_complete()
    }

    /// Completes a window when both bundles are pending. A single-feature
    /// configuration (detection and localization share a kind) needs only
    /// one bundle, which then serves both roles.
    fn try_complete(&mut self) -> Result<Option<u64>, RejectReason> {
        let single_feature = self.detection_kind == self.localization_kind;
        let complete = if single_feature {
            self.pending_detection.is_some()
        } else {
            self.pending_detection.is_some() && self.pending_localization.is_some()
        };
        if !complete {
            return Ok(None);
        }
        if self.ready.len() >= self.capacity {
            // Backpressure: the window is rejected with a reason, not
            // silently dropped. Its frames are discarded so the tenant can
            // replay the whole window; the sequence number is preserved.
            self.pending_detection = None;
            self.pending_localization = None;
            return Err(RejectReason::QueueFull);
        }
        let detection = self.pending_detection.take().expect("checked above");
        let localization = if single_feature {
            detection.clone()
        } else {
            self.pending_localization.take().expect("checked above")
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ready.push_back(AssembledWindow {
            tenant: self.tenant,
            seq,
            detection,
            localization,
            assembled_at: Instant::now(),
        });
        Ok(Some(seq))
    }

    /// Pops the oldest ready window, if any.
    pub fn pop(&mut self) -> Option<AssembledWindow> {
        self.ready.pop_front()
    }

    /// Ready windows currently queued.
    pub fn queued(&self) -> usize {
        self.ready.len()
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The next window sequence number this tenant will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(dir: Direction, kind: FeatureKind) -> FeatureFrame {
        FeatureFrame::zeros(dir, kind, 4, 4)
    }

    fn ingest_window(a: &mut FrameAssembler) -> Result<Option<u64>, RejectReason> {
        let mut last = Ok(None);
        for kind in [FeatureKind::Vco, FeatureKind::Boc] {
            for dir in Direction::CARDINAL {
                last = a.ingest(frame(dir, kind));
            }
        }
        last
    }

    #[test]
    fn eight_frames_complete_one_window() {
        let mut a = FrameAssembler::new(7, 4, 4, FeatureKind::Vco, FeatureKind::Boc, 2);
        assert_eq!(ingest_window(&mut a), Ok(Some(0)));
        assert_eq!(a.queued(), 1);
        let w = a.pop().unwrap();
        assert_eq!(w.tenant, 7);
        assert_eq!(w.seq, 0);
        assert_eq!(w.detection.kind(), FeatureKind::Vco);
        assert_eq!(w.localization.kind(), FeatureKind::Boc);
    }

    #[test]
    fn single_feature_config_needs_only_four_frames() {
        let mut a = FrameAssembler::new(0, 4, 4, FeatureKind::Vco, FeatureKind::Vco, 2);
        let mut last = Ok(None);
        for dir in Direction::CARDINAL {
            last = a.ingest(frame(dir, FeatureKind::Vco));
        }
        assert_eq!(last, Ok(Some(0)));
        let w = a.pop().unwrap();
        assert_eq!(w.detection, w.localization);
    }

    #[test]
    fn full_ring_rejects_the_completing_window_and_preserves_seq() {
        let mut a = FrameAssembler::new(0, 4, 4, FeatureKind::Vco, FeatureKind::Boc, 2);
        assert_eq!(ingest_window(&mut a), Ok(Some(0)));
        assert_eq!(ingest_window(&mut a), Ok(Some(1)));
        assert_eq!(ingest_window(&mut a), Err(RejectReason::QueueFull));
        assert_eq!(a.queued(), 2, "the ring never overfills");
        // Draining frees a slot; the replayed window takes the seq the
        // rejected one would have had.
        assert!(a.pop().is_some());
        assert_eq!(ingest_window(&mut a), Ok(Some(2)));
    }

    #[test]
    fn shape_and_kind_mismatches_reject_the_frame() {
        let mut a = FrameAssembler::new(0, 4, 4, FeatureKind::Vco, FeatureKind::Vco, 1);
        let wrong_shape = FeatureFrame::zeros(Direction::East, FeatureKind::Vco, 8, 8);
        assert_eq!(a.ingest(wrong_shape), Err(RejectReason::ShapeMismatch));
        let wrong_kind = frame(Direction::East, FeatureKind::Boc);
        assert_eq!(a.ingest(wrong_kind), Err(RejectReason::KindMismatch));
        // The session is not wedged: a good window still assembles.
        for dir in Direction::CARDINAL {
            let _ = a.ingest(frame(dir, FeatureKind::Vco));
        }
        assert_eq!(a.queued(), 1);
    }

    #[test]
    fn non_finite_frames_are_rejected_before_assembly() {
        let mut a = FrameAssembler::new(0, 4, 4, FeatureKind::Vco, FeatureKind::Vco, 1);
        assert_eq!(a.ingest(frame(Direction::East, FeatureKind::Vco)), Ok(None));
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut data = vec![0.5; 16];
            data[5] = bad;
            let poisoned = FeatureFrame::new(Direction::North, FeatureKind::Vco, 4, 4, data);
            assert_eq!(a.ingest(poisoned), Err(RejectReason::NonFinite));
        }
        // The partial East frame survived: finishing N, W, S completes
        // the window.
        let mut last = Ok(None);
        for dir in &Direction::CARDINAL[1..] {
            last = a.ingest(frame(*dir, FeatureKind::Vco));
        }
        assert_eq!(last, Ok(Some(0)));
        assert_eq!(RejectReason::NonFinite.name(), "non_finite");
    }

    #[test]
    fn out_of_order_direction_discards_the_partial_bundle() {
        let mut a = FrameAssembler::new(0, 4, 4, FeatureKind::Vco, FeatureKind::Vco, 1);
        assert_eq!(a.ingest(frame(Direction::East, FeatureKind::Vco)), Ok(None));
        assert_eq!(
            a.ingest(frame(Direction::South, FeatureKind::Vco)),
            Err(RejectReason::DirectionOrder)
        );
        // The partial was discarded; a full in-order window recovers.
        let mut last = Ok(None);
        for dir in Direction::CARDINAL {
            last = a.ingest(frame(dir, FeatureKind::Vco));
        }
        assert_eq!(last, Ok(Some(0)));
    }
}
