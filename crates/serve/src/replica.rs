//! Per-worker pipeline replicas and the verdicts they emit.

use crate::assembler::AssembledWindow;
use crate::model::ModelBundle;
use dl2fence::pipeline::FenceReport;
use dl2fence::Dl2Fence;
use dl2fence_telemetry::Recorder;
use noc_monitor::DirectionalFrames;

/// One analysed window: the pipeline report plus enough provenance to
/// audit it offline — which tenant/window it answers, which dispatch batch
/// carried it, and which model version produced it. The soak harness
/// checks that every batch is version-pure and that every report equals
/// [`Dl2Fence::analyze_frames`] on that version's model.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The owning tenant.
    pub tenant: u64,
    /// The tenant's window sequence number.
    pub seq: u64,
    /// The dispatch batch that carried this window.
    pub batch: u64,
    /// The model version that produced the verdict.
    pub model_version: u64,
    /// The pipeline's report for the window.
    pub report: FenceReport,
}

/// A worker's private pipeline instance, rebuilt from a [`ModelBundle`]
/// whenever the bundle version changes.
pub struct PipelineReplica {
    fence: Dl2Fence,
    version: u64,
}

impl PipelineReplica {
    /// Builds a replica from a bundle; the pipeline restores
    /// bit-identically ([`Dl2Fence::from_export`]).
    pub fn build(bundle: &ModelBundle) -> Self {
        PipelineReplica {
            fence: Dl2Fence::from_export(bundle.fence.clone()),
            version: bundle.version,
        }
    }

    /// The bundle version this replica was built from.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Attaches a telemetry recorder (stage + per-layer histograms).
    pub fn set_telemetry(&mut self, recorder: Recorder) {
        self.fence.set_telemetry(recorder);
    }

    /// Analyses one dispatched batch in order with
    /// [`Dl2Fence::analyze_frames_batch`]: detection runs batched, and only
    /// flagged windows pay the segment → fuse → localize tail. An empty
    /// batch (an idle flush tick) is a no-op.
    pub fn process(&mut self, batch: u64, windows: &[AssembledWindow]) -> Vec<Verdict> {
        let pairs: Vec<(&DirectionalFrames, &DirectionalFrames)> = windows
            .iter()
            .map(|w| (&w.detection, &w.localization))
            .collect();
        let reports = self.fence.analyze_frames_batch(&pairs);
        windows
            .iter()
            .zip(reports)
            .map(|(w, report)| Verdict {
                tenant: w.tenant,
                seq: w.seq,
                batch,
                model_version: self.version,
                report,
            })
            .collect()
    }
}

impl std::fmt::Debug for PipelineReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PipelineReplica(v{})", self.version)
    }
}
