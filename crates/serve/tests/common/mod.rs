//! Shared fixtures for the serve integration tests: one small campaign's
//! samples and two independently trained pipelines (different seeds),
//! built once per test binary.

#![allow(dead_code)] // each test binary uses a different subset

use dl2fence::input::sample_frames;
use dl2fence::{Dl2Fence, FenceConfig, FenceModelExport};
use dl2fence_campaign::{CampaignSpec, Executor};
use dl2fence_serve::{DetectionService, RejectReason, Verdict};
use noc_monitor::{FeatureKind, LabeledSample};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// Mesh side of every fixture sample and model.
pub const MESH: usize = 4;
/// Detection feature of the fixture models.
pub const DET: FeatureKind = FeatureKind::Vco;
/// Localization feature of the fixture models.
pub const LOC: FeatureKind = FeatureKind::Boc;

pub struct Fixture {
    /// Labeled samples from a tiny campaign — the traffic source.
    pub samples: Vec<LabeledSample>,
    /// Model A (seed 1).
    pub export_a: FenceModelExport,
    /// Model B (seed 2) — a genuinely different model for swap tests.
    pub export_b: FenceModelExport,
}

pub fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut spec = CampaignSpec::quick("serve-test");
        spec.grid.mesh = vec![MESH];
        spec.sim.warmup_cycles = 100;
        spec.sim.sample_period = 200;
        spec.sim.samples_per_run = 2;
        spec.sim.collect_samples = true;
        let outcome = Executor::new(2).execute(&spec).unwrap();
        let samples: Vec<LabeledSample> =
            outcome.runs.into_iter().flat_map(|r| r.samples).collect();
        assert!(samples.len() >= 6, "fixture campaign too small");
        let train = |seed: u64| {
            let mut fence = Dl2Fence::new(
                FenceConfig::new(MESH, MESH)
                    .with_epochs(6, 4)
                    .with_seed(seed),
            );
            fence.train(&samples);
            fence.export_model()
        };
        let (export_a, export_b) = (train(1), train(2));
        assert_ne!(
            export_a.detector.fingerprint(),
            export_b.detector.fingerprint(),
            "the two fixture models must differ"
        );
        Fixture {
            samples,
            export_a,
            export_b,
        }
    })
}

/// Streams one sample's frames as a complete window into the service,
/// returning the completing frame's outcome.
pub fn ingest_window(
    service: &DetectionService,
    tenant: u64,
    sample: &LabeledSample,
) -> Result<u64, RejectReason> {
    let mut last = Ok(None);
    for frame in sample_frames(sample, DET).clone().into_frames() {
        last = service.ingest(tenant, frame);
    }
    for frame in sample_frames(sample, LOC).clone().into_frames() {
        last = service.ingest(tenant, frame);
    }
    match last {
        Ok(Some(seq)) => Ok(seq),
        Ok(None) => panic!("a full window must complete or reject"),
        Err(reason) => Err(reason),
    }
}

/// Audits a verdict set: every batch must be version-pure, every version
/// must map to a known model export, and every report must equal
/// [`Dl2Fence::analyze_frames`] on its version's model bit for bit.
/// Returns human-readable violations (empty = all invariants held).
pub fn audit_verdicts(
    verdicts: &[Verdict],
    source: &BTreeMap<(u64, u64), usize>,
    samples: &[LabeledSample],
    exports: &BTreeMap<u64, FenceModelExport>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut batches: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for v in verdicts {
        batches.entry(v.batch).or_default().insert(v.model_version);
    }
    for (batch, versions) in batches {
        if versions.len() > 1 {
            failures.push(format!("batch {batch} mixes model versions {versions:?}"));
        }
    }
    let mut offline: BTreeMap<u64, Dl2Fence> = BTreeMap::new();
    for v in verdicts {
        let Some(export) = exports.get(&v.model_version) else {
            failures.push(format!(
                "batch {} ran unknown version {}",
                v.batch, v.model_version
            ));
            continue;
        };
        let fence = offline
            .entry(v.model_version)
            .or_insert_with(|| Dl2Fence::from_export(export.clone()));
        let idx = source[&(v.tenant, v.seq)];
        let expected = fence.analyze_frames(
            sample_frames(&samples[idx], DET),
            sample_frames(&samples[idx], LOC),
        );
        if v.report != expected {
            failures.push(format!(
                "tenant {} window {} (batch {}, v{}) differs from offline",
                v.tenant, v.seq, v.batch, v.model_version
            ));
        }
    }
    failures
}
