//! Property: swapping from model A to model B — at an **arbitrary** point
//! in the stream, with arbitrary ring/batch geometry and worker count —
//! never mixes models within one batch, and pre-/post-swap verdicts match
//! their respective offline pipelines bit-identically.

mod common;

use common::{audit_verdicts, fixture, ingest_window};
use dl2fence_serve::{ModelBundle, RejectReason, ServeConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    #[test]
    fn swap_never_mixes_models_within_a_batch(
        swap_at in 0usize..7,
        batch_windows in 1usize..4,
        queue_capacity in 1usize..4,
        workers in 1usize..3,
    ) {
        let fix = fixture();
        let config = ServeConfig {
            queue_capacity,
            max_tenants: 3,
            workers,
            batch_windows,
        };
        let service =
            dl2fence_serve::DetectionService::new(config, ModelBundle::f32_only(fix.export_a.clone()));
        let mut exports = BTreeMap::new();
        exports.insert(0, fix.export_a.clone());

        let mut source = BTreeMap::new();
        let mut streamed = 0usize;
        for (i, sample) in fix.samples.iter().enumerate() {
            if i == swap_at.min(fix.samples.len() - 1) {
                // Drain first so the version split is deterministic: every
                // earlier window verdicts on model A, every later one on B.
                service.drain_until_idle();
                let v = service.swap_model(fix.export_b.clone());
                exports.insert(v, fix.export_b.clone());
            }
            let tenant = i as u64 % 3;
            let seq = match ingest_window(&service, tenant, sample) {
                Ok(seq) => seq,
                Err(RejectReason::QueueFull) => {
                    service.drain_until_idle();
                    ingest_window(&service, tenant, sample).expect("ring drained")
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            };
            source.insert((tenant, seq), i);
            streamed += 1;
        }
        service.drain_until_idle();
        let verdicts = service.take_verdicts();
        let status = service.shutdown();

        prop_assert_eq!(verdicts.len(), streamed); // no window lost across the swap
        prop_assert_eq!(status.swaps, 1u64);
        // Version purity + bit-identical parity against the respective
        // offline pipelines.
        let failures = audit_verdicts(&verdicts, &source, &fix.samples, &exports);
        prop_assert!(failures.is_empty(), "{:?}", failures);
        // A worker never takes more than `batch_windows` windows at once.
        let mut per_batch: BTreeMap<u64, usize> = BTreeMap::new();
        for v in &verdicts {
            *per_batch.entry(v.batch).or_default() += 1;
        }
        for (batch, n) in per_batch {
            prop_assert!(n <= batch_windows, "batch {} carried {} windows", batch, n);
        }
        // The drain before the swap pins the split: window i verdicts on
        // model A iff it was streamed before the swap point.
        let pivot = swap_at.min(fix.samples.len() - 1);
        for v in &verdicts {
            let idx = source[&(v.tenant, v.seq)];
            let expected = u64::from(idx >= pivot);
            prop_assert_eq!(v.model_version, expected);
        }
    }
}
