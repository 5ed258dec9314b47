//! Criterion micro-benchmarks of model inference: detector classification
//! and localizer segmentation latency per monitoring window.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dl2fence::{DosDetector, DosLocalizer};
use noc_monitor::{FeatureKind, FrameSampler};
use noc_sim::{NocConfig, NodeId};
use noc_traffic::{AttackKind, AttackScenario, DosAttack, SyntheticPattern};

fn sampled_frames(
    mesh: usize,
) -> (
    noc_monitor::DirectionalFrames,
    noc_monitor::DirectionalFrames,
) {
    let mut scenario = AttackScenario::builder(NocConfig::mesh(mesh, mesh))
        .benign(SyntheticPattern::UniformRandom, 0.02)
        .attack(DosAttack::new(
            AttackKind::Fdos,
            vec![NodeId(mesh * mesh - 1)],
            NodeId(0),
            0.8,
        ))
        .seed(2)
        .build();
    scenario.run(1_000);
    (
        FrameSampler::sample(scenario.network(), FeatureKind::Vco),
        FrameSampler::sample(scenario.network(), FeatureKind::Boc),
    )
}

fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference");
    group.sample_size(20);
    for &mesh in &[8usize, 16] {
        let (vco, boc) = sampled_frames(mesh);
        let mut detector = DosDetector::new(mesh, mesh, 0);
        let mut localizer = DosLocalizer::new(mesh, mesh, 1);
        group.bench_with_input(BenchmarkId::new("detector", mesh), &mesh, |b, _| {
            b.iter(|| detector.detect(&vco))
        });
        group.bench_with_input(BenchmarkId::new("localizer_bundle", mesh), &mesh, |b, _| {
            b.iter(|| localizer.segment_bundle(&boc))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
