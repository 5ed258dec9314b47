//! Criterion micro-benchmarks of the end-to-end DL2Fence pipeline: frame
//! sampling plus detection plus (when triggered) segmentation, fusion and
//! attacker localization for one monitoring window.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dl2fence::{Dl2Fence, FenceConfig};
use noc_sim::{NocConfig, NodeId};
use noc_traffic::{AttackKind, AttackScenario, DosAttack, SyntheticPattern};

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);
    for &mesh in &[8usize, 16] {
        let mut scenario = AttackScenario::builder(NocConfig::mesh(mesh, mesh))
            .benign(SyntheticPattern::UniformRandom, 0.02)
            .attack(DosAttack::new(
                AttackKind::Fdos,
                vec![NodeId(mesh * mesh - 1)],
                NodeId(0),
                0.8,
            ))
            .seed(3)
            .build();
        scenario.run(1_000);
        let mut fence = Dl2Fence::new(FenceConfig::new(mesh, mesh).with_epochs(1, 1));
        group.bench_with_input(BenchmarkId::new("monitor_window", mesh), &mesh, |b, _| {
            b.iter(|| fence.monitor(scenario.network()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
