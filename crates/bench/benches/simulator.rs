//! Criterion micro-benchmarks of the NoC simulator: cycles per second under
//! benign and attack traffic at 8×8 and 16×16.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noc_sim::{NocConfig, NodeId};
use noc_traffic::{AttackKind, AttackScenario, DosAttack, SyntheticPattern};

fn simulate(mesh: usize, attack: bool, cycles: u64) -> u64 {
    let mut builder = AttackScenario::builder(NocConfig::mesh(mesh, mesh))
        .benign(SyntheticPattern::UniformRandom, 0.02)
        .seed(1);
    if attack {
        builder = builder.attack(DosAttack::new(
            AttackKind::Fdos,
            vec![NodeId(mesh * mesh - 1)],
            NodeId(0),
            0.8,
        ));
    }
    let mut scenario = builder.build();
    scenario.run(cycles);
    scenario.network().stats().packets_received
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    for &mesh in &[8usize, 16] {
        group.bench_with_input(
            BenchmarkId::new("benign_1000_cycles", mesh),
            &mesh,
            |b, &m| b.iter(|| simulate(m, false, 1_000)),
        );
        group.bench_with_input(
            BenchmarkId::new("attack_1000_cycles", mesh),
            &mesh,
            |b, &m| b.iter(|| simulate(m, true, 1_000)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
