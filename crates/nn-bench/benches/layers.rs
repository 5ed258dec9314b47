//! Per-layer micro-benchmarks: the scalar seed kernel vs the direct f32
//! kernel, at the detector's shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dl2fence_nn_bench::{detector_frames, pooled_features, pseudo_tensor, stack_frames, MESH};
use tinycnn::prelude::*;

const KERNELS: usize = 8;

fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv");
    group.sample_size(20);
    for &batch in &[1usize, 16, 64] {
        let x = stack_frames(&detector_frames(batch, 7));
        let conv = Conv2d::new(4, KERNELS, 3, Padding::Valid, 11);
        group.bench_with_input(BenchmarkId::new("scalar", batch), &batch, |b, _| {
            b.iter(|| conv.forward_reference(&x))
        });
        group.bench_with_input(BenchmarkId::new("direct_f32", batch), &batch, |b, _| {
            b.iter(|| conv.infer(&x))
        });
    }
    group.finish();
}

fn bench_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense");
    group.sample_size(20);
    let features = pooled_features(KERNELS);
    for &batch in &[1usize, 16, 64] {
        let x = pseudo_tensor(batch as u64 + 100, &[batch, features]);
        let dense = Dense::new(features, 1, 9);
        group.bench_with_input(BenchmarkId::new("f32", batch), &batch, |b, _| {
            b.iter(|| dense.infer(&x))
        });
    }
    group.finish();
}

fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxpool");
    group.sample_size(20);
    for &batch in &[1usize, 64] {
        let x = pseudo_tensor(batch as u64, &[batch, KERNELS, MESH - 2, MESH - 2]);
        let mut pool = MaxPool2d::new(2);
        group.bench_with_input(BenchmarkId::new("forward", batch), &batch, |b, _| {
            b.iter(|| pool.forward(&x))
        });
        group.bench_with_input(BenchmarkId::new("infer", batch), &batch, |b, _| {
            b.iter(|| pool.infer(&x))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_conv, bench_dense, bench_pool);
criterion_main!(benches);
