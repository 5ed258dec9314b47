//! Whole-detector forward benchmarks: scalar seed kernels (one frame per
//! invocation) vs batched direct f32 vs batched fused int8, at batch 1/16/64.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dl2fence_nn_bench::{detector_frames, detector_model, stack_frames, ScalarDetector, KERNELS};
use tinycnn::QuantizedModel;

fn bench_detector_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("detector_forward");
    group.sample_size(20);
    for &batch in &[1usize, 16, 64] {
        let frames = detector_frames(batch, 40);
        let stacked = stack_frames(&frames);
        let mut scalar = ScalarDetector::new(KERNELS, 21);
        let mut model = detector_model(KERNELS, 21);
        let mut quant = QuantizedModel::from_model(&model);
        group.bench_with_input(BenchmarkId::new("scalar_seed", batch), &batch, |b, _| {
            b.iter(|| scalar.forward_many(&frames))
        });
        group.bench_with_input(BenchmarkId::new("f32_batched", batch), &batch, |b, _| {
            b.iter(|| model.predict(&stacked))
        });
        group.bench_with_input(BenchmarkId::new("int8_batched", batch), &batch, |b, _| {
            b.iter(|| quant.predict(&stacked))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_detector_forward);
criterion_main!(benches);
