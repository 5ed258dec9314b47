//! # dl2fence-nn-bench — nn micro-benchmarks
//!
//! Fixtures and timing helpers for benchmarking the `tinycnn` inference
//! path at two tiers:
//!
//! 1. the **scalar seed kernels** ([`ScalarDetector`] — the original
//!    per-sample, caching forward path preserved as
//!    `Conv2d::forward_reference`), and
//! 2. the **direct f32 path** (`Sequential::predict`, bit-identical to
//!    tier 1 by the `crates/nn` parity suite).
//!
//! The Criterion benches (`benches/layers.rs`, `benches/batched.rs`) report
//! per-layer and whole-model numbers; the `nn_bench_guard` binary turns the
//! headline claims into a CI gate: the batched f32 detector reaches ≥12×
//! the scalar seed kernels' throughput at batch 64, and a 16×16 localizer
//! `predict` at the serve batch reaches ≥30× the scalar seed kernels
//! ([`ScalarLocalizer`]). It also gates training: one localizer
//! training step's backward pass must reach a fixed multiple of the scalar
//! seed backward loop's speed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};
use tinycnn::prelude::*;

/// Mesh side length the fixtures model (the paper's 8×8 NoC).
pub const MESH: usize = 8;

/// Kernel count of the paper's minimal detector.
pub const KERNELS: usize = 8;

/// Deterministic pseudo-random tensor in roughly `[-0.5, 0.5]` (xorshift).
pub fn pseudo_tensor(seed: u64, shape: &[usize]) -> Tensor {
    let len: usize = shape.iter().product();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xA5);
    let data = (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(data, shape)
}

/// Flattened feature count after the detector's conv + pool stack.
pub fn pooled_features(kernels: usize) -> usize {
    kernels * ((MESH - 2) / 2) * ((MESH - 2) / 2)
}

/// The detector CNN as the **scalar seed kernels** left it: one frame per
/// invocation, the naive scalar convolution (`forward_reference`) and the
/// grad-caching `forward` path of every other layer — exactly the cost
/// profile of inference before the GEMM rework.
pub struct ScalarDetector {
    conv: Conv2d,
    relu: Relu,
    pool: MaxPool2d,
    flatten: Flatten,
    dense: Dense,
    sigmoid: Sigmoid,
}

impl ScalarDetector {
    /// Builds the scalar stack. Seeds match [`detector_model`] so both paths
    /// hold bit-identical weights.
    pub fn new(kernels: usize, seed: u64) -> Self {
        ScalarDetector {
            conv: Conv2d::new(4, kernels, 3, Padding::Valid, seed),
            relu: Relu::new(),
            pool: MaxPool2d::new(2),
            flatten: Flatten::new(),
            dense: Dense::new(pooled_features(kernels), 1, seed + 1),
            sigmoid: Sigmoid::new(),
        }
    }

    /// Classifies one `[1, 4, MESH, MESH]` frame through the scalar path.
    pub fn forward_one(&mut self, frame: &Tensor) -> f32 {
        let x = self.conv.forward_reference(frame);
        let x = self.relu.forward(&x);
        let x = self.pool.forward(&x);
        let x = self.flatten.forward(&x);
        let x = self.dense.forward(&x);
        let x = self.sigmoid.forward(&x);
        x.data()[0]
    }

    /// Classifies every frame, one invocation each (the seed's batch story).
    pub fn forward_many(&mut self, frames: &[Tensor]) -> Vec<f32> {
        frames.iter().map(|f| self.forward_one(f)).collect()
    }
}

/// The same detector as a [`Sequential`] (direct f32 forward path).
/// Same seeds as [`ScalarDetector::new`] → bit-identical weights.
pub fn detector_model(kernels: usize, seed: u64) -> Sequential {
    Sequential::new()
        .push(Conv2d::new(4, kernels, 3, Padding::Valid, seed))
        .push(Relu::new())
        .push(MaxPool2d::new(2))
        .push(Flatten::new())
        .push(Dense::new(pooled_features(kernels), 1, seed + 1))
        .push(Sigmoid::new())
}

/// The localizer CNN as `DosLocalizer` builds it: `Conv2d(1→k) → ReLU →
/// Conv2d(k→k) → ReLU → Conv2d(k→1) → Sigmoid`, every conv 3×3 Same.
pub fn localizer_model(kernels: usize, seed: u64) -> Sequential {
    Sequential::new()
        .push(Conv2d::new(1, kernels, 3, Padding::Same, seed))
        .push(Relu::new())
        .push(Conv2d::new(kernels, kernels, 3, Padding::Same, seed + 1))
        .push(Relu::new())
        .push(Conv2d::new(kernels, 1, 3, Padding::Same, seed + 100))
        .push(Sigmoid::new())
}

/// The localizer's three convolutions through the scalar seed kernel
/// (`forward_reference`) and the seed's scalar backward loop
/// (`backward_reference`), with the ReLUs and the sigmoid in between. Seeds
/// match [`localizer_model`] so both paths hold bit-identical weights.
pub struct ScalarLocalizer {
    convs: [Conv2d; 3],
    relus: [Relu; 2],
    sigmoid: Sigmoid,
    /// The three convolutions' inputs from the last [`Self::forward`].
    inputs: Vec<Tensor>,
}

impl ScalarLocalizer {
    /// Builds the scalar stack with [`localizer_model`]'s seeds.
    pub fn new(kernels: usize, seed: u64) -> Self {
        ScalarLocalizer {
            convs: [
                Conv2d::new(1, kernels, 3, Padding::Same, seed),
                Conv2d::new(kernels, kernels, 3, Padding::Same, seed + 1),
                Conv2d::new(kernels, 1, 3, Padding::Same, seed + 100),
            ],
            relus: [Relu::new(), Relu::new()],
            sigmoid: Sigmoid::new(),
            inputs: Vec::new(),
        }
    }

    /// Segments a `[batch, 1, h, w]` input through the scalar path.
    pub fn predict(&self, x: &Tensor) -> Tensor {
        let [c0, c1, c2] = &self.convs;
        let x = Relu::new().infer(&c0.forward_reference(x));
        let x = Relu::new().infer(&c1.forward_reference(&x));
        Sigmoid::new().infer(&c2.forward_reference(&x))
    }

    /// A training forward pass: [`Self::predict`], caching what
    /// [`Self::backward`] reads.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let [c0, c1, c2] = &self.convs;
        let [r0, r1] = &mut self.relus;
        let a1 = r0.forward(&c0.forward_reference(x));
        let a2 = r1.forward(&c1.forward_reference(&a1));
        let y = self.sigmoid.forward(&c2.forward_reference(&a2));
        self.inputs = vec![x.clone(), a1, a2];
        y
    }

    /// The backward pass of the last [`Self::forward`]: accumulates every
    /// convolution's parameter gradients through the scalar seed loop and
    /// returns the input gradient.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        let [c0, c1, c2] = &mut self.convs;
        let [r0, r1] = &mut self.relus;
        let [x, a1, a2] = &self.inputs[..] else {
            panic!("backward called before forward");
        };
        let g = c2.backward_reference(a2, &self.sigmoid.backward(grad));
        let g = c1.backward_reference(a1, &r1.backward(&g));
        c0.backward_reference(x, &r0.backward(&g))
    }
}

/// `batch` detector-shaped frames, each `[1, 4, MESH, MESH]`.
pub fn detector_frames(batch: usize, seed: u64) -> Vec<Tensor> {
    (0..batch)
        .map(|i| pseudo_tensor(seed + i as u64, &[1, 4, MESH, MESH]))
        .collect()
}

/// Stacks frames into one `[batch, 4, MESH, MESH]` model input.
pub fn stack_frames(frames: &[Tensor]) -> Tensor {
    let refs: Vec<&Tensor> = frames.iter().collect();
    Tensor::stack(&refs).reshape(&[frames.len(), 4, MESH, MESH])
}

/// Best (minimum) wall-clock duration of `runs` timed executions of `f`
/// after one warm-up pass — the min-of-N idiom the CI guards use to shed
/// scheduler noise.
pub fn min_time(runs: usize, mut f: impl FnMut()) -> Duration {
    f();
    (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .expect("at least one timed run")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_and_gemm_fixtures_agree_bitwise() {
        let frames = detector_frames(5, 3);
        let mut scalar = ScalarDetector::new(KERNELS, 77);
        let mut model = detector_model(KERNELS, 77);
        let singles = scalar.forward_many(&frames);
        let batched = model.predict(&stack_frames(&frames));
        assert_eq!(batched.shape(), &[5, 1]);
        for (a, b) in singles.iter().zip(batched.data()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "guard fixtures diverged: scalar {a} vs batched {b}"
            );
        }
    }

    #[test]
    fn scalar_and_direct_localizers_agree_bitwise() {
        let x = pseudo_tensor(4, &[4, 1, 16, 16]);
        let reference = ScalarLocalizer::new(KERNELS, 31).predict(&x);
        let direct = localizer_model(KERNELS, 31).predict(&x);
        assert_eq!(direct.shape(), reference.shape());
        for (a, b) in direct.data().iter().zip(reference.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "scalar {b} vs direct {a}");
        }
    }

    #[test]
    fn scalar_and_direct_localizer_backward_agree_bitwise() {
        let x = pseudo_tensor(7, &[4, 1, 8, 8]);
        let grad = pseudo_tensor(8, &[4, 1, 8, 8]);
        let mut scalar = ScalarLocalizer::new(KERNELS, 31);
        let mut model = localizer_model(KERNELS, 31);
        scalar.forward(&x);
        model.forward(&x);
        let dx = (scalar.backward(&grad), model.backward(&grad));
        // Both list each conv's weight and bias gradients in layer order.
        let scalar_grads = scalar.convs.iter_mut().flat_map(|c| c.params_mut());
        let direct_grads = model.params_mut();
        let grads = scalar_grads
            .zip(direct_grads)
            .map(|((_, a), (_, b))| (a.clone(), b.clone()));
        for (a, b) in std::iter::once(dx).chain(grads) {
            assert_eq!(a.shape(), b.shape());
            for (u, v) in a.data().iter().zip(b.data()) {
                assert_eq!(u.to_bits(), v.to_bits(), "scalar {u} vs direct {v}");
            }
        }
    }

    #[test]
    fn min_time_returns_a_measured_duration() {
        let mut n = 0u64;
        let d = min_time(2, || n += 1);
        assert!(n == 3, "warm-up + 2 timed runs expected, got {n}");
        assert!(d <= Duration::from_secs(1));
    }
}
