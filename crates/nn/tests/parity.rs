//! Parity suite for the direct f32 forward path and for the quantized
//! weights the quantization ablation runs.
//!
//! Two contracts are enforced here:
//!
//! 1. **Bit-exactness of f32.** The direct convolution kernel and the batched
//!    `Sequential::predict` path must reproduce the scalar seed kernels
//!    *bit-for-bit* over arbitrary shapes and batch sizes — this is what
//!    keeps the golden report corpus byte-identical after the kernel swap.
//! 2. **Quantization accuracy budget.** The `ablation_quantization` binary
//!    rebuilds the detector from fixed-point weights
//!    (`quantize_model(&export, bits).into_model()`) and prints that 16-bit
//!    and 12-bit weights match the float model. The same path must make the
//!    float model's decisions at 16 and 12 bits and flip at most one at
//!    8 bits.

use proptest::{prop_assert, prop_assert_eq, proptest};
use tinycnn::prelude::*;
use tinycnn::quantize::quantize_model;

/// Deterministic pseudo-random tensor in roughly `[-0.5, 0.5]`.
fn pseudo_tensor(seed: u64, shape: &[usize]) -> Tensor {
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

proptest! {
    #[test]
    fn gemm_conv_is_bit_identical_to_scalar_reference(
        batch in 1usize..4,
        in_channels in 1usize..4,
        out_channels in 1usize..5,
        kernel in 1usize..4,
        extra_h in 0usize..6,
        extra_w in 0usize..6,
        pad_same in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        // Same padding requires an odd kernel; fall back to Valid otherwise.
        let padding = if pad_same == 1 && kernel % 2 == 1 {
            Padding::Same
        } else {
            Padding::Valid
        };
        let (h, w) = (kernel + extra_h, kernel + extra_w);
        let mut conv = Conv2d::new(in_channels, out_channels, kernel, padding, seed);
        let x = pseudo_tensor(seed ^ 0xC0FFEE, &[batch, in_channels, h, w]);
        let fast = conv.forward(&x);
        let reference = conv.forward_reference(&x);
        prop_assert_eq!(fast.shape(), reference.shape());
        for (a, b) in fast.data().iter().zip(reference.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batched_predict_is_bitwise_equal_to_per_sample_predict(
        batch in 1usize..9,
        kernels in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        // Detector-shaped stack on a small 7x8 mesh frame.
        let (h, w) = (7usize, 8usize);
        let pooled = kernels * ((h - 2) / 2) * ((w - 2) / 2);
        let mut model = Sequential::new()
            .push(Conv2d::new(4, kernels, 3, Padding::Valid, seed))
            .push(Relu::new())
            .push(MaxPool2d::new(2))
            .push(Flatten::new())
            .push(Dense::new(pooled, 1, seed + 1))
            .push(Sigmoid::new());
        let frames: Vec<Tensor> = (0..batch)
            .map(|i| pseudo_tensor(seed + 10 + i as u64, &[1, 4, h, w]))
            .collect();
        let refs: Vec<&Tensor> = frames.iter().collect();
        let batched_input = Tensor::stack(&refs).reshape(&[batch, 4, h, w]);
        let batched = model.predict(&batched_input);
        prop_assert_eq!(batched.shape(), &[batch, 1][..]);
        for (i, frame) in frames.iter().enumerate() {
            let single = model.predict(frame);
            prop_assert_eq!(batched.data()[i].to_bits(), single.data()[0].to_bits());
        }
    }

    #[test]
    fn localizer_shaped_batch_is_bitwise_equal_too(
        batch in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        // Localizer-shaped stack: Same-padded conv chain on [*, 1, h, w].
        let (h, w) = (7usize, 8usize);
        let mut model = Sequential::new()
            .push(Conv2d::new(1, 4, 3, Padding::Same, seed))
            .push(Relu::new())
            .push(Conv2d::new(4, 1, 3, Padding::Same, seed + 1))
            .push(Sigmoid::new());
        let frames: Vec<Tensor> = (0..batch)
            .map(|i| pseudo_tensor(seed + 50 + i as u64, &[1, 1, h, w]))
            .collect();
        let refs: Vec<&Tensor> = frames.iter().collect();
        let batched = model.predict(&Tensor::stack(&refs).reshape(&[batch, 1, h, w]));
        for (i, frame) in frames.iter().enumerate() {
            let single = model.predict(frame);
            let got = batched.batch_item(i);
            prop_assert_eq!(got.shape(), single.shape());
            for (a, b) in got.data().iter().zip(single.data()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

/// A xorshift stream for drawing the random layer chains below.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 33) as usize % n
    }
}

/// A random chain over `[*, channels, height, width]` inputs: one to four
/// convolutions (1–9 output channels, kernel 1, 3 or 5, Same or Valid),
/// each followed by nothing, a ReLU, a Sigmoid or both, and sometimes a 2×2
/// max-pool, which splits the fused runs; sometimes a leading activation,
/// and sometimes a `Flatten → Dense` head. Returns the model and a
/// description of it.
fn random_chain(draw: &mut Draw, mut dims: [usize; 3]) -> (Sequential, Vec<String>) {
    let mut model = Sequential::new();
    let mut names = Vec::new();
    let mut seed = draw.below(1 << 20) as u64;
    if draw.below(4) == 0 {
        model = model.push(Relu::new());
        names.push("ReLU".to_string());
    }
    for _ in 0..1 + draw.below(4) {
        let [c, h, w] = dims;
        let kernel = [1, 3, 5][draw.below(3)];
        let valid = h >= kernel && w >= kernel && draw.below(2) == 0;
        let (padding, shrink) = if valid {
            (Padding::Valid, kernel - 1)
        } else {
            (Padding::Same, 0)
        };
        let out = 1 + draw.below(9);
        seed += 1;
        model = model.push(Conv2d::new(c, out, kernel, padding, seed));
        names.push(format!("Conv2d({c}->{out}, k{kernel}, {padding:?})"));
        dims = [out, h - shrink, w - shrink];
        for _ in 0..draw.below(3) {
            if draw.below(2) == 0 {
                model = model.push(Relu::new());
                names.push("ReLU".to_string());
            } else {
                model = model.push(Sigmoid::new());
                names.push("Sigmoid".to_string());
            }
        }
        if dims[1] >= 2 && dims[2] >= 2 && draw.below(4) == 0 {
            model = model.push(MaxPool2d::new(2));
            names.push("MaxPool2d".to_string());
            dims = [dims[0], dims[1] / 2, dims[2] / 2];
        }
    }
    if draw.below(2) == 0 {
        let out = 1 + draw.below(3);
        let features = dims.iter().product();
        model = model
            .push(Flatten::new())
            .push(Dense::new(features, out, seed + 100));
        names.push(format!("Flatten, Dense({features}->{out})"));
        if draw.below(2) == 0 {
            model = model.push(Sigmoid::new());
            names.push("Sigmoid".to_string());
        }
    }
    (model, names)
}

/// Values a fused store must pass through exactly as the separate layers
/// do: signed zeros, infinities and NaN.
const SPECIALS: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];

proptest! {
    #[test]
    fn predict_is_bit_identical_to_forward_on_random_layer_chains(
        batch in 1usize..20,
        channels in 1usize..10,
        height in 1usize..13,
        width_pick in 0usize..6,
        special_every in 0usize..12,
        seed in 0u64..1_000_000,
    ) {
        // Widths on both sides of the 16-lane tile and whole multiples of
        // it; batches that cross `infer_chain`'s 8-element chunks.
        let width = [5, 8, 13, 16, 17, 32][width_pick];
        let mut draw = Draw(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let (mut model, names) = random_chain(&mut draw, [channels, height, width]);
        // A -0.0 bias and -0.0 inputs make -0.0 sums, so a slipped sign of
        // zero in a fused ReLU shows.
        for (param, _) in model.params_mut() {
            for v in param.data_mut().iter_mut().step_by(3) {
                *v = -0.0;
            }
        }
        let mut x = pseudo_tensor(seed, &[batch, channels, height, width]);
        if special_every > 0 {
            for (i, v) in x.data_mut().iter_mut().enumerate().step_by(special_every) {
                *v = SPECIALS[i % SPECIALS.len()];
            }
        } else {
            x.data_mut().fill(-0.0);
        }
        let expected = model.forward(&x);
        // Twice, with a different batch in between, so `predict` must keep
        // no state between calls. Within a call, a fused run reuses its two
        // plane buffers across its convolutions and, past 8 elements,
        // across the batch's chunks.
        for pass in 0..2 {
            let got = model.predict(&x);
            prop_assert_eq!(got.shape(), expected.shape());
            for (i, (a, b)) in got.data().iter().zip(expected.data()).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "pass {pass}, output {i} of {names:?} on {:?}: predict {a} vs forward {b}",
                    x.shape()
                );
            }
            model.predict(&x.batch_item(0));
        }
    }
}

/// Trains a tiny detector on a linearly separable synthetic task and
/// checks the quantization ablation's claim on it: rebuilt from 16-bit or
/// 12-bit weights the detector makes every decision the float model makes,
/// and from 8-bit weights it flips at most one.
#[test]
fn int8_detector_stays_inside_ablation_accuracy_budget() {
    let (h, w) = (7usize, 8usize);
    let pooled = 8 * ((h - 2) / 2) * ((w - 2) / 2);
    let mut model = Sequential::new()
        .push(Conv2d::new(4, 8, 3, Padding::Valid, 0xDAC))
        .push(Relu::new())
        .push(MaxPool2d::new(2))
        .push(Flatten::new())
        .push(Dense::new(pooled, 1, 0xDAD))
        .push(Sigmoid::new());

    // Synthetic task: "attack" frames carry a strong hot region.
    let make_sample = |i: usize, hot: bool| {
        let mut t = pseudo_tensor(i as u64, &[4, h, w]);
        if hot {
            for v in t.data_mut().iter_mut().take(4 * w) {
                *v += 1.5;
            }
        }
        t
    };
    let samples: Vec<(Tensor, f32)> = (0..32)
        .map(|i| {
            (
                make_sample(i, i % 2 == 0),
                if i % 2 == 0 { 1.0 } else { 0.0 },
            )
        })
        .collect();

    let mut ds = Dataset::new();
    for (input, label) in &samples {
        ds.push(input.clone(), Tensor::from_vec(vec![*label], &[1]));
    }
    let mut trainer = Trainer::new(
        Adam::new(0.01),
        BinaryCrossEntropy::new(),
        TrainingConfig {
            epochs: 15,
            batch_size: 8,
            shuffle_seed: 1,
            ..Default::default()
        },
    );
    trainer.fit(&mut model, &ds);

    let inputs: Vec<Tensor> = samples.iter().map(|(x, _)| x.clone()).collect();
    let input_refs: Vec<&Tensor> = inputs.iter().collect();
    let x = Tensor::stack(&input_refs);
    let y = Tensor::from_vec(
        samples.iter().map(|(_, l)| *l).collect(),
        &[samples.len(), 1],
    );

    // `DosDetector`'s decision rule at its default threshold.
    let decide = |probs: &Tensor| -> Vec<bool> { probs.data().iter().map(|&p| p > 0.5).collect() };
    let correct = decide(&model.predict(&x))
        .iter()
        .zip(y.data())
        .filter(|(d, l)| **d == (**l >= 0.5))
        .count();
    assert!(
        correct * 10 > samples.len() * 9,
        "float model failed to learn the synthetic task: {correct}/{} correct",
        samples.len()
    );

    // Every training sample sits far from the boundary, where even 2-bit
    // weights keep the decision. Judge precision on fresh frames whose hot
    // region sweeps from cold to hot instead, so some land near the
    // boundary: 4-bit weights flip one of them, 2-bit weights ten.
    let sweep: Vec<Tensor> = (0..64)
        .map(|i| {
            let mut t = pseudo_tensor(1000 + i as u64, &[4, h, w]);
            for v in t.data_mut().iter_mut().take(4 * w) {
                *v += 1.5 * i as f32 / 63.0;
            }
            t
        })
        .collect();
    let sweep = Tensor::stack(&sweep.iter().collect::<Vec<_>>());
    let float = decide(&model.predict(&sweep));
    assert!(
        float.contains(&true) && float.contains(&false),
        "the sweep must cross the decision boundary"
    );
    let export = model.export();
    for (bits, max_flips) in [(16, 0), (12, 0), (8, 1)] {
        let quantized = decide(&quantize_model(&export, bits).into_model().predict(&sweep));
        let flips = float.iter().zip(&quantized).filter(|(f, q)| f != q).count();
        assert!(
            flips <= max_flips,
            "{bits}-bit weights flipped {flips} of {} decisions (budget {max_flips})",
            float.len()
        );
    }
}
