//! Parity suite for the direct f32 and fused int8 forward paths.
//!
//! Two contracts are enforced here:
//!
//! 1. **Bit-exactness of f32.** The direct convolution kernel and the batched
//!    `Sequential::predict` path must reproduce the scalar seed kernels
//!    *bit-for-bit* over arbitrary shapes and batch sizes — this is what
//!    keeps the golden report corpus byte-identical after the kernel swap.
//! 2. **Int8 accuracy budget.** The fused int8 path is allowed to drift, but
//!    only inside the envelope the `ablation_quantization` binary established
//!    on `specs/stp.toml`'s campaign: 8-bit weights match the float model's
//!    decisions, so int8 inference must preserve classification behaviour on
//!    anything but knife-edge probabilities.

use proptest::{prop_assert_eq, proptest};
use tinycnn::prelude::*;
use tinycnn::qmodel::QuantizedModel;

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

/// Trains a tiny detector on a linearly separable synthetic task and checks
/// the int8 model stays inside the quantization ablation's accuracy budget:
/// 8-bit weights should match the float model's decisions.
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

    let yf = model.predict(&x);
    let mut q = QuantizedModel::from_model(&model);
    let yq = q.predict(&x);

    let acc = |probs: &Tensor| {
        probs
            .data()
            .iter()
            .zip(y.data())
            .filter(|(p, l)| (**p >= 0.5) == (**l >= 0.5))
            .count() as f32
            / samples.len() as f32
    };
    let (acc_f, acc_q) = (acc(&yf), acc(&yq));
    assert!(
        acc_f > 0.9,
        "float model failed to learn the synthetic task: acc {acc_f}"
    );
    // The ablation's finding: 8-bit matches float. Allow one flipped sample
    // of headroom for knife-edge probabilities.
    assert!(
        acc_q >= acc_f - 1.0 / samples.len() as f32,
        "int8 accuracy {acc_q} fell outside the ablation budget (float {acc_f})"
    );
    for (a, b) in yf.data().iter().zip(yq.data()) {
        assert!(
            (a - b).abs() < 0.25,
            "int8 probability drifted too far: {a} vs {b}"
        );
    }
}
