//! Fixed-point weight quantization.
//!
//! The DL2Fence accelerators store weights at 16-bit fixed-point precision
//! (see the hardware model). This module provides symmetric per-tensor
//! quantization so the accuracy impact of deploying the trained `f32` models
//! at accelerator precision can be measured (the quantization ablation).

use crate::serialize::{LayerExport, ModelExport};
use crate::tensor::Tensor;

/// Symmetrically quantizes a tensor to `bits`-bit signed fixed point and
/// returns the de-quantized result (the values an accelerator holding
/// integer weights would effectively compute with).
///
/// An all-zero tensor is returned unchanged. Non-finite inputs saturate: the
/// scale is computed over the finite values only, `±inf` clamps to the
/// extreme representable level and `NaN` maps to zero — a hardware
/// fixed-point grid has no representation for either, and letting them
/// poison `scale` used to silently turn the whole grid into NaN.
///
/// # Panics
///
/// Panics if `bits` is not in `2..=16`.
pub fn quantize_tensor(tensor: &Tensor, bits: u32) -> Tensor {
    assert!((2..=16).contains(&bits), "bits must be in 2..=16");
    let max_abs = tensor
        .data()
        .iter()
        .map(|v| v.abs())
        .filter(|v| v.is_finite())
        .fold(0.0f32, f32::max);
    let levels = (1i64 << (bits - 1)) - 1;
    if max_abs == 0.0 {
        // All zero (or no finite values at all): the grid collapses to zero.
        return tensor.map(|v| if v == 0.0 { v } else { 0.0 });
    }
    let scale = max_abs / levels as f32;
    tensor.map(|v| {
        if v.is_nan() {
            return 0.0;
        }
        // `±inf / scale` stays infinite and saturates on the clamp below.
        let q = (v / scale).round().clamp(-(levels as f32), levels as f32);
        q * scale
    })
}

/// Quantizes every weight and bias of an exported model to `bits`-bit fixed
/// point, returning a new export that can be turned back into a runnable
/// model with [`ModelExport::into_model`].
pub fn quantize_model(export: &ModelExport, bits: u32) -> ModelExport {
    let layers = export
        .layers
        .iter()
        .map(|layer| match layer {
            LayerExport::Conv2d {
                in_channels,
                out_channels,
                kernel,
                padding,
                weight,
                bias,
            } => LayerExport::Conv2d {
                in_channels: *in_channels,
                out_channels: *out_channels,
                kernel: *kernel,
                padding: *padding,
                weight: quantize_tensor(weight, bits),
                bias: quantize_tensor(bias, bits),
            },
            LayerExport::Dense {
                in_features,
                out_features,
                weight,
                bias,
            } => LayerExport::Dense {
                in_features: *in_features,
                out_features: *out_features,
                weight: quantize_tensor(weight, bits),
                bias: quantize_tensor(bias, bits),
            },
            other => other.clone(),
        })
        .collect();
    ModelExport { layers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    /// The largest absolute element-wise error of quantizing `t` to `bits`.
    fn max_error(t: &Tensor, bits: u32) -> f32 {
        let q = quantize_tensor(t, bits);
        t.data()
            .iter()
            .zip(q.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    #[test]
    fn quantization_preserves_zero_tensor() {
        let t = Tensor::zeros(&[4, 4]);
        assert_eq!(quantize_tensor(&t, 8), t);
    }

    #[test]
    fn sixteen_bit_quantization_is_nearly_lossless() {
        let t = Tensor::from_vec(vec![0.5, -0.25, 0.125, 1.0, -1.0, 0.33], &[6]);
        let err = max_error(&t, 16);
        assert!(err < 1e-4, "16-bit error too large: {err}");
    }

    #[test]
    fn fewer_bits_mean_more_error() {
        let t = Tensor::from_vec((0..64).map(|i| (i as f32 * 0.137).sin()).collect(), &[64]);
        let e4 = max_error(&t, 4);
        let e8 = max_error(&t, 8);
        let e16 = max_error(&t, 16);
        assert!(e4 > e8);
        assert!(e8 > e16);
    }

    #[test]
    fn quantized_values_lie_on_the_grid() {
        let t = Tensor::from_vec(vec![0.9, -0.7, 0.3, 0.1], &[4]);
        let bits = 4;
        let q = quantize_tensor(&t, bits);
        let levels = (1i64 << (bits - 1)) - 1;
        let scale = 0.9 / levels as f32;
        for v in q.data() {
            let steps = v / scale;
            assert!((steps - steps.round()).abs() < 1e-4);
        }
    }

    #[test]
    fn quantized_model_predictions_stay_close_at_16_bits() {
        let mut model = Sequential::new()
            .push(Conv2d::new(1, 4, 3, Padding::Same, 3))
            .push(Relu::new())
            .push(Flatten::new())
            .push(Dense::new(4 * 6 * 6, 1, 4))
            .push(Sigmoid::new());
        let x = crate::init::Init::XavierUniform.make(&[2, 1, 6, 6], 36, 36, 9);
        let y = model.forward(&x);
        let mut quantized = quantize_model(&model.export(), 16).into_model();
        let yq = quantized.forward(&x);
        for (a, b) in y.data().iter().zip(yq.data()) {
            assert!((a - b).abs() < 1e-3, "prediction drifted: {a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn invalid_bit_width_panics() {
        quantize_tensor(&Tensor::ones(&[2]), 1);
    }

    #[test]
    fn non_finite_values_saturate_instead_of_poisoning_the_grid() {
        // Regression: a single inf used to make `scale` infinite and turn
        // every finite value into NaN; a NaN survived quantization as NaN.
        let t = Tensor::from_vec(
            vec![f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.5, -1.0],
            &[5],
        );
        let q = quantize_tensor(&t, 8);
        assert!(
            q.data().iter().all(|v| v.is_finite()),
            "quantized grid must be finite, got {:?}",
            q.data()
        );
        // Scale comes from the finite values only (max_abs = 1.0), so ±inf
        // saturate at the extremes and NaN collapses to zero.
        assert!((q.data()[0] - 1.0).abs() < 1e-5);
        assert!((q.data()[1] + 1.0).abs() < 1e-5);
        assert_eq!(q.data()[2], 0.0);
        assert!((q.data()[3] - 0.5).abs() < 0.01);
        assert!((q.data()[4] + 1.0).abs() < 1e-5);
    }

    #[test]
    fn all_non_finite_tensor_collapses_to_zero() {
        let t = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY], &[3]);
        let q = quantize_tensor(&t, 8);
        assert_eq!(q.data(), &[0.0, 0.0, 0.0]);
    }
}
