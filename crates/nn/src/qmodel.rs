//! Fused int8 inference models.
//!
//! A [`QuantizedModel`] is the deployment form of a trained [`Sequential`]
//! stack: Conv2d/Dense weights are quantized once to symmetric int8 (the
//! scale contract lives in [`crate::quantize`]), an immediately following
//! ReLU is folded into the producing layer's epilogue, and activations are
//! quantized dynamically per invocation. The heavy layers then run on the
//! integer GEMM kernels in [`crate::gemm`] with `i32` accumulation and a
//! single fused dequantize + bias + ReLU pass over the output.
//!
//! This is the "accelerator precision" execution model whose accuracy budget
//! the `ablation_quantization` binary fixes on `specs/stp.toml`'s campaign:
//! int8 outputs are *not* bit-identical to f32 (use [`Sequential::predict`]
//! where the golden corpus matters) but must stay within the ablation's
//! error envelope, which the parity suite in `crates/nn/tests/parity.rs`
//! enforces.

use crate::layers::{sigmoid_scalar, Layer, MaxPool2d};
use crate::model::Sequential;
use crate::quantize::quantize_slice_i8;
use crate::serialize::{LayerExport, ModelExport};
use crate::tensor::Tensor;
use dl2fence_telemetry::Recorder;
use serde::{Deserialize, Serialize};

/// One layer of a fused int8 model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum QuantLayer {
    /// Int8 convolution with fused dequant + bias (+ folded ReLU) epilogue.
    Conv2d {
        /// Number of input channels.
        in_channels: usize,
        /// Number of output channels.
        out_channels: usize,
        /// Square kernel size.
        kernel: usize,
        /// Symmetric zero padding (0 for Valid, `kernel / 2` for Same).
        pad: usize,
        /// Quantized weights, `[out, in, k, k]` row-major.
        weight_q: Vec<i8>,
        /// Symmetric weight scale (`max|w| / 127`).
        weight_scale: f32,
        /// Bias, kept in f32 and applied in the epilogue.
        bias: Vec<f32>,
        /// Whether an immediately following ReLU was folded in.
        fused_relu: bool,
    },
    /// Int8 dense layer with the same fused epilogue.
    Dense {
        /// Number of input features.
        in_features: usize,
        /// Number of output features.
        out_features: usize,
        /// Quantized weights, **pre-transposed** to `[out, in]` so every
        /// output's dot product runs over two contiguous rows.
        weight_q: Vec<i8>,
        /// Symmetric weight scale.
        weight_scale: f32,
        /// Bias in f32.
        bias: Vec<f32>,
        /// Whether an immediately following ReLU was folded in.
        fused_relu: bool,
    },
    /// Max pooling (runs in f32; it is a pure comparison network).
    MaxPool2d {
        /// Square pooling window.
        window: usize,
    },
    /// Flatten to `[batch, features]`.
    Flatten,
    /// A ReLU that could not be fused (not directly after Conv2d/Dense).
    Relu,
    /// Output sigmoid, evaluated in f32 for a calibrated probability.
    Sigmoid,
}

/// A fused int8 model built from a trained f32 export.
///
/// # Examples
///
/// ```
/// use tinycnn::prelude::*;
/// use tinycnn::qmodel::QuantizedModel;
///
/// let mut model = Sequential::new()
///     .push(Conv2d::new(1, 4, 3, Padding::Valid, 1))
///     .push(Relu::new())
///     .push(Flatten::new())
///     .push(Dense::new(4 * 6 * 6, 1, 2))
///     .push(Sigmoid::new());
/// let mut q = QuantizedModel::from_export(&model.export());
/// let x = Tensor::ones(&[2, 1, 8, 8]);
/// let yf = model.predict(&x);
/// let yq = q.predict(&x);
/// assert_eq!(yq.shape(), yf.shape());
/// ```
#[derive(Clone, Default)]
pub struct QuantizedModel {
    /// The fused layers, in forward order.
    pub layers: Vec<QuantLayer>,
    /// Per-layer timing recorder; disabled (free) by default.
    telemetry: Recorder,
    telemetry_prefix: String,
    fwd_names: Vec<String>,
}

impl QuantizedModel {
    /// Rebuilds a runnable model from already-fused layers (deserialization;
    /// see [`crate::serialize::QuantizedModelExport`]).
    pub fn from_layers(layers: Vec<QuantLayer>) -> Self {
        QuantizedModel {
            layers,
            ..QuantizedModel::default()
        }
    }

    /// Exports the fused layers for serialization.
    pub fn export(&self) -> crate::serialize::QuantizedModelExport {
        crate::serialize::QuantizedModelExport {
            layers: self.layers.clone(),
        }
    }
    /// Builds the fused int8 model from an f32 export, quantizing weights
    /// symmetrically and folding every ReLU that immediately follows a
    /// Conv2d or Dense layer into that layer's epilogue.
    pub fn from_export(export: &ModelExport) -> Self {
        let mut layers = Vec::with_capacity(export.layers.len());
        let mut i = 0;
        while i < export.layers.len() {
            let fused_relu = matches!(
                (&export.layers[i], export.layers.get(i + 1)),
                (
                    LayerExport::Conv2d { .. } | LayerExport::Dense { .. },
                    Some(LayerExport::Relu)
                )
            );
            match &export.layers[i] {
                LayerExport::Conv2d {
                    in_channels,
                    out_channels,
                    kernel,
                    padding,
                    weight,
                    bias,
                } => {
                    let (weight_q, weight_scale) = quantize_slice_i8(weight.data());
                    layers.push(QuantLayer::Conv2d {
                        in_channels: *in_channels,
                        out_channels: *out_channels,
                        kernel: *kernel,
                        pad: match padding {
                            crate::layers::Padding::Valid => 0,
                            crate::layers::Padding::Same => kernel / 2,
                        },
                        weight_q,
                        weight_scale,
                        bias: bias.data().to_vec(),
                        fused_relu,
                    });
                }
                LayerExport::Dense {
                    in_features,
                    out_features,
                    weight,
                    bias,
                } => {
                    // Transpose [in, out] → [out, in] once, at build time.
                    let (weight_q, weight_scale) = quantize_slice_i8(weight.transpose().data());
                    layers.push(QuantLayer::Dense {
                        in_features: *in_features,
                        out_features: *out_features,
                        weight_q,
                        weight_scale,
                        bias: bias.data().to_vec(),
                        fused_relu,
                    });
                }
                LayerExport::MaxPool2d { window } => {
                    layers.push(QuantLayer::MaxPool2d { window: *window })
                }
                LayerExport::Flatten => layers.push(QuantLayer::Flatten),
                LayerExport::Relu => layers.push(QuantLayer::Relu),
                LayerExport::Sigmoid => layers.push(QuantLayer::Sigmoid),
            }
            i += if fused_relu { 2 } else { 1 };
        }
        QuantizedModel {
            layers,
            ..QuantizedModel::default()
        }
    }

    /// Convenience: builds directly from a trained model.
    pub fn from_model(model: &Sequential) -> Self {
        Self::from_export(&model.export())
    }

    /// Attaches a telemetry recorder; per-layer timings are emitted as
    /// `<prefix>.fwd.<i>.<layer>` histograms, mirroring [`Sequential`].
    pub fn set_telemetry(&mut self, recorder: Recorder, prefix: &str) {
        self.telemetry = recorder;
        self.telemetry_prefix = prefix.to_string();
        self.fwd_names.clear();
    }

    fn layer_name(layer: &QuantLayer) -> &'static str {
        match layer {
            QuantLayer::Conv2d { .. } => "QConv2d",
            QuantLayer::Dense { .. } => "QDense",
            QuantLayer::MaxPool2d { .. } => "MaxPool2d",
            QuantLayer::Flatten => "Flatten",
            QuantLayer::Relu => "ReLU",
            QuantLayer::Sigmoid => "Sigmoid",
        }
    }

    fn refresh_layer_names(&mut self) {
        if self.fwd_names.len() == self.layers.len() {
            return;
        }
        let prefix = if self.telemetry_prefix.is_empty() {
            "nn"
        } else {
            &self.telemetry_prefix
        };
        self.fwd_names = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| format!("{prefix}.fwd.{i}.{}", Self::layer_name(l)))
            .collect();
    }

    /// The number of fused layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    fn run_layer(layer: &QuantLayer, x: &Tensor) -> Tensor {
        match layer {
            QuantLayer::Conv2d {
                in_channels,
                out_channels,
                kernel,
                pad,
                weight_q,
                weight_scale,
                bias,
                fused_relu,
            } => {
                assert_eq!(x.rank(), 4, "QConv2d expects an NCHW tensor");
                assert_eq!(
                    x.shape()[1],
                    *in_channels,
                    "input channel count {} does not match layer in_channels {in_channels}",
                    x.shape()[1]
                );
                let s = crate::gemm::ConvShape {
                    batch: x.shape()[0],
                    in_channels: *in_channels,
                    height: x.shape()[2],
                    width: x.shape()[3],
                    out_channels: *out_channels,
                    kernel: *kernel,
                    pad: *pad,
                };
                let (xq, x_scale) = quantize_slice_i8(x.data());
                let out = crate::gemm::conv_forward_i8(
                    &xq,
                    x_scale,
                    weight_q,
                    *weight_scale,
                    bias,
                    *fused_relu,
                    &s,
                );
                Tensor::from_vec(
                    out,
                    &[s.batch, *out_channels, s.out_height(), s.out_width()],
                )
            }
            QuantLayer::Dense {
                in_features,
                out_features,
                weight_q,
                weight_scale,
                bias,
                fused_relu,
            } => {
                assert_eq!(x.rank(), 2, "QDense expects a [batch, features] tensor");
                assert_eq!(
                    x.shape()[1],
                    *in_features,
                    "input feature count {} does not match layer in_features {in_features}",
                    x.shape()[1]
                );
                let (xq, x_scale) = quantize_slice_i8(x.data());
                let out = crate::gemm::dense_forward_i8(
                    &xq,
                    x_scale,
                    weight_q,
                    *weight_scale,
                    bias,
                    *fused_relu,
                    x.shape()[0],
                    *in_features,
                    *out_features,
                );
                Tensor::from_vec(out, &[x.shape()[0], *out_features])
            }
            QuantLayer::MaxPool2d { window } => MaxPool2d::new(*window).infer(x),
            QuantLayer::Flatten => {
                let batch = x.shape()[0];
                let features: usize = x.shape()[1..].iter().product();
                x.reshape(&[batch, features])
            }
            QuantLayer::Relu => x.map(|v| v.max(0.0)),
            QuantLayer::Sigmoid => x.map(sigmoid_scalar),
        }
    }

    /// Runs the fused int8 model over a (possibly batched) input.
    pub fn predict(&mut self, input: &Tensor) -> Tensor {
        if !self.telemetry.is_enabled() {
            let mut x = input.clone();
            for layer in &self.layers {
                x = Self::run_layer(layer, &x);
            }
            return x;
        }
        self.refresh_layer_names();
        let rec = self.telemetry.clone();
        let mut x = input.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            x = rec.time(&self.fwd_names[i], || Self::run_layer(layer, &x));
        }
        x
    }
}

impl std::fmt::Debug for QuantizedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QuantizedModel({} fused layers)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn detector_like() -> Sequential {
        Sequential::new()
            .push(Conv2d::new(4, 8, 3, Padding::Valid, 3))
            .push(Relu::new())
            .push(MaxPool2d::new(2))
            .push(Flatten::new())
            .push(Dense::new(8 * 2 * 3, 1, 4))
            .push(Sigmoid::new())
    }

    #[test]
    fn relu_is_fused_into_conv_and_dense() {
        let model = Sequential::new()
            .push(Conv2d::new(1, 2, 3, Padding::Same, 0))
            .push(Relu::new())
            .push(Flatten::new())
            .push(Dense::new(2 * 4 * 4, 3, 1))
            .push(Relu::new())
            .push(Dense::new(3, 1, 2))
            .push(Sigmoid::new());
        let q = QuantizedModel::from_model(&model);
        // 7 f32 layers fuse down to 5: conv+relu, flatten, dense+relu,
        // dense, sigmoid.
        assert_eq!(q.len(), 5);
        assert!(matches!(
            q.layers[0],
            QuantLayer::Conv2d {
                fused_relu: true,
                ..
            }
        ));
        assert!(matches!(
            q.layers[2],
            QuantLayer::Dense {
                fused_relu: true,
                ..
            }
        ));
        assert!(matches!(
            q.layers[3],
            QuantLayer::Dense {
                fused_relu: false,
                ..
            }
        ));
    }

    #[test]
    fn quantized_predictions_track_f32_predictions() {
        let mut model = detector_like();
        let mut q = QuantizedModel::from_model(&model);
        let x = crate::init::Init::XavierUniform.make(&[4, 4, 7, 8], 36, 36, 11);
        let yf = model.predict(&x);
        let yq = q.predict(&x);
        assert_eq!(yf.shape(), yq.shape());
        for (a, b) in yf.data().iter().zip(yq.data()) {
            // Sigmoid outputs: int8 noise stays well inside the decision
            // band for a freshly initialized model.
            assert!((a - b).abs() < 0.1, "int8 output drifted: {a} vs {b}");
        }
    }

    #[test]
    fn batched_quantized_inference_equals_per_sample() {
        let model = detector_like();
        let mut q = QuantizedModel::from_model(&model);
        let xs: Vec<Tensor> = (0..3)
            .map(|i| crate::init::Init::XavierUniform.make(&[1, 4, 7, 8], 36, 36, 20 + i))
            .collect();
        let refs: Vec<&Tensor> = xs.iter().collect();
        let batched = q.predict(&Tensor::stack(&refs).reshape(&[3, 4, 7, 8]));
        for (i, x) in xs.iter().enumerate() {
            let single = q.predict(x);
            // Per-sample dynamic input scales differ between the batched and
            // single-sample calls, so this is a closeness check, not bitwise.
            assert!(
                (batched.data()[i] - single.data()[0]).abs() < 0.05,
                "batch element {i} drifted"
            );
        }
    }

    #[test]
    fn quantized_model_telemetry_names_layers() {
        use dl2fence_telemetry::{MemorySink, Telemetry};
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        let rec = tel.recorder();
        let mut q = QuantizedModel::from_model(&detector_like());
        q.set_telemetry(rec.clone(), "nn.q");
        q.predict(&Tensor::ones(&[1, 4, 7, 8]));
        rec.flush();
        let names: Vec<String> = sink.take().iter().map(|e| e.name().to_string()).collect();
        assert!(
            names.contains(&"nn.q.fwd.0.QConv2d".to_string()),
            "{names:?}"
        );
        assert!(names.iter().any(|n| n.ends_with("QDense")), "{names:?}");
    }
}
