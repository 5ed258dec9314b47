//! The [`Sequential`] model container.

use crate::layers::Layer;
use crate::serialize::ModelExport;
use crate::tensor::Tensor;
use dl2fence_telemetry::Recorder;
use std::fmt;

/// An ordered stack of layers executed front to back.
///
/// Both DL2Fence models are `Sequential` stacks; the container also supports
/// the deeper ablation variants (extra conv layers, more kernels).
///
/// # Examples
///
/// ```
/// use tinycnn::prelude::*;
///
/// let mut model = Sequential::new()
///     .push(Dense::new(4, 2, 0))
///     .push(Sigmoid::new());
/// let y = model.forward(&Tensor::zeros(&[1, 4]));
/// assert_eq!(y.shape(), &[1, 2]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Per-layer timing recorder; disabled (free) by default.
    telemetry: Recorder,
    /// Prefix of the per-layer histogram names, e.g. `"nn.detector"`.
    telemetry_prefix: String,
    /// Precomputed histogram names (`<prefix>.fwd.<i>.<layer>`), rebuilt
    /// lazily whenever the layer count changes — `forward`/`backward` must
    /// not allocate name strings per call.
    fwd_names: Vec<String>,
    bwd_names: Vec<String>,
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Sequential::default()
    }

    /// Attaches a telemetry recorder: every layer's `forward` and `backward`
    /// is timed into histograms named `<prefix>.fwd.<i>.<layer>` and
    /// `<prefix>.bwd.<i>.<layer>`. A disabled recorder (the default) keeps
    /// both passes on the untimed fast path.
    pub fn set_telemetry(&mut self, recorder: Recorder, prefix: &str) {
        self.telemetry = recorder;
        self.telemetry_prefix = prefix.to_string();
        self.fwd_names.clear();
        self.bwd_names.clear();
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
            .map(|(i, l)| format!("{prefix}.fwd.{i}.{}", l.name()))
            .collect();
        self.bwd_names = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| format!("{prefix}.bwd.{i}.{}", l.name()))
            .collect();
    }

    /// Appends a layer, builder-style.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends an already boxed layer, builder-style.
    pub fn push_boxed(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// The number of layers in the model.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total number of trainable scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Runs the model forward, caching intermediate state for `backward`.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        if !self.telemetry.is_enabled() {
            let mut x = input.clone();
            for layer in &mut self.layers {
                x = layer.forward(&x);
            }
            return x;
        }
        self.refresh_layer_names();
        let rec = self.telemetry.clone();
        let mut x = input.clone();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            x = rec.time(&self.fwd_names[i], || layer.forward(&x));
        }
        x
    }

    /// Inference-only forward: bit-identical output to
    /// [`Sequential::forward`] but routed through [`Layer::infer`], so no
    /// layer clones its input or keeps backward bookkeeping. This is the hot
    /// path for deployed models serving whole frame batches; per-layer
    /// telemetry uses the same `<prefix>.fwd.<i>.<layer>` histogram names as
    /// the training forward.
    pub fn predict(&mut self, input: &Tensor) -> Tensor {
        if !self.telemetry.is_enabled() {
            let mut x = input.clone();
            for layer in &self.layers {
                x = layer.infer(&x);
            }
            return x;
        }
        self.refresh_layer_names();
        let rec = self.telemetry.clone();
        let mut x = input.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            x = rec.time(&self.fwd_names[i], || layer.infer(&x));
        }
        x
    }

    /// Back-propagates the gradient of the loss w.r.t. the model output,
    /// accumulating parameter gradients in every layer. The first layer runs
    /// [`Layer::backward_params`]: no caller reads the model's input
    /// gradient, so it is never computed.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Sequential::forward`].
    pub fn backward(&mut self, grad_output: &Tensor) {
        let timed = self.telemetry.is_enabled();
        if timed {
            self.refresh_layer_names();
        }
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = grad_output.clone();
        if !timed {
            for layer in rest.iter_mut().rev() {
                g = layer.backward(&g);
            }
            first.backward_params(&g);
            return;
        }
        let rec = &self.telemetry;
        for (i, layer) in rest.iter_mut().enumerate().rev() {
            g = rec.time(&self.bwd_names[i + 1], || layer.backward(&g));
        }
        rec.time(&self.bwd_names[0], || first.backward_params(&g));
    }

    /// Resets all accumulated gradients to zero.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Collects mutable `(parameter, gradient)` pairs from every layer in a
    /// stable order, for use by an [`crate::Optimizer`].
    pub fn params_mut(&mut self) -> Vec<crate::layers::ParamGrad<'_>> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// A short textual summary (layer names and parameter counts).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for (i, layer) in self.layers.iter().enumerate() {
            s.push_str(&format!(
                "{:2}: {:<10} params={}\n",
                i,
                layer.name(),
                layer.param_count()
            ));
        }
        s.push_str(&format!("total params: {}", self.param_count()));
        s
    }

    /// Exports the model (architecture plus weights) for serialization.
    pub fn export(&self) -> ModelExport {
        ModelExport {
            layers: self.layers.iter().map(|l| l.export()).collect(),
        }
    }
}

impl fmt::Debug for Sequential {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Sequential({} layers, {} params)",
            self.len(),
            self.param_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn empty_model_is_identity() {
        let mut m = Sequential::new();
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        assert_eq!(m.forward(&x), x);
        assert!(m.is_empty());
    }

    #[test]
    fn detector_architecture_shapes() {
        // The paper's detector on a 16x16 mesh: input (R-1) x R = 15 x 16,
        // 4 directional frames as channels.
        let r = 16usize;
        let mut m = Sequential::new()
            .push(Conv2d::new(4, 8, 3, Padding::Valid, 0))
            .push(Relu::new())
            .push(MaxPool2d::new(2))
            .push(Flatten::new())
            .push(Dense::new(8 * 6 * 7, 1, 1))
            .push(Sigmoid::new());
        let x = Tensor::zeros(&[1, 4, r - 1, r]);
        let y = m.forward(&x);
        assert_eq!(y.shape(), &[1, 1]);
        assert!(y.data()[0] > 0.0 && y.data()[0] < 1.0);
    }

    #[test]
    fn segmenter_architecture_preserves_spatial_size() {
        // The paper's localizer: conv layers keeping (R-1) x R via Same padding,
        // collapsing to a single-channel segmentation map.
        let r = 16usize;
        let mut m = Sequential::new()
            .push(Conv2d::new(1, 8, 3, Padding::Same, 0))
            .push(Relu::new())
            .push(Conv2d::new(8, 8, 3, Padding::Same, 1))
            .push(Relu::new())
            .push(Conv2d::new(8, 1, 3, Padding::Same, 2))
            .push(Sigmoid::new());
        let x = Tensor::zeros(&[1, 1, r - 1, r]);
        let y = m.forward(&x);
        assert_eq!(y.shape(), &[1, 1, r - 1, r]);
    }

    #[test]
    fn param_count_sums_layers() {
        let m = Sequential::new()
            .push(Dense::new(4, 3, 0))
            .push(Dense::new(3, 2, 1));
        assert_eq!(m.param_count(), (4 * 3 + 3) + (3 * 2 + 2));
    }

    #[test]
    fn summary_mentions_every_layer() {
        let m = Sequential::new()
            .push(Conv2d::new(1, 2, 3, Padding::Valid, 0))
            .push(Relu::new());
        let s = m.summary();
        assert!(s.contains("Conv2d"));
        assert!(s.contains("ReLU"));
        assert!(s.contains("total params"));
    }

    #[test]
    fn telemetry_times_every_layer_pass() {
        use dl2fence_telemetry::{MemorySink, Telemetry};
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        let rec = tel.recorder();
        let mut m = Sequential::new()
            .push(Dense::new(3, 2, 0))
            .push(Sigmoid::new());
        m.set_telemetry(rec.clone(), "nn.test");
        let y = m.forward(&Tensor::ones(&[1, 3]));
        m.backward(&Tensor::ones(y.shape()));
        rec.flush();
        let names: Vec<String> = sink.take().iter().map(|e| e.name().to_string()).collect();
        for expected in [
            "nn.test.fwd.0.Dense",
            "nn.test.fwd.1.Sigmoid",
            "nn.test.bwd.0.Dense",
            "nn.test.bwd.1.Sigmoid",
        ] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
    }

    #[test]
    fn predict_is_bit_identical_to_forward() {
        let r = 16usize;
        let mut m = Sequential::new()
            .push(Conv2d::new(4, 8, 3, Padding::Valid, 0))
            .push(Relu::new())
            .push(MaxPool2d::new(2))
            .push(Flatten::new())
            .push(Dense::new(8 * 6 * 7, 1, 1))
            .push(Sigmoid::new());
        let x = crate::init::Init::XavierUniform.make(&[3, 4, r - 1, r], 16, 16, 77);
        let trained = m.forward(&x);
        let inferred = m.predict(&x);
        for (a, b) in trained.data().iter().zip(inferred.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn predict_times_layers_under_telemetry() {
        use dl2fence_telemetry::{MemorySink, Telemetry};
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        let rec = tel.recorder();
        let mut m = Sequential::new()
            .push(Dense::new(3, 2, 0))
            .push(Sigmoid::new());
        m.set_telemetry(rec.clone(), "nn.test");
        m.predict(&Tensor::ones(&[1, 3]));
        rec.flush();
        let names: Vec<String> = sink.take().iter().map(|e| e.name().to_string()).collect();
        for expected in ["nn.test.fwd.0.Dense", "nn.test.fwd.1.Sigmoid"] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
    }

    #[test]
    fn backward_then_params_have_gradients() {
        let mut m = Sequential::new()
            .push(Dense::new(3, 2, 0))
            .push(Sigmoid::new());
        let x = Tensor::ones(&[2, 3]);
        let y = m.forward(&x);
        m.backward(&Tensor::ones(y.shape()));
        let has_nonzero_grad = m
            .params_mut()
            .iter()
            .any(|(_, g)| g.data().iter().any(|&v| v != 0.0));
        assert!(has_nonzero_grad);
        m.zero_grad();
        let all_zero = m
            .params_mut()
            .iter()
            .all(|(_, g)| g.data().iter().all(|&v| v == 0.0));
        assert!(all_zero);
    }
}
