//! Neural-network layers.
//!
//! Every layer implements the [`Layer`] trait: a mutable `forward` (layers
//! cache whatever they need for the backward pass), a `backward` that
//! consumes the gradient w.r.t. the layer output and returns the gradient
//! w.r.t. the layer input, its parameter-only half `backward_params`, and
//! accessors over trainable parameters.

mod activation;
mod conv;
mod dense;
mod flatten;
mod pool;

pub use activation::{Relu, Sigmoid};
pub(crate) use conv::infer_chain;
pub use conv::{Conv2d, Padding};
pub use dense::Dense;
pub use flatten::Flatten;
pub use pool::MaxPool2d;

use crate::gemm::Epilogue;
use crate::serialize::LayerExport;
use crate::tensor::Tensor;

/// What [`crate::Sequential::predict`]'s plan needs to know about a layer
/// to fuse it, as reported by [`Layer::fusion`].
#[derive(Debug, Clone, Copy)]
pub enum Fusion<'a> {
    /// A convolution: it can store straight into the next convolution's
    /// padded planes, applying the epilogue of an activation after it.
    Conv(&'a Conv2d),
    /// An elementwise activation that a convolution right before it
    /// applies as its store epilogue.
    Epilogue(Epilogue),
    /// Neither: `predict` runs [`Layer::infer`].
    None,
}

/// A pair of references to a trainable parameter tensor and its accumulated
/// gradient, as exposed by [`Layer::params_mut`].
pub type ParamGrad<'a> = (&'a mut Tensor, &'a mut Tensor);

/// A differentiable network layer.
///
/// Layers are stateful: `forward` caches activations needed by `backward`,
/// and `backward` accumulates parameter gradients until [`Layer::zero_grad`]
/// is called.
pub trait Layer: Send {
    /// Human-readable layer name used in model summaries.
    fn name(&self) -> &'static str;

    /// Runs the layer on `input`, caching anything needed for `backward`.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Inference-only forward: produces exactly the same output as
    /// [`Layer::forward`] (bit-for-bit) but skips every gradient cache —
    /// no input clone, no argmax bookkeeping, no shape capture. This is the
    /// hot path behind [`crate::Sequential::predict`]; calling `backward`
    /// after `infer` panics (or uses a stale cache) just like calling it
    /// before `forward`.
    fn infer(&self, input: &Tensor) -> Tensor;

    /// [`Layer::infer`] over an input the caller gives up, so a layer that
    /// only reshapes ([`Flatten`]) moves the buffer instead of copying it.
    /// By default it calls `infer`.
    fn infer_owned(&self, input: Tensor) -> Tensor {
        self.infer(&input)
    }

    /// How [`crate::Sequential::predict`] may fuse this layer with its
    /// neighbours. By default it does not.
    fn fusion(&self) -> Fusion<'_> {
        Fusion::None
    }

    /// Propagates `grad_output` (gradient of the loss w.r.t. this layer's
    /// output) backwards, accumulating parameter gradients and returning the
    /// gradient w.r.t. this layer's input.
    ///
    /// A layer may consume its forward cache here ([`Conv2d`] does), so
    /// every `backward` needs its own preceding `forward`.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before `forward`.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// The parameter half of [`Layer::backward`]: accumulates exactly the
    /// parameter gradients `backward` would, bit for bit, and consumes the
    /// same forward cache, but returns no input gradient.
    /// [`crate::Sequential::backward`] calls it on the first layer, whose
    /// input gradient no trainer reads. By default it calls `backward` and
    /// drops the result; a layer whose input gradient costs real work
    /// ([`Conv2d`]) skips computing it.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before `forward`.
    fn backward_params(&mut self, grad_output: &Tensor) {
        self.backward(grad_output);
    }

    /// Mutable access to `(parameter, gradient)` pairs for the optimizer.
    /// Parameter-free layers return an empty vector.
    fn params_mut(&mut self) -> Vec<ParamGrad<'_>> {
        Vec::new()
    }

    /// Number of trainable scalar parameters in this layer.
    fn param_count(&self) -> usize {
        0
    }

    /// Resets all accumulated gradients to zero.
    fn zero_grad(&mut self) {}

    /// Exports the layer (configuration + weights) for serialization.
    fn export(&self) -> LayerExport;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check helper shared by layer tests.
    ///
    /// Verifies that the analytic input gradient produced by `backward`
    /// matches a central-difference estimate of d(sum(output))/d(input).
    pub(crate) fn check_input_gradient<L: Layer>(layer: &mut L, input: &Tensor, tol: f32) {
        let out = layer.forward(input);
        let grad_out = Tensor::ones(out.shape());
        let analytic = layer.backward(&grad_out);

        let eps = 1e-3f32;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let f_plus = layer.forward(&plus).sum();
            let f_minus = layer.forward(&minus).sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() < tol,
                "gradient mismatch at {i}: analytic {a}, numeric {numeric}"
            );
        }
    }

    /// The parameter-gradient counterpart of [`check_input_gradient`]:
    /// verifies every gradient `backward` accumulates into
    /// [`Layer::params_mut`] (weights and biases) against a central-difference
    /// estimate of d(sum(output))/d(parameter).
    pub(crate) fn check_param_gradients<L: Layer>(layer: &mut L, input: &Tensor, tol: f32) {
        layer.zero_grad();
        let out = layer.forward(input);
        layer.backward(&Tensor::ones(out.shape()));
        let analytic: Vec<Tensor> = layer
            .params_mut()
            .into_iter()
            .map(|(_, g)| g.clone())
            .collect();
        assert!(!analytic.is_empty(), "layer has no parameters to check");

        let eps = 1e-3f32;
        let sum_with = |layer: &mut L, param: usize, i: usize, delta: f32| {
            layer.params_mut()[param].0.data_mut()[i] += delta;
            let f = layer.forward(input).sum();
            layer.params_mut()[param].0.data_mut()[i] -= delta;
            f
        };
        for (param, grads) in analytic.iter().enumerate() {
            for (i, &a) in grads.data().iter().enumerate() {
                let numeric = (sum_with(layer, param, i, eps) - sum_with(layer, param, i, -eps))
                    / (2.0 * eps);
                assert!(
                    (a - numeric).abs() < tol,
                    "param {param} gradient mismatch at {i}: analytic {a}, numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn conv_layer_gradient_check() {
        for (padding, seed) in [(Padding::Valid, 11), (Padding::Same, 12)] {
            let mut layer = Conv2d::new(2, 3, 3, padding, seed);
            let input = crate::init::Init::XavierUniform.make(&[2, 2, 5, 6], 25, 25, seed + 3);
            check_input_gradient(&mut layer, &input, 1e-2);
            check_param_gradients(&mut layer, &input, 2e-2);
        }
    }

    #[test]
    fn dense_layer_gradient_check() {
        let mut layer = Dense::new(6, 3, 5);
        let input = crate::init::Init::XavierUniform.make(&[2, 6], 6, 3, 8);
        check_input_gradient(&mut layer, &input, 1e-2);
        check_param_gradients(&mut layer, &input, 1e-2);
    }

    #[test]
    fn sigmoid_gradient_check() {
        let mut layer = Sigmoid::new();
        let input = crate::init::Init::XavierUniform.make(&[2, 4], 4, 4, 2);
        check_input_gradient(&mut layer, &input, 1e-2);
    }

    #[test]
    fn relu_gradient_check_away_from_kink() {
        let mut layer = Relu::new();
        // Keep inputs away from 0 where ReLU is non-differentiable.
        let input = Tensor::from_vec(vec![1.0, -2.0, 3.0, -0.5, 2.2, -1.1], &[1, 6]);
        check_input_gradient(&mut layer, &input, 1e-2);
    }
}
