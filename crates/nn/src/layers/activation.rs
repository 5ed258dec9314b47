//! Activation layers: ReLU and Sigmoid.

use crate::gemm::{relu, sigmoid, Epilogue};
use crate::layers::{Fusion, Layer};
use crate::serialize::LayerExport;
use crate::tensor::Tensor;

/// Rectified linear unit: `max(0, x)` applied element-wise.
///
/// # Examples
///
/// ```
/// use tinycnn::{Relu, Layer, Tensor};
///
/// let mut relu = Relu::new();
/// let y = relu.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]));
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a new ReLU activation layer.
    pub fn new() -> Self {
        Relu { cached_input: None }
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "ReLU"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.cached_input = Some(input.clone());
        self.infer(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        input.map(relu)
    }

    fn fusion(&self) -> Fusion<'_> {
        Fusion::Epilogue(Epilogue::Relu)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        input.zip(grad_output, |x, g| if x > 0.0 { g } else { 0.0 })
    }

    fn export(&self) -> LayerExport {
        LayerExport::Relu
    }
}

/// Logistic sigmoid: `1 / (1 + e^-x)` applied element-wise.
///
/// Used as the output activation of both DL2Fence models (binary detection
/// probability and per-pixel segmentation probability).
///
/// # Examples
///
/// ```
/// use tinycnn::{Sigmoid, Layer, Tensor};
///
/// let mut s = Sigmoid::new();
/// let y = s.forward(&Tensor::from_vec(vec![0.0], &[1, 1]));
/// assert!((y.data()[0] - 0.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a new sigmoid activation layer.
    pub fn new() -> Self {
        Sigmoid {
            cached_output: None,
        }
    }
}

impl Layer for Sigmoid {
    fn name(&self) -> &'static str {
        "Sigmoid"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        self.cached_output = Some(out.clone());
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        input.map(sigmoid)
    }

    fn fusion(&self) -> Fusion<'_> {
        Fusion::Epilogue(Epilogue::Sigmoid)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let out = self
            .cached_output
            .as_ref()
            .expect("backward called before forward");
        // A saturated sigmoid drives `g · y · (1 − y)` below
        // `f32::MIN_POSITIVE`. Flush those subnormals to zero: every later
        // product formed with one takes the slow microcode path, and the
        // conv backward kernels skip exact-zero gradients.
        out.zip(grad_output, |y, g| {
            let v = g * y * (1.0 - y);
            if v.abs() < f32::MIN_POSITIVE {
                0.0
            } else {
                v
            }
        })
    }

    fn export(&self) -> LayerExport {
        LayerExport::Sigmoid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut relu = Relu::new();
        let y = relu.forward(&Tensor::from_vec(vec![-3.0, 0.0, 2.5], &[3]));
        assert_eq!(y.data(), &[0.0, 0.0, 2.5]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut relu = Relu::new();
        relu.forward(&Tensor::from_vec(vec![-1.0, 1.0], &[2]));
        let g = relu.backward(&Tensor::from_vec(vec![5.0, 5.0], &[2]));
        assert_eq!(g.data(), &[0.0, 5.0]);
    }

    #[test]
    fn sigmoid_is_bounded_and_monotonic() {
        let mut s = Sigmoid::new();
        let y = s.forward(&Tensor::from_vec(vec![-10.0, -1.0, 0.0, 1.0, 10.0], &[5]));
        let d = y.data();
        assert!(d.iter().all(|&v| (0.0..=1.0).contains(&v)));
        for w in d.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn sigmoid_extreme_inputs_do_not_overflow() {
        let mut s = Sigmoid::new();
        let y = s.forward(&Tensor::from_vec(vec![-1000.0, 1000.0], &[2]));
        assert!(y.data()[0] >= 0.0 && y.data()[0] < 1e-6);
        assert!(y.data()[1] <= 1.0 && y.data()[1] > 1.0 - 1e-6);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sigmoid_backward_peak_at_zero() {
        let mut s = Sigmoid::new();
        s.forward(&Tensor::from_vec(vec![0.0], &[1]));
        let g = s.backward(&Tensor::ones(&[1]));
        assert!((g.data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn saturated_sigmoid_backward_flushes_subnormals_to_zero() {
        let mut s = Sigmoid::new();
        s.forward(&Tensor::from_vec(vec![-90.0, -100.0, 90.0], &[3]));
        let g = s.backward(&Tensor::from_vec(vec![1.0, -1.0, 1.0], &[3]));
        // Unflushed, the first two would be subnormal: y ≈ e^-90 and e^-100.
        let y = sigmoid(-90.0);
        assert!(y > 0.0 && y * (1.0 - y) < f32::MIN_POSITIVE);
        for &v in g.data() {
            assert_eq!(v.to_bits(), 0.0f32.to_bits(), "got {v:e}, want +0.0");
        }
    }

    #[test]
    fn activations_have_no_params() {
        let mut relu = Relu::new();
        let mut sig = Sigmoid::new();
        assert_eq!(relu.param_count(), 0);
        assert_eq!(sig.param_count(), 0);
        assert!(relu.params_mut().is_empty());
        assert!(sig.params_mut().is_empty());
    }
}
