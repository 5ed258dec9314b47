//! Flatten layer: collapses NCHW feature maps into `[batch, features]`.

use crate::layers::Layer;
use crate::serialize::LayerExport;
use crate::tensor::Tensor;

/// Flattens every non-batch dimension into a single feature dimension.
///
/// # Examples
///
/// ```
/// use tinycnn::{Flatten, Layer, Tensor};
///
/// let mut flat = Flatten::new();
/// let y = flat.forward(&Tensor::zeros(&[2, 8, 3, 3]));
/// assert_eq!(y.shape(), &[2, 72]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a new flatten layer.
    pub fn new() -> Self {
        Flatten {
            input_shape: Vec::new(),
        }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.input_shape = input.shape().to_vec();
        self.infer(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        self.infer_owned(input.clone())
    }

    fn infer_owned(&self, input: Tensor) -> Tensor {
        assert!(
            input.rank() >= 2,
            "Flatten expects at least a rank-2 tensor"
        );
        let batch = input.shape()[0];
        let features: usize = input.shape()[1..].iter().product();
        input.into_shape(&[batch, features])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(
            !self.input_shape.is_empty(),
            "backward called before forward"
        );
        grad_output.reshape(&self.input_shape)
    }

    fn export(&self) -> LayerExport {
        LayerExport::Flatten
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_preserves_batch_dimension() {
        let mut f = Flatten::new();
        let y = f.forward(&Tensor::zeros(&[3, 2, 4, 5]));
        assert_eq!(y.shape(), &[3, 40]);
    }

    #[test]
    fn backward_restores_original_shape() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]);
        let y = f.forward(&x);
        let g = f.backward(&y);
        assert_eq!(g.shape(), x.shape());
        assert_eq!(g.data(), x.data());
    }

    #[test]
    fn flatten_of_matrix_is_identity_shape() {
        let mut f = Flatten::new();
        let y = f.forward(&Tensor::zeros(&[4, 7]));
        assert_eq!(y.shape(), &[4, 7]);
    }
}
