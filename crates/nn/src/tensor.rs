//! Dense, row-major `f32` tensors of arbitrary rank.
//!
//! [`Tensor`] is the single numeric container used throughout the crate.
//! Convolutional layers use the NCHW convention: `[batch, channels, height,
//! width]`. Dense layers use `[batch, features]`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense, row-major tensor of `f32` values.
///
/// Shapes are validated on construction; every element-wise operation panics
/// if the shapes of its operands differ, which turns silent broadcasting bugs
/// into loud test failures.
///
/// # Examples
///
/// ```
/// use tinycnn::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(t.get(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or contains a zero dimension.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::filled(shape, 0.0)
    }

    /// Creates a tensor of the given shape filled with ones.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or contains a zero dimension.
    pub fn ones(shape: &[usize]) -> Self {
        Self::filled(shape, 1.0)
    }

    /// Creates a tensor of the given shape with every element set to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or contains a zero dimension.
    pub fn filled(shape: &[usize], value: f32) -> Self {
        assert!(!shape.is_empty(), "tensor shape must not be empty");
        assert!(
            shape.iter().all(|&d| d > 0),
            "tensor dimensions must be non-zero, got {shape:?}"
        );
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// Creates a tensor from a flat `Vec` in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "data length {} does not match shape {:?} (= {} elements)",
            data.len(),
            shape,
            expected
        );
        assert!(!shape.is_empty(), "tensor shape must not be empty");
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Stacks equally shaped tensors along a new leading batch dimension:
    /// `k` tensors of shape `[d0, d1, ...]` become one `[k, d0, d1, ...]`
    /// tensor. This is how multi-frame batches are assembled for
    /// [`crate::Sequential::predict`].
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the shapes disagree.
    pub fn stack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack requires at least one tensor");
        let inner = parts[0].shape();
        let mut data = Vec::with_capacity(parts.len() * parts[0].len());
        for p in parts {
            assert_eq!(
                p.shape(),
                inner,
                "stack requires equal shapes: {:?} vs {inner:?}",
                p.shape()
            );
            data.extend_from_slice(p.data());
        }
        let mut shape = Vec::with_capacity(inner.len() + 1);
        shape.push(parts.len());
        shape.extend_from_slice(inner);
        Tensor::from_vec(data, &shape)
    }

    /// Extracts batch element `index` of a tensor whose leading dimension is
    /// the batch, keeping a batch dimension of one (`[n, d...] → [1, d...]`).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank < 2 or `index` is out of bounds.
    pub fn batch_item(&self, index: usize) -> Tensor {
        assert!(self.rank() >= 2, "batch_item requires a batched tensor");
        let n = self.shape[0];
        assert!(index < n, "batch index {index} out of bounds for {n}");
        let stride = self.len() / n;
        let mut shape = self.shape.clone();
        shape[0] = 1;
        Tensor::from_vec(self.data[index * stride..][..stride].to_vec(), &shape)
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements (never true for a
    /// validly constructed tensor, but provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The number of dimensions (rank) of the tensor.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// A read-only view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// A mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat data buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.shape.len(),
            "index rank {} does not match tensor rank {}",
            index.len(),
            self.shape.len()
        );
        let mut off = 0;
        for (i, (&idx, &dim)) in index.iter().zip(self.shape.iter()).enumerate() {
            assert!(
                idx < dim,
                "index {idx} out of bounds for dimension {i} of size {dim}"
            );
            off = off * dim + idx;
        }
        off
    }

    /// Returns the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank differs from the tensor rank or any component
    /// is out of bounds.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank differs from the tensor rank or any component
    /// is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    /// Returns a tensor with the same data but a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        self.clone().into_shape(shape)
    }

    /// [`Tensor::reshape`] by value: the data moves into the new shape
    /// without a copy.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn into_shape(self, shape: &[usize]) -> Tensor {
        let expected: usize = shape.iter().product();
        assert_eq!(
            self.data.len(),
            expected,
            "cannot reshape {:?} ({} elems) into {:?} ({} elems)",
            self.shape,
            self.data.len(),
            shape,
            expected
        );
        Tensor::from_vec(self.data, shape)
    }

    /// Applies a function to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise combination of two equally shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.data.len() as f32
    }

    /// Maximum element. Returns `f32::NEG_INFINITY` only for the impossible
    /// empty case.
    pub fn max(&self) -> f32 {
        self.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().cloned().fold(f32::INFINITY, f32::min)
    }

    /// Scales every element by a scalar, returning a new tensor.
    pub fn scale(&self, factor: f32) -> Tensor {
        self.map(|v| v * factor)
    }

    /// In-place `self += other * factor` (axpy). Used by optimizers.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, factor: f32) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b * factor;
        }
    }

    /// Fills the tensor with zeros in place.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Min-max normalizes all elements into `[0, 1]`.
    ///
    /// A constant tensor maps to all zeros (avoids division by zero). This is
    /// the normalization DL2Fence applies to integer-valued BOC frames.
    pub fn normalized(&self) -> Tensor {
        let lo = self.min();
        let hi = self.max();
        if (hi - lo).abs() < f32::EPSILON {
            return Tensor::zeros(&self.shape);
        }
        self.map(|v| (v - lo) / (hi - lo))
    }

    /// Matrix multiplication of two rank-2 tensors `[m, k] × [k, n] → [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let row = &other.data[p * n..(p + 1) * n];
                let dst = &mut out[i * n..(i + 1) * n];
                for (d, &b) in dst.iter_mut().zip(row.iter()) {
                    *d += a * b;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose requires a rank-2 tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Returns the index of the maximum element in flat (row-major) order.
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor{:?} (min {:.3}, max {:.3}, mean {:.3})",
            self.shape,
            self.min(),
            self.max(),
            self.mean()
        )
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a + b)
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a - b)
    }
}

impl Mul<&Tensor> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones_have_expected_values() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let o = Tensor::ones(&[4]);
        assert!(o.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = Tensor::zeros(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_wrong_len_panics() {
        let _ = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[2, 2]);
    }

    #[test]
    fn indexing_is_row_major() {
        let t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]);
        assert_eq!(t.get(&[0, 0, 0]), 0.0);
        assert_eq!(t.get(&[0, 0, 3]), 3.0);
        assert_eq!(t.get(&[0, 1, 0]), 4.0);
        assert_eq!(t.get(&[1, 0, 0]), 12.0);
        assert_eq!(t.get(&[1, 2, 3]), 23.0);
    }

    #[test]
    fn set_then_get_round_trips() {
        let mut t = Tensor::zeros(&[3, 3]);
        t.set(&[2, 1], 7.5);
        assert_eq!(t.get(&[2, 1]), 7.5);
        assert_eq!(t.sum(), 7.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.get(&[2, 0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn matmul_matches_hand_computed() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]);
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn normalized_maps_to_unit_range() {
        let t = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        let n = t.normalized();
        assert_eq!(n.min(), 0.0);
        assert_eq!(n.max(), 1.0);
        assert!((n.get(&[1]) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn normalized_constant_tensor_is_zero() {
        let t = Tensor::filled(&[4], 3.3);
        assert!(t.normalized().data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn elementwise_ops_work() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!((&a + &b).data(), &[4.0, 7.0]);
        assert_eq!((&b - &a).data(), &[2.0, 3.0]);
        assert_eq!((&a * &b).data(), &[3.0, 10.0]);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::zeros(&[3]);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        a.add_scaled(&g, -0.5);
        assert_eq!(a.data(), &[-0.5, -1.0, -1.5]);
    }

    #[test]
    fn argmax_finds_largest() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.3, 0.7], &[4]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn stats_are_consistent() {
        let t = Tensor::from_vec(vec![2.0, 4.0, 6.0, 8.0], &[2, 2]);
        assert_eq!(t.sum(), 20.0);
        assert_eq!(t.mean(), 5.0);
        assert_eq!(t.min(), 2.0);
        assert_eq!(t.max(), 8.0);
    }

    #[test]
    fn stack_then_batch_item_round_trips() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let s = Tensor::stack(&[&a, &b]);
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(s.batch_item(0).data(), a.data());
        assert_eq!(s.batch_item(1).data(), b.data());
        assert_eq!(s.batch_item(1).shape(), &[1, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "equal shapes")]
    fn stack_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = Tensor::stack(&[&a, &b]);
    }

    #[test]
    fn serde_round_trip() {
        let t = Tensor::from_vec(vec![1.0, 2.5, -3.0], &[3]);
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
