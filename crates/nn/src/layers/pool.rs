//! Max-pooling layer.

use crate::layers::Layer;
use crate::serialize::LayerExport;
use crate::tensor::Tensor;

/// 2-D max pooling with a square window and stride equal to the window size.
///
/// If the spatial size is not a multiple of the window, the trailing rows and
/// columns that do not fill a complete window are dropped (the behaviour of
/// TensorFlow's `MaxPool2D` with `padding="valid"`, which the paper's
/// detector uses).
///
/// # Examples
///
/// ```
/// use tinycnn::{MaxPool2d, Layer, Tensor};
///
/// let mut pool = MaxPool2d::new(2);
/// let x = Tensor::zeros(&[1, 8, 14, 13]);
/// let y = pool.forward(&x);
/// assert_eq!(y.shape(), &[1, 8, 7, 6]);
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    /// Indices (into the flat input) of each output's argmax, for backward.
    argmax: Vec<usize>,
    input_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer with the given square window size.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "pooling window must be non-zero");
        MaxPool2d {
            window,
            argmax: Vec::new(),
            input_shape: Vec::new(),
        }
    }

    /// The pooling window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Pools `input` plane by plane over contiguous window rows. With
    /// `argmax`, also records each output's winning flat input index: the
    /// first maximum in row-major window order, or the window's first
    /// element when nothing beats `-inf` (an all-NaN or all-`-inf` window).
    /// Inlined, so `infer`'s walk carries no argmax bookkeeping.
    #[inline(always)]
    fn pool(&self, input: &Tensor, mut argmax: Option<&mut Vec<usize>>) -> Tensor {
        assert_eq!(input.rank(), 4, "MaxPool2d expects an NCHW tensor");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let k = self.window;
        assert!(h >= k && w >= k, "input {h}x{w} smaller than window {k}");
        let (oh, ow) = (h / k, w / k);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        if let Some(argmax) = argmax.as_deref_mut() {
            argmax.reserve_exact(out.len());
        }
        let src = input.data();
        let dst = out.data_mut();
        let mut oi = 0;
        for plane in 0..n * c {
            let src_plane = &src[plane * h * w..][..h * w];
            for y in 0..oh {
                for x in 0..ow {
                    let first = y * k * w + x * k;
                    let (mut best, mut best_idx) = (f32::NEG_INFINITY, first);
                    for ky in 0..k {
                        let start = first + ky * w;
                        for (i, &v) in (start..).zip(&src_plane[start..][..k]) {
                            if v > best {
                                (best, best_idx) = (v, i);
                            }
                        }
                    }
                    dst[oi] = best;
                    oi += 1;
                    if let Some(argmax) = argmax.as_deref_mut() {
                        argmax.push(plane * h * w + best_idx);
                    }
                }
            }
        }
        out
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut argmax = Vec::new();
        let out = self.pool(input, Some(&mut argmax));
        self.argmax = argmax;
        self.input_shape = input.shape().to_vec();
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        self.pool(input, None)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(
            !self.input_shape.is_empty(),
            "backward called before forward"
        );
        let mut grad_input = Tensor::zeros(&self.input_shape);
        for (oi, &src) in self.argmax.iter().enumerate() {
            grad_input.data_mut()[src] += grad_output.data()[oi];
        }
        grad_input
    }

    fn export(&self) -> LayerExport {
        LayerExport::MaxPool2d {
            window: self.window,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert_eq, proptest};

    /// The per-element training forward `forward` replaced, kept as the
    /// oracle: its output and its argmax indices.
    fn forward_oracle(input: &Tensor, k: usize) -> (Tensor, Vec<usize>) {
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let (oh, ow) = (h / k, w / k);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let mut argmax = vec![0; n * c * oh * ow];
        let mut oi = 0;
        for b in 0..n {
            for ch in 0..c {
                for y in 0..oh {
                    for x in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = y * k + ky;
                                let ix = x * k + kx;
                                let v = input.get(&[b, ch, iy, ix]);
                                if v > best {
                                    best = v;
                                    best_idx = ((b * c + ch) * h + iy) * w + ix;
                                }
                            }
                        }
                        out.set(&[b, ch, y, x], best);
                        argmax[oi] = best_idx;
                        oi += 1;
                    }
                }
            }
        }
        (out, argmax)
    }

    proptest! {
        #[test]
        fn slice_forward_matches_the_per_element_oracle(
            batch in 1usize..4,
            channels in 1usize..5,
            window in 1usize..4,
            extra_h in 0usize..9,
            extra_w in 0usize..9,
            levels in 1u64..6,
            seed in 0u64..1_000_000,
        ) {
            // Few distinct finite values, so windows hold ties; both signs
            // of zero, so a `-0.0` beside a `+0.0` must not win.
            let shape = [batch, channels, window + extra_h, window + extra_w];
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let data = (0..shape.iter().product::<usize>())
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    match state % (levels + 2) {
                        0 => -0.0,
                        1 => 0.0,
                        v => v as f32 - 3.5,
                    }
                })
                .collect();
            let x = Tensor::from_vec(data, &shape);
            let mut pool = MaxPool2d::new(window);
            let y = pool.forward(&x);
            let (y_oracle, argmax_oracle) = forward_oracle(&x, window);
            prop_assert_eq!(y.shape(), y_oracle.shape());
            for (a, b) in y.data().iter().zip(y_oracle.data()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(&pool.argmax, &argmax_oracle);
            let z = pool.infer(&x);
            for (a, b) in z.data().iter().zip(y.data()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn a_window_nothing_beats_routes_its_gradient_to_its_own_first_element() {
        // Batch element 1 holds one all-NaN and one all-`-inf` window; the
        // seed's default index 0 sent their gradients to element
        // `(0, 0, 0, 0)`, another plane.
        let mut data = vec![1.0f32; 2 * 2 * 4];
        for i in [8, 9, 12, 13] {
            data[i] = f32::NAN;
        }
        for i in [10, 11, 14, 15] {
            data[i] = f32::NEG_INFINITY;
        }
        let x = Tensor::from_vec(data, &[2, 1, 2, 4]);
        let mut pool = MaxPool2d::new(2);
        let y = pool.forward(&x);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), bits(&forward_oracle(&x, 2).0), "forward changed");
        assert_eq!(y.data(), &[1.0, 1.0, f32::NEG_INFINITY, f32::NEG_INFINITY]);
        let g = pool.backward(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 1, 1, 2]));
        let mut expected = [0.0f32; 16];
        (expected[0], expected[2], expected[8], expected[10]) = (1.0, 2.0, 3.0, 4.0);
        assert_eq!(g.data(), &expected[..]);
    }

    #[test]
    fn pooling_selects_maximum() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = pool.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.get(&[0, 0, 0, 0]), 4.0);
    }

    #[test]
    fn trailing_rows_are_dropped() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::zeros(&[1, 1, 5, 7]);
        let y = pool.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 2, 3]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 9.0, 3.0, 4.0], &[1, 1, 2, 2]);
        pool.forward(&x);
        let g = Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]);
        let gi = pool.backward(&g);
        assert_eq!(gi.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn infer_matches_forward_without_argmax_bookkeeping() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            (0..36).map(|v| ((v * 7) % 13) as f32).collect(),
            &[1, 1, 6, 6],
        );
        let fast = pool.infer(&x);
        assert!(pool.argmax.is_empty(), "infer must not record argmax");
        let slow = pool.forward(&x);
        assert_eq!(fast.data(), slow.data());
    }

    #[test]
    fn pool_has_no_params() {
        let mut pool = MaxPool2d::new(2);
        assert_eq!(pool.param_count(), 0);
        assert!(pool.params_mut().is_empty());
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut pool = MaxPool2d::new(2);
        pool.backward(&Tensor::zeros(&[1, 1, 1, 1]));
    }
}
