//! 2-D convolution layer.

use crate::gemm::{self, ConvShape};
use crate::init::Init;
use crate::layers::{Layer, ParamGrad};
use crate::serialize::LayerExport;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Batch elements [`Layer::infer`] pads and convolves at a time. Padding a
/// whole 64-frame 16×15 detector batch at once would hold ~245 KB of planes
/// that inference, unlike training, never reads again.
const INFER_CHUNK: usize = 8;

/// Padding mode for [`Conv2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Padding {
    /// No padding: the output spatial size shrinks by `kernel - 1`.
    Valid,
    /// Zero padding so that the output spatial size equals the input size
    /// (requires an odd kernel size).
    Same,
}

/// A 2-D convolution over NCHW tensors with stride 1.
///
/// This is the workhorse of both DL2Fence models: the detector uses a single
/// `Conv2d` with 8 kernels, the localizer stacks two or three of them.
///
/// # Examples
///
/// ```
/// use tinycnn::{Conv2d, Padding, Layer, Tensor};
///
/// let mut conv = Conv2d::new(1, 8, 3, Padding::Valid, 0);
/// let x = Tensor::zeros(&[1, 1, 16, 15]);
/// let y = conv.forward(&x);
/// assert_eq!(y.shape(), &[1, 8, 14, 13]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    padding: Padding,
    /// Weights laid out as `[out_channels, in_channels, kernel, kernel]`.
    weight: Tensor,
    bias: Tensor,
    weight_grad: Tensor,
    bias_grad: Tensor,
    /// The last `forward` call's geometry and [`gemm::pad_planes`] copy of
    /// its input: the backward kernels read the input windows from it.
    /// `backward` consumes it, so a trained layer holds no stale planes.
    cached_planes: Option<(ConvShape, Vec<f32>)>,
}

impl Conv2d {
    /// Creates a convolution layer with He-uniform initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is even and `padding` is [`Padding::Same`], or if
    /// any size is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        padding: Padding,
        seed: u64,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0);
        if padding == Padding::Same {
            assert!(kernel % 2 == 1, "Same padding requires an odd kernel size");
        }
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let wshape = [out_channels, in_channels, kernel, kernel];
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            padding,
            weight: Init::HeUniform.make(&wshape, fan_in, fan_out, seed),
            bias: Tensor::zeros(&[out_channels]),
            weight_grad: Tensor::zeros(&wshape),
            bias_grad: Tensor::zeros(&[out_channels]),
            cached_planes: None,
        }
    }

    /// Reconstructs a layer from previously exported weights.
    ///
    /// # Panics
    ///
    /// Panics if the tensor shapes are inconsistent with the configuration.
    pub fn from_weights(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        padding: Padding,
        weight: Tensor,
        bias: Tensor,
    ) -> Self {
        assert_eq!(
            weight.shape(),
            &[out_channels, in_channels, kernel, kernel],
            "weight shape mismatch"
        );
        assert_eq!(bias.shape(), &[out_channels], "bias shape mismatch");
        let wshape = weight.shape().to_vec();
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            padding,
            weight_grad: Tensor::zeros(&wshape),
            bias_grad: Tensor::zeros(&[out_channels]),
            weight,
            bias,
            cached_planes: None,
        }
    }

    /// The number of output channels (kernels).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The kernel (filter) size.
    pub fn kernel_size(&self) -> usize {
        self.kernel
    }

    fn pad_amount(&self) -> usize {
        match self.padding {
            Padding::Valid => 0,
            Padding::Same => self.kernel / 2,
        }
    }

    /// Validates the input against the layer configuration and derives the
    /// kernel geometry of the forward and backward kernels.
    fn conv_shape(&self, input: &Tensor) -> ConvShape {
        let (n, c, h, w) = dims4(input);
        assert_eq!(
            c, self.in_channels,
            "input channel count {c} does not match layer in_channels {}",
            self.in_channels
        );
        let p = self.pad_amount();
        let (ph, pw) = (h + 2 * p, w + 2 * p);
        let k = self.kernel;
        assert!(
            ph >= k && pw >= k,
            "input spatial size {ph}x{pw} smaller than kernel {k}"
        );
        ConvShape {
            batch: n,
            in_channels: self.in_channels,
            height: h,
            width: w,
            out_channels: self.out_channels,
            kernel: k,
            pad: p,
        }
    }

    /// Shapes `out`, the flat output of an input of geometry `s`.
    fn output_tensor(&self, out: Vec<f32>, s: &ConvShape) -> Tensor {
        Tensor::from_vec(
            out,
            &[s.batch, self.out_channels, s.out_height(), s.out_width()],
        )
    }

    /// Consumes the plane cache of the last `forward` and accumulates the
    /// weight and bias gradients for `grad_output`; returns that forward's
    /// geometry.
    fn param_grads(&mut self, grad_output: &Tensor) -> ConvShape {
        let (s, planes) = self
            .cached_planes
            .take()
            .expect("backward called before forward");
        assert_eq!(
            grad_output.shape(),
            &[s.batch, s.out_channels, s.out_height(), s.out_width()],
            "grad_output shape does not match the last forward output"
        );
        gemm::weight_bias_grads(
            &planes,
            grad_output.data(),
            self.weight_grad.data_mut(),
            self.bias_grad.data_mut(),
            &s,
        );
        s
    }

    /// The scalar seed kernel, kept as the oracle the direct kernel is proven
    /// bit-identical against (property tests) and as the baseline the
    /// `nn-bench` suite measures speedups from. Not used on any hot path.
    pub fn forward_reference(&self, input: &Tensor) -> Tensor {
        let s = self.conv_shape(input);
        let padded = self.padded(input);
        let (n, k) = (s.batch, s.kernel);
        let (oh, ow) = (s.out_height(), s.out_width());
        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        for b in 0..n {
            for oc in 0..self.out_channels {
                let bias = self.bias.get(&[oc]);
                for y in 0..oh {
                    for x in 0..ow {
                        let mut acc = bias;
                        for ic in 0..self.in_channels {
                            for ky in 0..k {
                                for kx in 0..k {
                                    acc += self.weight.get(&[oc, ic, ky, kx])
                                        * padded.get(&[b, ic, y + ky, x + kx]);
                                }
                            }
                        }
                        out.set(&[b, oc, y, x], acc);
                    }
                }
            }
        }
        out
    }

    /// The scalar seed backward loop: for the upstream gradient of a forward
    /// pass over `input`, accumulates into the weight and bias gradients and
    /// returns the input gradient. Kept, like [`Conv2d::forward_reference`],
    /// as the oracle the slice kernels are proven bit-identical against and
    /// as the baseline `nn-bench` measures from. Not used on any hot path.
    pub fn backward_reference(&mut self, input: &Tensor, grad_output: &Tensor) -> Tensor {
        let padded = self.padded(input);
        let p = self.pad_amount();
        let (n, _, ph, pw) = dims4(&padded);
        let (_, _, ih, iw) = dims4(input);
        let (_, _, oh, ow) = dims4(grad_output);
        let k = self.kernel;

        let mut grad_padded = Tensor::zeros(&[n, self.in_channels, ph, pw]);
        for b in 0..n {
            for oc in 0..self.out_channels {
                for y in 0..oh {
                    for x in 0..ow {
                        let g = grad_output.get(&[b, oc, y, x]);
                        if g == 0.0 {
                            continue;
                        }
                        let bg = self.bias_grad.get(&[oc]) + g;
                        self.bias_grad.set(&[oc], bg);
                        for ic in 0..self.in_channels {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let wg = self.weight_grad.get(&[oc, ic, ky, kx])
                                        + g * padded.get(&[b, ic, y + ky, x + kx]);
                                    self.weight_grad.set(&[oc, ic, ky, kx], wg);
                                    let ig = grad_padded.get(&[b, ic, y + ky, x + kx])
                                        + g * self.weight.get(&[oc, ic, ky, kx]);
                                    grad_padded.set(&[b, ic, y + ky, x + kx], ig);
                                }
                            }
                        }
                    }
                }
            }
        }

        if p == 0 {
            return grad_padded;
        }
        let mut grad_input = Tensor::zeros(&[n, self.in_channels, ih, iw]);
        for b in 0..n {
            for ic in 0..self.in_channels {
                for y in 0..ih {
                    for x in 0..iw {
                        grad_input.set(&[b, ic, y, x], grad_padded.get(&[b, ic, y + p, x + p]));
                    }
                }
            }
        }
        grad_input
    }

    fn padded(&self, input: &Tensor) -> Tensor {
        let p = self.pad_amount();
        if p == 0 {
            return input.clone();
        }
        let (n, c, h, w) = dims4(input);
        let mut out = Tensor::zeros(&[n, c, h + 2 * p, w + 2 * p]);
        for b in 0..n {
            for ch in 0..c {
                for y in 0..h {
                    for x in 0..w {
                        out.set(&[b, ch, y + p, x + p], input.get(&[b, ch, y, x]));
                    }
                }
            }
        }
        out
    }
}

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(
        t.rank(),
        4,
        "expected NCHW tensor, got shape {:?}",
        t.shape()
    );
    (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3])
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn forward(&mut self, input: &Tensor) -> Tensor {
        let s = self.conv_shape(input);
        let planes = gemm::pad_planes(input.data(), &s);
        let mut out = Vec::new();
        let (weight, bias) = (self.weight.data(), self.bias.data());
        gemm::conv_forward_f32(&planes, weight, bias, &s, &mut out);
        self.cached_planes = Some((s, planes));
        self.output_tensor(out, &s)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let s = self.conv_shape(input);
        let element = s.in_channels * s.height * s.width;
        let mut out = Vec::new();
        for chunk in input.data().chunks(INFER_CHUNK * element) {
            let c = ConvShape {
                batch: chunk.len() / element,
                ..s
            };
            let planes = gemm::pad_planes(chunk, &c);
            gemm::conv_forward_f32(&planes, self.weight.data(), self.bias.data(), &c, &mut out);
        }
        self.output_tensor(out, &s)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let s = self.param_grads(grad_output);
        let grad_input = gemm::conv_input_grad_f32(self.weight.data(), grad_output.data(), &s);
        Tensor::from_vec(grad_input, &[s.batch, s.in_channels, s.height, s.width])
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        self.param_grads(grad_output);
    }

    fn params_mut(&mut self) -> Vec<ParamGrad<'_>> {
        vec![
            (&mut self.weight, &mut self.weight_grad),
            (&mut self.bias, &mut self.bias_grad),
        ]
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn zero_grad(&mut self) {
        self.weight_grad.fill_zero();
        self.bias_grad.fill_zero();
    }

    fn export(&self) -> LayerExport {
        LayerExport::Conv2d {
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            kernel: self.kernel,
            padding: self.padding,
            weight: self.weight.clone(),
            bias: self.bias.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::proptest;

    fn assert_bits_eq(fast: &Tensor, oracle: &Tensor, what: &str) {
        assert_eq!(fast.shape(), oracle.shape(), "{what} shape");
        for (i, (a, b)) in fast.data().iter().zip(oracle.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs oracle {b}");
        }
    }

    /// A pseudo-random upstream gradient where every `zero_every`-th element
    /// is an exact zero, alternating `+0.0` and `-0.0`.
    fn sparse_grad(shape: &[usize], zero_every: usize, seed: u64) -> Tensor {
        let mut g = Init::XavierUniform.make(shape, 9, 9, seed);
        for (i, v) in g.data_mut().iter_mut().enumerate() {
            if i.is_multiple_of(zero_every) {
                *v = if (i / zero_every).is_multiple_of(2) {
                    0.0
                } else {
                    -0.0
                };
            }
        }
        g
    }

    /// Two `forward` + `backward` steps on `[batch, in, h, w]` inputs, run
    /// on `conv` and on a clone through the oracle — no `zero_grad` in
    /// between, so accumulation is checked too — comparing dX, dW and db
    /// bitwise.
    fn check_two_steps(
        mut conv: Conv2d,
        batch: usize,
        h: usize,
        w: usize,
        zero_every: usize,
        seed: u64,
    ) {
        let s = conv.conv_shape(&Tensor::zeros(&[batch, conv.in_channels, h, w]));
        let out_shape = [batch, conv.out_channels, s.out_height(), s.out_width()];
        let mut oracle = conv.clone();
        for step in 0..2u64 {
            let x = Init::XavierUniform.make(&[batch, conv.in_channels, h, w], 9, 9, seed + step);
            let g = sparse_grad(&out_shape, zero_every, seed + 10 + step);
            conv.forward(&x);
            let dx = conv.backward(&g);
            assert_bits_eq(&dx, &oracle.backward_reference(&x, &g), "dX");
        }
        assert_bits_eq(&conv.weight_grad, &oracle.weight_grad, "dW");
        assert_bits_eq(&conv.bias_grad, &oracle.bias_grad, "db");
    }

    #[test]
    fn production_shapes_backward_is_bit_identical_to_scalar_oracle() {
        // Detector 4→8 Valid and localizer 1→8, 8→8, 8→1 Same, on the 8×8
        // mesh and on 16×16 (196 and 256 outputs per plane).
        let shapes = [
            (4, 8, Padding::Valid),
            (1, 8, Padding::Same),
            (8, 8, Padding::Same),
            (8, 1, Padding::Same),
        ];
        for (i, &(ic, oc, padding)) in shapes.iter().enumerate() {
            for mesh in [8, 16] {
                let seed = 40 + i as u64 * 7 + mesh as u64;
                let conv = Conv2d::new(ic, oc, 3, padding, seed);
                check_two_steps(conv, 3, mesh, mesh, 3, seed);
            }
        }
    }

    proptest! {
        #[test]
        fn slice_backward_is_bit_identical_to_scalar_oracle(
            batch in 1usize..4,
            in_channels in 1usize..10,
            out_channels in 1usize..10,
            kernel in 1usize..6,
            extra_h in 0usize..12,
            extra_w in 0usize..12,
            pad_same in 0u8..2,
            zero_every in 1usize..6,
            seed in 0u64..1_000_000,
        ) {
            let padding = if pad_same == 1 && kernel % 2 == 1 {
                Padding::Same
            } else {
                Padding::Valid
            };
            let conv = Conv2d::new(in_channels, out_channels, kernel, padding, seed);
            check_two_steps(conv, batch, kernel + extra_h, kernel + extra_w, zero_every, seed);
        }
    }

    /// A `3×3` Same conv with dW and db preset to `-0.0`, an input holding
    /// ±inf and NaN, and a `zero_every`-sparse upstream gradient. Adding a
    /// skipped `±0 · x` would turn `-0.0` into `+0.0` or an infinite window
    /// into NaN.
    fn special_fixture(ic: usize, oc: usize, zero_every: usize) -> (Conv2d, Tensor, Tensor) {
        let mut conv = Conv2d::new(ic, oc, 3, Padding::Same, 70 + ic as u64);
        conv.weight_grad.data_mut().fill(-0.0);
        conv.bias_grad.data_mut().fill(-0.0);
        let mut x = Init::XavierUniform.make(&[2, ic, 6, 7], 9, 9, 71);
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0];
        for (i, v) in x.data_mut().iter_mut().enumerate().step_by(5) {
            *v = specials[i % specials.len()];
        }
        let g = sparse_grad(&[2, oc, 6, 7], zero_every, 72);
        (conv, x, g)
    }

    /// The `(ic, oc, zero_every)` cases of [`special_fixture`].
    const SPECIAL_CASES: [(usize, usize, usize); 4] = [(3, 4, 2), (8, 8, 3), (1, 8, 1), (8, 1, 4)];

    #[test]
    fn skipped_zero_gradients_leave_negative_zero_and_non_finite_windows_alone() {
        for (ic, oc, zero_every) in SPECIAL_CASES {
            let (mut conv, x, g) = special_fixture(ic, oc, zero_every);
            let mut oracle = conv.clone();
            conv.forward(&x);
            let dx = conv.backward(&g);
            assert_bits_eq(&dx, &oracle.backward_reference(&x, &g), "dX");
            assert_bits_eq(&conv.weight_grad, &oracle.weight_grad, "dW");
            assert_bits_eq(&conv.bias_grad, &oracle.bias_grad, "db");
        }
    }

    #[test]
    fn backward_params_matches_backward_and_consumes_the_plane_cache() {
        // Two accumulating steps each, on the special-value fixtures and on
        // the 16×16 localizer 8→8 shape.
        let mut cases: Vec<_> = SPECIAL_CASES
            .iter()
            .map(|&(ic, oc, zero_every)| special_fixture(ic, oc, zero_every))
            .collect();
        let x = Init::XavierUniform.make(&[4, 8, 16, 16], 9, 9, 73);
        let g = sparse_grad(&[4, 8, 16, 16], 3, 74);
        cases.push((Conv2d::new(8, 8, 3, Padding::Same, 75), x, g));
        for (mut conv, x, g) in cases {
            let mut full = conv.clone();
            for _ in 0..2 {
                conv.forward(&x);
                conv.backward_params(&g);
                assert!(conv.cached_planes.is_none(), "backward_params keeps planes");
                full.forward(&x);
                full.backward(&g);
            }
            assert_bits_eq(&conv.weight_grad, &full.weight_grad, "dW");
            assert_bits_eq(&conv.bias_grad, &full.bias_grad, "db");
        }
    }

    #[test]
    fn valid_padding_shrinks_output() {
        let mut conv = Conv2d::new(1, 3, 3, Padding::Valid, 1);
        let x = Tensor::zeros(&[2, 1, 10, 8]);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[2, 3, 8, 6]);
    }

    #[test]
    fn same_padding_preserves_spatial_size() {
        let mut conv = Conv2d::new(2, 4, 3, Padding::Same, 1);
        let x = Tensor::zeros(&[1, 2, 7, 9]);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[1, 4, 7, 9]);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // A single 1x1 kernel with weight 1 and bias 0 must copy the input.
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let bias = Tensor::zeros(&[1]);
        let mut conv = Conv2d::from_weights(1, 1, 1, Padding::Valid, weight, bias);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = conv.forward(&x);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_convolution_value() {
        // 2x2 input, 2x2 kernel of all ones => output = sum of input.
        let weight = Tensor::ones(&[1, 1, 2, 2]);
        let bias = Tensor::from_vec(vec![0.5], &[1]);
        let mut conv = Conv2d::from_weights(1, 1, 2, Padding::Valid, weight, bias);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert!((y.get(&[0, 0, 0, 0]) - 10.5).abs() < 1e-6);
    }

    #[test]
    fn bias_gradient_accumulates_output_grad() {
        let mut conv = Conv2d::new(1, 1, 2, Padding::Valid, 3);
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv.forward(&x);
        let g = Tensor::ones(y.shape());
        conv.backward(&g);
        // Output is 2x2 => bias grad = 4.
        let pairs = conv.params_mut();
        let (_, bias_grad) = &pairs[1];
        assert!((bias_grad.get(&[0]) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn zero_grad_resets() {
        let mut conv = Conv2d::new(1, 2, 3, Padding::Valid, 3);
        let x = Tensor::ones(&[1, 1, 5, 5]);
        let y = conv.forward(&x);
        conv.backward(&Tensor::ones(y.shape()));
        conv.zero_grad();
        for (_, g) in conv.params_mut() {
            assert!(g.data().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn param_count_matches_formula() {
        let conv = Conv2d::new(4, 8, 3, Padding::Valid, 0);
        assert_eq!(conv.param_count(), 8 * 4 * 3 * 3 + 8);
    }

    #[test]
    #[should_panic(expected = "channel count")]
    fn wrong_channel_count_panics() {
        let mut conv = Conv2d::new(2, 1, 3, Padding::Valid, 0);
        let x = Tensor::zeros(&[1, 1, 5, 5]);
        conv.forward(&x);
    }

    #[test]
    fn gemm_forward_is_bit_identical_to_reference_kernel() {
        for (padding, seed) in [(Padding::Valid, 7u64), (Padding::Same, 8u64)] {
            let mut conv = Conv2d::new(3, 5, 3, padding, seed);
            let x = crate::init::Init::XavierUniform.make(&[2, 3, 9, 11], 27, 27, seed + 100);
            let fast = conv.forward(&x);
            let reference = conv.forward_reference(&x);
            assert_eq!(fast.shape(), reference.shape());
            for (a, b) in fast.data().iter().zip(reference.data()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "direct kernel drifted from seed kernel"
                );
            }
        }
    }

    #[test]
    fn infer_matches_forward_without_caching() {
        // A small Same conv, then the 16×16 production shapes: localizer
        // 1→8, 8→8, 8→1 Same at batch 4 (the four directional frames) and
        // the detector's 4→8 Valid on 16×15 frames, at a batch `infer`
        // splits into chunks of 8, 8 and 4.
        let shapes = [
            (2, 3, Padding::Same, [1, 2, 6, 6]),
            (1, 8, Padding::Same, [4, 1, 16, 16]),
            (8, 8, Padding::Same, [4, 8, 16, 16]),
            (8, 1, Padding::Same, [4, 8, 16, 16]),
            (4, 8, Padding::Valid, [20, 4, 16, 15]),
        ];
        for (i, &(ic, oc, padding, in_shape)) in shapes.iter().enumerate() {
            let seed = 60 + i as u64;
            let mut conv = Conv2d::new(ic, oc, 3, padding, seed);
            let x = Init::XavierUniform.make(&in_shape, 9, 9, seed + 100);
            let from_infer = conv.infer(&x);
            assert!(conv.cached_planes.is_none(), "infer must not cache");
            let from_forward = conv.forward(&x);
            assert!(conv.cached_planes.is_some(), "forward must cache");
            assert_bits_eq(&from_infer, &from_forward, "infer vs forward");
            assert_bits_eq(
                &from_infer,
                &conv.forward_reference(&x),
                "infer vs reference",
            );
        }
    }

    #[test]
    fn backward_consumes_the_plane_cache() {
        let mut conv = Conv2d::new(1, 2, 3, Padding::Same, 4);
        let y = conv.forward(&Tensor::ones(&[1, 1, 4, 4]));
        conv.backward(&Tensor::ones(y.shape()));
        assert!(
            conv.cached_planes.is_none(),
            "a trained layer must not keep its padded planes"
        );
    }

    #[test]
    fn export_round_trips_weights() {
        let conv = Conv2d::new(1, 2, 3, Padding::Same, 5);
        match conv.export() {
            LayerExport::Conv2d { weight, .. } => {
                assert_eq!(weight.shape(), &[2, 1, 3, 3]);
            }
            other => panic!("unexpected export {other:?}"),
        }
    }
}
