//! Convolution kernels: a direct f32 forward, a column-matrix f32 backward
//! and a fused int8 forward.
//!
//! The scalar seed kernels walked the convolution with per-element
//! [`crate::Tensor::get`] calls — every access paying index arithmetic and a
//! bounds assert. The kernels here work on contiguous slices instead.
//!
//! The f32 forward [`conv_forward_f32`] reads the input directly. Per batch
//! element it copies the input into a zero-padded buffer of `ph × pw`
//! planes and computes each output channel over the *wide* `oh × pw` plane:
//! output `(y, x)` sits at index `y·pw + x`, so tap `(ic, ky, kx)` reads the
//! buffer at that index plus the fixed offset `ic·ph·pw + ky·pw + kx`, and a
//! run of consecutive outputs reads one contiguous slice per tap. The kernel
//! keeps a block of outputs in registers across all taps, then drops the
//! wide plane's columns `ow..pw`. It vectorizes across the flattened plane,
//! not one row, so a narrow output (the 8×8 detector's 6-wide plane) is as
//! fast per output as a wide one.
//!
//! [`im2col`] lowers the input to a `[spatial, K]` *column matrix* whose row
//! `(b, y, x)` is the window feeding that output pixel. Only the backward
//! kernel (over the matrix `Conv2d::forward` caches) and the int8 kernel use
//! it.
//!
//! **Bit-exactness contract:** [`conv_forward_f32`] accumulates each output
//! element in exactly the seed kernel's order — starting from the bias and
//! adding `weight × input` products with the reduction index ascending in
//! `(in_channel, ky, kx)` order, one accumulator per output, no FMA, no
//! reassociation — so it is bit-identical to the naive nested loops for
//! every input. Blocking only reorders *independent* output elements, never
//! the summation within one. This is what keeps the golden report corpus
//! byte-identical while the hot path gets fast.
//!
//! The training kernel [`conv_backward_f32`] extends the contract to both
//! gradient orders of the seed's scalar backward loop, which visited upstream
//! gradients `g = dY[b, oc, y, x]` in `(b, oc, y, x)` order and scattered each
//! over the `(ic, ky, kx)` window:
//!
//! - **dW and db** — every element accumulates its terms in `(b, y, x)`
//!   ascending order, starting from its current value. The kernel keeps that
//!   order with rank-1 updates `dW[oc, :] += g · col[b, y·ow + x, :]` over the
//!   cached column matrix, each vectorized across the reduction dimension.
//! - **dX** — every padded-input element receives its terms in `oc`-ascending,
//!   then `(y, x)`-ascending order; for a fixed element that is `ky`
//!   descending, then `kx` descending. The kernel loops
//!   `oc → ic → ky↓ → kx↓ → y` and adds `g[y, ..ow] · w` to a contiguous row
//!   of the padded gradient, then crops the padding.
//!
//! The seed loop skipped `g == 0`. The dW/db kernel keeps that skip (one
//! branch per column row). The dX kernel drops it: its accumulators start at
//! `+0.0` and a sum that starts at `+0.0` can never become `-0.0` under
//! round-to-nearest, so adding `g · w = ±0` is a no-op for every finite
//! weight.
//!
//! The int8 kernel ([`conv_forward_i8`], [`dense_forward_i8`]) is the
//! accelerator-precision variant: symmetric per-tensor quantization (scales
//! defined by [`crate::quantize`]), `i32` accumulation, and a fused epilogue
//! applying the dequantization scale, bias and an optional folded ReLU in one
//! pass. It trades bit-exactness for integer arithmetic the compiler can
//! vectorize, and is held to the quantization ablation's accuracy budget by
//! the parity tests.

/// Geometry of one convolution call, shared by the f32 and int8 kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub in_channels: usize,
    /// Input height (unpadded).
    pub height: usize,
    /// Input width (unpadded).
    pub width: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Symmetric zero padding applied to both spatial dimensions.
    pub pad: usize,
}

impl ConvShape {
    /// Output height.
    pub fn out_height(&self) -> usize {
        self.height + 2 * self.pad - self.kernel + 1
    }

    /// Output width.
    pub fn out_width(&self) -> usize {
        self.width + 2 * self.pad - self.kernel + 1
    }

    /// The reduction length: `in_channels * kernel * kernel`.
    pub fn k_dim(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Output pixels per batch element.
    pub fn spatial(&self) -> usize {
        self.out_height() * self.out_width()
    }
}

/// Column-rows per cache tile of the int8 kernel. 64 rows × a
/// 3×3×8-channel reduction is ~4.5 KiB of i8 — comfortably inside L1 while
/// every output channel streams over the tile.
const SPATIAL_TILE: usize = 64;

/// Outputs the direct f32 kernel accumulates in registers at once: four SSE
/// or two AVX vectors.
const CHUNK: usize = 16;

/// Lowers one NCHW input into its column matrix: row `(b, y, x)` holds the
/// padded `in_channels × kernel × kernel` window feeding output pixel
/// `(y, x)` of batch element `b`, flattened in `(ic, ky, kx)` order — the
/// seed kernel's accumulation order. Out-of-bounds (padding) taps are
/// `T::default()` (zero).
pub fn im2col<T: Copy + Default>(input: &[T], s: &ConvShape) -> Vec<T> {
    let (oh, ow, k_dim) = (s.out_height(), s.out_width(), s.k_dim());
    let mut col = vec![T::default(); s.batch * oh * ow * k_dim];
    let plane = s.height * s.width;
    for b in 0..s.batch {
        let in_b = &input[b * s.in_channels * plane..][..s.in_channels * plane];
        let col_b = &mut col[b * oh * ow * k_dim..][..oh * ow * k_dim];
        for y in 0..oh {
            for x in 0..ow {
                let row = &mut col_b[(y * ow + x) * k_dim..][..k_dim];
                let mut j = 0;
                for ic in 0..s.in_channels {
                    let in_plane = &in_b[ic * plane..][..plane];
                    for ky in 0..s.kernel {
                        let iy = y + ky;
                        // With padding, input row `iy - pad`; taps landing in
                        // the pad border stay zero.
                        if iy < s.pad || iy >= s.height + s.pad {
                            j += s.kernel;
                            continue;
                        }
                        let in_row = &in_plane[(iy - s.pad) * s.width..][..s.width];
                        // Taps `kx` in `lo..hi` land inside the input row;
                        // copy them as one slice.
                        let lo = s.pad.saturating_sub(x);
                        let hi = (s.width + s.pad).saturating_sub(x).min(s.kernel);
                        if lo < hi {
                            row[j + lo..j + hi]
                                .copy_from_slice(&in_row[x + lo - s.pad..x + hi - s.pad]);
                        }
                        j += s.kernel;
                    }
                }
            }
        }
    }
    col
}

/// The direct f32 convolution: `input` is the flat
/// `[batch, in_channels, height, width]` tensor, `weight` the flat
/// `[out_channels, in_channels, kernel, kernel]` tensor, `bias` is
/// `[out_channels]`, and the result is the flat
/// `[batch, out_channels, oh, ow]` output.
///
/// Bit-identical to the scalar seed kernel (see the module docs).
pub fn conv_forward_f32(input: &[f32], weight: &[f32], bias: &[f32], s: &ConvShape) -> Vec<f32> {
    let (k, oh, ow) = (s.kernel, s.out_height(), s.out_width());
    let (ph, pw) = (s.height + 2 * s.pad, s.width + 2 * s.pad);
    let (plane, padded_plane, wide) = (s.height * s.width, ph * pw, oh * pw);
    // Buffer offset of each tap from its output's wide index, in reduction
    // order.
    let taps: Vec<usize> = (0..s.in_channels)
        .flat_map(|ic| {
            (0..k).flat_map(move |ky| (0..k).map(move |kx| ic * padded_plane + ky * pw + kx))
        })
        .collect();
    // The last block runs up to `CHUNK - 1` outputs past the wide plane, so
    // its last taps read up to `k + CHUNK` elements past the last plane.
    let mut padded = vec![0.0f32; s.in_channels * padded_plane + k + CHUNK];
    let mut wide_out = vec![0.0f32; wide.next_multiple_of(CHUNK)];
    let mut out = Vec::with_capacity(s.batch * s.out_channels * oh * ow);
    for in_b in input.chunks_exact(s.in_channels * plane) {
        // Only the interior is rewritten; the pad border stays zero.
        for (ic, in_plane) in in_b.chunks_exact(plane).enumerate() {
            for (y, row) in in_plane.chunks_exact(s.width).enumerate() {
                padded[ic * padded_plane + (y + s.pad) * pw + s.pad..][..s.width]
                    .copy_from_slice(row);
            }
        }
        for (w_oc, &bias_oc) in weight.chunks_exact(s.k_dim()).zip(bias) {
            for (block, start) in wide_out.chunks_exact_mut(CHUNK).zip((0..).step_by(CHUNK)) {
                // One accumulator per output, starting from the bias, taps
                // ascending: the seed kernel's exact f32 operation sequence.
                let mut acc = [bias_oc; CHUNK];
                for (&w, &tap) in w_oc.iter().zip(&taps) {
                    let src = &padded[start + tap..][..CHUNK];
                    for (a, &v) in acc.iter_mut().zip(src) {
                        *a += w * v;
                    }
                }
                block.copy_from_slice(&acc);
            }
            for row in wide_out[..wide].chunks_exact(pw) {
                out.extend_from_slice(&row[..ow]);
            }
        }
    }
    out
}

/// The f32 convolution backward pass over the forward pass's [`im2col`]
/// column matrix `col`. Accumulates the weight and bias gradients into
/// `weight_grad` (`[out_channels, K]`) and `bias_grad` (`[out_channels]`) and
/// returns the flat `[batch, in_channels, height, width]` input gradient for
/// the flat `[batch, out_channels, oh, ow]` upstream gradient `grad_output`.
///
/// Bit-identical to the scalar seed backward loop (see the module docs).
pub fn conv_backward_f32(
    col: &[f32],
    weight: &[f32],
    grad_output: &[f32],
    weight_grad: &mut [f32],
    bias_grad: &mut [f32],
    s: &ConvShape,
) -> Vec<f32> {
    let (spatial, k_dim, k, ow) = (s.spatial(), s.k_dim(), s.kernel, s.out_width());
    let (ph, pw) = (s.height + 2 * s.pad, s.width + 2 * s.pad);
    let mut grad_padded = vec![0.0f32; s.batch * s.in_channels * ph * pw];
    for b in 0..s.batch {
        let col_b = &col[b * spatial * k_dim..][..spatial * k_dim];
        let g_b = &grad_output[b * s.out_channels * spatial..][..s.out_channels * spatial];
        let gp_b = &mut grad_padded[b * s.in_channels * ph * pw..][..s.in_channels * ph * pw];
        for oc in 0..s.out_channels {
            let g_plane = &g_b[oc * spatial..][..spatial];
            // dW, db: rank-1 updates, column rows in (y, x) order.
            let dw_row = &mut weight_grad[oc * k_dim..][..k_dim];
            for (col_row, &g) in col_b.chunks_exact(k_dim).zip(g_plane) {
                if g == 0.0 {
                    continue;
                }
                bias_grad[oc] += g;
                for (d, &v) in dw_row.iter_mut().zip(col_row) {
                    *d += g * v;
                }
            }
            // dX: scatter each tap's weight over whole output rows, taps in
            // (ky, kx) descending order.
            for ic in 0..s.in_channels {
                let w_taps = &weight[(oc * s.in_channels + ic) * k * k..][..k * k];
                let gp_plane = &mut gp_b[ic * ph * pw..][..ph * pw];
                for ky in (0..k).rev() {
                    for kx in (0..k).rev() {
                        let w = w_taps[ky * k + kx];
                        for (y, g_row) in g_plane.chunks_exact(ow).enumerate() {
                            let dst = &mut gp_plane[(y + ky) * pw + kx..][..ow];
                            for (d, &g) in dst.iter_mut().zip(g_row) {
                                *d += g * w;
                            }
                        }
                    }
                }
            }
        }
    }
    if s.pad == 0 {
        return grad_padded;
    }
    // Crop the padding back off.
    let mut grad_input = Vec::with_capacity(s.batch * s.in_channels * s.height * s.width);
    for plane in grad_padded.chunks_exact(ph * pw) {
        for row in plane.chunks_exact(pw).skip(s.pad).take(s.height) {
            grad_input.extend_from_slice(&row[s.pad..][..s.width]);
        }
    }
    grad_input
}

/// The fused int8 convolution: `col`-side input is quantized by the caller
/// (symmetric, scale `input_scale`), weights are pre-quantized i8 with scale
/// `weight_scale`. Accumulates in `i32` and applies the dequantization
/// (`input_scale * weight_scale`), the f32 bias and — when `fuse_relu` — the
/// folded ReLU in a single epilogue pass.
pub fn conv_forward_i8(
    input_q: &[i8],
    input_scale: f32,
    weight_q: &[i8],
    weight_scale: f32,
    bias: &[f32],
    fuse_relu: bool,
    s: &ConvShape,
) -> Vec<f32> {
    let col = im2col(input_q, s);
    let (spatial, k_dim) = (s.spatial(), s.k_dim());
    let dequant = input_scale * weight_scale;
    let mut out = vec![0.0f32; s.batch * s.out_channels * spatial];
    for b in 0..s.batch {
        let col_b = &col[b * spatial * k_dim..][..spatial * k_dim];
        let out_b = &mut out[b * s.out_channels * spatial..][..s.out_channels * spatial];
        for tile_start in (0..spatial).step_by(SPATIAL_TILE) {
            let tile_end = (tile_start + SPATIAL_TILE).min(spatial);
            for oc in 0..s.out_channels {
                let w_row = &weight_q[oc * k_dim..][..k_dim];
                let bias_oc = bias[oc];
                let out_row = &mut out_b[oc * spatial..][..spatial];
                for si in tile_start..tile_end {
                    let col_row = &col_b[si * k_dim..][..k_dim];
                    let mut acc = 0i32;
                    for (&w, &v) in w_row.iter().zip(col_row) {
                        acc += w as i32 * v as i32;
                    }
                    let mut y = acc as f32 * dequant + bias_oc;
                    if fuse_relu {
                        y = y.max(0.0);
                    }
                    out_row[si] = y;
                }
            }
        }
    }
    out
}

/// The fused int8 dense layer: `input_q` is the quantized `[batch, in]`
/// activation matrix, `weight_q` the pre-transposed `[out, in]` quantized
/// weights (transposed once at build time so every dot product runs over two
/// contiguous rows). Same fused dequant + bias + optional-ReLU epilogue as
/// the convolution.
// A flat argument list keeps the kernel signature free of any struct the
// conv path doesn't also need; the three trailing dims mirror ConvShape.
#[allow(clippy::too_many_arguments)]
pub fn dense_forward_i8(
    input_q: &[i8],
    input_scale: f32,
    weight_q: &[i8],
    weight_scale: f32,
    bias: &[f32],
    fuse_relu: bool,
    batch: usize,
    in_features: usize,
    out_features: usize,
) -> Vec<f32> {
    let dequant = input_scale * weight_scale;
    let mut out = vec![0.0f32; batch * out_features];
    for b in 0..batch {
        let x_row = &input_q[b * in_features..][..in_features];
        let out_row = &mut out[b * out_features..][..out_features];
        for (o, slot) in out_row.iter_mut().enumerate() {
            let w_row = &weight_q[o * in_features..][..in_features];
            let mut acc = 0i32;
            for (&w, &v) in w_row.iter().zip(x_row) {
                acc += w as i32 * v as i32;
            }
            let mut y = acc as f32 * dequant + bias[o];
            if fuse_relu {
                y = y.max(0.0);
            }
            *slot = y;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert, prop_assert_eq, proptest};

    /// The scalar seed kernel, re-implemented here as the test oracle.
    fn naive_conv(input: &[f32], weight: &[f32], bias: &[f32], s: &ConvShape) -> Vec<f32> {
        let (oh, ow) = (s.out_height(), s.out_width());
        let mut out = vec![0.0f32; s.batch * s.out_channels * oh * ow];
        let get = |b: usize, ic: usize, y: isize, x: isize| -> f32 {
            if y < 0 || x < 0 || y as usize >= s.height || x as usize >= s.width {
                0.0
            } else {
                input[((b * s.in_channels + ic) * s.height + y as usize) * s.width + x as usize]
            }
        };
        let mut i = 0;
        for b in 0..s.batch {
            for oc in 0..s.out_channels {
                for y in 0..oh {
                    for x in 0..ow {
                        let mut acc = bias[oc];
                        for ic in 0..s.in_channels {
                            for ky in 0..s.kernel {
                                for kx in 0..s.kernel {
                                    let w = weight[((oc * s.in_channels + ic) * s.kernel + ky)
                                        * s.kernel
                                        + kx];
                                    acc += w * get(
                                        b,
                                        ic,
                                        (y + ky) as isize - s.pad as isize,
                                        (x + kx) as isize - s.pad as isize,
                                    );
                                }
                            }
                        }
                        out[i] = acc;
                        i += 1;
                    }
                }
            }
        }
        out
    }

    fn pseudo(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn direct_conv_is_bit_identical_to_naive_valid_padding() {
        let s = ConvShape {
            batch: 3,
            in_channels: 2,
            height: 7,
            width: 9,
            out_channels: 5,
            kernel: 3,
            pad: 0,
        };
        let input = pseudo(1, s.batch * s.in_channels * s.height * s.width);
        let weight = pseudo(2, s.out_channels * s.k_dim());
        let bias = pseudo(3, s.out_channels);
        let fast = conv_forward_f32(&input, &weight, &bias, &s);
        let slow = naive_conv(&input, &weight, &bias, &s);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn direct_conv_is_bit_identical_to_naive_same_padding() {
        let s = ConvShape {
            batch: 2,
            in_channels: 3,
            height: 5,
            width: 6,
            out_channels: 4,
            kernel: 3,
            pad: 1,
        };
        let input = pseudo(7, s.batch * s.in_channels * s.height * s.width);
        let weight = pseudo(8, s.out_channels * s.k_dim());
        let bias = pseudo(9, s.out_channels);
        let fast = conv_forward_f32(&input, &weight, &bias, &s);
        let slow = naive_conv(&input, &weight, &bias, &s);
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn spatial_sizes_beyond_one_tile_still_match() {
        // A 14×15 wide plane is 210 outputs: 13 full blocks and a partial
        // one that reads into the buffer's slack.
        let s = ConvShape {
            batch: 1,
            in_channels: 1,
            height: 16,
            width: 15,
            out_channels: 2,
            kernel: 3,
            pad: 0,
        };
        let input = pseudo(11, s.height * s.width);
        let weight = pseudo(12, s.out_channels * s.k_dim());
        let bias = pseudo(13, s.out_channels);
        let fast = conv_forward_f32(&input, &weight, &bias, &s);
        let slow = naive_conv(&input, &weight, &bias, &s);
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Values the direct kernel must round exactly like the oracle: signed
    /// zero, subnormals and infinities.
    const SPECIALS: [f32; 6] = [
        -0.0,
        f32::MIN_POSITIVE / 2.0,
        -f32::MIN_POSITIVE / 4.0,
        f32::from_bits(1),
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];

    /// Overwrites every `every`-th element of `v` with the next special value.
    fn sprinkle_specials(v: &mut [f32], every: usize, offset: usize) {
        for (i, x) in v.iter_mut().enumerate().skip(offset % every).step_by(every) {
            *x = SPECIALS[(i / every) % SPECIALS.len()];
        }
    }

    proptest! {
        #[test]
        fn direct_conv_is_bit_identical_to_naive_on_random_shapes(
            batch in 1usize..6,
            in_channels in 1usize..10,
            out_channels in 1usize..10,
            height in 1usize..21,
            width in 1usize..21,
            kernel_pick in 0usize..3,
            pad_pick in 0usize..3,
            special_every in 2usize..40,
            zero_input in 0u8..4,
            seed in 0u64..1_000_000,
        ) {
            let kernel = [1, 3, 5][kernel_pick];
            let pad = pad_pick % (kernel / 2 + 1);
            // The padded input must hold at least one kernel window.
            let min_side = kernel - 2 * pad;
            let s = ConvShape {
                batch,
                in_channels,
                height: height.max(min_side),
                width: width.max(min_side),
                out_channels,
                kernel,
                pad,
            };
            let mut input = pseudo(seed, s.batch * s.in_channels * s.height * s.width);
            let mut weight = pseudo(seed + 1, s.out_channels * s.k_dim());
            let mut bias = pseudo(seed + 2, s.out_channels);
            if zero_input == 0 {
                // With a -0.0 input and positive weights every product is
                // -0.0, so a sum stays -0.0 from a -0.0 bias until a +0.0
                // padding tap flips it: this exposes any sign-of-zero slip.
                input.fill(-0.0);
                weight.iter_mut().for_each(|w| *w = w.abs());
            }
            sprinkle_specials(&mut input, special_every, seed as usize);
            sprinkle_specials(&mut bias, 2, seed as usize);
            let fast = conv_forward_f32(&input, &weight, &bias, &s);
            let slow = naive_conv(&input, &weight, &bias, &s);
            prop_assert_eq!(fast.len(), slow.len());
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                prop_assert!(a.to_bits() == b.to_bits(), "output {i} of {s:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn int8_conv_tracks_f32_within_quantization_error() {
        let s = ConvShape {
            batch: 2,
            in_channels: 2,
            height: 8,
            width: 8,
            out_channels: 3,
            kernel: 3,
            pad: 1,
        };
        let input = pseudo(21, s.batch * s.in_channels * s.height * s.width);
        let weight = pseudo(22, s.out_channels * s.k_dim());
        let bias = pseudo(23, s.out_channels);
        let f32_out = conv_forward_f32(&input, &weight, &bias, &s);

        let in_scale = crate::quantize::symmetric_scale_i8(&input);
        let w_scale = crate::quantize::symmetric_scale_i8(&weight);
        let input_q: Vec<i8> = input
            .iter()
            .map(|&v| crate::quantize::quantize_value_i8(v, in_scale))
            .collect();
        let weight_q: Vec<i8> = weight
            .iter()
            .map(|&v| crate::quantize::quantize_value_i8(v, w_scale))
            .collect();
        let i8_out = conv_forward_i8(&input_q, in_scale, &weight_q, w_scale, &bias, false, &s);
        // Error bound: K products, each off by at most one half-step per side.
        let bound = s.k_dim() as f32 * (in_scale + w_scale);
        for (a, b) in f32_out.iter().zip(&i8_out) {
            assert!((a - b).abs() < bound, "int8 drifted: {a} vs {b}");
        }
    }

    #[test]
    fn fused_relu_clamps_negative_outputs() {
        let s = ConvShape {
            batch: 1,
            in_channels: 1,
            height: 3,
            width: 3,
            out_channels: 1,
            kernel: 3,
            pad: 0,
        };
        // All-negative product with a negative bias: fused ReLU must clamp.
        let input = vec![1.0f32; 9];
        let weight = vec![-1.0f32; 9];
        let bias = vec![-0.5f32];
        let in_scale = crate::quantize::symmetric_scale_i8(&input);
        let w_scale = crate::quantize::symmetric_scale_i8(&weight);
        let iq: Vec<i8> = input
            .iter()
            .map(|&v| crate::quantize::quantize_value_i8(v, in_scale))
            .collect();
        let wq: Vec<i8> = weight
            .iter()
            .map(|&v| crate::quantize::quantize_value_i8(v, w_scale))
            .collect();
        let out = conv_forward_i8(&iq, in_scale, &wq, w_scale, &bias, true, &s);
        assert_eq!(out, vec![0.0]);
    }

    #[test]
    fn int8_dense_matches_exact_small_integers() {
        // Weights/inputs exactly representable: int8 path is exact.
        let input = [1.0f32, 2.0, -3.0, 4.0];
        let weight_t = [1.0f32, 0.0, 2.0, -1.0, 0.5, 0.5, 0.5, 0.5]; // [out=2, in=4]
        let in_scale = crate::quantize::symmetric_scale_i8(&input);
        let w_scale = crate::quantize::symmetric_scale_i8(&weight_t);
        let iq: Vec<i8> = input
            .iter()
            .map(|&v| crate::quantize::quantize_value_i8(v, in_scale))
            .collect();
        let wq: Vec<i8> = weight_t
            .iter()
            .map(|&v| crate::quantize::quantize_value_i8(v, w_scale))
            .collect();
        let out = dense_forward_i8(&iq, in_scale, &wq, w_scale, &[0.0, 1.0], false, 1, 4, 2);
        assert!((out[0] - (1.0 - 6.0 - 4.0)).abs() < 0.1, "got {}", out[0]);
        assert!((out[1] - (0.5 * (1.0 + 2.0 - 3.0 + 4.0) + 1.0)).abs() < 0.1);
    }
}
