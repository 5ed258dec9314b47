//! Convolution kernels: a direct f32 forward over zero-padded input planes,
//! and the two halves of the f32 backward built on it.
//!
//! The scalar seed kernels walked the convolution with per-element
//! [`crate::Tensor::get`] calls — every access paying index arithmetic and a
//! bounds assert. The kernels here work on contiguous slices instead.
//!
//! The forward and dW/db kernels read the input from [`pad_planes`]: a copy
//! of the batch in zero-padded `ph × pw` planes. `Conv2d::forward` keeps
//! that copy for the backward pass; it is the input plus its border, not a
//! column matrix nine times its size.
//!
//! The f32 forward [`conv_forward_f32`] computes output channels over the
//! *wide* `oh × pw` plane: output `(y, x)` sits at index `y·pw + x`, so tap
//! `(ic, ky, kx)` reads the planes at that index plus the fixed offset
//! `ic·ph·pw + ky·pw + kx`, and a run of consecutive outputs reads one
//! contiguous slice per tap. The kernel keeps a block of 16 consecutive
//! outputs of two output channels in registers across all taps, so each
//! input slice it loads feeds both channels, then drops the wide plane's
//! columns `ow..pw`. It vectorizes across the flattened plane, not one row,
//! so a narrow output (the 8×8 detector's 6-wide plane) is as fast per
//! output as a wide one.
//!
//! **Bit-exactness contract:** [`conv_forward_f32`] accumulates each output
//! element in exactly the seed kernel's order — starting from the bias and
//! adding `weight × input` products with the reduction index ascending in
//! `(in_channel, ky, kx)` order, one accumulator per output, no FMA, no
//! reassociation — so it is bit-identical to the naive nested loops for
//! every input. Blocking over outputs and output channels only reorders
//! *independent* output elements, never the summation within one. This is
//! what keeps the golden report corpus byte-identical while the hot path
//! gets fast.
//!
//! The training kernels extend the contract to both gradient orders of the
//! seed's scalar backward loop, which visited upstream gradients
//! `g = dY[b, oc, y, x]` in `(b, oc, y, x)` order and scattered each over the
//! `(ic, ky, kx)` window:
//!
//! - **dW and db** ([`weight_bias_grads`]) — every element accumulates its
//!   terms in `(b, y, x)` ascending order, starting from its current value.
//!   The kernel reads the windows from a channel-last copy of the padded
//!   planes, where the `(kx, ic)` part of each window row is contiguous. Per
//!   output channel it lists the nonzero gradients in `(b, y, x)` order and
//!   walks that list once per group of dW accumulators held in registers,
//!   adding `g · window` to each: the same terms in the same order as the
//!   seed.
//! - **dX** ([`conv_input_grad_f32`]) — every input element receives its
//!   terms `oc` ascending, then `ky` descending, then `kx` descending. That
//!   is the reduction order of [`conv_forward_f32`] over the gradient padded
//!   by `kernel − 1 − pad`, with the kernel flipped in `(ky, kx)` and
//!   transposed to `[ic][oc]`: its input channel (`oc`) ascending, then its
//!   taps ascending. The taps the seed never formed read the padding: `0 · w`.
//!
//! The seed loop skipped `g == 0` (both `+0.0` and `-0.0`). The dW/db kernel
//! keeps that skip: a zero gradient never enters the list, so a `-0.0`
//! accumulator stays `-0.0` and an infinite input never meets `0 · ∞`. The
//! dX kernel drops it: its accumulators start at the `+0.0` bias and a sum
//! that starts at `+0.0` can never become `-0.0` under round-to-nearest, so
//! adding `g · w = ±0` is a no-op for every finite weight.

/// Geometry of one convolution call, shared by the forward and backward
/// kernels.
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

    /// Padded input height and width.
    pub fn padded(&self) -> (usize, usize) {
        (self.height + 2 * self.pad, self.width + 2 * self.pad)
    }
}

/// Outputs per output channel the direct f32 kernel accumulates in
/// registers at once: four SSE or two AVX vectors.
const CHUNK: usize = 16;

/// Output channels the direct f32 kernel computes per pass over the padded
/// planes: each input slice it loads feeds `OC_BLOCK × CHUNK` accumulators
/// (eight SSE registers).
const OC_BLOCK: usize = 2;

/// One weight repeated across an SSE vector: the direct kernel loads it
/// whole instead of shuffling a scalar into every lane at each tap.
type Splat = [f32; 4];

/// Lanes of one dW accumulator: two SSE vectors.
const LANES: usize = 8;

/// dW accumulators of [`LANES`] floats the backward kernel keeps in
/// registers during one pass over an output channel's nonzero gradients:
/// 24 floats, six SSE registers. A 3×3 kernel over 1, 4 or 8 input
/// channels needs 3, 6 or 9 accumulators: whole groups.
const LANE_GROUP: usize = 3;

/// Length of the [`pad_planes`] buffer of geometry `s`: the padded planes
/// plus the slack the direct kernel's last block reads past them. That
/// block runs up to `CHUNK - 1` outputs past the wide plane, so its last
/// taps read up to `kernel + CHUNK` elements past the last plane.
fn planes_len(s: &ConvShape) -> usize {
    let (ph, pw) = s.padded();
    s.batch * s.in_channels * ph * pw + s.kernel + CHUNK
}

/// Copies the flat `[batch, in_channels, height, width]` input into
/// zero-padded `[batch, in_channels, ph, pw]` planes, followed by the slack
/// the direct kernel's last block reads past the end. The forward and dW/db
/// kernels read their input from these planes, and `Conv2d::forward` caches
/// them for the backward pass; dX pads the upstream gradient with it.
pub fn pad_planes(input: &[f32], s: &ConvShape) -> Vec<f32> {
    let (ph, pw) = s.padded();
    let mut planes = vec![0.0f32; planes_len(s)];
    let padded = planes.chunks_exact_mut(ph * pw);
    for (dst, src) in padded.zip(input.chunks_exact(s.height * s.width)) {
        for (y, row) in src.chunks_exact(s.width).enumerate() {
            dst[(y + s.pad) * pw + s.pad..][..s.width].copy_from_slice(row);
        }
    }
    planes
}

/// The direct f32 convolution: `planes` is the [`pad_planes`] copy of the
/// input, `weight` the flat `[out_channels, in_channels, kernel, kernel]`
/// tensor, `bias` is `[out_channels]`, and the flat
/// `[batch, out_channels, oh, ow]` output is appended to `out`.
///
/// Bit-identical to the scalar seed kernel (see the module docs).
pub fn conv_forward_f32(
    planes: &[f32],
    weight: &[f32],
    bias: &[f32],
    s: &ConvShape,
    out: &mut Vec<f32>,
) {
    let (k, oh, ow, k_dim) = (s.kernel, s.out_height(), s.out_width(), s.k_dim());
    let (ph, pw) = s.padded();
    let (padded_plane, wide) = (ph * pw, oh * pw);
    assert_eq!(
        planes.len(),
        planes_len(s),
        "planes must come from pad_planes"
    );
    // Buffer offset of each tap from its output's wide index, in reduction
    // order.
    let taps: Vec<usize> = (0..s.in_channels)
        .flat_map(|ic| {
            (0..k).flat_map(move |ky| (0..k).map(move |kx| ic * padded_plane + ky * pw + kx))
        })
        .collect();
    let wide_len = wide.next_multiple_of(CHUNK);
    let mut wide_out = vec![0.0f32; OC_BLOCK * wide_len];
    out.reserve(s.batch * s.out_channels * oh * ow);
    let blocked = s.out_channels / OC_BLOCK * OC_BLOCK;
    // Weights of each block of output channels, tap-major, then those of
    // the channels left over, one at a time.
    let block_weights: Vec<[Splat; OC_BLOCK]> = (0..blocked)
        .step_by(OC_BLOCK)
        .flat_map(|oc| {
            (0..k_dim).map(move |t| std::array::from_fn(|o| [weight[(oc + o) * k_dim + t]; 4]))
        })
        .collect();
    let tail_weights: Vec<[Splat; 1]> = weight[blocked * k_dim..]
        .iter()
        .map(|&w| [[w; 4]])
        .collect();
    for b in 0..s.batch {
        // The element's planes run on to the end of the buffer: a block's
        // overhang reads into the next element's planes or the slack, and
        // those outputs are dropped with the wide plane's extra columns.
        let planes_b = &planes[b * s.in_channels * padded_plane..];
        let mut emit = |channels: usize, wide_out: &[f32]| {
            for plane in wide_out.chunks_exact(wide_len).take(channels) {
                for row in plane[..wide].chunks_exact(pw) {
                    out.extend_from_slice(&row[..ow]);
                }
            }
        };
        for (oc, w_block) in (0..blocked)
            .step_by(OC_BLOCK)
            .zip(block_weights.chunks_exact(k_dim))
        {
            let bias_block: &[f32; OC_BLOCK] = bias[oc..][..OC_BLOCK].try_into().unwrap();
            forward_block(planes_b, w_block, bias_block, &taps, &mut wide_out);
            emit(OC_BLOCK, &wide_out);
        }
        for (oc, w_oc) in (blocked..s.out_channels).zip(tail_weights.chunks_exact(k_dim)) {
            forward_block(planes_b, w_oc, &[bias[oc]], &taps, &mut wide_out);
            emit(1, &wide_out);
        }
    }
}

/// Computes `N` output channels over one element's wide planes, written to
/// the first `N` of `wide_out`'s [`OC_BLOCK`] planes.
/// `weights[t]` holds tap `t`'s weight for each channel. One accumulator
/// per output, starting from the bias, taps ascending: the seed kernel's
/// exact f32 operation sequence.
fn forward_block<const N: usize>(
    planes_b: &[f32],
    weights: &[[Splat; N]],
    bias: &[f32; N],
    taps: &[usize],
    wide_out: &mut [f32],
) {
    let wide_len = wide_out.len() / OC_BLOCK;
    for start in (0..wide_len).step_by(CHUNK) {
        let mut acc: [[f32; CHUNK]; N] = std::array::from_fn(|o| [bias[o]; CHUNK]);
        for (w, &tap) in weights.iter().zip(taps) {
            let src: &[f32; CHUNK] = planes_b[start + tap..][..CHUNK].try_into().unwrap();
            for (acc_o, w_o) in acc.iter_mut().zip(w) {
                for (i, (a, &v)) in acc_o.iter_mut().zip(src).enumerate() {
                    *a += w_o[i % 4] * v;
                }
            }
        }
        for (o, acc_o) in acc.iter().enumerate() {
            wide_out[o * wide_len + start..][..CHUNK].copy_from_slice(acc_o);
        }
    }
}

/// The input gradient of a convolution of geometry `s` with the flat
/// `[out_channels, in_channels, kernel, kernel]` `weight`, for the flat
/// `[batch, out_channels, oh, ow]` upstream gradient `grad_output`: the flat
/// `[batch, in_channels, height, width]` dX.
///
/// It is itself a forward convolution: `grad_output` padded by
/// `kernel − 1 − pad` on every side, convolved by [`conv_forward_f32`] with
/// the kernel flipped in `(ky, kx)` and transposed to
/// `[in_channels, out_channels]`, and a `+0.0` bias. The output is exactly
/// `height × width`. Bit-identical to the scalar seed backward loop (see the
/// module docs).
pub fn conv_input_grad_f32(weight: &[f32], grad_output: &[f32], s: &ConvShape) -> Vec<f32> {
    let k = s.kernel;
    let g = ConvShape {
        batch: s.batch,
        in_channels: s.out_channels,
        height: s.out_height(),
        width: s.out_width(),
        out_channels: s.in_channels,
        kernel: k,
        pad: k - 1 - s.pad,
    };
    // Reversing a kernel's `k·k` taps flips it in both `ky` and `kx`.
    let flipped: Vec<f32> = (0..s.in_channels)
        .flat_map(|ic| {
            (0..s.out_channels).flat_map(move |oc| {
                weight[(oc * s.in_channels + ic) * k * k..][..k * k]
                    .iter()
                    .rev()
                    .copied()
            })
        })
        .collect();
    let (planes, bias) = (pad_planes(grad_output, &g), vec![0.0f32; s.in_channels]);
    let mut grad_input = Vec::new();
    conv_forward_f32(&planes, &flipped, &bias, &g, &mut grad_input);
    grad_input
}

/// The weight and bias gradients of a convolution over the [`pad_planes`]
/// copy of the forward pass's input, for the flat
/// `[batch, out_channels, oh, ow]` upstream gradient `grad_output`:
/// accumulated into `weight_grad` (`[out_channels, K]`) and `bias_grad`
/// (`[out_channels]`). Bit-identical to the scalar seed backward loop (see
/// the module docs).
///
/// The planes are copied channel-last, so that the window row
/// `(ky, kx = 0..k, ic = 0..in_channels)` of each output is one contiguous
/// segment. Per output channel, the nonzero upstream gradients are listed
/// in `(b, y, x)` order with their window's offset; db sums them in that
/// order, and dW runs over the list once per group of [`LANE_GROUP`]
/// [`LANES`]-wide accumulators, in a transposed `[ky][kx][ic]` layout whose
/// rows are padded to whole accumulators. The padding lanes read past the
/// segment and are never stored back.
pub fn weight_bias_grads(
    planes: &[f32],
    grad_output: &[f32],
    weight_grad: &mut [f32],
    bias_grad: &mut [f32],
    s: &ConvShape,
) {
    let (spatial, k, ow) = (s.spatial(), s.kernel, s.out_width());
    let (ph, pw) = s.padded();
    assert_eq!(
        planes.len(),
        planes_len(s),
        "planes must come from pad_planes"
    );
    let (ic_n, padded_plane) = (s.in_channels, ph * pw);
    let row_len = (k * ic_n).next_multiple_of(LANES);
    let mut channel_last = vec![0.0f32; s.batch * padded_plane * ic_n + row_len];
    for (src, dst) in planes
        .chunks_exact(ic_n * padded_plane)
        .zip(channel_last.chunks_exact_mut(padded_plane * ic_n))
    {
        for (ic, plane) in src.chunks_exact(padded_plane).enumerate() {
            for (d, &v) in dst[ic..].iter_mut().step_by(ic_n).zip(plane) {
                *d = v;
            }
        }
    }
    // Transposed accumulators: `acc[ky * row_len + kx * ic_n + ic]` is
    // `dW[oc, ic, ky, kx]`, and `slots[i]` is the `acc` index of `dW[oc, i]`.
    // Accumulator `a` covers `acc[a * LANES..]`; its first lane reads the
    // channel-last buffer at the window offset plus `sources[a]`. Spare
    // accumulators fill the last group; they read offset 0 and are dropped.
    let accumulators = (k * row_len / LANES).next_multiple_of(LANE_GROUP);
    let mut acc = vec![0.0f32; accumulators * LANES];
    let slots: Vec<usize> = (0..s.k_dim())
        .map(|i| i / k % k * row_len + i % k * ic_n + i / (k * k))
        .collect();
    let sources: Vec<usize> = (0..accumulators * LANES)
        .step_by(LANES)
        .map(|j| {
            if j < k * row_len {
                j / row_len * pw * ic_n + j % row_len
            } else {
                0
            }
        })
        .collect();
    let mut entries = vec![(0usize, 0.0f32); s.batch * spatial];
    for (oc, dw) in weight_grad.chunks_exact_mut(s.k_dim()).enumerate() {
        // Every gradient is written, but only a nonzero one advances the
        // list: the seed loop skipped `g == 0` (both signs), so dW and db
        // never see it. No branch, so no mispredicted zero pattern.
        let mut len = 0;
        for b in 0..s.batch {
            let g_plane = &grad_output[(b * s.out_channels + oc) * spatial..][..spatial];
            for (y, g_row) in g_plane.chunks_exact(ow).enumerate() {
                let window = (b * padded_plane + y * pw) * ic_n;
                for (x, &g) in g_row.iter().enumerate() {
                    entries[len] = (window + x * ic_n, g);
                    len += usize::from(g != 0.0);
                }
            }
        }
        let nonzero = &entries[..len];
        for &(_, g) in nonzero {
            bias_grad[oc] += g;
        }
        for (&slot, &d) in slots.iter().zip(dw.iter()) {
            acc[slot] = d;
        }
        let groups = acc.chunks_exact_mut(LANE_GROUP * LANES);
        for (acc_group, sources_group) in groups.zip(sources.chunks_exact(LANE_GROUP)) {
            dw_pass(nonzero, &channel_last, sources_group, acc_group);
        }
        for (&slot, d) in slots.iter().zip(dw.iter_mut()) {
            *d = acc[slot];
        }
    }
}

/// One pass of [`weight_bias_grads`] over an output channel's nonzero
/// gradients `(window, g)`, with [`LANE_GROUP`] accumulators of [`LANES`]
/// floats held in registers: accumulator `i` adds `g ·` the `LANES` floats
/// at `channel_last[window + sources[i]..]` for every entry, in list order.
fn dw_pass(nonzero: &[(usize, f32)], channel_last: &[f32], sources: &[usize], acc: &mut [f32]) {
    let sources: [usize; LANE_GROUP] = sources.try_into().unwrap();
    let mut regs: [[f32; LANES]; LANE_GROUP] =
        std::array::from_fn(|i| acc[i * LANES..][..LANES].try_into().unwrap());
    for &(window, g) in nonzero {
        for (reg, &source) in regs.iter_mut().zip(&sources) {
            let src: &[f32; LANES] = channel_last[window + source..][..LANES].try_into().unwrap();
            for (a, &v) in reg.iter_mut().zip(src) {
                *a += g * v;
            }
        }
    }
    for (i, reg) in regs.iter().enumerate() {
        acc[i * LANES..][..LANES].copy_from_slice(reg);
    }
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

    /// [`conv_forward_f32`] over the whole input at once.
    fn forward(input: &[f32], weight: &[f32], bias: &[f32], s: &ConvShape) -> Vec<f32> {
        let mut out = Vec::new();
        conv_forward_f32(&pad_planes(input, s), weight, bias, s, &mut out);
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
        let fast = forward(&input, &weight, &bias, &s);
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
        let fast = forward(&input, &weight, &bias, &s);
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
        let fast = forward(&input, &weight, &bias, &s);
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
            let fast = forward(&input, &weight, &bias, &s);
            let slow = naive_conv(&input, &weight, &bias, &s);
            prop_assert_eq!(fast.len(), slow.len());
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                prop_assert!(a.to_bits() == b.to_bits(), "output {i} of {s:?}: {a} vs {b}");
            }
        }
    }
}
