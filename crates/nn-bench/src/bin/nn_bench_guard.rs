//! CI throughput guard for the conv forward and backward kernels.
//!
//! Times the detector forward over one 64-frame batch against the scalar
//! seed kernels, a 16×16 localizer forward at the serve batch, the
//! backward pass of one localizer training step against the scalar seed
//! backward loop, and one training call per production convolution shape,
//! with the min-of-N idiom (shed scheduler noise, keep the best run) and
//! enforces:
//!
//! 1. **Detector speedup** — the batched direct f32 detector `predict`, the
//!    forward that detection, serving and evaluation run, must reach at
//!    least [`DETECTOR_SPEEDUP`]× the scalar seed kernels' throughput.
//! 2. **Serve-regime speedup** — a 16×16 localizer `predict` at batch 4
//!    must reach at least [`LOCALIZER_SPEEDUP`]× the same three convolutions
//!    through the scalar seed kernel.
//! 3. **Backward speedup** — the localizer's backward pass must reach at
//!    least [`BWD_SPEEDUP`]× the speed of the same step through the scalar
//!    seed backward loop ([`ScalarLocalizer::backward`]). The model's
//!    backward skips the first convolution's input gradient
//!    (`Sequential::backward` runs `Layer::backward_params` on layer 0); the
//!    scalar loop computes it.
//! 4. **Saturated tail** — with the output sigmoid saturated, so that every
//!    upstream gradient `g · y · (1 − y)` would be subnormal, the
//!    localizer's backward pass must take at most [`SATURATED_OVER_PLAIN`]×
//!    the unsaturated one. `Sigmoid::backward` flushes those gradients to
//!    zero; unflushed, every product formed with them takes the slow
//!    subnormal path.
//! 5. **dX as a forward convolution** — in the per-shape table of one
//!    `Conv2d` training forward and backward call, the localizer's 8→8
//!    16×16 backward (dW, db and dX) must take at most [`BWD_OVER_FWD`]×
//!    its forward. dX runs the forward kernel over the padded gradient;
//!    a scatter of the gradient over the kernel taps costs more than the
//!    forward on its own.
//!
//! Exits non-zero with a diagnostic when any bound is violated. The other
//! rows of the per-shape table are printed ungated.

use dl2fence_nn_bench::{
    detector_frames, detector_model, localizer_model, min_time, pseudo_tensor, stack_frames,
    ScalarDetector, ScalarLocalizer, KERNELS, MESH,
};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tinycnn::{Conv2d, Layer, Padding, Tensor};

/// Batch size of the headline claim (matches `Dl2Fence::DETECT_BATCH`).
const BATCH: usize = 64;
/// Forward passes per timed run — enough work for stable milliseconds.
const ITERS: usize = 30;
/// Required batched detector speedup over the scalar seed kernels: ~3×
/// headroom under the 33–41× the direct kernel measures on a 2-vCPU x86-64
/// VM.
const DETECTOR_SPEEDUP: f64 = 12.0;
/// Mesh side of the serve-regime localizer case (the paper's 16×16 NoC).
const SERVE_MESH: usize = 16;
/// Localizer batch at serve time: the four directional frames of a window.
const SERVE_BATCH: usize = 4;
/// Scalar-reference localizer passes per timed run.
const SERVE_REF_ITERS: usize = 5;
/// Direct localizer passes per timed run.
const SERVE_ITERS: usize = 200;
/// Required localizer speedup over the scalar seed kernels: ~3× headroom
/// under the ~90× the direct kernel measures on a 2-vCPU x86-64 VM, where
/// the column-matrix GEMM kernel it replaced measured ~13×.
const LOCALIZER_SPEEDUP: f64 = 30.0;
/// Minibatch of the timed localizer training step (the localizer trainer's).
const TRAIN_BATCH: usize = 4;
/// Training steps per timed run.
const TRAIN_ITERS: usize = 200;
/// Scalar-reference backward passes per timed run.
const TRAIN_REF_ITERS: usize = 10;
/// Required localizer backward speedup over the scalar seed backward loop:
/// ~3× headroom under the 31–42× the slice kernels measure on a 2-vCPU
/// x86-64 VM. It is anchored to the scalar loop, not to the forward pass,
/// which later kernels keep speeding up.
const BWD_SPEEDUP: f64 = 10.0;
/// Output-convolution bias that saturates the localizer's sigmoid: every
/// pre-activation lands near −95, where `σ` is subnormal (between
/// `e^−103` and `e^−87`), and so is each upstream gradient.
const SATURATING_BIAS: f32 = -95.0;
/// Ceiling on a saturated localizer step's backward time over an
/// unsaturated one's. On a 2-vCPU x86-64 VM the saturated backward
/// measured ~0.9× with the flush (it runs on exact zeros) and 23–34×
/// without it.
const SATURATED_OVER_PLAIN: f64 = 2.0;
/// Ceiling on the 8→8 16×16 Same conv's training backward over its
/// forward. On a 2-vCPU x86-64 VM, dX as a forward convolution measured
/// 1.97–2.22× over fifteen runs and the per-tap scatter it replaced
/// 3.20–3.80× over fourteen.
const BWD_OVER_FWD: f64 = 3.0;

fn main() -> ExitCode {
    let frames = detector_frames(BATCH, 9);
    let stacked = stack_frames(&frames);
    let mut scalar = ScalarDetector::new(KERNELS, 21);
    let mut model = detector_model(KERNELS, 21);

    // The comparison is only meaningful if both f32 paths compute the same
    // function: assert bitwise agreement before timing anything.
    let singles = scalar.forward_many(&frames);
    let batched = model.predict(&stacked);
    for (i, (a, b)) in singles.iter().zip(batched.data()).enumerate() {
        if a.to_bits() != b.to_bits() {
            eprintln!("guard fixtures diverged at frame {i}: scalar {a} vs batched {b}");
            return ExitCode::FAILURE;
        }
    }

    let t_scalar = min_time(2, || {
        for _ in 0..ITERS {
            black_box(scalar.forward_many(&frames));
        }
    });
    let t_f32 = min_time(2, || {
        for _ in 0..ITERS {
            black_box(model.predict(&stacked));
        }
    });

    let per_frame = |d: Duration| d.as_secs_f64() / (ITERS * BATCH) as f64 * 1e6;
    let speedup = t_scalar.as_secs_f64() / t_f32.as_secs_f64();
    println!(
        "detector forward @ batch {BATCH}, min-of-2 ({ITERS} iters/run):\n\
         scalar seed kernels : {:>9.3} µs/frame\n\
         batched direct f32  : {:>9.3} µs/frame  ({speedup:.2}x)",
        per_frame(t_scalar),
        per_frame(t_f32),
    );
    if speedup < DETECTOR_SPEEDUP {
        eprintln!(
            "FAIL: batched f32 detector speedup {speedup:.2}x is below the required \
             {DETECTOR_SPEEDUP}x"
        );
        return ExitCode::FAILURE;
    }

    let serve_speedup = localizer_serve_speedup();
    if serve_speedup < LOCALIZER_SPEEDUP {
        eprintln!(
            "FAIL: 16x16 localizer speedup {serve_speedup:.2}x is below the required \
             {LOCALIZER_SPEEDUP}x"
        );
        return ExitCode::FAILURE;
    }

    let (t_fwd, t_bwd) = localizer_step_times(false);
    let t_ref = scalar_backward_time();
    let bwd_speedup =
        t_ref.as_secs_f64() / TRAIN_REF_ITERS as f64 / (t_bwd.as_secs_f64() / TRAIN_ITERS as f64);
    println!(
        "localizer training step @ batch {TRAIN_BATCH}, min-of-2 ({TRAIN_ITERS} iters/run):\n\
         forward              : {:>9.3} µs/step\n\
         backward             : {:>9.3} µs/step  ({bwd_speedup:.2}x scalar)\n\
         scalar seed backward : {:>9.3} µs/step",
        t_fwd.as_secs_f64() / TRAIN_ITERS as f64 * 1e6,
        t_bwd.as_secs_f64() / TRAIN_ITERS as f64 * 1e6,
        t_ref.as_secs_f64() / TRAIN_REF_ITERS as f64 * 1e6,
    );
    if bwd_speedup < BWD_SPEEDUP {
        eprintln!(
            "FAIL: localizer backward speedup {bwd_speedup:.2}x over the scalar seed backward \
             loop is below the required {BWD_SPEEDUP}x"
        );
        return ExitCode::FAILURE;
    }
    let (_, t_sat) = localizer_step_times(true);
    let saturated = t_sat.as_secs_f64() / t_bwd.as_secs_f64();
    println!(
        "saturated output sigmoid (bias {SATURATING_BIAS}):\n\
         backward : {:>9.3} µs/step  ({saturated:.2}x unsaturated)",
        t_sat.as_secs_f64() / TRAIN_ITERS as f64 * 1e6,
    );
    if saturated > SATURATED_OVER_PLAIN {
        eprintln!(
            "FAIL: a saturated localizer backward takes {saturated:.2}x an unsaturated one, \
             above the {SATURATED_OVER_PLAIN}x bound: subnormal gradients are not flushed"
        );
        return ExitCode::FAILURE;
    }
    let bwd_over_fwd = conv_step_table();
    if bwd_over_fwd > BWD_OVER_FWD {
        eprintln!(
            "FAIL: the 8->8 16x16 conv backward takes {bwd_over_fwd:.2}x its forward, above \
             the {BWD_OVER_FWD}x bound"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "nn-bench guard passed: detector {speedup:.2}x >= {DETECTOR_SPEEDUP}x, \
         16x16 localizer {serve_speedup:.2}x >= {LOCALIZER_SPEEDUP}x, \
         backward {bwd_speedup:.2}x >= {BWD_SPEEDUP}x scalar, \
         saturated backward {saturated:.2}x <= {SATURATED_OVER_PLAIN}x unsaturated, \
         8->8 16x16 conv backward {bwd_over_fwd:.2}x <= {BWD_OVER_FWD}x forward"
    );
    ExitCode::SUCCESS
}

/// Min-of-2 time of [`TRAIN_REF_ITERS`] backward passes of the
/// [`localizer_step_times`] fixture through [`ScalarLocalizer`].
fn scalar_backward_time() -> Duration {
    let x = pseudo_tensor(5, &[TRAIN_BATCH, 1, MESH, MESH]);
    let mut scalar = ScalarLocalizer::new(KERNELS, 31);
    let grad = Tensor::ones(scalar.forward(&x).shape());
    min_time(2, || {
        for _ in 0..TRAIN_REF_ITERS {
            black_box(scalar.backward(&grad));
        }
    })
}

/// Speedup of a 16×16 localizer `predict` at batch [`SERVE_BATCH`] over
/// [`ScalarLocalizer`] (bit-identical by the fixture tests), per pass,
/// min-of-2.
fn localizer_serve_speedup() -> f64 {
    let x = pseudo_tensor(6, &[SERVE_BATCH, 1, SERVE_MESH, SERVE_MESH]);
    let scalar = ScalarLocalizer::new(KERNELS, 41);
    let mut model = localizer_model(KERNELS, 41);
    let t_scalar = min_time(2, || {
        for _ in 0..SERVE_REF_ITERS {
            black_box(scalar.predict(&x));
        }
    })
    .as_secs_f64()
        / SERVE_REF_ITERS as f64;
    let t_direct = min_time(2, || {
        for _ in 0..SERVE_ITERS {
            black_box(model.predict(&x));
        }
    })
    .as_secs_f64()
        / SERVE_ITERS as f64;
    let speedup = t_scalar / t_direct;
    println!(
        "localizer forward @ {SERVE_MESH}x{SERVE_MESH}, batch {SERVE_BATCH}, min-of-2:\n\
         scalar seed kernels : {:>9.3} µs/pass\n\
         direct f32 predict  : {:>9.3} µs/pass  ({speedup:.2}x)",
        t_scalar * 1e6,
        t_direct * 1e6,
    );
    speedup
}

/// Min-of-2 forward and backward times of [`TRAIN_ITERS`] localizer training
/// steps, each phase summed over the steps of one run; with `saturate`, the
/// output convolution's bias is [`SATURATING_BIAS`].
fn localizer_step_times(saturate: bool) -> (Duration, Duration) {
    let x = pseudo_tensor(5, &[TRAIN_BATCH, 1, MESH, MESH]);
    let mut model = localizer_model(KERNELS, 31);
    if saturate {
        // The last parameter is the output convolution's bias.
        let mut params = model.params_mut();
        let (bias, _) = params.last_mut().expect("the localizer has parameters");
        bias.data_mut().fill(SATURATING_BIAS);
    }
    let out = model.forward(&x);
    assert!(
        !saturate || out.data().iter().all(|&y| y > 0.0 && y < f32::MIN_POSITIVE),
        "the saturated fixture must put every sigmoid output in the subnormal range"
    );
    let grad = Tensor::ones(out.shape());
    let mut run = || {
        let (mut fwd, mut bwd) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..TRAIN_ITERS {
            let start = Instant::now();
            black_box(model.forward(&x));
            let mid = Instant::now();
            model.backward(&grad);
            fwd += mid - start;
            bwd += mid.elapsed();
        }
        (fwd, bwd)
    };
    run(); // warm-up
    let (a, b) = (run(), run());
    (a.0.min(b.0), a.1.min(b.1))
}

/// Training calls per shape and timed run of [`conv_step_table`].
const TABLE_ITERS: usize = 50;

/// Prints one `Conv2d` training forward and backward call, min-of-3, at
/// each production shape: the detector's 4→8 Valid conv at batch 8 on
/// 8×8 and 16×16 meshes (8×7 and 16×15 frames), and the localizer's 1→8,
/// 8→8 and 8→1 Same convs at batch 4 on 8×8 and 16×16. The upstream
/// gradient is zero wherever a ReLU after the conv would zero it. Returns
/// the 16×16 8→8 row's backward time over its forward time.
fn conv_step_table() -> f64 {
    let shapes = [
        ("detector 4->8 Valid", 4, 8, Padding::Valid, 8, [8, 7], true),
        (
            "detector 4->8 Valid",
            4,
            8,
            Padding::Valid,
            8,
            [16, 15],
            true,
        ),
        ("localizer 1->8 Same", 1, 8, Padding::Same, 4, [8, 8], true),
        ("localizer 8->8 Same", 8, 8, Padding::Same, 4, [8, 8], true),
        ("localizer 8->1 Same", 8, 1, Padding::Same, 4, [8, 8], false),
        (
            "localizer 1->8 Same",
            1,
            8,
            Padding::Same,
            4,
            [16, 16],
            true,
        ),
        (
            "localizer 8->8 Same",
            8,
            8,
            Padding::Same,
            4,
            [16, 16],
            true,
        ),
        (
            "localizer 8->1 Same",
            8,
            1,
            Padding::Same,
            4,
            [16, 16],
            false,
        ),
    ];
    println!("conv training calls, min-of-3 ({TABLE_ITERS} iters/run), µs/call:");
    println!(
        "{:<20} {:>6} {:>8} {:>9} {:>9} {:>9}",
        "shape", "batch", "input", "forward", "backward", "total"
    );
    let mut bwd_over_fwd = f64::NAN;
    for (i, (name, ic, oc, padding, batch, [h, w], relu_after)) in shapes.into_iter().enumerate() {
        let mut conv = Conv2d::new(ic, oc, 3, padding, 90 + i as u64);
        let x = pseudo_tensor(100 + i as u64, &[batch, ic, h, w]);
        let mut grad = pseudo_tensor(200 + i as u64, conv.forward(&x).shape());
        if relu_after {
            grad = grad.map(|g| g.max(0.0));
        }
        conv.backward(&grad);
        let (mut fwd, mut bwd) = (Duration::MAX, Duration::MAX);
        for _ in 0..3 {
            let (mut f, mut b) = (Duration::ZERO, Duration::ZERO);
            for _ in 0..TABLE_ITERS {
                let start = Instant::now();
                black_box(conv.forward(&x));
                let mid = Instant::now();
                black_box(conv.backward(&grad));
                f += mid - start;
                b += mid.elapsed();
            }
            (fwd, bwd) = (fwd.min(f), bwd.min(b));
        }
        let us = |d: Duration| d.as_secs_f64() / TABLE_ITERS as f64 * 1e6;
        println!(
            "{name:<20} {batch:>6} {:>8} {:>9.1} {:>9.1} {:>9.1}",
            format!("{h}x{w}"),
            us(fwd),
            us(bwd),
            us(fwd) + us(bwd),
        );
        if (ic, oc, h) == (8, 8, 16) {
            bwd_over_fwd = bwd.as_secs_f64() / fwd.as_secs_f64();
        }
    }
    bwd_over_fwd
}
