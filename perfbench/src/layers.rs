//! The traced run: per-layer metrics for every layer, measured by
//! timing calls into each layer's public functions from outside.
//!
//! Every traced run profiles every layer, whichever workload it is
//! started for, so each workload reports the full per-layer set; the
//! README maps each layer metric to the end-to-end metric and workload
//! it should move. The run replays the training steps and the serving
//! requests against their references, so its correctness checks are the
//! strict ones: bit-identical training losses and greedy responses
//! equal to a solo `generate`.

use crate::host::Roofline;
use crate::inputs::{subseed, Scale, ServeShape};
use crate::stats::median;
use crate::{serve, train, Outcome, Workload};
use matgpt_tensor::kernels::attention::{attention_bwd, attention_fwd, AttentionImpl};
use matgpt_tensor::kernels::matmul::{matmul, matmul_at_acc, matmul_bt_acc};
use matgpt_tensor::kernels::quant::matmul_q8a8;
use matgpt_tensor::{PackedQ8Matrix, QuantizedMatrix};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// Run every layer probe and traced replay for `workload`'s seed.
pub fn run(workload: Workload, seed: u64, scale: Scale, roofline: &Roofline) -> Outcome {
    let mut out = Outcome::default();
    out.line(format!("traced run for {}", workload.name()));
    host_metrics(&mut out, roofline);
    kernel_probes(seed, scale, roofline, &mut out);
    train::traced_train(seed, scale, &mut out);
    train::traced_dp2(seed, scale, &mut out);
    serve::model_probes(seed, scale, &mut out);
    serve::traced_chat(seed, scale, &mut out);
    serve::traced_decode(seed, scale, &mut out);
    out
}

/// The roofline numbers as per-layer metrics.
fn host_metrics(out: &mut Outcome, r: &Roofline) {
    out.metric("host.fma_gflops", r.fma_gflops, "GFLOP/s");
    out.metric("host.stream_gbs.l2", r.l2_gbs, "GB/s");
    out.metric("host.stream_gbs.l3", r.l3_gbs, "GB/s");
    out.metric("host.stream_gbs.dram", r.dram_gbs, "GB/s");
}

/// Median seconds of `f` over at least three calls and `min_secs`.
fn time_median(min_secs: f64, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 3 || start.elapsed().as_secs_f64() < min_secs {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

fn random(rng: &mut ChaCha8Rng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// A linear layer's weight `[k, n]`.
struct Linear {
    k: usize,
    n: usize,
    w: Vec<f32>,
}

fn linears(rng: &mut ChaCha8Rng, shapes: &[(usize, usize)]) -> Vec<Linear> {
    shapes
        .iter()
        .map(|&(k, n)| Linear {
            k,
            n,
            w: random(rng, k * n),
        })
        .collect()
}

/// The tensor kernels at the workloads' own shapes: the three training
/// GEMMs at m = 16 × 64 rows over the NeoX `train` model's linear
/// layers, its attention, and the one-row decode GEMV over the served
/// model's weights in f32 and in the W8A8 form of the speculative draft.
fn kernel_probes(seed: u64, scale: Scale, roofline: &Roofline, out: &mut Outcome) {
    let mut rng = ChaCha8Rng::seed_from_u64(subseed(seed, 6));
    let min_secs = if scale == Scale::Smoke { 0.0 } else { 0.3 };
    let (m, h, vocab, heads) = match scale {
        Scale::Full => (16 * 64, 128, 2000, 8),
        Scale::Smoke => (64, 32, 256, 4),
    };
    let train = linears(
        &mut rng,
        &[
            (h, h),
            (h, h),
            (h, h),
            (h, h),
            (h, 4 * h),
            (4 * h, h),
            (h, vocab),
        ],
    );
    let flops: f64 = train.iter().map(|l| 2.0 * (m * l.k * l.n) as f64).sum();
    let x = random(&mut rng, m * 4 * h);
    let dy = random(&mut rng, m * vocab);
    let mut y = vec![0.0f32; m * vocab];
    let mut gemm = |name: &'static str, frac: &'static str, secs: f64| {
        let gflops = flops / secs * 1e-9;
        out.metric(name, gflops, "GFLOP/s");
        out.metric(frac, gflops / roofline.fma_gflops, "frac");
    };
    let secs = time_median(min_secs, || {
        for l in &train {
            matmul(&x[..m * l.k], &l.w, &mut y[..m * l.n], m, l.k, l.n);
        }
        black_box(&y);
    });
    gemm("tensor.matmul.gflops", "tensor.matmul.roofline_frac", secs);
    let secs = time_median(min_secs, || {
        // dX[m, k] += dY[m, n] · Wᵀ
        for l in &train {
            matmul_bt_acc(&dy[..m * l.n], &l.w, &mut y[..m * l.k], m, l.n, l.k);
        }
        black_box(&y);
    });
    gemm(
        "tensor.matmul_bt_acc.gflops",
        "tensor.matmul_bt_acc.roofline_frac",
        secs,
    );
    let mut dw: Vec<Vec<f32>> = train.iter().map(|l| vec![0.0; l.k * l.n]).collect();
    let secs = time_median(min_secs, || {
        // dW[k, n] += Xᵀ · dY
        for (l, g) in train.iter().zip(&mut dw) {
            matmul_at_acc(&x[..m * l.k], &dy[..m * l.n], g, m, l.k, l.n);
        }
        black_box(&dw);
    });
    gemm(
        "tensor.matmul_at_acc.gflops",
        "tensor.matmul_at_acc.roofline_frac",
        secs,
    );

    // causal attention, [batch · heads, seq, head_dim], flash kernel
    let (bh, t, d) = (m / 64 * heads, 64.min(m), h / heads);
    let q = random(&mut rng, bh * t * d);
    let k = random(&mut rng, bh * t * d);
    let v = random(&mut rng, bh * t * d);
    let (o, saved) = attention_fwd(&q, &k, &v, bh, t, d, AttentionImpl::Flash, true);
    let secs = time_median(min_secs, || {
        black_box(attention_fwd(
            &q,
            &k,
            &v,
            bh,
            t,
            d,
            AttentionImpl::Flash,
            true,
        ));
    });
    out.metric("tensor.attention_fwd.ms", secs * 1e3, "ms");
    let dout = random(&mut rng, bh * t * d);
    let (mut dq, mut dk, mut dv) = (vec![0.0; q.len()], vec![0.0; q.len()], vec![0.0; q.len()]);
    let secs = time_median(min_secs, || {
        attention_bwd(
            &q, &k, &v, &o, &dout, &saved, &mut dq, &mut dk, &mut dv, bh, t, d, true,
        );
        black_box(&dq);
    });
    out.metric("tensor.attention_bwd.ms", secs * 1e3, "ms");

    // one-row decode over every weight matrix of the served model
    let cfg = ServeShape::new(scale).model;
    let (sh, mlp) = (cfg.hidden, cfg.mlp_hidden());
    let mut shapes = Vec::new();
    for _ in 0..cfg.layers {
        shapes.extend([
            (sh, sh),
            (sh, sh),
            (sh, sh),
            (sh, sh),
            (sh, mlp),
            (sh, mlp),
            (mlp, sh),
        ]);
    }
    shapes.push((sh, cfg.vocab_size));
    let weights = linears(&mut rng, &shapes);
    let bytes: f64 = weights.iter().map(|l| (l.w.len() * 4) as f64).sum();
    let rows = random(&mut rng, 8 * mlp);
    let mut y = vec![0.0f32; 8 * cfg.vocab_size];
    let sweep = |m: usize, y: &mut [f32]| {
        for l in &weights {
            matmul(&rows[..m * l.k], &l.w, &mut y[..m * l.n], m, l.k, l.n);
        }
        black_box(&*y);
    };
    let one = time_median(min_secs, || sweep(1, &mut y));
    let eight = time_median(min_secs, || sweep(8, &mut y));
    out.metric("tensor.matmul_m1.gbs", bytes / one * 1e-9, "GB/s");
    out.metric("tensor.matmul_rows8_speedup", 8.0 * one / eight, "x");
    // the int8 self-draft (`QuantizedParamStore::for_draft`) runs every
    // matmul as `matmul_q8a8` over the packed codes
    let packed: Vec<(PackedQ8Matrix, usize, usize)> = weights
        .iter()
        .map(|l| {
            let q = QuantizedMatrix::quantize(&l.w, l.k, l.n);
            (PackedQ8Matrix::pack(&q), l.k, l.n)
        })
        .collect();
    let q_bytes: f64 = packed.iter().map(|(p, _, _)| p.bytes() as f64).sum();
    let secs = time_median(min_secs, || {
        for (p, k, n) in &packed {
            matmul_q8a8(&rows[..*k], p, &mut y[..*n], 1, *k, *n);
        }
        black_box(&y);
    });
    out.metric("tensor.matmul_q8.gbs", q_bytes / secs * 1e-9, "GB/s");
}
