//! Criterion microbenchmarks for the fused SIMD-width kernels.
//!
//! These time the raw inner loops both execution engines share — the 4-lane
//! dot/matvec (rows taken four at a time through `dot4`, SSE2 on x86_64),
//! the fused matvec+bias (`Linear::forward`), and the fused LSTM gate step —
//! plus their backward kernels (the LSTM one also without weight gradients,
//! as table optimization runs it). The shapes are the ones `tune` runs with
//! the default Ithemal-style surrogate (64-dim hidden states): the token
//! LSTM (input 32), the block LSTM (input 81: a 64-dim instruction summary,
//! 15 θ features and 2 global features), a 256×145 gate matvec (the block
//! LSTM's four gate rows per unit over `[x ‖ h]`), and the square 64×64
//! layer. The backward benches hand the kernel a `dw`/`db` that is zeroed
//! once and then keeps accumulating, as both engines' weight slots do, so
//! they time the kernel rather than a per-call memset; `dx`, `dh_prev` and
//! `dc_prev` are zeroed per call, as the engines zero them. With
//! `DIFFTUNE_BENCH_JSON` set, each median lands in a
//! `BENCH_criterion_<id>.json` record (`difftune-bench/2` schema) next to
//! the pipeline runner's stage records.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use difftune_tensor::kernels;

/// Deterministic pseudo-random fill; benches must not depend on rand.
fn filled(len: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        })
        .collect()
}

fn bench_matvec(criterion: &mut Criterion) {
    for (m, n) in [(64, 64), (256, 145)] {
        let w = filled(m * n, 1);
        let x = filled(n, 2);
        let mut out = vec![0.0f32; m];
        criterion.bench_function(&format!("kernels/matvec {m}x{n}"), |bencher| {
            bencher.iter(|| {
                kernels::matvec(black_box(&w), black_box(&x), m, n, &mut out);
                out[0]
            })
        });
    }
    let (m, n) = (64, 64);
    let w = filled(m * n, 1);
    let x = filled(n, 2);
    let b = filled(m, 3);
    let mut out = vec![0.0f32; m];
    criterion.bench_function("kernels/linear 64x64", |bencher| {
        bencher.iter(|| {
            kernels::linear(black_box(&w), black_box(&b), black_box(&x), m, n, &mut out);
            out[0]
        })
    });
    let g = filled(m, 4);
    let mut dw = vec![0.0f32; m * n];
    let mut db = vec![0.0f32; m];
    let mut dx = vec![0.0f32; n];
    criterion.bench_function("kernels/linear_grad 64x64", |bencher| {
        bencher.iter(|| {
            dx.iter_mut().for_each(|v| *v = 0.0);
            kernels::linear_grad(
                black_box(&w),
                black_box(&x),
                black_box(&g),
                m,
                n,
                Some(&mut dw),
                Some(&mut db),
                Some(&mut dx),
            );
            dx[0]
        })
    });
}

/// The LSTM step and its backward at hidden 64. The square input-64 ids
/// predate the others; input 32 is the token LSTM over 32-dim embeddings
/// and input 81 the block LSTM over `[summary ‖ θ features ‖ global]`.
fn bench_lstm_step(criterion: &mut Criterion) {
    let hidden = 64;
    for (input, suffix) in [(64, ""), (32, " in=32"), (81, " in=81")] {
        bench_lstm_shape(criterion, hidden, input, suffix);
    }
}

fn bench_lstm_shape(criterion: &mut Criterion, hidden: usize, input: usize, suffix: &str) {
    let width = input + hidden;
    let w = filled(4 * hidden * width, 5);
    let b = filled(4 * hidden, 6);
    let x = filled(input, 7);
    let h_prev = filled(hidden, 8);
    let c_prev = filled(hidden, 9);
    let mut packed = vec![0.0f32; kernels::lstm_packed_len(hidden)];
    criterion.bench_function(
        &format!("kernels/lstm_step h={hidden}{suffix}"),
        |bencher| {
            bencher.iter(|| {
                kernels::lstm_step(
                    black_box(&w),
                    black_box(&b),
                    black_box(&x),
                    black_box(&h_prev),
                    black_box(&c_prev),
                    hidden,
                    input,
                    &mut packed,
                );
                packed[0]
            })
        },
    );

    kernels::lstm_step(&w, &b, &x, &h_prev, &c_prev, hidden, input, &mut packed);
    let mut g_packed = vec![0.0f32; kernels::lstm_packed_len(hidden)];
    for (i, slot) in g_packed[..2 * hidden].iter_mut().enumerate() {
        *slot = 0.01 * (i as f32 + 1.0);
    }
    let mut dw = vec![0.0f32; 4 * hidden * width];
    let mut db = vec![0.0f32; 4 * hidden];
    let mut dx = vec![0.0f32; input];
    let mut dh_prev = vec![0.0f32; hidden];
    let mut dc_prev = vec![0.0f32; hidden];
    criterion.bench_function(
        &format!("kernels/lstm_step_grad h={hidden}{suffix}"),
        |bencher| {
            bencher.iter(|| {
                dx.iter_mut().for_each(|v| *v = 0.0);
                dh_prev.iter_mut().for_each(|v| *v = 0.0);
                dc_prev.iter_mut().for_each(|v| *v = 0.0);
                kernels::lstm_step_grad(
                    black_box(&w),
                    black_box(&x),
                    black_box(&h_prev),
                    black_box(&c_prev),
                    black_box(&packed),
                    black_box(&g_packed),
                    hidden,
                    input,
                    Some(&mut dw),
                    Some(&mut db),
                    &mut dx,
                    &mut dh_prev,
                    &mut dc_prev,
                );
                dx[0]
            })
        },
    );
    // The frozen-weights case: table optimization needs `dx`, `dh_prev` and
    // `dc_prev` to reach θ but no gradient for the surrogate's weights.
    criterion.bench_function(
        &format!("kernels/lstm_step_grad h={hidden}{suffix} (no weight grads)"),
        |bencher| {
            bencher.iter(|| {
                dx.iter_mut().for_each(|v| *v = 0.0);
                dh_prev.iter_mut().for_each(|v| *v = 0.0);
                dc_prev.iter_mut().for_each(|v| *v = 0.0);
                kernels::lstm_step_grad(
                    black_box(&w),
                    black_box(&x),
                    black_box(&h_prev),
                    black_box(&c_prev),
                    black_box(&packed),
                    black_box(&g_packed),
                    hidden,
                    input,
                    None,
                    None,
                    &mut dx,
                    &mut dh_prev,
                    &mut dc_prev,
                );
                dx[0]
            })
        },
    );
}

criterion_group!(kernel_benches, bench_matvec, bench_lstm_step);
criterion_main!(kernel_benches);
