//! Fused, SIMD-width-chunked inner-loop kernels shared by the eager tape and
//! the compiled executor.
//!
//! Every kernel here is a plain function over `f32` slices with a **fixed,
//! documented summation order**, and both execution engines route their hot
//! loops through the same functions. That sharing is what makes the
//! compiled-vs-taped bit-equality invariant cheap to uphold: the two engines
//! differ in scheduling and memory management, never in arithmetic.
//!
//! The dot-product core accumulates in four parallel lanes over
//! `f32x4`-shaped chunks (the width LLVM auto-vectorizes to SSE/NEON
//! registers) and folds the lanes in a fixed `(s0 + s2) + (s1 + s3)` order,
//! with the remainder handled by an in-order scalar tail. The result is
//! deterministic for a given input length — it just uses a different (fixed)
//! association than a naive serial loop.
//!
//! Backward kernels **accumulate** (`+=`) into caller-provided buffers and
//! document the zeroing contract; callers hand in freshly zeroed scratch so
//! that first-write and accumulate paths stay bitwise-identical between
//! engines.

/// SIMD-ish chunk width the dot-product kernel folds over.
const LANES: usize = 4;

/// Dot product with four-lane chunked accumulation.
///
/// Lanes are folded as `(s0 + s2) + (s1 + s3)` and the `len % 4` tail is
/// added serially afterwards, so the value depends only on the inputs (not
/// on any runtime CPU feature or thread count).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot operands must have equal length");
    let mut lanes = [0.0f32; LANES];
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for lane in 0..LANES {
            lanes[lane] += ca[lane] * cb[lane];
        }
    }
    let mut acc = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
    for (ra, rb) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        acc += ra * rb;
    }
    acc
}

/// Matrix-vector product: `out[i] = dot(w[i, :], x)` for an `m x n`
/// row-major matrix.
///
/// # Panics
/// Panics if `w`, `x`, or `out` disagree with the `m x n` shape.
#[inline]
pub fn matvec(w: &[f32], x: &[f32], m: usize, n: usize, out: &mut [f32]) {
    assert_eq!(w.len(), m * n, "matvec weight shape mismatch");
    assert_eq!(x.len(), n, "matvec input shape mismatch");
    assert_eq!(out.len(), m, "matvec output shape mismatch");
    for (row, out_i) in w.chunks_exact(n).zip(out.iter_mut()) {
        *out_i = dot(row, x);
    }
}

/// Backward of [`matvec`]: accumulates `dw += g ⊗ x` and `dx += wᵀ g` into
/// caller-zeroed buffers. With `dw = None` the weight gradient is not
/// computed; `dx` gets the same bits either way.
///
/// Rows whose output gradient is exactly `0.0` are skipped, matching the
/// tape's historical behavior (and avoiding `0 * inf = NaN` pollution from
/// saturated inputs).
#[inline]
pub fn matvec_grad(
    w: &[f32],
    x: &[f32],
    g: &[f32],
    m: usize,
    n: usize,
    mut dw: Option<&mut [f32]>,
    dx: &mut [f32],
) {
    assert_eq!(w.len(), m * n, "matvec_grad weight shape mismatch");
    assert_eq!(x.len(), n, "matvec_grad input shape mismatch");
    assert_eq!(g.len(), m, "matvec_grad output-grad shape mismatch");
    if let Some(dw) = &dw {
        assert_eq!(dw.len(), m * n, "matvec_grad dw shape mismatch");
    }
    assert_eq!(dx.len(), n, "matvec_grad dx shape mismatch");
    for i in 0..m {
        let gi = g[i];
        if gi == 0.0 {
            continue;
        }
        let row = &w[i * n..(i + 1) * n];
        match dw.as_deref_mut() {
            Some(dw) => {
                let drow = &mut dw[i * n..(i + 1) * n];
                for j in 0..n {
                    drow[j] += gi * x[j];
                    dx[j] += gi * row[j];
                }
            }
            None => {
                for (d, wj) in dx.iter_mut().zip(row) {
                    *d += gi * wj;
                }
            }
        }
    }
}

/// Fused linear layer: `out[i] = dot(w[i, :], x) + b[i]`.
///
/// # Panics
/// Panics on any shape mismatch with the `m x n` layer.
#[inline]
pub fn linear(w: &[f32], b: &[f32], x: &[f32], m: usize, n: usize, out: &mut [f32]) {
    assert_eq!(w.len(), m * n, "linear weight shape mismatch");
    assert_eq!(b.len(), m, "linear bias shape mismatch");
    assert_eq!(x.len(), n, "linear input shape mismatch");
    assert_eq!(out.len(), m, "linear output shape mismatch");
    for ((row, bias), out_i) in w.chunks_exact(n).zip(b).zip(out.iter_mut()) {
        *out_i = dot(row, x) + bias;
    }
}

/// Backward of [`linear`]: accumulates `dw += g ⊗ x`, `db += g`, and
/// `dx += wᵀ g` into caller-zeroed buffers, with the same zero-gradient row
/// skip as [`matvec_grad`] for `dw`/`dx` (`db` always accumulates, matching
/// the unfused add's backward). `None` skips that weight or bias gradient.
#[inline]
#[allow(clippy::too_many_arguments)] // a flat slice signature keeps both engines' call sites identical
pub fn linear_grad(
    w: &[f32],
    x: &[f32],
    g: &[f32],
    m: usize,
    n: usize,
    dw: Option<&mut [f32]>,
    db: Option<&mut [f32]>,
    dx: &mut [f32],
) {
    if let Some(db) = db {
        assert_eq!(db.len(), m, "linear_grad db shape mismatch");
        for (db_i, gi) in db.iter_mut().zip(g) {
            *db_i += gi;
        }
    }
    matvec_grad(w, x, g, m, n, dw, dx);
}

/// Logistic sigmoid, the exact expression both engines use.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Length of the packed LSTM-step output for a given hidden size: the
/// `[h, c, i, f, g, o, c_act]` segments of [`lstm_step`].
#[inline]
pub const fn lstm_packed_len(hidden: usize) -> usize {
    7 * hidden
}

/// Fused LSTM cell step over SoA-ordered gate weights.
///
/// `w` is the `4*hidden x (input + hidden)` gate matrix packed row-major in
/// gate order `[input, forget, cell, output]` (the layout
/// `difftune_tensor::nn::LstmCell` creates); each row's first `input`
/// columns multiply `x` and the rest multiply `h_prev`. The kernel walks
/// units in order and, per unit `k`, touches the four gate rows
/// `k, hidden+k, 2*hidden+k, 3*hidden+k` — a structure-of-arrays access
/// pattern over the gate blocks that never materializes the `[x, h_prev]`
/// concatenation.
///
/// `out` must have [`lstm_packed_len`] elements and is filled with the
/// segments `[h, c, i, f, g, o, c_act]`: the new hidden and cell states
/// followed by the gate activations the backward kernel replays from.
#[inline]
#[allow(clippy::too_many_arguments)] // a flat slice signature keeps both engines' call sites identical
pub fn lstm_step(
    w: &[f32],
    b: &[f32],
    x: &[f32],
    h_prev: &[f32],
    c_prev: &[f32],
    hidden: usize,
    input: usize,
    out: &mut [f32],
) {
    let width = input + hidden;
    assert_eq!(
        w.len(),
        4 * hidden * width,
        "lstm_step weight shape mismatch"
    );
    assert_eq!(b.len(), 4 * hidden, "lstm_step bias shape mismatch");
    assert_eq!(x.len(), input, "lstm_step input shape mismatch");
    assert_eq!(
        h_prev.len(),
        hidden,
        "lstm_step hidden-state shape mismatch"
    );
    assert_eq!(c_prev.len(), hidden, "lstm_step cell-state shape mismatch");
    assert_eq!(
        out.len(),
        lstm_packed_len(hidden),
        "lstm_step output shape mismatch"
    );
    for k in 0..hidden {
        let mut pre = [0.0f32; 4];
        for (gate, pre_gate) in pre.iter_mut().enumerate() {
            let row = &w[(gate * hidden + k) * width..(gate * hidden + k + 1) * width];
            *pre_gate = (dot(&row[..input], x) + dot(&row[input..], h_prev)) + b[gate * hidden + k];
        }
        let i = sigmoid(pre[0]);
        let f = sigmoid(pre[1]);
        let g = pre[2].tanh();
        let o = sigmoid(pre[3]);
        let c = f * c_prev[k] + i * g;
        let c_act = c.tanh();
        out[k] = o * c_act;
        out[hidden + k] = c;
        out[2 * hidden + k] = i;
        out[3 * hidden + k] = f;
        out[4 * hidden + k] = g;
        out[5 * hidden + k] = o;
        out[6 * hidden + k] = c_act;
    }
}

/// Backward of [`lstm_step`], replayed from the packed forward output.
///
/// `packed` is the forward's `[h, c, i, f, g, o, c_act]` buffer; `g_packed`
/// is the gradient flowing into it, of which only the `h` segment
/// (`0..hidden`) and `c` segment (`hidden..2*hidden`) are read — the gate
/// segments are internal to the fused op and never exposed as graph outputs.
/// All five output buffers accumulate (`+=`) and must be zeroed by the
/// caller. `dw`/`db` may be `None` when the weights need no gradient; `dx`,
/// `dh_prev` and `dc_prev` get the same bits either way.
#[inline]
#[allow(clippy::too_many_arguments)] // a flat slice signature keeps both engines' call sites identical
pub fn lstm_step_grad(
    w: &[f32],
    x: &[f32],
    h_prev: &[f32],
    c_prev: &[f32],
    packed: &[f32],
    g_packed: &[f32],
    hidden: usize,
    input: usize,
    mut dw: Option<&mut [f32]>,
    mut db: Option<&mut [f32]>,
    dx: &mut [f32],
    dh_prev: &mut [f32],
    dc_prev: &mut [f32],
) {
    let width = input + hidden;
    assert_eq!(
        w.len(),
        4 * hidden * width,
        "lstm_step_grad weight shape mismatch"
    );
    assert_eq!(
        packed.len(),
        lstm_packed_len(hidden),
        "lstm_step_grad packed shape mismatch"
    );
    assert_eq!(
        g_packed.len(),
        lstm_packed_len(hidden),
        "lstm_step_grad grad shape mismatch"
    );
    if let Some(dw) = &dw {
        assert_eq!(dw.len(), w.len(), "lstm_step_grad dw shape mismatch");
    }
    if let Some(db) = &db {
        assert_eq!(db.len(), 4 * hidden, "lstm_step_grad db shape mismatch");
    }
    assert_eq!(dx.len(), input, "lstm_step_grad dx shape mismatch");
    assert_eq!(
        dh_prev.len(),
        hidden,
        "lstm_step_grad dh_prev shape mismatch"
    );
    assert_eq!(
        dc_prev.len(),
        hidden,
        "lstm_step_grad dc_prev shape mismatch"
    );
    for k in 0..hidden {
        let dh = g_packed[k];
        let dc_in = g_packed[hidden + k];
        let i = packed[2 * hidden + k];
        let f = packed[3 * hidden + k];
        let g = packed[4 * hidden + k];
        let o = packed[5 * hidden + k];
        let c_act = packed[6 * hidden + k];
        let dc_total = dc_in + dh * o * (1.0 - c_act * c_act);
        // Pre-activation gradients in gate order [i, f, g, o].
        let d_pre = [
            dc_total * g * i * (1.0 - i),
            dc_total * c_prev[k] * f * (1.0 - f),
            dc_total * i * (1.0 - g * g),
            dh * c_act * o * (1.0 - o),
        ];
        dc_prev[k] += dc_total * f;
        for (gate, d_pre_gate) in d_pre.iter().enumerate() {
            let d = *d_pre_gate;
            let row_index = gate * hidden + k;
            if let Some(db) = db.as_deref_mut() {
                db[row_index] += d;
            }
            if d == 0.0 {
                continue;
            }
            let row = &w[row_index * width..(row_index + 1) * width];
            if let Some(dw) = dw.as_deref_mut() {
                let (dw_x, dw_h) =
                    dw[row_index * width..(row_index + 1) * width].split_at_mut(input);
                for (dst, xj) in dw_x.iter_mut().zip(x) {
                    *dst += d * xj;
                }
                for (dst, hj) in dw_h.iter_mut().zip(h_prev) {
                    *dst += d * hj;
                }
            }
            for (dst, wj) in dx.iter_mut().zip(&row[..input]) {
                *dst += d * wj;
            }
            for (dst, wj) in dh_prev.iter_mut().zip(&row[input..]) {
                *dst += d * wj;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_serial_reference_closely_and_is_deterministic() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32 * 0.91).cos()).collect();
        let serial: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let chunked = dot(&a, &b);
        assert!((serial - chunked).abs() < 1e-5, "{serial} vs {chunked}");
        assert_eq!(chunked.to_bits(), dot(&a, &b).to_bits());
    }

    #[test]
    fn dot_handles_short_and_exact_multiples() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0, 3.0], &[4.0, 5.0]), 23.0);
        assert_eq!(dot(&[1.0; 8], &[2.0; 8]), 16.0);
    }

    #[test]
    fn linear_is_matvec_plus_bias() {
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let x = [1.0, -1.0, 2.0];
        let b = [0.5, -0.5];
        let mut mv = [0.0; 2];
        matvec(&w, &x, 2, 3, &mut mv);
        let mut fused = [0.0; 2];
        linear(&w, &b, &x, 2, 3, &mut fused);
        assert_eq!(fused[0].to_bits(), (mv[0] + b[0]).to_bits());
        assert_eq!(fused[1].to_bits(), (mv[1] + b[1]).to_bits());
    }

    #[test]
    fn matvec_grad_skips_zero_gradient_rows() {
        let w = [f32::INFINITY, 1.0, 2.0, 3.0];
        let x = [0.5, 0.25];
        let g = [0.0, 1.0];
        let mut dw = [0.0; 4];
        let mut dx = [0.0; 2];
        matvec_grad(&w, &x, &g, 2, 2, Some(&mut dw), &mut dx);
        // The infinite first row is skipped because its gradient is zero.
        assert_eq!(dw, [0.0, 0.0, 0.5, 0.25]);
        assert_eq!(dx, [2.0, 3.0]);
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn matvec_and_linear_grad_without_weight_grads_give_the_same_dx() {
        // An infinite weight in a zero-gradient row must stay skipped on both
        // paths, or `dx` picks up `0 * inf = NaN`.
        let w = [f32::INFINITY, 1.0, -2.0, 0.5, 3.0, -0.25, 1.5, -4.0, 0.75];
        let x = [0.5, -0.25, 2.0];
        let g = [0.0, 1.5, -0.75];
        let (mut dw, mut db, mut dx) = ([0.0; 9], [0.0; 3], [0.0; 3]);
        matvec_grad(&w, &x, &g, 3, 3, Some(&mut dw), &mut dx);
        let mut dx_none = [0.0; 3];
        matvec_grad(&w, &x, &g, 3, 3, None, &mut dx_none);
        assert_eq!(bits(&dx), bits(&dx_none));
        assert!(dx.iter().all(|v| v.is_finite()), "{dx:?}");
        assert_eq!(dw[..3], [0.0; 3], "the zero-gradient row is skipped");

        let mut dx_linear = [0.0; 3];
        linear_grad(
            &w,
            &x,
            &g,
            3,
            3,
            Some(&mut dw),
            Some(&mut db),
            &mut dx_linear,
        );
        for (dw_given, db_given) in [(true, false), (false, true), (false, false)] {
            let (mut dw2, mut db2, mut dx2) = ([0.0; 9], [0.0; 3], [0.0; 3]);
            linear_grad(
                &w,
                &x,
                &g,
                3,
                3,
                dw_given.then_some(&mut dw2[..]),
                db_given.then_some(&mut db2[..]),
                &mut dx2,
            );
            assert_eq!(bits(&dx_linear), bits(&dx2));
        }
        assert_eq!(bits(&dx_linear), bits(&dx));
    }

    #[test]
    fn lstm_step_grad_without_weight_grads_gives_the_same_state_grads() {
        let hidden = 3;
        let input = 2;
        let width = input + hidden;
        let mut w: Vec<f32> = (0..4 * hidden * width)
            .map(|i| ((i * 7 % 19) as f32 - 9.0) * 0.13)
            .collect();
        let b: Vec<f32> = (0..4 * hidden).map(|i| 0.2 - (i as f32) * 0.04).collect();
        let x = [0.7, -0.4];
        let h_prev = [0.2, -0.1, 0.3];
        let c_prev = [0.0, 0.5, -0.6];
        let mut packed = vec![0.0; lstm_packed_len(hidden)];
        lstm_step(&w, &b, &x, &h_prev, &c_prev, hidden, input, &mut packed);
        // Unit 0's cell state receives no gradient and its hidden state none
        // either, so every gate pre-activation gradient of unit 0 is exactly
        // zero; an infinite weight in its input-gate row must stay skipped.
        let mut g_packed = vec![0.0; lstm_packed_len(hidden)];
        g_packed[1] = 0.8;
        g_packed[2] = -0.3;
        g_packed[hidden + 1] = 0.25;
        g_packed[hidden + 2] = -1.1;
        w[0] = f32::INFINITY;
        let run = |weights: bool| {
            let (mut dw, mut db) = (vec![0.0; w.len()], vec![0.0; 4 * hidden]);
            let (mut dx, mut dh, mut dc) = (vec![0.0; input], vec![0.0; hidden], vec![0.0; hidden]);
            lstm_step_grad(
                &w,
                &x,
                &h_prev,
                &c_prev,
                &packed,
                &g_packed,
                hidden,
                input,
                weights.then_some(&mut dw[..]),
                weights.then_some(&mut db[..]),
                &mut dx,
                &mut dh,
                &mut dc,
            );
            (bits(&dx), bits(&dh), bits(&dc), dw)
        };
        let (dx, dh, dc, dw) = run(true);
        let (dx_none, dh_none, dc_none, _) = run(false);
        assert_eq!(dx, dx_none);
        assert_eq!(dh, dh_none);
        assert_eq!(dc, dc_none);
        assert!(dx.iter().chain(&dh).all(|v| f32::from_bits(*v).is_finite()));
        assert_eq!(dw[0], 0.0, "the zero-gradient gate row is skipped");
    }

    #[test]
    fn lstm_step_packs_gates_consistently() {
        let hidden = 3;
        let input = 2;
        let width = input + hidden;
        let w: Vec<f32> = (0..4 * hidden * width)
            .map(|i| ((i * 13 % 17) as f32 - 8.0) * 0.11)
            .collect();
        let b: Vec<f32> = (0..4 * hidden).map(|i| (i as f32) * 0.05 - 0.2).collect();
        let x = [0.3, -0.6];
        let h_prev = [0.1, -0.2, 0.05];
        let c_prev = [0.4, 0.0, -0.3];
        let mut out = vec![0.0; lstm_packed_len(hidden)];
        lstm_step(&w, &b, &x, &h_prev, &c_prev, hidden, input, &mut out);
        for k in 0..hidden {
            let (h, c) = (out[k], out[hidden + k]);
            let (i, f, g, o, c_act) = (
                out[2 * hidden + k],
                out[3 * hidden + k],
                out[4 * hidden + k],
                out[5 * hidden + k],
                out[6 * hidden + k],
            );
            assert!(
                (0.0..=1.0).contains(&i) && (0.0..=1.0).contains(&f) && (0.0..=1.0).contains(&o)
            );
            assert!((-1.0..=1.0).contains(&g) && (-1.0..=1.0).contains(&c_act));
            assert_eq!(c.to_bits(), (f * c_prev[k] + i * g).to_bits());
            assert_eq!(c_act.to_bits(), c.tanh().to_bits());
            assert_eq!(h.to_bits(), (o * c_act).to_bits());
        }
    }
}
