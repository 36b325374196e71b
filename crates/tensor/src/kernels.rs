//! Fused, SIMD-width-chunked inner-loop kernels shared by the eager tape and
//! the compiled executor.
//!
//! Every kernel here is a plain function over `f32` slices with a **fixed,
//! documented summation order**, and both execution engines route their hot
//! loops through the same functions. That sharing is what makes the
//! compiled-vs-taped bit-equality invariant cheap to uphold: the two engines
//! differ in scheduling and memory management, never in arithmetic.
//!
//! The dot-product core accumulates in four parallel lanes over 4-wide
//! chunks and folds the lanes in a fixed `(s0 + s2) + (s1 + s3)` order, with
//! the remainder handled by an in-order scalar tail. The result is
//! deterministic for a given input length — it just uses a different (fixed)
//! association than a naive serial loop.
//!
//! [`dot4`] computes four such dot products against one shared vector, each
//! bit-equal to [`dot`]. On x86_64 it holds each row's four lanes in one
//! SSE2 register (`mulps` then `addps`, never FMA, which would round once
//! instead of twice), so four independent add chains hide the add latency
//! that bounds a single [`dot`]; SSE2 is part of the x86_64 baseline, so no
//! runtime detection is needed. On other targets it is four [`dot`] calls.
//! [`matvec`], [`linear`] and [`lstm_step`] take their rows four at a time
//! through it. That one function holds the crate's only `unsafe` code (the
//! unaligned loads).
//!
//! Backward kernels **accumulate** (`+=`) into caller-provided buffers. A
//! `dx`, `dh_prev` or `dc_prev` buffer must be zeroed by the caller: each
//! of its elements sums several products per call, and that sum must form
//! before it joins the node's gradient. A `dw` or `db` buffer may be
//! zeroed or already accumulating: each of its elements takes exactly one
//! `+= d·x` (or `+= d`) per call, so both engines hand in the weight's own
//! gradient slot and get the bits a zeroed buffer added afterwards would
//! give.

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

/// Four dot products against one shared `x`: `out[r] = dot(rows[r], x)`,
/// each bit-equal to [`dot`] (the same four lanes, the same
/// `(s0 + s2) + (s1 + s3)` fold and the same serial tail).
///
/// # Panics
/// Panics if any row's length differs from `x`'s.
#[inline]
pub fn dot4(rows: [&[f32]; 4], x: &[f32]) -> [f32; 4] {
    #[cfg(target_arch = "x86_64")]
    {
        sse2::dot4(rows, x)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        rows.map(|row| dot(row, x))
    }
}

/// The x86_64 body of [`dot4`], the crate's only `unsafe` code.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sse2 {
    use super::LANES;
    use std::arch::x86_64::{
        _mm_add_ps, _mm_loadu_ps, _mm_movehl_ps, _mm_movelh_ps, _mm_mul_ps, _mm_setzero_ps,
        _mm_storeu_ps, _mm_unpackhi_ps, _mm_unpacklo_ps,
    };

    /// [`super::dot4`] with each row's four lanes in one SSE2 register.
    #[inline]
    pub(super) fn dot4(rows: [&[f32]; 4], x: &[f32]) -> [f32; 4] {
        for row in rows {
            assert_eq!(row.len(), x.len(), "dot operands must have equal length");
        }
        let body = x.len() - x.len() % LANES;
        let mut out = [0.0f32; 4];
        // SAFETY: SSE2 is part of the x86_64 baseline, so every intrinsic
        // here is available without runtime detection. Each unaligned load
        // reads four floats at `at`, with `at + LANES <= body <= x.len()`,
        // and every row has `x`'s length (asserted above), so it stays in
        // bounds; the store writes exactly `out`'s four floats.
        unsafe {
            let mut acc = [_mm_setzero_ps(); 4];
            for at in (0..body).step_by(LANES) {
                let xv = _mm_loadu_ps(x.as_ptr().add(at));
                for (acc, row) in acc.iter_mut().zip(rows) {
                    *acc = _mm_add_ps(*acc, _mm_mul_ps(_mm_loadu_ps(row.as_ptr().add(at)), xv));
                }
            }
            // Transpose so register `l` holds lane `l` of every row, then
            // fold the lanes in `dot`'s order for all four rows at once.
            let [a0, a1, a2, a3] = acc;
            let (t0, t1) = (_mm_unpacklo_ps(a0, a1), _mm_unpacklo_ps(a2, a3));
            let (t2, t3) = (_mm_unpackhi_ps(a0, a1), _mm_unpackhi_ps(a2, a3));
            let (s0, s1) = (_mm_movelh_ps(t0, t1), _mm_movehl_ps(t1, t0));
            let (s2, s3) = (_mm_movelh_ps(t2, t3), _mm_movehl_ps(t3, t2));
            let folded = _mm_add_ps(_mm_add_ps(s0, s2), _mm_add_ps(s1, s3));
            _mm_storeu_ps(out.as_mut_ptr(), folded);
        }
        for (acc, row) in out.iter_mut().zip(rows) {
            for (ra, rb) in row[body..].iter().zip(&x[body..]) {
                *acc += ra * rb;
            }
        }
        out
    }
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
    let mut quads = w.chunks_exact(4 * n);
    let mut outs = out.chunks_exact_mut(4);
    for (quad, out4) in (&mut quads).zip(&mut outs) {
        let rows = std::array::from_fn(|r| &quad[r * n..(r + 1) * n]);
        out4.copy_from_slice(&dot4(rows, x));
    }
    for (row, out_i) in quads.remainder().chunks_exact(n).zip(outs.into_remainder()) {
        *out_i = dot(row, x);
    }
}

/// Backward of [`matvec`]: accumulates `dw += g ⊗ x` (one add per element,
/// into a zeroed or already-accumulating buffer) and `dx += wᵀ g` (into a
/// caller-zeroed buffer). A `None` gradient is not computed, and the other
/// gets the same bits either way.
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
    mut dx: Option<&mut [f32]>,
) {
    assert_eq!(w.len(), m * n, "matvec_grad weight shape mismatch");
    assert_eq!(x.len(), n, "matvec_grad input shape mismatch");
    assert_eq!(g.len(), m, "matvec_grad output-grad shape mismatch");
    if let Some(dw) = &dw {
        assert_eq!(dw.len(), m * n, "matvec_grad dw shape mismatch");
    }
    if let Some(dx) = &dx {
        assert_eq!(dx.len(), n, "matvec_grad dx shape mismatch");
    }
    for i in 0..m {
        let gi = g[i];
        if gi == 0.0 {
            continue;
        }
        if let Some(dw) = dw.as_deref_mut() {
            for (d, xj) in dw[i * n..(i + 1) * n].iter_mut().zip(x) {
                *d += gi * xj;
            }
        }
        if let Some(dx) = dx.as_deref_mut() {
            for (d, wj) in dx.iter_mut().zip(&w[i * n..(i + 1) * n]) {
                *d += gi * wj;
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
    matvec(w, x, m, n, out);
    for (out_i, bias) in out.iter_mut().zip(b) {
        *out_i += bias;
    }
}

/// Backward of [`linear`]: accumulates `dw += g ⊗ x`, `db += g` (one add per
/// element each) and `dx += wᵀ g` (into a caller-zeroed buffer), with the
/// same zero-gradient row skip as [`matvec_grad`] for `dw`/`dx` (`db`
/// always accumulates, matching the unfused add's backward). `None` skips
/// that gradient.
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
    dx: Option<&mut [f32]>,
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
        let rows: [&[f32]; 4] =
            std::array::from_fn(|gate| &w[(gate * hidden + k) * width..][..width]);
        let from_x = dot4(rows.map(|row| &row[..input]), x);
        let from_h = dot4(rows.map(|row| &row[input..]), h_prev);
        let pre: [f32; 4] =
            std::array::from_fn(|gate| (from_x[gate] + from_h[gate]) + b[gate * hidden + k]);
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
/// All five output buffers accumulate (`+=`). `dx`, `dh_prev` and `dc_prev`
/// must be zeroed by the caller; `dw`/`db` take one add per element and may
/// already hold a gradient. `dw`/`db` may be `None` when the weights need no
/// gradient; `dx`, `dh_prev` and `dc_prev` get the same bits either way.
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
        // With every gate live, the four rows go into `dx` and `dh_prev` in
        // one pass: each element still takes its four `+=` in gate order.
        // A zero gate keeps the per-row loop below, whose skip keeps
        // `0 * inf` out.
        let fused = d_pre.iter().all(|d| *d != 0.0);
        if fused {
            let rows: [&[f32]; 4] =
                std::array::from_fn(|gate| &w[(gate * hidden + k) * width..][..width]);
            add_rows4(dx, rows.map(|row| &row[..input]), d_pre);
            add_rows4(dh_prev, rows.map(|row| &row[input..]), d_pre);
        }
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
            if fused {
                continue;
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

/// `dst[j] += d[r] * rows[r][j]` for `r` in `0..4`, all four adds of one
/// element in row order: the per-element sequence of four row-by-row passes.
#[inline]
fn add_rows4(dst: &mut [f32], rows: [&[f32]; 4], d: [f32; 4]) {
    let n = dst.len();
    let [r0, r1, r2, r3] = rows.map(|row| &row[..n]);
    for j in 0..n {
        let mut v = dst[j];
        v += d[0] * r0[j];
        v += d[1] * r1[j];
        v += d[2] * r2[j];
        v += d[3] * r3[j];
        dst[j] = v;
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

    /// Deterministic values that mix ordinary magnitudes with ±0, ±inf,
    /// NaN, subnormals and 1e30 (whose products overflow to inf).
    fn mixed_values(len: usize, seed: u32) -> Vec<f32> {
        const SPECIAL: [f32; 8] = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1e-40,
            -1e-42,
            1e30,
        ];
        let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let bits = state >> 8;
                if bits.is_multiple_of(11) {
                    SPECIAL[(bits / 11) as usize % SPECIAL.len()]
                } else {
                    (bits % 4001) as f32 / 1000.0 - 2.0
                }
            })
            .collect()
    }

    /// [`mixed_values`] with NaN and ±inf replaced and magnitudes clamped to
    /// 2, keeping ±0 and subnormals: rows whose sums stay finite.
    fn finite_values(len: usize, seed: u32) -> Vec<f32> {
        mixed_values(len, seed)
            .iter()
            .map(|v| {
                if v.is_finite() {
                    v.clamp(-2.0, 2.0)
                } else {
                    0.5
                }
            })
            .collect()
    }

    /// Bit equality, except that any NaN matches any NaN: Rust leaves NaN
    /// payloads unspecified, so the chosen `addps`/`addss` operand order
    /// may pick either input's payload.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn dot4_is_bit_equal_to_dot_at_every_length() {
        for len in 0..=160 {
            for seed in 0..4u32 {
                // Seeds 0 and 1 draw from the special mix; 2 and 3 are
                // finite rows, so their results are ordinary sums.
                let draw = |salt: u32| {
                    let salt = seed * 1000 + salt + len as u32 * 7;
                    if seed < 2 {
                        mixed_values(len, salt)
                    } else {
                        finite_values(len, salt)
                    }
                };
                let x = draw(0);
                let rows: Vec<Vec<f32>> = (1..=4).map(draw).collect();
                let quad = dot4(std::array::from_fn(|r| &rows[r][..]), &x);
                for (r, row) in rows.iter().enumerate() {
                    let single = dot(row, &x);
                    assert!(
                        same(quad[r], single),
                        "len {len}, seed {seed}, row {r}: {} vs {single}",
                        quad[r]
                    );
                }
            }
        }
    }

    #[test]
    fn matvec_and_linear_take_four_rows_at_a_time_bit_equal_to_dot() {
        let draws: [fn(usize, u32) -> Vec<f32>; 2] = [mixed_values, finite_values];
        for values in draws {
            for m in [1, 3, 5, 7] {
                for n in [1, 4, 7, 81, 145] {
                    let w = values(m * n, (m * 31 + n) as u32);
                    let x = values(n, (m * 17 + n) as u32);
                    let b = values(m, (m * 13 + n) as u32);
                    let (mut mv, mut lin) = (vec![0.0; m], vec![0.0; m]);
                    matvec(&w, &x, m, n, &mut mv);
                    linear(&w, &b, &x, m, n, &mut lin);
                    for (i, row) in w.chunks_exact(n).enumerate() {
                        let reference = dot(row, &x);
                        assert!(same(mv[i], reference), "matvec {m}x{n}, row {i}");
                        assert!(same(lin[i], reference + b[i]), "linear {m}x{n}, row {i}");
                    }
                }
            }
        }
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
        matvec_grad(&w, &x, &g, 2, 2, Some(&mut dw), Some(&mut dx));
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
        matvec_grad(&w, &x, &g, 3, 3, Some(&mut dw), Some(&mut dx));
        let mut dx_none = [0.0; 3];
        matvec_grad(&w, &x, &g, 3, 3, None, Some(&mut dx_none));
        assert_eq!(bits(&dx), bits(&dx_none));
        let mut dw_only = [0.0; 9];
        matvec_grad(&w, &x, &g, 3, 3, Some(&mut dw_only), None);
        assert_eq!(bits(&dw_only), bits(&dw), "dw without dx");
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
            Some(&mut dx_linear),
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
                Some(&mut dx2),
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

    /// [`lstm_step_grad`]'s signature.
    type LstmGradKernel = fn(
        &[f32],
        &[f32],
        &[f32],
        &[f32],
        &[f32],
        &[f32],
        usize,
        usize,
        Option<&mut [f32]>,
        Option<&mut [f32]>,
        &mut [f32],
        &mut [f32],
        &mut [f32],
    );

    /// [`lstm_step_grad`] as it was before the fused pass: each gate row in
    /// turn, with every zero-gradient row skipped.
    #[allow(clippy::too_many_arguments)]
    fn lstm_step_grad_per_row(
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
        for k in 0..hidden {
            let dh = g_packed[k];
            let dc_in = g_packed[hidden + k];
            let [i, f, g, o, c_act] = std::array::from_fn(|s| packed[(2 + s) * hidden + k]);
            let dc_total = dc_in + dh * o * (1.0 - c_act * c_act);
            let d_pre = [
                dc_total * g * i * (1.0 - i),
                dc_total * c_prev[k] * f * (1.0 - f),
                dc_total * i * (1.0 - g * g),
                dh * c_act * o * (1.0 - o),
            ];
            dc_prev[k] += dc_total * f;
            for (gate, &d) in d_pre.iter().enumerate() {
                let row_index = gate * hidden + k;
                if let Some(db) = db.as_deref_mut() {
                    db[row_index] += d;
                }
                if d == 0.0 {
                    continue;
                }
                let row = &w[row_index * width..(row_index + 1) * width];
                if let Some(dw) = dw.as_deref_mut() {
                    let drow = &mut dw[row_index * width..(row_index + 1) * width];
                    for (dst, v) in drow.iter_mut().zip(x.iter().chain(h_prev)) {
                        *dst += d * v;
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

    #[test]
    fn fused_lstm_step_grad_is_bit_equal_to_the_per_row_reference() {
        let (hidden, input) = (9, 13);
        let width = input + hidden;
        for seed in 0..24u32 {
            let finite = |len: usize, salt: u32| finite_values(len, seed * 100 + salt);
            let mut w = finite(4 * hidden * width, 1);
            let x = finite(input, 2);
            let h_prev = finite(hidden, 3);
            let mut c_prev = finite(hidden, 4);
            let mut g_packed = finite(lstm_packed_len(hidden), 5);
            // Gate activations in (0, 1) and (-1, 1), as the forward makes
            // them, then pinned per unit so a random subset of the four
            // pre-activation gradients is exactly zero.
            let mut packed: Vec<f32> = finite(lstm_packed_len(hidden), 6)
                .iter()
                .map(|v| v.abs() * 0.45 + 0.05)
                .collect();
            let mut state = seed.wrapping_mul(2_654_435_761) | 1;
            for k in 0..hidden {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                // Half the units keep all four gates live (the fused pass).
                let zero_gates = if (state >> 16) & 1 == 0 {
                    0
                } else {
                    (state >> 20) & 0xf
                };
                if zero_gates & 1 != 0 {
                    packed[2 * hidden + k] = 1.0; // i = 1 zeroes the input gate
                }
                if zero_gates & 2 != 0 {
                    c_prev[k] = 0.0; // zeroes the forget gate
                }
                if zero_gates & 4 != 0 {
                    packed[4 * hidden + k] = -1.0; // g = -1 zeroes the cell gate
                }
                if zero_gates & 8 != 0 {
                    g_packed[k] = 0.0; // dh = 0 zeroes the output gate
                }
                if zero_gates == 0xf {
                    g_packed[hidden + k] = 0.0;
                }
                // An infinite weight in a zero-gradient row must stay skipped.
                if let Some(gate) = (0..4).find(|gate| zero_gates & (1 << gate) != 0) {
                    w[(gate * hidden + k) * width + (k % width)] = f32::INFINITY;
                }
            }
            for weights in [true, false] {
                let run = |kernel: LstmGradKernel| {
                    // Non-zero starting values, so accumulation order shows.
                    let mut dw = finite(w.len(), 7);
                    let mut db = finite(4 * hidden, 8);
                    let (mut dx, mut dh, mut dc) =
                        (finite(input, 9), finite(hidden, 10), finite(hidden, 11));
                    kernel(
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
                    [bits(&dw), bits(&db), bits(&dx), bits(&dh), bits(&dc)]
                };
                let fused = run(lstm_step_grad);
                assert_eq!(fused, run(lstm_step_grad_per_row), "seed {seed}");
                assert!(fused[2..]
                    .iter()
                    .flatten()
                    .all(|v| f32::from_bits(*v).is_finite()));
            }
        }
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
