//! Fused, SIMD-width-chunked inner-loop kernels shared by the tape and
//! plain (tape-free) inference.
//!
//! Every kernel here is a plain function over `f32` slices with a **fixed,
//! documented summation order**, and both the tape and the plain forward
//! passes route their hot loops through the same functions. That sharing is
//! what makes plain inference bit-equal to a taped forward pass: the two
//! differ in memory management, never in arithmetic.
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
//! through it.
//!
//! [`exp`], [`sigmoid`] and [`tanh`] are owned ports of glibc 2.36's `expf`
//! and `tanhf`, bit-equal to them on every input, so no activation's bits
//! depend on the host libm or on whether the CPU has FMA. On x86_64 the
//! private `sse2` module also evaluates `sigmoid` and `tanh` four lanes at a
//! time, each lane bit-equal to the scalar call; [`lstm_step`] and the
//! tape's elementwise [`sigmoid_slice`]/[`tanh_slice`] run through those.
//! The `sse2` module holds the crate's only `unsafe` code (unaligned loads
//! and stores, and calls into its SSE2 `#[target_feature]` functions).
//!
//! Backward kernels **accumulate** (`+=`) into caller-provided buffers. A
//! `dx`, `dh_prev` or `dc_prev` buffer must be zeroed by the caller: each
//! of its elements sums several products per call, and that sum must form
//! before it joins the node's gradient. A `dw` or `db` buffer may be
//! zeroed or already accumulating: each of its elements takes exactly one
//! `+= d·x` (or `+= d`) per call, so the tape hands in the weight's own
//! gradient slot and gets the bits a zeroed buffer added afterwards would
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

/// The x86_64 bodies of [`dot4`] and of the four-lane `sigmoid` and `tanh`:
/// the crate's only `unsafe` code.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sse2 {
    use super::{
        EXPM1_Q, EXP_INV_LN2_N, EXP_INV_LN2_N_HI, EXP_INV_LN2_N_LO, EXP_POLY, EXP_SHIFT, EXP_TABLE,
        INV_LN2, LANES, LN2_HI, LN2_LO,
    };
    use std::arch::x86_64::{
        __m128, __m128d, __m128i, _mm_add_epi32, _mm_add_epi64, _mm_add_pd, _mm_add_ps, _mm_and_ps,
        _mm_and_si128, _mm_andnot_ps, _mm_andnot_si128, _mm_castpd_si128, _mm_castps_si128,
        _mm_castsi128_pd, _mm_castsi128_ps, _mm_cmpeq_epi32, _mm_cmpge_ps, _mm_cmpgt_epi32,
        _mm_cmplt_epi32, _mm_cvtepi32_ps, _mm_cvtpd_ps, _mm_cvtps_pd, _mm_cvtsi128_si64,
        _mm_cvttps_epi32, _mm_div_ps, _mm_loadu_ps, _mm_movehl_ps, _mm_movelh_ps,
        _mm_movemask_epi8, _mm_mul_pd, _mm_mul_ps, _mm_or_ps, _mm_or_si128, _mm_set1_epi32,
        _mm_set1_pd, _mm_set1_ps, _mm_set_epi64x, _mm_setzero_ps, _mm_slli_epi32, _mm_slli_epi64,
        _mm_srai_epi32, _mm_storeu_ps, _mm_sub_epi32, _mm_sub_pd, _mm_sub_ps, _mm_unpackhi_epi64,
        _mm_unpackhi_ps, _mm_unpacklo_ps, _mm_xor_ps,
    };

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(x: [f32; 4]) -> __m128 {
        // SAFETY: the unaligned load reads exactly the four floats of `x`.
        unsafe { _mm_loadu_ps(x.as_ptr()) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn store(v: __m128) -> [f32; 4] {
        let mut out = [0.0f32; 4];
        // SAFETY: the unaligned store writes exactly the four floats of `out`.
        unsafe { _mm_storeu_ps(out.as_mut_ptr(), v) };
        out
    }

    /// Lane-wise `if mask { a } else { b }` on all-ones/all-zeros masks.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn select(mask: __m128i, a: __m128i, b: __m128i) -> __m128i {
        _mm_or_si128(_mm_and_si128(mask, a), _mm_andnot_si128(mask, b))
    }

    /// The sign bit of every lane.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn sign_bits() -> __m128i {
        _mm_set1_epi32(i32::MIN)
    }

    /// Whether any lane's bits without the sign lie outside `low..high`.
    /// With `high <= 0x7f80_0000`, a non-finite lane is always outside.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn any_outside(x: __m128, low: i32, high: i32) -> bool {
        let magnitude = _mm_andnot_si128(sign_bits(), _mm_castps_si128(x));
        let outside = _mm_or_si128(
            _mm_cmplt_epi32(magnitude, _mm_set1_epi32(low)),
            _mm_cmpgt_epi32(magnitude, _mm_set1_epi32(high - 1)),
        );
        _mm_movemask_epi8(outside) != 0
    }

    /// [`super::exp`]'s main path on two lanes widened to `f64`: the same
    /// operations in the same order, with the table read per lane.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn exp_pd(xd: __m128d) -> __m128d {
        let shift = _mm_set1_pd(EXP_SHIFT);
        let shifted = _mm_add_pd(_mm_mul_pd(_mm_set1_pd(EXP_INV_LN2_N), xd), shift);
        let ki = _mm_castpd_si128(shifted);
        let kd = _mm_sub_pd(shifted, shift);
        let r = _mm_add_pd(
            _mm_sub_pd(_mm_mul_pd(xd, _mm_set1_pd(EXP_INV_LN2_N_HI)), kd),
            _mm_mul_pd(xd, _mm_set1_pd(EXP_INV_LN2_N_LO)),
        );
        let entry = |k: i64| EXP_TABLE[(k as u64 % 32) as usize] as i64;
        let table = _mm_set_epi64x(
            entry(_mm_cvtsi128_si64(_mm_unpackhi_epi64(ki, ki))),
            entry(_mm_cvtsi128_si64(ki)),
        );
        let scale = _mm_castsi128_pd(_mm_add_epi64(table, _mm_slli_epi64::<47>(ki)));
        let [c0, c1, c2] = EXP_POLY;
        let (c0, c1, c2) = (_mm_set1_pd(c0), _mm_set1_pd(c1), _mm_set1_pd(c2));
        let y = _mm_add_pd(
            _mm_mul_pd(_mm_add_pd(_mm_mul_pd(c0, r), c1), _mm_mul_pd(r, r)),
            _mm_add_pd(_mm_mul_pd(c2, r), _mm_set1_pd(1.0)),
        );
        _mm_mul_pd(y, scale)
    }

    /// [`exp_pd`] over four lanes, each rounded once to `f32`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn exp_ps(x: __m128) -> __m128 {
        let low = _mm_cvtpd_ps(exp_pd(_mm_cvtps_pd(x)));
        let high = _mm_cvtpd_ps(exp_pd(_mm_cvtps_pd(_mm_movehl_ps(x, x))));
        _mm_movelh_ps(low, high)
    }

    /// Magnitude bits from which [`super::exp`] leaves its main path
    /// (`|x| >= 88`, and non-finite).
    const EXP_SPECIAL: i32 = 0x42b0_0000;

    /// [`super::sigmoid`] on four lanes, bit-equal lane by lane: `divps`
    /// rounds correctly, as scalar division does. A chunk with a lane at
    /// `|x| >= 88` or non-finite takes the scalar path whole.
    #[inline]
    pub(super) fn sigmoid4(x: [f32; 4]) -> [f32; 4] {
        // SAFETY: SSE2, the one target feature `sigmoid4_sse2` enables, is
        // part of the x86_64 baseline.
        unsafe { sigmoid4_sse2(x) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn sigmoid4_sse2(x: [f32; 4]) -> [f32; 4] {
        let xv = load(x);
        if any_outside(xv, 0, EXP_SPECIAL) {
            return x.map(super::sigmoid);
        }
        let one = _mm_set1_ps(1.0);
        let e = exp_ps(_mm_xor_ps(xv, _mm_castsi128_ps(sign_bits())));
        store(_mm_div_ps(one, _mm_add_ps(one, e)))
    }

    /// [`super::expm1_for_tanh`] on four lanes: every branch of `k` is
    /// computed in every lane and the lane's own is kept.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn expm1_for_tanh4(u: __m128) -> __m128 {
        let sign_bit = sign_bits();
        let ui = _mm_castps_si128(u);
        let hu = _mm_andnot_si128(sign_bit, ui);
        // k = ±1 between ln2/2 and 1.5·ln2, `u/ln2` rounded half away
        // from zero above, 0 below.
        let k_unit = _mm_or_si128(_mm_srai_epi32::<31>(ui), _mm_set1_epi32(1));
        let half = _mm_castsi128_ps(_mm_or_si128(
            _mm_castps_si128(_mm_set1_ps(0.5)),
            _mm_and_si128(ui, sign_bit),
        ));
        let k_far = _mm_cvttps_epi32(_mm_add_ps(_mm_mul_ps(_mm_set1_ps(INV_LN2), u), half));
        let k = select(
            _mm_cmplt_epi32(hu, _mm_set1_epi32(0x3f851592)),
            k_unit,
            k_far,
        );
        let k = _mm_and_si128(_mm_cmpgt_epi32(hu, _mm_set1_epi32(0x3eb17218)), k);

        let t = _mm_cvtepi32_ps(k);
        let hi = _mm_sub_ps(u, _mm_mul_ps(t, _mm_set1_ps(LN2_HI)));
        let lo = _mm_mul_ps(t, _mm_set1_ps(LN2_LO));
        let x = _mm_sub_ps(hi, lo);
        let c = _mm_sub_ps(_mm_sub_ps(hi, x), lo);
        let hfx = _mm_mul_ps(_mm_set1_ps(0.5), x);
        let hxs = _mm_mul_ps(x, hfx);
        let one = _mm_set1_ps(1.0);
        // Horner from Q5 down: `Q1 + hxs·(Q2 + hxs·(… + hxs·Q5))`.
        let mut poly = _mm_set1_ps(EXPM1_Q[4]);
        for q in EXPM1_Q[..4].iter().rev() {
            poly = _mm_add_ps(_mm_set1_ps(*q), _mm_mul_ps(hxs, poly));
        }
        let r1 = _mm_add_ps(one, _mm_mul_ps(hxs, poly));
        let t = _mm_sub_ps(_mm_set1_ps(3.0), _mm_mul_ps(r1, hfx));
        let e = _mm_mul_ps(
            hxs,
            _mm_div_ps(
                _mm_sub_ps(r1, t),
                _mm_sub_ps(_mm_set1_ps(6.0), _mm_mul_ps(x, t)),
            ),
        );
        let k0 = _mm_sub_ps(x, _mm_sub_ps(_mm_mul_ps(x, e), hxs));
        let e = _mm_sub_ps(_mm_sub_ps(_mm_mul_ps(x, _mm_sub_ps(e, c)), c), hxs);
        let half = _mm_set1_ps(0.5);
        let k_minus1 = _mm_sub_ps(_mm_mul_ps(half, _mm_sub_ps(x, e)), half);
        // Adds k to a lane's exponent field.
        let exponent = _mm_slli_epi32::<23>(k);
        let e_minus_x = _mm_sub_ps(e, x);
        let far = _mm_sub_ps(
            _mm_castsi128_ps(_mm_add_epi32(
                _mm_castps_si128(_mm_sub_ps(one, e_minus_x)),
                exponent,
            )),
            one,
        );
        // 2^-k, valid in the lanes that read it (3 <= k <= 56).
        let pow = _mm_castsi128_ps(_mm_slli_epi32::<23>(_mm_sub_epi32(_mm_set1_epi32(0x7f), k)));
        let mid = _mm_add_epi32(
            _mm_castps_si128(_mm_sub_ps(_mm_sub_ps(one, pow), e_minus_x)),
            exponent,
        );
        let high = _mm_add_epi32(
            _mm_castps_si128(_mm_add_ps(_mm_sub_ps(x, _mm_add_ps(e, pow)), one)),
            exponent,
        );

        let is_far = _mm_or_si128(
            _mm_cmplt_epi32(k, _mm_set1_epi32(-1)),
            _mm_cmpgt_epi32(k, _mm_set1_epi32(56)),
        );
        let is_mid = _mm_cmplt_epi32(k, _mm_set1_epi32(23));
        let out = select(is_mid, mid, high);
        let out = select(is_far, _mm_castps_si128(far), out);
        let out = select(
            _mm_cmpeq_epi32(k, _mm_set1_epi32(-1)),
            _mm_castps_si128(k_minus1),
            out,
        );
        let out = select(
            _mm_cmpeq_epi32(k, _mm_set1_epi32(0)),
            _mm_castps_si128(k0),
            out,
        );
        _mm_castsi128_ps(out)
    }

    /// [`super::tanh`] on four lanes, bit-equal lane by lane. A chunk with a
    /// lane at `|x| < 2^-26` (where `expm1f` returns its argument),
    /// `|x| >= 22` or non-finite takes the scalar path whole.
    #[inline]
    pub(super) fn tanh4(x: [f32; 4]) -> [f32; 4] {
        // SAFETY: SSE2, the one target feature `tanh4_sse2` enables, is part
        // of the x86_64 baseline.
        unsafe { tanh4_sse2(x) }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn tanh4_sse2(x: [f32; 4]) -> [f32; 4] {
        let xv = load(x);
        if any_outside(xv, 0x3280_0000, 0x41b0_0000) {
            return x.map(super::tanh);
        }
        let sign_bit = _mm_castsi128_ps(sign_bits());
        let sign = _mm_and_ps(xv, sign_bit);
        let ax = _mm_xor_ps(xv, sign);
        let one = _mm_set1_ps(1.0);
        let two = _mm_set1_ps(2.0);
        // u = 2|x| from 1 up, else −2|x|.
        let large = _mm_cmpge_ps(ax, one);
        let u = _mm_or_ps(_mm_add_ps(ax, ax), _mm_andnot_ps(large, sign_bit));
        let t = expm1_for_tanh4(u);
        let denominator = _mm_add_ps(t, two);
        let z_large = _mm_sub_ps(one, _mm_div_ps(two, denominator));
        let z_small = _mm_div_ps(_mm_xor_ps(t, sign_bit), denominator);
        let z = _mm_or_ps(_mm_and_ps(large, z_large), _mm_andnot_ps(large, z_small));
        store(_mm_xor_ps(z, sign))
    }

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
#[allow(clippy::too_many_arguments)] // flat slices: one argument per buffer
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

/// `__exp2f_data.tab` of glibc's `expf`: the bits of `2^(i/32)` minus
/// `i << 47`, so adding `k << 47` to entry `k % 32` gives `2^(k/32)`.
const EXP_TABLE: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// `32 / ln 2`, the reduction factor of `expf`.
const EXP_INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
/// [`EXP_INV_LN2_N`] with its low 25 mantissa bits cleared: 28 significant
/// bits, so its product with any `f32` widened to `f64` is exact.
const EXP_INV_LN2_N_HI: f64 = f64::from_bits(0x40471547652b82fe & !0x1ff_ffff);
/// The cleared bits, `EXP_INV_LN2_N - EXP_INV_LN2_N_HI` exactly (at most 25
/// significant bits, so this product is exact too).
const EXP_INV_LN2_N_LO: f64 = EXP_INV_LN2_N - EXP_INV_LN2_N_HI;
/// `1.5 · 2^52`: adding it rounds to an integer held in the low mantissa bits.
const EXP_SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// The cubic of `2^(r/32)`, highest degree first (`poly_scaled`).
const EXP_POLY: [f64; 3] = [
    f64::from_bits(0x3ebc6af84b912394),
    f64::from_bits(0x3f2ebfce50fac4f3),
    f64::from_bits(0x3f962e42ff0c52d6),
];

/// `e^x`, bit-equal to glibc 2.36's `expf` (its FMA build, which x86_64
/// hosts with FMA run) on every input, with no libm call and no FMA.
///
/// `x · 32/ln 2 = k + r` rounds `k` to even and reduces, and
/// `2^(k/32) · p(r)` is formed in `f64` and rounded once to `f32`. glibc's
/// one contraction that changes bits, `r = fma(32/ln 2, x, −k)`, is
/// reproduced exactly by splitting the constant into a 28-bit `hi` and the
/// rest, `lo`: both products are exact and `x·hi − k` is exact by
/// Sterbenz, so only the final add rounds, as the fma does.
#[inline]
pub fn exp(x: f32) -> f32 {
    let abstop = (x.to_bits() >> 20) & 0x7ff;
    // |x| >= 88 or NaN.
    if abstop >= 0x42b {
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if abstop >= 0x7f8 {
            return x + x;
        }
        // Above ln(2^128) overflows; below ln(2^-150) underflows.
        if x > f32::from_bits(0x42b17217) {
            return f32::INFINITY;
        }
        if x < f32::from_bits(0xc2cff1b4) {
            return 0.0;
        }
    }
    let xd = f64::from(x);
    let shifted = EXP_INV_LN2_N * xd + EXP_SHIFT;
    let ki = shifted.to_bits();
    let kd = shifted - EXP_SHIFT;
    let r = (xd * EXP_INV_LN2_N_HI - kd) + xd * EXP_INV_LN2_N_LO;
    let scale = f64::from_bits(EXP_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let [c0, c1, c2] = EXP_POLY;
    let y = (c0 * r + c1) * (r * r) + (c2 * r + 1.0);
    (y * scale) as f32
}

/// Logistic sigmoid `1 / (1 + exp(−x))` over [`exp`], the exact expression
/// the tape and plain inference use; its bits depend on no host library.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// `ln 2` split for `expm1f`'s reduction: `k · LN2_HI` is exact for the
/// `|k| <= 64` that [`tanh`] reaches.
const LN2_HI: f32 = f32::from_bits(0x3f317180);
const LN2_LO: f32 = f32::from_bits(0x3717f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8aa3b);
/// `expm1f`'s scaled rational coefficients `Q1..Q5`.
const EXPM1_Q: [f32; 5] = [
    f32::from_bits(0xbd088889),
    f32::from_bits(0x3ad00d01),
    f32::from_bits(0xb8a670cd),
    f32::from_bits(0x36867e54),
    f32::from_bits(0xb457edbb),
];

/// `expm1f`'s reduction factor `k` for an argument `u` with
/// `|u| >= 2^-25`: 0 up to `ln2/2`, `±1` up to `1.5·ln2`, else
/// `u/ln2` rounded half away from zero (in `f32`, then truncated).
#[inline]
fn expm1_k(u: f32) -> i32 {
    let hu = u.to_bits() & 0x7fff_ffff;
    if hu <= 0x3eb17218 {
        0
    } else if hu < 0x3f851592 {
        if u < 0.0 {
            -1
        } else {
            1
        }
    } else {
        (INV_LN2 * u + 0.5f32.copysign(u)) as i32
    }
}

/// glibc 2.36's fdlibm `expm1f` on the arguments [`tanh`] gives it:
/// `u = ±2|x|` with `2^-25 <= |u| < 44`, where `u < 0` only for `|u| < 2`,
/// so `k` is in `{0, −1, −2, −3} ∪ [3, 64]`.
#[inline]
fn expm1_for_tanh(u: f32) -> f32 {
    let k = expm1_k(u);
    // For k = ±1 this is `u ∓ ln2_hi` and `±ln2_lo` exactly; for k = 0 it
    // leaves `x = u` and `c = 0`, as the unreduced branch does.
    let t = k as f32;
    let hi = u - t * LN2_HI;
    let lo = t * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let [q1, q2, q3, q4, q5] = EXPM1_Q;
    let r1 = 1.0 + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    let with_exponent = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    if k == -1 {
        0.5 * (x - e) - 0.5
    } else if k <= -2 || k > 56 {
        with_exponent(1.0 - (e - x)) - 1.0
    } else if k < 23 {
        with_exponent((1.0 - f32::from_bits(((0x7f - k) << 23) as u32)) - (e - x))
    } else {
        with_exponent((x - (e + f32::from_bits(((0x7f - k) << 23) as u32))) + 1.0)
    }
}

/// Hyperbolic tangent, bit-equal to glibc 2.36's fdlibm `tanhf` (over its
/// `expm1f`) on every input, in plain `f32` operations with no libm call.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN.
        return if x.is_sign_negative() {
            1.0 / x - 1.0
        } else {
            1.0 / x + 1.0
        };
    }
    if ix >= 0x41b0_0000 {
        // |x| >= 22: ±(1 − tiny), which rounds to ±1.
        return 1.0f32.copysign(x);
    }
    if ix == 0 {
        return x;
    }
    if ix < 0x2400_0000 {
        // |x| < 2^-55.
        return x * (1.0 + x);
    }
    let ax = f32::from_bits(ix);
    let z = if ix >= 0x3f80_0000 {
        1.0 - 2.0 / (expm1_for_tanh(2.0 * ax) + 2.0)
    } else {
        let t = expm1_for_tanh(-2.0 * ax);
        -t / (t + 2.0)
    };
    z.copysign(x)
}

/// `sigmoid`/`tanh` over four lanes: the SSE2 versions on x86_64, four
/// scalar calls elsewhere. Every lane is bit-equal to the scalar call.
#[cfg(target_arch = "x86_64")]
use sse2::{sigmoid4, tanh4};

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn sigmoid4(x: [f32; 4]) -> [f32; 4] {
    x.map(sigmoid)
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn tanh4(x: [f32; 4]) -> [f32; 4] {
    x.map(tanh)
}

/// `out[j] = f(x[j])` four lanes at a time through `f4`, with the
/// `len % 4` tail through the scalar `f`.
#[inline]
fn map4(x: &[f32], out: &mut [f32], f4: fn([f32; 4]) -> [f32; 4], f: fn(f32) -> f32) {
    assert_eq!(
        x.len(),
        out.len(),
        "elementwise operands must have equal length"
    );
    let mut xs = x.chunks_exact(4);
    let mut outs = out.chunks_exact_mut(4);
    for (x4, out4) in (&mut xs).zip(&mut outs) {
        out4.copy_from_slice(&f4([x4[0], x4[1], x4[2], x4[3]]));
    }
    for (xi, out_i) in xs.remainder().iter().zip(outs.into_remainder()) {
        *out_i = f(*xi);
    }
}

/// `out[j] = sigmoid(x[j])`, four lanes at a time, each bit-equal to
/// [`sigmoid`].
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn sigmoid_slice(x: &[f32], out: &mut [f32]) {
    map4(x, out, sigmoid4, sigmoid);
}

/// `out[j] = tanh(x[j])`, four lanes at a time, each bit-equal to [`tanh`].
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn tanh_slice(x: &[f32], out: &mut [f32]) {
    map4(x, out, tanh4, tanh);
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
/// columns multiply `x` and the rest multiply `h_prev`. The step writes
/// `x`'s projection ([`lstm_input_projection`]) into the gate segments of
/// `out` and finishes as [`lstm_step_projected`] does, so a step from a
/// cached projection gets the same bits.
///
/// `out` must have [`lstm_packed_len`] elements and is filled with the
/// segments `[h, c, i, f, g, o, c_act]`: the new hidden and cell states
/// followed by the gate activations the backward kernel replays from.
#[inline]
#[allow(clippy::too_many_arguments)] // flat slices: one argument per buffer
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
    check_lstm_step_shapes(w, b, h_prev, c_prev, hidden, input, out);
    lstm_input_projection(w, x, hidden, input, &mut out[2 * hidden..6 * hidden]);
    finish_lstm_step(w, b, h_prev, c_prev, hidden, input, out);
}

/// The `x` half of [`lstm_step`]'s pre-activations: `out[gate*hidden + k]`
/// is `dot(w[gate*hidden + k, ..input], x)`, taken four gate rows at a time
/// through [`dot4`], in the packed `[i, f, g, o]` order. It depends only on
/// the weights and `x`, so an encoder may compute it once per token.
///
/// # Panics
/// Panics if `w`, `x` or `out` disagree with the `hidden`/`input` shape.
#[inline]
pub fn lstm_input_projection(w: &[f32], x: &[f32], hidden: usize, input: usize, out: &mut [f32]) {
    let width = input + hidden;
    assert_eq!(
        w.len(),
        4 * hidden * width,
        "lstm_input_projection weight shape mismatch"
    );
    assert_eq!(x.len(), input, "lstm_input_projection input shape mismatch");
    assert_eq!(
        out.len(),
        4 * hidden,
        "lstm_input_projection output shape mismatch"
    );
    for k in 0..hidden {
        let rows: [&[f32]; 4] =
            std::array::from_fn(|gate| &w[(gate * hidden + k) * width..][..input]);
        let from_x = dot4(rows, x);
        for (gate, value) in from_x.into_iter().enumerate() {
            out[gate * hidden + k] = value;
        }
    }
}

/// [`lstm_step`] from `x`'s precomputed [`lstm_input_projection`], with the
/// same bits: `projected` stands in for `x`, and the step finishes through
/// the same pre-activation and activation passes.
///
/// # Panics
/// Panics on any shape mismatch with the `hidden`/`input` cell.
#[inline]
#[allow(clippy::too_many_arguments)] // flat slices: one argument per buffer
pub fn lstm_step_projected(
    w: &[f32],
    b: &[f32],
    projected: &[f32],
    h_prev: &[f32],
    c_prev: &[f32],
    hidden: usize,
    input: usize,
    out: &mut [f32],
) {
    check_lstm_step_shapes(w, b, h_prev, c_prev, hidden, input, out);
    assert_eq!(
        projected.len(),
        4 * hidden,
        "lstm_step projection shape mismatch"
    );
    out[2 * hidden..6 * hidden].copy_from_slice(projected);
    finish_lstm_step(w, b, h_prev, c_prev, hidden, input, out);
}

/// The shape checks [`lstm_step`] and [`lstm_step_projected`] share.
fn check_lstm_step_shapes(
    w: &[f32],
    b: &[f32],
    h_prev: &[f32],
    c_prev: &[f32],
    hidden: usize,
    input: usize,
    out: &[f32],
) {
    assert_eq!(
        w.len(),
        4 * hidden * (input + hidden),
        "lstm_step weight shape mismatch"
    );
    assert_eq!(b.len(), 4 * hidden, "lstm_step bias shape mismatch");
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
}

/// The rest of an LSTM step once `out`'s gate segments hold `x`'s
/// projection. The first pass walks units in order and, per unit `k`, takes
/// the four gate rows `k, hidden+k, 2*hidden+k, 3*hidden+k` through [`dot4`]
/// against `h_prev` — a structure-of-arrays access pattern over the gate
/// blocks that never materializes the `[x, h_prev]` concatenation — and
/// completes each pre-activation as `(from_x + from_h) + b`. The second
/// pass applies the activations and forms `c = f·c_prev + i·g` and
/// `h = o·tanh(c)` four units at a time through the four-lane [`sigmoid`]
/// and [`tanh`], with the `hidden % 4` tail through the scalar ones; every
/// unit gets the same bits either way.
#[inline]
fn finish_lstm_step(
    w: &[f32],
    b: &[f32],
    h_prev: &[f32],
    c_prev: &[f32],
    hidden: usize,
    input: usize,
    out: &mut [f32],
) {
    let width = input + hidden;
    let (h_out, rest) = out.split_at_mut(hidden);
    let (c_out, rest) = rest.split_at_mut(hidden);
    let (gates, c_act_out) = rest.split_at_mut(4 * hidden);
    for k in 0..hidden {
        let rows: [&[f32]; 4] =
            std::array::from_fn(|gate| &w[(gate * hidden + k) * width + input..][..hidden]);
        let from_h = dot4(rows, h_prev);
        for (gate, from_h) in from_h.into_iter().enumerate() {
            let at = gate * hidden + k;
            gates[at] = (gates[at] + from_h) + b[at];
        }
    }
    let (i_seg, rest) = gates.split_at_mut(hidden);
    let (f_seg, rest) = rest.split_at_mut(hidden);
    let (g_seg, o_seg) = rest.split_at_mut(hidden);
    let body = hidden - hidden % 4;
    for k in (0..body).step_by(4) {
        let pre = |seg: &[f32]| -> [f32; 4] { std::array::from_fn(|l| seg[k + l]) };
        let i = sigmoid4(pre(i_seg));
        let f = sigmoid4(pre(f_seg));
        let g = tanh4(pre(g_seg));
        let o = sigmoid4(pre(o_seg));
        let c: [f32; 4] = std::array::from_fn(|l| f[l] * c_prev[k + l] + i[l] * g[l]);
        let c_act = tanh4(c);
        for l in 0..4 {
            let unit = k + l;
            h_out[unit] = o[l] * c_act[l];
            c_out[unit] = c[l];
            (i_seg[unit], f_seg[unit], g_seg[unit], o_seg[unit]) = (i[l], f[l], g[l], o[l]);
            c_act_out[unit] = c_act[l];
        }
    }
    for k in body..hidden {
        let i = sigmoid(i_seg[k]);
        let f = sigmoid(f_seg[k]);
        let g = tanh(g_seg[k]);
        let o = sigmoid(o_seg[k]);
        let c = f * c_prev[k] + i * g;
        let c_act = tanh(c);
        h_out[k] = o * c_act;
        c_out[k] = c;
        (i_seg[k], f_seg[k], g_seg[k], o_seg[k]) = (i, f, g, o);
        c_act_out[k] = c_act;
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
///
/// `dx` covers the input columns `dx_start..dx_start + dx.len()` only, so a
/// caller that needs part of `x`'s gradient (the columns that reach a
/// trained parameter) skips the rest; each covered element takes the same
/// adds in the same order as with the full `0..input` window, and an empty
/// `dx` skips the input gradient altogether.
#[inline]
#[allow(clippy::too_many_arguments)] // flat slices: one argument per buffer
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
    dx_start: usize,
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
    assert!(
        dx_start + dx.len() <= input,
        "lstm_step_grad dx window out of range"
    );
    let dx_columns = dx_start..dx_start + dx.len();
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
            add_rows4(dx, rows.map(|row| &row[dx_columns.clone()]), d_pre);
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
            for (dst, wj) in dx.iter_mut().zip(&row[dx_columns.clone()]) {
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
                0,
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
                // Non-zero starting values, so accumulation order shows.
                let start = || {
                    let (dw, db) = (finite(w.len(), 7), finite(4 * hidden, 8));
                    (
                        dw,
                        db,
                        finite(input, 9),
                        finite(hidden, 10),
                        finite(hidden, 11),
                    )
                };
                let (mut dw, mut db, mut dx, mut dh, mut dc) = start();
                lstm_step_grad_per_row(
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
                let reference = [bits(&dw), bits(&db), bits(&dx), bits(&dh), bits(&dc)];
                assert!(reference[2..]
                    .iter()
                    .flatten()
                    .all(|v| f32::from_bits(*v).is_finite()));
                // The full input window, and windows that skip leading,
                // trailing or all columns: each covered column of `dx` gets
                // the reference's bits.
                for window in [0..input, 4..input, 0..5, 3..11, 6..6] {
                    let (mut dw, mut db, dx_full, mut dh, mut dc) = start();
                    let mut dx = dx_full[window.clone()].to_vec();
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
                        window.start,
                        &mut dx,
                        &mut dh,
                        &mut dc,
                    );
                    let fused = [bits(&dw), bits(&db), bits(&dx), bits(&dh), bits(&dc)];
                    let expected = [
                        reference[0].clone(),
                        reference[1].clone(),
                        reference[2][window.clone()].to_vec(),
                        reference[3].clone(),
                        reference[4].clone(),
                    ];
                    assert_eq!(fused, expected, "seed {seed}, window {window:?}");
                }
            }
        }
    }

    /// `exp` has no four-lane form of its own (`sigmoid4` runs its SSE2
    /// body), so four scalar calls stand in for it in [`ACTIVATIONS`].
    fn exp4(x: [f32; 4]) -> [f32; 4] {
        x.map(exp)
    }

    /// The three activations as (name, scalar, four-lane) triples.
    type Activation = (&'static str, fn(f32) -> f32, fn([f32; 4]) -> [f32; 4]);
    const ACTIVATIONS: [Activation; 3] = [
        ("exp", exp, exp4),
        ("sigmoid", sigmoid, sigmoid4),
        ("tanh", tanh, tanh4),
    ];

    /// `f32` bits with every NaN folded to one pattern: NaN payloads are
    /// unspecified in Rust, so the pins must not depend on them.
    fn canonical_bits(v: f32) -> u32 {
        if v.is_nan() {
            0x7fc0_0000
        } else {
            v.to_bits()
        }
    }

    /// Every 65,537th bit pattern, from `0` to `65535 · 65537`.
    fn strided_sample() -> Vec<f32> {
        (0..65_536u32).map(|i| f32::from_bits(i * 65_537)).collect()
    }

    /// Checks `f4` against `f` on `values` four consecutive lanes at a time,
    /// and again with each chunk's lanes a quarter of the slice apart, so a
    /// chunk mixes magnitudes (and `expm1f` branches) across its lanes.
    fn assert_lanes_match(
        name: &str,
        values: &[f32],
        f: fn(f32) -> f32,
        f4: fn([f32; 4]) -> [f32; 4],
    ) {
        let quarter = values.len() / 4;
        let consecutive = values.chunks_exact(4).map(|c| [c[0], c[1], c[2], c[3]]);
        let spread = (0..quarter).map(|j| std::array::from_fn(|l| values[j + l * quarter]));
        for lanes in consecutive.chain(spread) {
            let quad = f4(lanes);
            for (lane, x) in lanes.iter().enumerate() {
                assert!(
                    same(quad[lane], f(*x)),
                    "{name}4 lane {lane} at {:#010x}: {:#010x} vs {:#010x}",
                    x.to_bits(),
                    quad[lane].to_bits(),
                    f(*x).to_bits()
                );
            }
        }
    }

    /// Pins `exp`, `sigmoid` and `tanh` to glibc 2.36's bits without
    /// calling any host library: an FNV-1a hash of each function over the
    /// strided sample, the four-lane versions bit-equal to the scalar ones,
    /// and the boundary inputs explicitly.
    #[test]
    fn activations_are_pinned_to_glibc_bits() {
        let sample = strided_sample();
        let expected_hashes = [0xf8bde134d0acd273, 0xa57a74dad40b202f, 0xe27ff5d63c79f32d];
        for ((name, f, f4), expected) in ACTIVATIONS.into_iter().zip(expected_hashes) {
            let hash = sample.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, x| {
                canonical_bits(f(*x))
                    .to_le_bytes()
                    .iter()
                    .fold(hash, |h, byte| {
                        (h ^ u64::from(*byte)).wrapping_mul(0x100_0000_01b3)
                    })
            });
            assert_eq!(
                hash, expected,
                "{name} over the strided sample: {hash:#018x}"
            );
            assert_lanes_match(name, &sample, f, f4);
            // The inputs the four-lane kernels take off the scalar path.
            let inside: Vec<f32> = sample
                .iter()
                .copied()
                .filter(|x| (2f32.powi(-26)..22.0).contains(&x.abs()))
                .collect();
            assert_lanes_match(name, &inside, f, f4);
        }
        // (input, [exp, sigmoid, tanh]) bits, NaN canonical.
        let pins: [(u32, [u32; 3]); 13] = [
            // The inputs where an `expf` without glibc's fma differs.
            (0x4202422f, [0x56fc9f1c, 0x3f800000, 0x3f800000]),
            (0xc27c65d9, [0x11fa2993, 0x11fa2993, 0xbf800000]),
            // ±0, ±inf, NaN and the smallest subnormal.
            (0x00000000, [0x3f800000, 0x3f000000, 0x00000000]),
            (0x80000000, [0x3f800000, 0x3f000000, 0x80000000]),
            (0x7f800000, [0x7f800000, 0x3f800000, 0x3f800000]),
            (0xff800000, [0x00000000, 0x00000000, 0xbf800000]),
            (0x7fc00000, [0x7fc00000, 0x7fc00000, 0x7fc00000]),
            (0x00000001, [0x3f800000, 0x3f000000, 0x00000001]),
            // `expf`'s overflow bound (the largest finite result, then inf)
            // and its underflow bound (the smallest subnormal).
            (0x42b17217, [0x7f7fff84, 0x3f800000, 0x3f800000]),
            (0x42b17218, [0x7f800000, 0x3f800000, 0x3f800000]),
            (0xc2cff1b4, [0x00000001, 0x00000000, 0xbf800000]),
            // `tanhf`'s saturation at 22 and `expm1f`'s 2^-26 shortcut.
            (0x41b00000, [0x4f55ad6e, 0x3f800000, 0x3f800000]),
            (0x32800000, [0x3f800000, 0x3f000000, 0x32800000]),
        ];
        for (x, outputs) in pins {
            for ((name, f, f4), expected) in ACTIVATIONS.into_iter().zip(outputs) {
                let x = f32::from_bits(x);
                assert_eq!(
                    canonical_bits(f(x)),
                    expected,
                    "{name}({:#010x})",
                    x.to_bits()
                );
                assert_eq!(
                    canonical_bits(f4([x; 4])[3]),
                    expected,
                    "{name}4({:#010x})",
                    x.to_bits()
                );
            }
        }
    }

    /// The host libm's `expf`/`tanhf` (and the sigmoid over its `expf`).
    #[cfg(target_env = "gnu")]
    fn host_libm(name: &str, x: f32) -> f32 {
        match name {
            "exp" => x.exp(),
            "sigmoid" => 1.0 / (1.0 + (-x).exp()),
            _ => x.tanh(),
        }
    }

    /// The strided sample against the host libm: a quick form of the
    /// exhaustive check below, ignored for the same reason. It holds only on
    /// a glibc whose x86_64 `expf` runs its FMA build and whose `tanhf` is
    /// fdlibm's; the committed pins above are the host-independent check.
    #[cfg(target_env = "gnu")]
    #[test]
    #[ignore = "compares with the host libm, whose bits vary by glibc release and CPU"]
    fn activations_match_host_glibc_on_the_strided_sample() {
        for (name, f, _) in ACTIVATIONS {
            for x in strided_sample() {
                let host = host_libm(name, x);
                assert!(
                    same(f(x), host),
                    "{name}({:#010x}) = {:#010x}, host libm {:#010x}",
                    x.to_bits(),
                    f(x).to_bits(),
                    host.to_bits()
                );
            }
        }
    }

    /// Mismatches of scalar against host libm, and of four-lane against
    /// scalar, per activation over the bit patterns in `bits`.
    #[cfg(target_env = "gnu")]
    fn exhaustive_mismatches(bits: std::ops::Range<u64>) -> [u64; 3] {
        let mut mismatches = [0u64; 3];
        for start in bits.step_by(4) {
            let lanes: [f32; 4] =
                std::array::from_fn(|l| f32::from_bits((start + l as u64) as u32));
            for ((name, f, f4), count) in ACTIVATIONS.into_iter().zip(&mut mismatches) {
                let quad = f4(lanes);
                for (x, q) in lanes.iter().zip(quad) {
                    let scalar = f(*x);
                    if !same(scalar, host_libm(name, *x)) || !same(q, scalar) {
                        *count += 1;
                    }
                }
            }
        }
        mismatches
    }

    /// All 2^32 inputs on two worker threads (a few minutes in release):
    /// scalar against host libm and four-lane against scalar, on the glibc
    /// builds the strided check names. Run with
    /// `cargo test --release -p difftune-tensor --lib exhaustive -- --ignored`.
    #[cfg(target_env = "gnu")]
    #[test]
    #[ignore = "sweeps all 2^32 inputs; run in release with --ignored"]
    fn exhaustive_activations_match_host_glibc() {
        let bounds = [0u64, 1 << 31, 1 << 32];
        let per_half: Vec<[u64; 3]> = std::thread::scope(|scope| {
            let workers: Vec<_> = bounds
                .windows(2)
                .map(|half| {
                    let bits = half[0]..half[1];
                    scope.spawn(move || exhaustive_mismatches(bits))
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (index, (name, _, _)) in ACTIVATIONS.iter().enumerate() {
            let total: u64 = per_half.iter().map(|m| m[index]).sum();
            assert_eq!(total, 0, "{name}: {total} of 2^32 inputs differ");
        }
    }

    /// [`lstm_step`] as it was before the two passes: each unit's
    /// pre-activations, activations and cell update in turn, all scalar.
    #[allow(clippy::too_many_arguments)]
    fn lstm_step_per_unit(
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
        for k in 0..hidden {
            let rows: [&[f32]; 4] =
                std::array::from_fn(|gate| &w[(gate * hidden + k) * width..][..width]);
            let from_x = dot4(rows.map(|row| &row[..input]), x);
            let from_h = dot4(rows.map(|row| &row[input..]), h_prev);
            let pre: [f32; 4] =
                std::array::from_fn(|gate| (from_x[gate] + from_h[gate]) + b[gate * hidden + k]);
            let [i, f, o] = [pre[0], pre[1], pre[3]].map(sigmoid);
            let g = tanh(pre[2]);
            let c = f * c_prev[k] + i * g;
            let c_act = tanh(c);
            for (segment, value) in [o * c_act, c, i, f, g, o, c_act].into_iter().enumerate() {
                out[segment * hidden + k] = value;
            }
        }
    }

    #[test]
    fn lstm_step_is_bit_equal_to_the_per_unit_reference() {
        let draws: [fn(usize, u32) -> Vec<f32>; 2] = [mixed_values, finite_values];
        for values in draws {
            for hidden in [1, 3, 4, 5, 8, 11, 64] {
                for input in [1, 6, 32] {
                    let salt = (hidden * 100 + input) as u32;
                    // Weights scaled up so gates saturate, and some chunks
                    // mix the four-lane and scalar-fallback ranges.
                    let w: Vec<f32> = values(4 * hidden * (input + hidden), salt)
                        .iter()
                        .map(|v| v * 8.0)
                        .collect();
                    let b = values(4 * hidden, salt + 1);
                    let x = values(input, salt + 2);
                    let h_prev = values(hidden, salt + 3);
                    let c_prev = values(hidden, salt + 4);
                    let mut two_pass = vec![0.0; lstm_packed_len(hidden)];
                    let mut per_unit = vec![0.0; lstm_packed_len(hidden)];
                    lstm_step(&w, &b, &x, &h_prev, &c_prev, hidden, input, &mut two_pass);
                    lstm_step_per_unit(&w, &b, &x, &h_prev, &c_prev, hidden, input, &mut per_unit);
                    for (at, (a, r)) in two_pass.iter().zip(&per_unit).enumerate() {
                        assert!(same(*a, *r), "hidden {hidden}, input {input}, slot {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn lstm_step_projected_is_bit_equal_to_lstm_step() {
        let draws: [fn(usize, u32) -> Vec<f32>; 2] = [mixed_values, finite_values];
        for values in draws {
            for hidden in [1, 2, 3, 4, 5, 7, 8, 13, 64] {
                for input in [32, 81] {
                    let salt = (hidden * 1000 + input) as u32;
                    // Weights scaled up so gates saturate.
                    let w: Vec<f32> = values(4 * hidden * (input + hidden), salt)
                        .iter()
                        .map(|v| v * 8.0)
                        .collect();
                    let b = values(4 * hidden, salt + 1);
                    let x = values(input, salt + 2);
                    let h_prev = values(hidden, salt + 3);
                    let c_prev = values(hidden, salt + 4);
                    let mut direct = vec![0.0; lstm_packed_len(hidden)];
                    lstm_step(&w, &b, &x, &h_prev, &c_prev, hidden, input, &mut direct);
                    let mut projection = vec![0.0; 4 * hidden];
                    lstm_input_projection(&w, &x, hidden, input, &mut projection);
                    // Stale values in `out` must not leak into the step.
                    let mut projected = values(lstm_packed_len(hidden), salt + 5);
                    lstm_step_projected(
                        &w,
                        &b,
                        &projection,
                        &h_prev,
                        &c_prev,
                        hidden,
                        input,
                        &mut projected,
                    );
                    for (at, (p, d)) in projected.iter().zip(&direct).enumerate() {
                        assert!(same(*p, *d), "hidden {hidden}, input {input}, slot {at}");
                    }
                }
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
            assert_eq!(c_act.to_bits(), tanh(c).to_bits());
            assert_eq!(h.to_bits(), (o * c_act).to_bits());
        }
    }
}
