//! The softmax family: `fast_exp`, row softmax and its per-row
//! statistics (the fused cross-entropy recompute), segment softmax over
//! sort-by-segment edge lists, and the two kernels of one graph-attention
//! head (Eqs. 4–5) with their backward.

use crate::matrix::Matrix;

/// Fast `e^x` for `f32`: range-reduced `2^z` with a degree-7 polynomial
/// for the fraction, evaluated in FMAs that the compiler auto-vectorises
/// (unlike libm's `expf`, which is an opaque scalar call in every softmax
/// inner loop). Relative error is ≤ ~2e-6 over the clamped domain
/// `[-87.3, 88.7]`; inputs outside saturate to 0 / f32::MAX-ish rather
/// than overflowing the bit trick. NaN inputs return NaN (softmax on NaN
/// logits is already meaningless; callers guard with `has_non_finite`).
///
/// The exponent is converted float→int without a cast: `zf as i32`
/// saturates, and that scalar-only check kept LLVM from vectorising any
/// loop that calls this. After the clamp, `zf` is a whole number in
/// `[-126, 127]`, so `zf + 1.5·2²³` lands in `[2²³, 2²⁴)` where the `f32`
/// spacing is exactly 1: the addition is exact and the sum's bit pattern
/// is `0x4B40_0000 + zf` as an integer. Subtracting the magic's own bits
/// therefore yields `zf` — the same value the cast produced — for every
/// finite input, with plain integer ops that vectorise.
#[inline(always)]
pub fn fast_exp(x: f32) -> f32 {
    /// `1.5 · 2²³`, whose bit pattern is `MAGIC_BITS`.
    const MAGIC: f32 = 12_582_912.0;
    const MAGIC_BITS: i32 = 0x4B40_0000;
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    // ln(2)^k / k! for the Taylor expansion of 2^f = e^(f ln 2)
    const C1: f32 = std::f32::consts::LN_2;
    #[allow(clippy::excessive_precision)]
    const C2: f32 = 0.240_226_506_9;
    const C3: f32 = 0.055_504_11;
    const C4: f32 = 0.009_618_13;
    #[allow(clippy::excessive_precision)]
    const C5: f32 = 0.001_333_355_8;
    #[allow(clippy::excessive_precision)]
    const C6: f32 = 0.000_154_035_3;
    #[allow(clippy::excessive_precision)]
    const C7: f32 = 0.000_015_252_73;
    let x = x.clamp(-87.3, 88.7);
    let z = x * LOG2_E;
    let zf = z.floor();
    let f = z - zf;
    let p = 1.0 + f * (C1 + f * (C2 + f * (C3 + f * (C4 + f * (C5 + f * (C6 + f * C7))))));
    // wrapping: a NaN input reaches here with arbitrary bits (and leaves
    // as NaN through `p`), which must not trip debug overflow checks
    let e = ((zf + MAGIC).to_bits() as i32).wrapping_sub(MAGIC_BITS);
    let scale = f32::from_bits((e.wrapping_add(127) << 23) as u32);
    scale * p
}

/// Scalar reference implementation of [`segment_softmax`]: per-edge
/// segment-indexed passes with f64 denominators. Kept as the parity
/// baseline for the vectorised path (same role
/// [`softmax_rows_naive`] plays for [`softmax_rows`]); the proptests
/// assert the two agree within tolerance over random segment layouts.
pub fn segment_softmax_naive(scores: &Matrix, seg: &[u32], n_segments: usize) -> Matrix {
    assert_eq!(scores.cols(), 1, "segment_softmax expects a column vector");
    assert_eq!(scores.rows(), seg.len());
    let mut max = vec![f32::NEG_INFINITY; n_segments];
    for (i, &s) in seg.iter().enumerate() {
        let v = scores.as_slice()[i];
        let m = &mut max[s as usize];
        if v > *m {
            *m = v;
        }
    }
    let mut out = Matrix::zeros(scores.rows(), 1);
    let mut denom = vec![0.0f64; n_segments];
    for (i, &s) in seg.iter().enumerate() {
        let e = fast_exp(scores.as_slice()[i] - max[s as usize]);
        out.as_mut_slice()[i] = e;
        denom[s as usize] += e as f64;
    }
    for (i, &s) in seg.iter().enumerate() {
        let d = denom[s as usize];
        let o = &mut out.as_mut_slice()[i];
        *o = if d > 0.0 { (*o as f64 / d) as f32 } else { 0.0 };
    }
    out
}

/// True if `seg` is non-decreasing, i.e. in sort-by-segment layout: the
/// precondition of [`segment_softmax`] and its backward.
/// `BipartiteLayer::dst` is pushed target by target, so the encoder's
/// layout always is.
pub(crate) fn seg_is_sorted(seg: &[u32]) -> bool {
    seg.windows(2).all(|w| w[0] <= w[1])
}

/// Softmax of one segment's values where they lie: a max fold, a
/// [`fast_exp`] pass, and a [`lane_sum`] denominator applied as one `f32`
/// inverse — the same three vectorisable passes as [`softmax_rows`]. A
/// run whose denominator is not positive is zero-filled.
fn softmax_run_inplace(run: &mut [f32]) {
    let max = run.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for v in run.iter_mut() {
        *v = fast_exp(*v - max);
    }
    let denom = lane_sum(run);
    if denom > 0.0 {
        let inv = (1.0 / denom) as f32;
        for v in run.iter_mut() {
            *v *= inv;
        }
    } else {
        run.fill(0.0);
    }
}

/// End of the contiguous run of `seg[lo]` that starts at `lo`.
#[inline]
fn run_end(seg: &[u32], lo: usize) -> usize {
    let s = seg[lo];
    let mut hi = lo + 1;
    while hi < seg.len() && seg[hi] == s {
        hi += 1;
    }
    hi
}

/// Softmax within segments. `scores` is a column vector (Ex1); `seg[i]`
/// names the segment of row `i`. Rows of the same segment are normalised
/// together with the max-subtraction trick. Returns a column vector.
///
/// This is the edge-softmax of graph attention: segments are destination
/// nodes, rows are incoming edges. `seg` must be sorted by segment (the
/// encoder emits edges grouped by target); each contiguous run gets
/// `softmax_run_inplace`'s blocked max/exp/sum passes — variable-length
/// runs instead of [`softmax_rows`]' fixed-width rows. Agrees with the scalar
/// [`segment_softmax_naive`] within a few ULP (the denominator is
/// lane-summed and applied as one `f32` inverse, the trade
/// [`softmax_rows`] already makes).
///
/// # Panics
///
/// If `seg` is not non-decreasing.
pub fn segment_softmax(scores: &Matrix, seg: &[u32], n_segments: usize) -> Matrix {
    assert_eq!(scores.cols(), 1, "segment_softmax expects a column vector");
    assert_eq!(scores.rows(), seg.len());
    assert!(
        seg_is_sorted(seg),
        "segment_softmax expects ids sorted by segment ({n_segments} segments)"
    );
    let mut out = scores.clone();
    let mut lo = 0usize;
    while lo < seg.len() {
        let hi = run_end(seg, lo);
        softmax_run_inplace(&mut out.as_mut_slice()[lo..hi]);
        lo = hi;
    }
    out
}

/// 8-lane partial dot product (f32 lanes, f64 total) — [`lane_sum`]'s
/// summation order applied to an elementwise product.
#[inline]
fn lane_dot(a: &[f32], b: &[f32]) -> f64 {
    let mut lanes = [0.0f32; 8];
    let mut ac = a.chunks_exact(8);
    let mut bc = b.chunks_exact(8);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        for ((l, &x), &y) in lanes.iter_mut().zip(ca).zip(cb) {
            *l += x * y;
        }
    }
    lanes.iter().map(|&l| l as f64).sum::<f64>()
        + ac.remainder()
            .iter()
            .zip(bc.remainder())
            .map(|(&x, &y)| (x * y) as f64)
            .sum::<f64>()
}

/// Backward of [`segment_softmax`]: given the forward output `y` and the
/// upstream gradient `g` (both Ex1 over the same `seg` layout), returns
/// `gx[j] = y[j] * (g[j] - Σ_{i∈seg(j)} g[i]·y[i])`.
///
/// Vectorised exactly like the forward, under the same sorted-`seg`
/// precondition: contiguous runs with `lane_dot`-ordered per-segment dot
/// products. The tape's `SegmentSoftmax` backward dispatches here.
pub fn segment_softmax_backward(y: &Matrix, g: &Matrix, seg: &[u32], n_segments: usize) -> Matrix {
    assert_eq!(
        y.cols(),
        1,
        "segment_softmax_backward expects column vectors"
    );
    assert_eq!(y.shape(), g.shape());
    assert_eq!(y.rows(), seg.len());
    assert!(
        seg_is_sorted(seg),
        "segment_softmax_backward expects ids sorted by segment ({n_segments} segments)"
    );
    let mut out = Matrix::zeros(y.rows(), 1);
    let (y, g, o) = (y.as_slice(), g.as_slice(), out.as_mut_slice());
    let mut lo = 0usize;
    while lo < seg.len() {
        let hi = run_end(seg, lo);
        let dot = lane_dot(&g[lo..hi], &y[lo..hi]) as f32;
        for j in lo..hi {
            o[j] = y[j] * (g[j] - dot);
        }
        lo = hi;
    }
    out
}

/// One attention head's operands for [`gat_attend_head`] and its
/// backward: the projected source rows and the two attention logit
/// halves, over one bipartite layer's edge lists.
#[derive(Clone, Copy)]
pub(crate) struct GatHead<'a> {
    /// Projected source rows `h W` (`n_sources × d_head`).
    pub hw: &'a Matrix,
    /// Source half of the logit, one per source slot.
    pub s_src: &'a [f32],
    /// Query half of the logit, one per source slot, read at a target's
    /// self-loop slot.
    pub s_dst: &'a [f32],
    /// Per-edge source slot.
    pub src: &'a [u32],
    /// Per-edge target slot, non-decreasing.
    pub dst: &'a [u32],
    /// Per-target source slot of the target's own temporal node.
    pub self_idx: &'a [u32],
    /// Negative slope of both LeakyReLUs.
    pub slope: f32,
}

#[inline(always)]
fn leaky(x: f32, slope: f32) -> f32 {
    if x >= 0.0 {
        x
    } else {
        slope * x
    }
}

/// One head of a graph-attention layer in one walk over the targets' edge
/// runs (Eqs. 4–5): per run, the logits `leaky(s_src[src] + s_dst[self])`,
/// their [`softmax_run_inplace`] (left in `alpha`, one weight per edge),
/// the `alpha`-weighted sum of the run's `hw` rows — a separate multiply
/// and add per edge, in edge order, from zero — and `leaky` of that sum,
/// written to columns `col0..col0 + d_head` of the target's row of `out`.
///
/// `out` must arrive zeroed: a target's block is its accumulator, and a
/// target no edge names keeps the zeros. Every bit is the one `gather_rows`
/// ×3 → `add` → `leaky_relu` → [`segment_softmax`] →
/// [`scale_rows`](crate::rows::scale_rows) →
/// [`scatter_add_rows`](crate::rows::scatter_add_rows) → `leaky_relu` →
/// [`concat_cols`](crate::rows::concat_cols) produce.
pub(crate) fn gat_attend_head(head: GatHead<'_>, alpha: &mut [f32], out: &mut Matrix, col0: usize) {
    let GatHead {
        hw,
        s_src,
        s_dst,
        src,
        dst,
        self_idx,
        slope,
    } = head;
    let (d, width) = (hw.cols(), out.cols());
    let mut lo = 0usize;
    while lo < dst.len() {
        let hi = run_end(dst, lo);
        let t = dst[lo] as usize;
        let q = s_dst[self_idx[t] as usize];
        let (run, run_src) = (&mut alpha[lo..hi], &src[lo..hi]);
        for (a, &s) in run.iter_mut().zip(run_src) {
            *a = leaky(s_src[s as usize] + q, slope);
        }
        softmax_run_inplace(run);
        let acc = &mut out.as_mut_slice()[t * width + col0..t * width + col0 + d];
        for (&a, &s) in run.iter().zip(run_src) {
            for (o, &x) in acc.iter_mut().zip(hw.row(s as usize)) {
                *o += x * a;
            }
        }
        for o in acc.iter_mut() {
            *o = leaky(*o, slope);
        }
        lo = hi;
    }
}

/// Gradients of one [`gat_attend_head`] call, each a zeroed buffer the
/// backward accumulates into in edge order.
pub(crate) struct GatHeadGrads<'a> {
    /// `∂hw` (`n_sources × d_head`).
    pub hw: &'a mut Matrix,
    /// `∂s_src`, one per source slot.
    pub s_src: &'a mut [f32],
    /// `∂s_dst`, one per source slot.
    pub s_dst: &'a mut [f32],
}

/// Backward of [`gat_attend_head`]: `alpha` and `out` are what the forward
/// left, `g` is the gradient of `out`. Per run it undoes the output
/// `leaky`, takes `∂alpha` as the ascending-column dot of that gradient
/// with each edge's `hw` row, applies the softmax backward
/// ([`lane_dot`]-ordered, as [`segment_softmax_backward`]) and the logit
/// `leaky`, and adds each edge's share to `∂hw[src]`, `∂s_src[src]` and
/// `∂s_dst[self]` — the arithmetic and the per-row order of contributions
/// of the op-by-op chain's reverse walk.
///
/// The pre-activation sum is not kept: it was negative exactly where the
/// output carries a sign bit (a sum that starts from `+0.0` is never
/// `-0.0`, and `slope · x` keeps the sign of a negative `x` even when it
/// underflows), and a NaN takes the slope on both sides.
pub(crate) fn gat_attend_head_backward(
    head: GatHead<'_>,
    alpha: &[f32],
    out: &Matrix,
    g: &Matrix,
    col0: usize,
    grads: GatHeadGrads<'_>,
) {
    let GatHead {
        hw,
        s_src,
        s_dst,
        src,
        dst,
        self_idx,
        slope,
    } = head;
    let (d, width) = (hw.cols(), out.cols());
    let mut g_acc = vec![0.0f32; d];
    let mut g_alpha: Vec<f32> = Vec::new();
    let mut lo = 0usize;
    while lo < dst.len() {
        let hi = run_end(dst, lo);
        let t = dst[lo] as usize;
        let block = t * width + col0..t * width + col0 + d;
        for ((ga, &gv), &y) in g_acc
            .iter_mut()
            .zip(&g.as_slice()[block.clone()])
            .zip(&out.as_slice()[block])
        {
            *ga = if y.is_sign_negative() || y.is_nan() {
                slope * gv
            } else {
                gv
            };
        }
        let (run, run_src) = (&alpha[lo..hi], &src[lo..hi]);
        g_alpha.clear();
        for (&a, &s) in run.iter().zip(run_src) {
            let row = hw.row(s as usize);
            let mut dot = 0.0f32;
            for (&gv, &x) in g_acc.iter().zip(row) {
                dot += gv * x;
            }
            g_alpha.push(dot);
            for (o, &gv) in grads.hw.row_mut(s as usize).iter_mut().zip(&g_acc) {
                *o += gv * a;
            }
        }
        let dot = lane_dot(&g_alpha, run) as f32;
        let self_slot = self_idx[t] as usize;
        let q = s_dst[self_slot];
        for ((&a, &ga), &s) in run.iter().zip(&g_alpha).zip(run_src) {
            let g_e = a * (ga - dot);
            let g_z = if s_src[s as usize] + q >= 0.0 {
                g_e
            } else {
                slope * g_e
            };
            grads.s_dst[self_slot] += g_z;
            grads.s_src[s as usize] += g_z;
        }
        lo = hi;
    }
}

/// Scalar reference row-softmax (libm `exp`, f64 normalisation) — kept as
/// the parity baseline for [`softmax_rows`], which replaces it on the hot
/// path with vectorised [`fast_exp`] passes.
pub fn softmax_rows_naive(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for r in 0..x.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f64;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            denom += *v as f64;
        }
        if denom > 0.0 {
            for v in row.iter_mut() {
                *v = (*v as f64 / denom) as f32;
            }
        }
    }
    out
}

/// Row-wise softmax (used by decoders over candidate sets).
pub fn softmax_rows(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// [`softmax_rows`] overwriting the logits with their probabilities (the
/// generation path normalises its score matrix where it lies).
pub fn softmax_rows_inplace(out: &mut Matrix) {
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        // three separate passes so the exp and scale loops auto-vectorise
        // (a fused f64 accumulator in the exp loop forces scalar code)
        for v in row.iter_mut() {
            *v = fast_exp(*v - max);
        }
        let denom = lane_sum(row);
        if denom > 0.0 {
            let inv = (1.0 / denom) as f32;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    }
}

/// 8-lane partial-sum reduction (f32 lanes, f64 total) — the exact
/// summation order [`softmax_rows`] normalises with; mirrored by
/// [`row_softmax_stats`] so its denominators match bit-for-bit.
#[inline]
fn lane_sum(vals: &[f32]) -> f64 {
    let mut lanes = [0.0f32; 8];
    let mut chunks = vals.chunks_exact(8);
    for ch in &mut chunks {
        for (l, &v) in lanes.iter_mut().zip(ch) {
            *l += v;
        }
    }
    lanes.iter().map(|&l| l as f64).sum::<f64>()
        + chunks.remainder().iter().map(|&v| v as f64).sum::<f64>()
}

/// Softmax statistics of one logit row: `(max, inv_denom)` such that
/// `p[j] = fast_exp(row[j] - max) * inv_denom` reproduces the
/// corresponding [`softmax_rows`] output bit-for-bit (same `fast_exp`,
/// same 8-lane summation order, same single `f32` rounding of the
/// inverse). `inv_denom` falls back to `1.0` when the denominator is not
/// positive (empty row), mirroring `softmax_rows` leaving such rows
/// unscaled.
///
/// This is the recompute primitive of the fused softmax-cross-entropy
/// backward ([`crate::tape::Tape::softmax_xent`]): storing `(max, inv)`
/// per row is `O(rows)`, versus `O(rows × cols)` for a materialised
/// probability matrix.
pub fn row_softmax_stats(row: &[f32]) -> (f32, f32) {
    /// Elements exponentiated per pass: long enough for `fast_exp` to run
    /// at full vector width (an 8-element block holds it to a quarter),
    /// short enough to stay on the stack.
    const BLOCK: usize = 64;
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    // Stream blocks through a stack buffer and fold each into the eight
    // lanes: lane `l` receives elements `l, l+8, …` in ascending order —
    // exactly [`lane_sum`]'s order — without materialising the
    // exponentials.
    let mut lanes = [0.0f32; 8];
    let mut e = [0.0f32; BLOCK];
    let mut tail: &[f32] = &[];
    for block in row.chunks(BLOCK) {
        let e = &mut e[..block.len()];
        for (o, &v) in e.iter_mut().zip(block) {
            *o = fast_exp(v - max);
        }
        let mut chunks = e.chunks_exact(8);
        for ch in &mut chunks {
            for (l, &v) in lanes.iter_mut().zip(ch) {
                *l += v;
            }
        }
        // non-empty for the last block only: BLOCK is a multiple of 8
        tail = chunks.remainder();
    }
    let denom =
        lanes.iter().map(|&l| l as f64).sum::<f64>() + tail.iter().map(|&v| v as f64).sum::<f64>();
    if denom > 0.0 {
        (max, (1.0 / denom) as f32)
    } else {
        (max, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let scores = Matrix::from_vec(5, 1, vec![1.0, 2.0, 3.0, -1.0, 0.5]);
        let seg = vec![0u32, 0, 1, 1, 1];
        let sm = segment_softmax(&scores, &seg, 2);
        let s0: f32 = sm.as_slice()[..2].iter().sum();
        let s1: f32 = sm.as_slice()[2..].iter().sum();
        assert!(approx(s0, 1.0));
        assert!(approx(s1, 1.0));
        // within a segment larger scores get larger mass
        assert!(sm.get(1, 0) > sm.get(0, 0));
        assert!(sm.get(2, 0) > sm.get(4, 0));
    }

    #[test]
    fn segment_softmax_is_shift_invariant() {
        let scores = Matrix::from_vec(4, 1, vec![100.0, 101.0, 102.0, 99.0]);
        let shifted = scores.map(|v| v - 100.0);
        let seg = vec![0u32, 0, 0, 0];
        let a = segment_softmax(&scores, &seg, 1);
        let b = segment_softmax(&shifted, &seg, 1);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(approx(*x, *y));
        }
    }

    #[test]
    #[should_panic(expected = "sorted by segment")]
    fn segment_softmax_rejects_an_unsorted_layout() {
        segment_softmax(&Matrix::zeros(3, 1), &[0, 1, 0], 2);
    }

    #[test]
    fn softmax_rows_normalises() {
        let x = Matrix::from_fn(3, 4, |r, c| (r * c) as f32);
        let p = softmax_rows(&x);
        for r in 0..3 {
            let s: f32 = p.row(r).iter().sum();
            assert!(approx(s, 1.0));
        }
    }

    /// [`fast_exp`] as it was before its exponent conversion stopped
    /// using the saturating `as i32` cast.
    fn fast_exp_reference(x: f32) -> f32 {
        let x = x.clamp(-87.3, 88.7);
        let z = x * std::f32::consts::LOG2_E;
        let zf = z.floor();
        let f = z - zf;
        #[allow(clippy::excessive_precision)]
        let p = 1.0
            + f * (std::f32::consts::LN_2
                + f * (0.240_226_506_9
                    + f * (0.055_504_11
                        + f * (0.009_618_13
                            + f * (0.001_333_355_8
                                + f * (0.000_154_035_3 + f * 0.000_015_252_73))))));
        f32::from_bits((((zf as i32) + 127) << 23) as u32) * p
    }

    #[test]
    fn fast_exp_keeps_every_bit_of_the_cast_version() {
        let check = |x: f32| {
            let (new, old) = (fast_exp(x), fast_exp_reference(x));
            if x.is_nan() {
                assert!(new.is_nan() && old.is_nan(), "NaN {:#x}", x.to_bits());
            } else {
                assert_eq!(
                    new.to_bits(),
                    old.to_bits(),
                    "x = {x:e} ({:#x})",
                    x.to_bits()
                );
            }
        };
        // every 257th bit pattern: all exponents, both signs, NaNs included
        for bits in (0..=u32::MAX).step_by(257) {
            check(f32::from_bits(bits));
        }
        let next = |x: f32, up: bool| {
            let towards_zero = (x > 0.0) != up;
            f32::from_bits(if towards_zero {
                x.to_bits() - 1
            } else {
                x.to_bits() + 1
            })
        };
        for edge in [-87.3f32, 88.7] {
            for x in [next(edge, false), edge, next(edge, true)] {
                check(x);
            }
        }
        for x in [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::from_bits(0x807f_ffff),
            f32::MAX,
            f32::MIN,
        ] {
            check(x);
        }
    }
}
