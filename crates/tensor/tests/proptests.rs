//! Property-based tests for the tensor substrate: algebraic identities of
//! the raw kernels, gradient-correctness properties of the tape, and
//! parity of the optimised paths (tiled matmul, pooled parallelism)
//! against their scalar reference implementations.

use proptest::prelude::*;
use std::rc::Rc;
use tg_tensor::gemm::{
    active_microkernel, available_microkernels, force_microkernel, matmul_into_on, matmul_nn,
    matmul_nn_naive, matmul_nt, matmul_nt_naive, matmul_nt_transposed, matmul_tn, matmul_tn_naive,
    GemmPath, Layout, MicrokernelKind, Start, KC, TILE_THRESHOLD,
};
use tg_tensor::matrix::Matrix;
use tg_tensor::parallel::{par_chunks_mut, par_map, ThreadPin};
use tg_tensor::prelude::*;
use tg_tensor::rows::{concat_cols, gather_rows, scatter_add_rows};
use tg_tensor::softmax::{
    exp_row, fast_exp, segment_softmax, segment_softmax_backward, segment_softmax_naive,
    softmax_cols_inplace, softmax_rows, softmax_rows_naive,
};

/// Strategy: a matrix with bounded entries.
fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "{x} vs {y}"
        );
    }
}

/// A row's softmax statistics `(max, inv_denom)` summed as the row
/// kernel's first version did, exponentiating 8-element blocks: the
/// summation order [`exp_row`] must keep.
fn row_softmax_stats_by_eights(row: &[f32]) -> (f32, f32) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut lanes = [0.0f32; 8];
    let mut chunks = row.chunks_exact(8);
    for ch in &mut chunks {
        let mut e = [0.0f32; 8];
        for (o, &v) in e.iter_mut().zip(ch) {
            *o = fast_exp(v - max);
        }
        for (l, &v) in lanes.iter_mut().zip(&e) {
            *l += v;
        }
    }
    let denom = lanes.iter().map(|&l| l as f64).sum::<f64>()
        + chunks
            .remainder()
            .iter()
            .map(|&v| fast_exp(v - max) as f64)
            .sum::<f64>();
    if denom > 0.0 {
        (max, (1.0 / denom) as f32)
    } else {
        (max, 1.0)
    }
}

/// Scored rows per block of [`Tape::score_xent`] (a private
/// constant of the op): the block edges the oracle puts targets across.
const SCORE_XENT_BLOCK: usize = 128;

/// One decode level of a [`score_xent_case`]: its decode states and the
/// `(row, candidate column, weight)` targets on them.
struct ScoreLevel {
    h: ParamId,
    targets: Rc<Vec<SparseTarget>>,
}

/// Loss bits and the gradient bits of every parameter (the `h` of each
/// level, then `W_dec`, then `b_dec`) of a two-level reconstruction loss
/// over one candidate set — recorded either through [`Tape::score_xent`]
/// with the candidate rows gathered once, or through the chain it
/// replaces with the rows gathered per level.
fn score_xent_case(
    store: &ParamStore,
    levels: &[ScoreLevel],
    (w_dec, b_dec): (ParamId, ParamId),
    candidates: &Rc<Vec<u32>>,
    norm: f32,
    fused: bool,
) -> (u32, Vec<Vec<u32>>) {
    let mut tape = Tape::new();
    let mut shared: Option<(Var, Var)> = None;
    let mut loss: Option<Var> = None;
    for level in levels {
        let h = tape.param(store, level.h);
        let term = if fused {
            let (w_c, b_c) = *shared.get_or_insert_with(|| {
                (
                    tape.gather_param_rows(store, w_dec, candidates.clone()),
                    tape.gather_param_rows(store, b_dec, candidates.clone()),
                )
            });
            tape.score_xent(h, w_c, b_c, &level.targets, norm)
        } else {
            let w_c = tape.gather_param_rows(store, w_dec, candidates.clone());
            let b_c = tape.gather_param_rows(store, b_dec, candidates.clone());
            let scores = tape.matmul_nt(h, w_c);
            let b_row = tape.transpose(b_c);
            let logits = tape.add_row(scores, b_row);
            tape.softmax_xent(logits, level.targets.clone(), norm)
        };
        loss = Some(match loss {
            Some(l) => tape.add(l, term),
            None => term,
        });
    }
    let loss = loss.expect("at least one level");
    let grads = tape.backward(loss);
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect();
    let ids = levels.iter().map(|l| l.h).chain([w_dec, b_dec]);
    (
        tape.value(loss).item().to_bits(),
        ids.map(|id| bits(&grads.get(id).expect("gradient")))
            .collect(),
    )
}

/// One bipartite layer of a [`gat_attend_case`]: edge lists sorted by
/// target and, per head, the `(hw, s_src, s_dst)` parameters.
struct GatCase {
    src: Rc<Vec<u32>>,
    dst: Rc<Vec<u32>>,
    self_idx: Rc<Vec<u32>>,
    heads: Vec<[ParamId; 3]>,
    /// Weights of the scalar loss `Σ out ⊙ loss_w`: the gradient that
    /// reaches the attention output.
    loss_w: Matrix,
}

/// Loss bits, output bits and the gradient bits of every head's `hw`,
/// `s_src`, `s_dst` — recorded either as one [`Tape::gat_attend`] or as
/// the eleven ops per head (and the `concat_cols` across heads) it
/// replaces.
fn gat_attend_case(
    store: &ParamStore,
    case: &GatCase,
    fused: bool,
) -> (u32, Vec<u32>, Vec<Vec<u32>>) {
    const SLOPE: f32 = 0.2;
    let n_targets = case.self_idx.len();
    let mut tape = Tape::new();
    let heads: Vec<(Var, Var, Var)> = case
        .heads
        .iter()
        .map(|&[hw, s_src, s_dst]| {
            (
                tape.param(store, hw),
                tape.param(store, s_src),
                tape.param(store, s_dst),
            )
        })
        .collect();
    let out = if fused {
        tape.gat_attend(
            &heads,
            case.src.clone(),
            case.dst.clone(),
            case.self_idx.clone(),
            SLOPE,
        )
    } else {
        let query: Rc<Vec<u32>> = Rc::new(
            case.dst
                .iter()
                .map(|&t| case.self_idx[t as usize])
                .collect(),
        );
        let mut cat: Option<Var> = None;
        for &(hw, s_src, s_dst) in &heads {
            let e_src = tape.gather_rows(s_src, case.src.clone());
            let e_dst = tape.gather_rows(s_dst, query.clone());
            let e_sum = tape.add(e_src, e_dst);
            let e = tape.leaky_relu(e_sum, SLOPE);
            let alpha = tape.segment_softmax(e, case.dst.clone(), n_targets);
            let msgs = tape.gather_rows(hw, case.src.clone());
            let weighted = tape.scale_rows(msgs, alpha);
            let agg = tape.scatter_add_rows(weighted, case.dst.clone(), n_targets);
            let head_out = tape.leaky_relu(agg, SLOPE);
            cat = Some(match cat {
                Some(c) => tape.concat_cols(c, head_out),
                None => head_out,
            });
        }
        cat.expect("at least one head")
    };
    let w = tape.input(case.loss_w.clone());
    let weighted = tape.mul(out, w);
    let loss = tape.sum(weighted);
    let grads = tape.backward(loss);
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect();
    (
        tape.value(loss).item().to_bits(),
        bits(tape.value(out)),
        case.heads
            .iter()
            .flatten()
            .map(|&id| bits(&grads.get(id).expect("gradient")))
            .collect(),
    )
}

/// A value for the row-sparse oracle: mostly ordinary, sometimes a signed
/// zero, a value near the normal/subnormal boundary or a subnormal.
fn edgy_value(rng: &mut rand::rngs::SmallRng) -> f32 {
    use rand::Rng;
    let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    match rng.gen_range(0..8) {
        0 => 0.0,
        1 => -0.0,
        2 => sign * rng.gen_range(0.5f32..4.0) * f32::MIN_POSITIVE,
        3 => sign * f32::from_bits(rng.gen_range(1u32..1 << 23)),
        _ => rng.gen_range(-2.0f32..2.0),
    }
}

/// One term of a [`row_sparse_case`] step: a lookup of the table, or the
/// table as a [`Tape::param`] leaf, weighted element-wise by a constant
/// (which is then exactly the gradient that reaches the term).
enum TableTerm {
    Lookup(Rc<Vec<u32>>, Matrix),
    Leaf(Matrix),
}

/// `Adam::step`'s loop over one table-shaped parameter as it was before
/// gradients could be row-sparse: the oracle's reference optimizer.
fn adam_step_reference(
    opt: &Adam,
    t: u64,
    p: &mut Matrix,
    (m, v): (&mut Matrix, &mut Matrix),
    g: &Matrix,
) {
    let bc1 = 1.0 - opt.beta1.powi(t as i32);
    let bc2 = 1.0 - opt.beta2.powi(t as i32);
    let (lr, b1, b2, eps) = (opt.lr, opt.beta1, opt.beta2, opt.eps);
    let (md, vd, gd, pd) = (
        m.as_mut_slice(),
        v.as_mut_slice(),
        g.as_slice(),
        p.as_mut_slice(),
    );
    for i in 0..pd.len() {
        let gi = gd[i];
        md[i] = b1 * md[i] + (1.0 - b1) * gi;
        vd[i] = b2 * vd[i] + (1.0 - b2) * gi * gi;
        let mhat = md[i] / bc1;
        let vhat = vd[i] / bc2;
        pd[i] -= lr * mhat / (vhat.sqrt() + eps);
    }
}

/// An optimizer's first and second moments, read through its serde.
fn adam_moments(opt: &Adam) -> [Vec<Option<Matrix>>; 2] {
    let state = serde::Serialize::to_value(opt);
    ["m", "v"].map(|k| serde::Deserialize::from_value(state.get(k).expect(k)).expect(k))
}

fn f32_bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (A B) C == A (B C)
    #[test]
    fn matmul_associative(a in arb_matrix(3, 4), b in arb_matrix(4, 2), c in arb_matrix(2, 5)) {
        let left = matmul_nn(&matmul_nn(&a, &b), &c);
        let right = matmul_nn(&a, &matmul_nn(&b, &c));
        assert_close(&left, &right, 1e-4);
    }

    /// A(B + C) == AB + AC
    #[test]
    fn matmul_distributive(a in arb_matrix(3, 4), b in arb_matrix(4, 3), c in arb_matrix(4, 3)) {
        let sum = b.zip(&c, |x, y| x + y);
        let left = matmul_nn(&a, &sum);
        let mut right = matmul_nn(&a, &b);
        right.add_assign(&matmul_nn(&a, &c));
        assert_close(&left, &right, 1e-4);
    }

    /// The fused transpose variants agree with explicit transposes.
    #[test]
    fn transpose_variants_agree(a in arb_matrix(3, 4), b in arb_matrix(5, 4)) {
        assert_close(&matmul_nt(&a, &b), &matmul_nn(&a, &b.transpose()), 1e-4);
        let c = a.transpose(); // 4x3
        assert_close(&matmul_tn(&a, &a), &matmul_nn(&c, &a), 1e-4);
    }

    /// softmax rows are probability vectors, invariant to row shifts.
    #[test]
    fn softmax_rows_properties(x in arb_matrix(4, 6), shift in -3.0f32..3.0) {
        let p = softmax_rows(&x);
        for r in 0..4 {
            let s: f32 = p.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(p.row(r).iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
        }
        let shifted = softmax_rows(&x.map(|v| v + shift));
        assert_close(&p, &shifted, 1e-4);
    }

    /// gather then scatter with the same index is a projection: entries of
    /// rows never indexed stay zero, indexed rows accumulate multiplicity.
    #[test]
    fn gather_scatter_projection(x in arb_matrix(5, 3), raw_idx in proptest::collection::vec(0u32..5, 1..8)) {
        let idx = Rc::new(raw_idx.clone());
        let g = gather_rows(&x, &idx);
        let s = scatter_add_rows(&g, &idx, 5);
        let mut mult = [0f32; 5];
        for &i in raw_idx.iter() {
            mult[i as usize] += 1.0;
        }
        for (r, &m) in mult.iter().enumerate() {
            for c in 0..3 {
                let expect = x.get(r, c) * m;
                prop_assert!((s.get(r, c) - expect).abs() < 1e-4);
            }
        }
    }

    /// segment softmax sums to one within every non-empty segment.
    #[test]
    fn segment_softmax_normalises(
        scores in proptest::collection::vec(-4.0f32..4.0, 1..24),
        ids in proptest::collection::vec(0u32..5, 24),
        n_seg in 1usize..5,
    ) {
        let mut seg: Vec<u32> = ids[..scores.len()].iter().map(|&i| i % n_seg as u32).collect();
        seg.sort_unstable();
        let m = Matrix::from_vec(scores.len(), 1, scores);
        let sm = segment_softmax(&m, &seg, n_seg);
        let mut sums = vec![0f64; n_seg];
        for (i, &s) in seg.iter().enumerate() {
            sums[s as usize] += sm.as_slice()[i] as f64;
        }
        for (s, total) in sums.iter().enumerate() {
            if seg.iter().any(|&x| x as usize == s) {
                prop_assert!((total - 1.0).abs() < 1e-4, "segment {s} sums {total}");
            }
        }
    }

    /// Backward pass is linear: grad of (a*L) is a * grad of L.
    #[test]
    fn backward_is_linear_in_loss_scale(w0 in arb_matrix(3, 3), alpha in 0.5f32..4.0) {
        let mut store = ParamStore::new();
        let id = store.create("w", w0);
        let grad_of = |scale: f32, store: &ParamStore| -> Matrix {
            let mut tape = Tape::new();
            let w = tape.param(store, id);
            let y = tape.tanh(w);
            let l0 = tape.sum(y);
            let l = tape.scale(l0, scale);
            tape.backward(l).get(id).expect("grad").into_owned()
        };
        let g1 = grad_of(1.0, &store);
        let ga = grad_of(alpha, &store);
        for (a, b) in g1.as_slice().iter().zip(ga.as_slice()) {
            prop_assert!((a * alpha - b).abs() < 1e-4);
        }
    }

    /// Sum rule: grad of (f + g) equals grad f + grad g.
    #[test]
    fn backward_sum_rule(w0 in arb_matrix(2, 3)) {
        let mut store = ParamStore::new();
        let id = store.create("w", w0);
        let grad_combined = {
            let mut tape = Tape::new();
            let w = tape.param(&store, id);
            let f = tape.sigmoid(w);
            let g = tape.tanh(w);
            let fs = tape.sum(f);
            let gs = tape.sum(g);
            let l = tape.add(fs, gs);
            tape.backward(l).get(id).expect("grad").into_owned()
        };
        let grad_f = {
            let mut tape = Tape::new();
            let w = tape.param(&store, id);
            let f = tape.sigmoid(w);
            let l = tape.sum(f);
            tape.backward(l).get(id).expect("grad").into_owned()
        };
        let grad_g = {
            let mut tape = Tape::new();
            let w = tape.param(&store, id);
            let g = tape.tanh(w);
            let l = tape.sum(g);
            tape.backward(l).get(id).expect("grad").into_owned()
        };
        for i in 0..grad_combined.len() {
            let expect = grad_f.as_slice()[i] + grad_g.as_slice()[i];
            prop_assert!((grad_combined.as_slice()[i] - expect).abs() < 1e-5);
        }
    }

    /// concat_cols then column split recovers the operands (round trip).
    #[test]
    fn concat_roundtrip(a in arb_matrix(3, 2), b in arb_matrix(3, 4)) {
        let cat = concat_cols(&a, &b);
        prop_assert_eq!(cat.shape(), (3, 6));
        for r in 0..3 {
            prop_assert_eq!(&cat.row(r)[..2], a.row(r));
            prop_assert_eq!(&cat.row(r)[2..], b.row(r));
        }
    }

    /// Adam step with zero gradient leaves parameters unchanged.
    #[test]
    fn adam_ignores_untouched_params(w0 in arb_matrix(2, 2)) {
        let mut store = ParamStore::new();
        let id = store.create("w", w0.clone());
        let other = store.create("o", Matrix::zeros(1, 1));
        let mut tape = Tape::new();
        let o = tape.param(&store, other);
        let l = tape.sum(o);
        let grads = tape.backward(l);
        let mut opt = Adam::new(0.1);
        opt.step(&mut store, &grads);
        prop_assert_eq!(store.value(id), &w0);
    }

    /// Tiled/dispatched matmul variants match the scalar reference on
    /// randomized shapes large enough to take the packed path.
    #[test]
    fn tiled_matmul_matches_naive(
        dims in (1usize..40, 1usize..40, 1usize..40),
        scale in 0.5f32..2.0,
    ) {
        let (m, k, n) = dims;
        let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 23) as f32 * 0.1 * scale - 1.0);
        let b = Matrix::from_fn(k, n, |r, c| ((r * 13 + c * 5) % 19) as f32 * 0.1 * scale - 0.9);
        assert_close(&matmul_nn(&a, &b), &matmul_nn_naive(&a, &b), 1e-4);
        let bt = Matrix::from_fn(n, k, |r, c| ((r * 11 + c * 3) % 17) as f32 * 0.1 * scale - 0.8);
        assert_close(&matmul_nt(&a, &bt), &matmul_nt_naive(&a, &bt), 1e-4);
        let at = Matrix::from_fn(k, m, |r, c| ((r * 7 + c * 29) % 21) as f32 * 0.1 * scale - 0.7);
        assert_close(&matmul_tn(&at, &b), &matmul_tn_naive(&at, &b), 1e-4);
    }

    /// Vectorised softmax (fast_exp + lane sums) matches the scalar libm
    /// reference within float tolerance.
    #[test]
    fn fast_softmax_matches_naive(x in arb_matrix(5, 37), shift in -10.0f32..10.0) {
        let shifted = x.map(|v| v * 8.0 + shift);
        let fast = softmax_rows(&shifted);
        let naive = softmax_rows_naive(&shifted);
        assert_close(&fast, &naive, 1e-4);
    }

    /// Pooled `par_chunks_mut` computes the same rows as a serial run,
    /// for any row count and thread split.
    #[test]
    fn par_chunks_matches_serial(rows in 1usize..200, cols in 1usize..8, threads in 1usize..9) {
        let body = |r0: usize, chunk: &mut [f32]| {
            for (i, row) in chunk.chunks_mut(cols).enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = ((r0 + i) * 31 + j) as f32;
                }
            }
        };
        let mut serial = vec![0.0f32; rows * cols];
        body(0, &mut serial);
        let mut parallel = vec![0.0f32; rows * cols];
        {
            let _pin = ThreadPin::new(threads);
            par_chunks_mut(&mut parallel, cols, body);
        }
        prop_assert_eq!(serial, parallel);
    }

    /// The fused softmax-cross-entropy (per-row stats + backward
    /// recompute) reproduces the materialised reference **bit-for-bit**:
    /// same loss, same gradient, on random logits and sparse multi-target
    /// sets (including rows with no targets and repeated targets).
    #[test]
    fn fused_xent_matches_materialised(
        w0 in arb_matrix(6, 9),
        picks in proptest::collection::vec((0u32..6, 0u32..9, 0.25f32..2.0), 1..14),
        norm in 0.5f32..8.0,
    ) {
        let mut store = ParamStore::new();
        let id = store.create("w", w0);
        let targets = Rc::new(picks);
        let run = |materialise: bool| -> (f32, Matrix) {
            let mut tape = Tape::new();
            let w = tape.param(&store, id);
            let loss = if materialise {
                tape.softmax_xent_materialised(w, targets.clone(), norm)
            } else {
                tape.softmax_xent(w, targets.clone(), norm)
            };
            let l = tape.value(loss).item();
            let g = tape.backward(loss).get(id).expect("grad").into_owned();
            (l, g)
        };
        let (loss_fused, grad_fused) = run(false);
        let (loss_mat, grad_mat) = run(true);
        prop_assert_eq!(loss_fused, loss_mat, "loss mismatch");
        prop_assert_eq!(grad_fused, grad_mat, "gradient mismatch");
    }

    /// The fused store lookup ([`Tape::gather_param_rows`]) reproduces
    /// replaying the whole table and gathering from it ([`Tape::param`] +
    /// [`Tape::gather_rows`]) **bit-for-bit** — the loss and every
    /// gradient — when one f32 table is looked up three times in a step
    /// with repeated indices, so the three scatter-adds meet in the
    /// table's gradient slot.
    #[test]
    fn gather_param_rows_matches_param_then_gather(
        table in arb_matrix(7, 4),
        proj in arb_matrix(4, 3),
        idx in proptest::collection::vec(proptest::collection::vec(0u32..7, 1..9), 3),
    ) {
        let mut store = ParamStore::new();
        let table_id = store.create("table", table);
        let proj_id = store.create("proj", proj);
        let run = |fused: bool| -> (u32, Vec<Vec<u32>>) {
            let mut tape = Tape::new();
            let mut loss: Option<Var> = None;
            for (i, rows) in idx.iter().enumerate() {
                let rows = Rc::new(rows.clone());
                let x = if fused {
                    tape.gather_param_rows(&store, table_id, rows)
                } else {
                    let t = tape.param(&store, table_id);
                    tape.gather_rows(t, rows)
                };
                let w = tape.param(&store, proj_id);
                let y = tape.matmul(x, w);
                let act = if i == 1 { tape.tanh(y) } else { tape.mul(y, y) };
                let scaled = tape.scale(act, 0.37 + i as f32);
                let term = tape.sum(scaled);
                loss = Some(match loss {
                    Some(l) => tape.add(l, term),
                    None => term,
                });
            }
            let loss = loss.expect("three lookups");
            let grads = tape.backward(loss);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect();
            (
                tape.value(loss).item().to_bits(),
                grads.iter().map(|(_, g)| bits(&g)).collect(),
            )
        };
        let (loss_fused, grads_fused) = run(true);
        let (loss_replayed, grads_replayed) = run(false);
        prop_assert_eq!(grads_fused.len(), 2, "table and projection gradients");
        prop_assert_eq!(loss_fused, loss_replayed, "loss mismatch");
        prop_assert_eq!(grads_fused, grads_replayed, "gradient mismatch");
    }

    /// A table reached through [`Tape::gather_param_rows`] keeps a
    /// gradient of its touched rows only, and every bit downstream is the
    /// table-shaped path's: the gradient itself (one to three lookups with
    /// repeated and empty index lists, and some steps a [`Tape::param`]
    /// leaf of the same table), the global norm, the clipped gradient, and
    /// the parameter and both moments after each of four Adam steps — against
    /// [`scatter_add_rows`] and the dense Adam loop kept here. Weights
    /// include signed zeros and subnormals; one case in six runs with
    /// `eps = 0`, where a row without a gradient turns NaN.
    #[test]
    fn row_sparse_gradients_match_the_table_shaped_oracle(
        shape in (1usize..12, 1usize..5),
        n_lookups in 1usize..4,
        eps_case in 0u32..6,
        seed in 0u64..1 << 40,
    ) {
        use rand::{Rng, SeedableRng};
        let (rows, cols) = shape;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let table = store.create("table", Matrix::from_fn(rows, cols, |_, _| edgy_value(&mut rng)));
        let other = store.create("other", Matrix::from_fn(2, cols, |_, _| edgy_value(&mut rng)));
        let mut opt = Adam::new(0.01);
        if eps_case == 0 {
            opt.eps = 0.0;
        }
        let mut want_params = [store.value(table).clone(), store.value(other).clone()];
        let mut want_moments = want_params.clone().map(|p| {
            let zeros = Matrix::zeros(p.rows(), p.cols());
            [zeros.clone(), zeros]
        });
        for step in 1..=4u64 {
            let mut terms: Vec<TableTerm> = (0..n_lookups)
                .map(|_| {
                    let len = rng.gen_range(0..7);
                    let idx = (0..len).map(|_| rng.gen_range(0..rows) as u32).collect();
                    let w = Matrix::from_fn(len, cols, |_, _| edgy_value(&mut rng));
                    TableTerm::Lookup(Rc::new(idx), w)
                })
                .collect();
            if rng.gen_bool(0.3) {
                let at = rng.gen_range(0..=terms.len());
                let w = Matrix::from_fn(rows, cols, |_, _| edgy_value(&mut rng));
                terms.insert(at, TableTerm::Leaf(w));
            }
            let w_other = Matrix::from_fn(2, cols, |_, _| edgy_value(&mut rng));
            let mut tape = Tape::new();
            let mut loss: Option<Var> = None;
            let weighted = terms
                .iter()
                .map(|term| match term {
                    TableTerm::Lookup(idx, w) => (tape.gather_param_rows(&store, table, idx.clone()), w),
                    TableTerm::Leaf(w) => (tape.param(&store, table), w),
                })
                .collect::<Vec<_>>()
                .into_iter()
                .chain([(tape.param(&store, other), &w_other)]);
            for (x, w) in weighted {
                let w = tape.input(w.clone());
                let prod = tape.mul(x, w);
                let term = tape.sum(prod);
                loss = Some(match loss {
                    Some(l) => tape.add(l, term),
                    None => term,
                });
            }
            let mut grads = tape.backward(loss.expect("terms"));

            // the reverse walk meets the terms last to first
            let mut want_grads = [Matrix::zeros(0, 0), w_other];
            for (i, term) in terms.iter().rev().enumerate() {
                let g = match term {
                    TableTerm::Lookup(idx, w) => scatter_add_rows(w, idx, rows),
                    TableTerm::Leaf(w) => w.clone(),
                };
                if i == 0 {
                    want_grads[0] = g;
                } else {
                    want_grads[0].add_assign(&g);
                }
            }
            for (id, want) in [table, other].into_iter().zip(&want_grads) {
                prop_assert_eq!(f32_bits(&grads.get(id).expect("gradient")), f32_bits(want), "step {} gradient of {}", step, store.name(id));
            }
            let want_norm = want_grads
                .iter()
                .map(|g| {
                    let n = g.frobenius_norm();
                    n * n
                })
                .sum::<f64>()
                .sqrt();
            prop_assert_eq!(grads.global_norm().to_bits(), want_norm.to_bits(), "step {} norm", step);
            // a negative bound scales by a negative factor, which turns an
            // implicit `+0.0` row into `-0.0`
            let max_norm = want_norm * rng.gen_range(-0.25..1.5);
            prop_assert_eq!(clip_global_norm(&mut grads, max_norm).to_bits(), want_norm.to_bits());
            if want_norm > max_norm && want_norm > 0.0 {
                let f = (max_norm / want_norm) as f32;
                for g in &mut want_grads {
                    g.map_inplace(|x| x * f);
                }
            }
            for (id, want) in [table, other].into_iter().zip(&want_grads) {
                prop_assert_eq!(f32_bits(&grads.get(id).expect("gradient")), f32_bits(want), "step {} clipped gradient of {}", step, store.name(id));
            }
            opt.step(&mut store, &grads);
            let [got_m, got_v] = adam_moments(&opt);
            for (i, id) in [table, other].into_iter().enumerate() {
                let [m, v] = &mut want_moments[i];
                adam_step_reference(&opt, step, &mut want_params[i], (m, v), &want_grads[i]);
                let name = store.name(id);
                prop_assert_eq!(f32_bits(store.value(id)), f32_bits(&want_params[i]), "step {} {}", step, name);
                let got = [&got_m[i], &got_v[i]].map(|g| f32_bits(g.as_ref().expect("moments")));
                prop_assert_eq!(&got[0], &f32_bits(m), "step {} m of {}", step, name);
                prop_assert_eq!(&got[1], &f32_bits(v), "step {} v of {}", step, name);
            }
        }
    }

    /// Pooled `par_map` returns results in input order for any split.
    #[test]
    fn par_map_matches_serial(n in 0usize..300, threads in 1usize..9) {
        let expect: Vec<usize> = (0..n).map(|i| i.wrapping_mul(2654435761)).collect();
        let got = {
            let _pin = ThreadPin::new(threads);
            par_map(n, |i| i.wrapping_mul(2654435761))
        };
        prop_assert_eq!(expect, got);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The row kernel keeps every bit of the 8-element version's
    /// `(max, inv_denom)` and leaves `fast_exp(z − max)` in each element:
    /// each lane still receives its elements in ascending order and the
    /// remainder is summed as before — over every length around the lane
    /// boundaries, from flat rows to logits far beyond `fast_exp`'s clamp.
    #[test]
    fn exp_row_keeps_the_eight_lane_order(
        unit in proptest::collection::vec(-1.0f32..1.0, 0..=200),
        scale in 0usize..5,
    ) {
        let scale = [1.0f32, 20.0, 200.0, 1e6, 3e38][scale];
        let row: Vec<f32> = unit.iter().map(|v| v * scale).collect();
        let mut exps = row.clone();
        let (max, inv) = exp_row(&mut exps);
        let inv = inv.unwrap_or(1.0);
        let (want_max, want_inv) = row_softmax_stats_by_eights(&row);
        for (e, &z) in exps.iter().zip(&row) {
            prop_assert_eq!(e.to_bits(), fast_exp(z - max).to_bits());
        }
        prop_assert_eq!(max.to_bits(), want_max.to_bits(), "max, len {}", row.len());
        prop_assert_eq!(inv.to_bits(), want_inv.to_bits(), "inv, len {}", row.len());
    }

    /// [`Tape::score_xent`] keeps every bit of `gather_param_rows` →
    /// `matmul_nt` → `transpose` → `add_row` → `softmax_xent`: the loss and
    /// the gradients of `h`, `W_dec` and `b_dec`, for every microkernel,
    /// on both sides of `TILE_THRESHOLD` (where the compacted product can
    /// fall on the other side than the full one), with more than `KC`
    /// rows, and with targets that are unsorted, repeated, missing from
    /// any share of the rows, or absent altogether. Two levels share the
    /// candidate set, so the once-gathered rows also have to accumulate
    /// like the per-level gathers do. Backward walks the scored rows in
    /// blocks of [`SCORE_XENT_BLOCK`]: `edge` scores every row of exactly
    /// one block, one block and a row, or several blocks, with unsorted
    /// and repeated targets on both sides of each block edge.
    #[test]
    fn score_xent_matches_the_unfused_chain(
        dims in (1usize..24, 1usize..40, 1usize..40),
        tall in 0u32..4,
        coverage in 0u32..5,
        edge in 0u32..4,
        picks in proptest::collection::vec((0u32..1 << 16, 0u32..1 << 16, 0.25f32..2.0), 1..40),
        norm in 0.5f32..8.0,
        seed in 0u64..1 << 40,
    ) {
        use rand::{Rng, SeedableRng};
        let (slots, d, n_cand) = dims;
        let slots = if tall == 0 { slots + KC } else { slots };
        let (slots, coverage) = match edge {
            0 => (slots, coverage),
            1 => (SCORE_XENT_BLOCK, 4),
            2 => (SCORE_XENT_BLOCK + 1, 4),
            _ => (3 * SCORE_XENT_BLOCK + slots, 4),
        };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut fill = |rows: usize, cols: usize| {
            Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-0.5f32..0.5))
        };
        let n_nodes = n_cand + 3;
        let mut store = ParamStore::new();
        let w_dec = store.create("dec.w", fill(n_nodes, d));
        let b_dec = store.create("dec.b", fill(n_nodes, 1));
        let h_ids = [store.create("h0", fill(slots, d)), store.create("h1", fill(slots / 2 + 1, d))];
        // distinct candidates, not in table order
        let candidates: Rc<Vec<u32>> =
            Rc::new((0..n_cand as u32).map(|c| n_nodes as u32 - 1 - c).collect());
        let levels: Vec<ScoreLevel> = h_ids
            .iter()
            .map(|&h| {
                let rows = store.value(h).rows() as u32;
                // the rows targets may fall on: none, one, half, or all
                let (live, every_row) = match coverage {
                    0 => (0, false),
                    1 => (1, false),
                    2 => (rows.div_ceil(2), false),
                    3 => (rows, false),
                    _ => (rows, true),
                };
                let mut targets: Vec<SparseTarget> = picks
                    .iter()
                    .filter(|_| live > 0)
                    .map(|&(r, c, w)| ((r % live.max(1)) * (rows / live.max(1)), c % n_cand as u32, w))
                    .collect();
                if every_row {
                    targets.extend((0..rows).rev().map(|r| (r, r % n_cand as u32, 1.0)));
                }
                if edge > 0 {
                    let c = |i: u32| i % n_cand as u32;
                    for e in (SCORE_XENT_BLOCK as u32..rows).step_by(SCORE_XENT_BLOCK) {
                        targets.extend([(e, c(e), 0.5), (e - 1, c(e + 1), 1.5), (e, c(e), 0.75)]);
                    }
                }
                if let Some(&first) = targets.first() {
                    targets.push(first); // a repeated (row, col)
                }
                ScoreLevel { h, targets: Rc::new(targets) }
            })
            .collect();
        for kind in available_microkernels() {
            let _g = force_microkernel(kind);
            let run = |fused| score_xent_case(&store, &levels, (w_dec, b_dec), &candidates, norm, fused);
            let (loss, grads) = run(true);
            let (want_loss, want_grads) = run(false);
            let ctx = format!("{kind:?} slots={slots} d={d} |C|={n_cand} coverage={coverage}");
            prop_assert_eq!(loss, want_loss, "{}: loss", ctx);
            let names = ["h0", "h1", "W_dec", "b_dec"];
            for ((got, want), name) in grads.iter().zip(&want_grads).zip(names) {
                let diff = got.iter().zip(want).position(|(a, b)| a != b);
                prop_assert_eq!(diff, None, "{}: first differing element of the {} gradient", ctx, name);
            }
        }
    }
    /// [`Tape::gat_attend`] keeps every bit of the op-by-op attention chain:
    /// the `n_targets × heads·d_head` value and the gradients of every
    /// head's `hw`, `s_src` and `s_dst`, over sorted layouts with targets
    /// no edge names, runs of one edge and runs longer than eight (both
    /// branches of the lane-summed denominator), a source repeated within
    /// a run, trailing sources no edge reads (zero gradient rows), self
    /// slots shared between targets, logits drawn from a few levels (ties
    /// within a run) or all equal, and one to four heads.
    #[test]
    fn gat_attend_matches_the_unfused_chain(
        dims in (1usize..5, 1usize..21, 1usize..13, 1usize..25),
        unread in 0usize..4,
        levels in 0usize..4,
        seed in 0u64..1 << 40,
    ) {
        use rand::{Rng, SeedableRng};
        let (n_heads, d_head, n_targets, n_read) = dims;
        let n_sources = n_read + unread;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let (mut src, mut dst) = (Vec::new(), Vec::new());
        for t in 0..n_targets as u32 {
            let len = match rng.gen_range(0..6) {
                0 => 0,
                1 | 2 => 1,
                3 => rng.gen_range(2..8),
                _ => rng.gen_range(9..40),
            };
            let lo = src.len();
            src.extend((0..len).map(|_| rng.gen_range(0..n_read) as u32));
            if len >= 2 {
                src[lo + 1] = src[lo];
            }
            dst.extend(std::iter::repeat_n(t, len));
        }
        let self_idx: Vec<u32> = (0..n_targets).map(|_| rng.gen_range(0..n_sources) as u32).collect();
        // logits: continuous, a handful of levels, or one value
        let logit = |rng: &mut rand::rngs::SmallRng| match levels {
            0 => rng.gen_range(-3.0f32..3.0),
            1 => rng.gen_range(-2i32..3) as f32 * 0.75,
            2 => rng.gen_range(-40.0f32..40.0),
            _ => 0.5,
        };
        let mut store = ParamStore::new();
        let heads: Vec<[ParamId; 3]> = (0..n_heads)
            .map(|h| {
                let hw = Matrix::from_fn(n_sources, d_head, |_, _| rng.gen_range(-1.0f32..1.0));
                let s_src = Matrix::from_fn(n_sources, 1, |_, _| logit(&mut rng));
                let s_dst = Matrix::from_fn(n_sources, 1, |_, _| logit(&mut rng));
                [
                    store.create(format!("h{h}.hw"), hw),
                    store.create(format!("h{h}.s_src"), s_src),
                    store.create(format!("h{h}.s_dst"), s_dst),
                ]
            })
            .collect();
        let case = GatCase {
            src: Rc::new(src),
            dst: Rc::new(dst),
            self_idx: Rc::new(self_idx),
            heads,
            loss_w: Matrix::from_fn(n_targets, n_heads * d_head, |_, _| rng.gen_range(-1.0f32..1.0)),
        };
        for kind in available_microkernels() {
            let _g = force_microkernel(kind);
            let (_, value, grads) = gat_attend_case(&store, &case, true);
            let (_, want_value, want_grads) = gat_attend_case(&store, &case, false);
            let ctx = format!(
                "{kind:?} heads={n_heads} d_head={d_head} targets={n_targets} sources={n_sources} edges={}",
                case.src.len()
            );
            let diff = value.iter().zip(&want_value).position(|(a, b)| a != b);
            prop_assert_eq!(diff, None, "{}: first differing element of the value", ctx);
            for (i, (got, want)) in grads.iter().zip(&want_grads).enumerate() {
                let name = ["hw", "s_src", "s_dst"][i % 3];
                let diff = got.iter().zip(want).position(|(a, b)| a != b);
                prop_assert_eq!(diff, None, "{}: first differing element of head {}'s {} gradient", ctx, i / 3, name);
            }
        }
    }
}

/// `score_xent` keeps its gradients, not its scores, so a tape can be
/// differentiated through it twice, and both calls return the same bits.
#[test]
fn score_xent_backward_twice_returns_equal_gradients() {
    let mut store = ParamStore::new();
    let h = store.create("h", Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1));
    let w = store.create("w", Matrix::from_fn(5, 4, |r, c| (r + c) as f32 * 0.05));
    let b = store.create("b", Matrix::from_fn(5, 1, |r, _| r as f32 * 0.3 - 0.5));
    let mut tape = Tape::new();
    let hv = tape.param(&store, h);
    let idx = Rc::new(vec![0u32, 2, 4]);
    let w_c = tape.gather_param_rows(&store, w, idx.clone());
    let b_c = tape.gather_param_rows(&store, b, idx);
    let loss = tape.score_xent(hv, w_c, b_c, &[(1, 2, 1.0), (2, 0, 0.5)], 1.5);
    let bits = |grads: &Gradients, id| f32_bits(&grads.get(id).expect("gradient"));
    let (first, second) = (tape.backward(loss), tape.backward(loss));
    for id in [h, w, b] {
        assert_eq!(bits(&first, id), bits(&second, id), "{}", store.name(id));
    }
}

/// Central-difference check of the analytic gradients `run` reports for
/// `ids` against its own f32 loss: every entry of every parameter is
/// moved by ±1e-3, the two losses are differenced in f64, and the
/// gradient must agree within `1e-3 + 1e-2·|numeric|`. `run` returns the
/// loss bits and, in `ids` order, the gradient bits.
fn assert_central_differences(
    store: &mut ParamStore,
    ids: &[ParamId],
    run: impl Fn(&ParamStore) -> (u32, Vec<Vec<u32>>),
) {
    const STEP: f32 = 1e-3;
    let (_, grads) = run(store);
    for (&id, grad) in ids.iter().zip(&grads) {
        for (j, &g) in grad.iter().enumerate() {
            let x = store.value(id).as_slice()[j];
            let mut loss_at = |v: f32| {
                store.value_mut(id).as_mut_slice()[j] = v;
                f32::from_bits(run(store).0) as f64
            };
            let (up, down) = (x + STEP, x - STEP);
            let numeric = (loss_at(up) - loss_at(down)) / (up as f64 - down as f64);
            store.value_mut(id).as_mut_slice()[j] = x;
            let analytic = f32::from_bits(g) as f64;
            assert!(
                (analytic - numeric).abs() <= 1e-3 + 1e-2 * numeric.abs(),
                "{}[{j}]: analytic {analytic:e}, numeric {numeric:e}",
                store.name(id)
            );
        }
    }
}

/// [`Tape::gat_attend`]'s gradients against central differences of its
/// own loss, not against the op-by-op chain. Logits, outputs and `hw` all
/// keep one sign per case, so no ±1e-3 step crosses a LeakyReLU kink, and
/// the two cases between them take both branches of both LeakyReLUs.
#[test]
fn gat_attend_gradients_match_central_differences() {
    use rand::{Rng, SeedableRng};
    for (lo, hi) in [(0.3f32, 1.0f32), (-1.0, -0.3)] {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let (n_sources, d_head, n_targets) = (6, 3, 4);
        let mut store = ParamStore::new();
        let mut fill =
            |rows: usize, cols: usize| Matrix::from_fn(rows, cols, |_, _| rng.gen_range(lo..hi));
        let heads: Vec<[ParamId; 3]> = (0..2)
            .map(|h| {
                [
                    store.create(format!("h{h}.hw"), fill(n_sources, d_head)),
                    store.create(format!("h{h}.s_src"), fill(n_sources, 1)),
                    store.create(format!("h{h}.s_dst"), fill(n_sources, 1)),
                ]
            })
            .collect();
        // runs of one to four edges, a source repeated within a run
        let case = GatCase {
            src: Rc::new(vec![0, 1, 1, 2, 3, 4, 5, 0, 2]),
            dst: Rc::new(vec![0, 0, 0, 1, 2, 2, 2, 2, 3]),
            self_idx: Rc::new(vec![1, 2, 4, 0]),
            loss_w: Matrix::from_fn(n_targets, 2 * d_head, |r, c| {
                ((r * 7 + c * 3) % 5) as f32 * 0.25 - 0.5
            }),
            heads,
        };
        let ids: Vec<ParamId> = case.heads.iter().flatten().copied().collect();
        assert_central_differences(&mut store, &ids, |store| {
            let (loss, _, grads) = gat_attend_case(store, &case, true);
            (loss, grads)
        });
    }
}

/// [`Tape::score_xent`]'s gradients of `h`, `W_dec` and `b_dec` against
/// central differences of its own loss, over two levels that share one
/// candidate set, with a repeated target and a row without one.
#[test]
fn score_xent_gradients_match_central_differences() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
    let (d, n_nodes) = (4, 7);
    let mut fill =
        |rows: usize, cols: usize| Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-0.5f32..0.5));
    let mut store = ParamStore::new();
    let w_dec = store.create("dec.w", fill(n_nodes, d));
    let b_dec = store.create("dec.b", fill(n_nodes, 1));
    let h0 = store.create("h0", fill(5, d));
    let h1 = store.create("h1", fill(3, d));
    let candidates = Rc::new(vec![6u32, 2, 4, 0, 5]);
    let levels = [
        ScoreLevel {
            h: h0,
            targets: Rc::new(vec![(0, 1, 1.0), (3, 4, 0.5), (1, 0, 2.0), (3, 4, 0.5)]),
        },
        ScoreLevel {
            h: h1,
            targets: Rc::new(vec![(2, 3, 1.0), (0, 2, 1.5)]),
        },
    ];
    assert_central_differences(&mut store, &[h0, h1, w_dec, b_dec], |store| {
        score_xent_case(store, &levels, (w_dec, b_dec), &candidates, 3.0, true)
    });
}

/// Order-preserving integer key for f32 so ULP distances are plain
/// integer differences (`-0.0` and `+0.0` map to the same key).
fn ulp_key(x: f32) -> i64 {
    let i = x.to_bits() as i32;
    if i < 0 {
        (i32::MIN as i64) - (i as i64)
    } else {
        i as i64
    }
}

/// Assert element-wise closeness in ULPs, with an absolute-tolerance
/// escape hatch for results near zero (where cancellation makes ULP
/// distance meaningless).
fn assert_ulp_close(a: &Matrix, b: &Matrix, max_ulp: i64, abs_tol: f32, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        if (x - y).abs() <= abs_tol {
            continue;
        }
        let d = (ulp_key(*x) - ulp_key(*y)).abs();
        assert!(d <= max_ulp, "{ctx}: elem {i}: {x} vs {y} ({d} ULP)");
    }
}

/// Fringe shapes shared by the per-ISA parity tests: MR/NR remainder
/// tiles, KC block boundaries, NC (jc-slice) boundaries and remainders,
/// K=0, and the AVX-512 tile geometry (MR=8/NR=32) edges.
const PARITY_SHAPES: &[(usize, usize, usize)] = &[
    (4, 256, 16),  // exact portable MR/KC/NR tile boundaries
    (8, 256, 32),  // exact AVX-512 MR/NR tile boundaries
    (9, 257, 33),  // one past each AVX-512 boundary
    (7, 255, 31),  // one short of each AVX-512 boundary
    (5, 257, 17),  // one past each portable boundary
    (3, 255, 15),  // one short of each portable boundary
    (1, 4096, 16), // single output row, many KC blocks
    (2, 2048, 3),  // sub-NR panel width
    (64, 0, 64),   // K = 0: output must be exactly zero
    (6, 64, 512),  // exactly one NC slice
    (5, 100, 513), // NC remainder of one column
    (3, 70, 1025), // two NC slices + remainder
    (33, 100, 47), // nothing aligned
];

/// Forced-vs-portable microkernel parity on **integer-valued** operands:
/// every product and partial sum is exactly representable in f32, so FMA
/// contraction cannot change any rounding and every kernel must agree
/// **bitwise** with the portable tile — on every transpose variant,
/// every available ISA level, and across the fringe shapes above.
#[test]
fn simd_matmul_bitwise_on_integer_data() {
    assert!(
        available_microkernels().contains(&MicrokernelKind::Portable),
        "portable fallback missing from the dispatch list"
    );
    for &(m, k, n) in PARITY_SHAPES {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 3 + c * 11) % 7) as f32 - 3.0);
        let b = Matrix::from_fn(k, n, |r, c| ((r * 5 + c * 2) % 9) as f32 - 4.0);
        let bt = b.transpose();
        let at = a.transpose();
        let (p_nn, p_nt, p_tn) = {
            let _g = force_microkernel(MicrokernelKind::Portable);
            assert_eq!(active_microkernel(), MicrokernelKind::Portable);
            (matmul_nn(&a, &b), matmul_nt(&a, &bt), matmul_tn(&at, &b))
        };
        if k == 0 {
            assert!(p_nn.as_slice().iter().all(|&v| v == 0.0), "K=0 non-zero");
        }
        for kind in available_microkernels() {
            let _g = force_microkernel(kind);
            assert_eq!(active_microkernel(), kind);
            assert_eq!(p_nn, matmul_nn(&a, &b), "{kind:?} nn ({m},{k},{n})");
            assert_eq!(p_nt, matmul_nt(&a, &bt), "{kind:?} nt ({m},{k},{n})");
            assert_eq!(p_tn, matmul_tn(&at, &b), "{kind:?} tn ({m},{k},{n})");
        }
    }
}

/// Forced-vs-portable microkernel parity on fractional operands: FMA
/// keeps one rounding per multiply-add where the portable tile keeps
/// two, so results drift by a few ULP — bounded here by an accumulation-
/// length-scaled budget, for each available ISA level across the same
/// fringe shapes.
#[test]
fn simd_matmul_matches_portable_within_ulp() {
    for &(m, k, n) in PARITY_SHAPES {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 23) as f32 * 0.093 - 1.0);
        let b = Matrix::from_fn(k, n, |r, c| ((r * 13 + c * 5) % 19) as f32 * 0.081 - 0.7);
        let bt = b.transpose();
        let at = a.transpose();
        let (p_nn, p_nt, p_tn) = {
            let _g = force_microkernel(MicrokernelKind::Portable);
            (matmul_nn(&a, &b), matmul_nt(&a, &bt), matmul_tn(&at, &b))
        };
        // error random-walks with accumulation length; 2*sqrt(k)+16 ULP is
        // a generous envelope (observed maxima are far below it)
        let budget = 2 * (k as f64).sqrt() as i64 + 16;
        let abs_tol = 1e-6 * (k as f32).sqrt();
        for kind in available_microkernels() {
            if kind == MicrokernelKind::Portable {
                continue; // comparing portable to itself proves nothing
            }
            let _g = force_microkernel(kind);
            let ctx = |op: &str| format!("{kind:?} {op} ({m},{k},{n})");
            assert_ulp_close(&p_nn, &matmul_nn(&a, &b), budget, abs_tol, &ctx("nn"));
            assert_ulp_close(&p_nt, &matmul_nt(&a, &bt), budget, abs_tol, &ctx("nt"));
            assert_ulp_close(&p_tn, &matmul_tn(&at, &b), budget, abs_tol, &ctx("tn"));
        }
    }
}

/// All FMA kernels (AVX2, AVX-512) must agree **bitwise with each other**
/// on arbitrary fractional data: both keep a single accumulator per
/// output element and contract every multiply-add in one rounding, in
/// the same ascending-k order, so the tile shape cannot change results.
#[test]
fn fma_kernels_agree_bitwise_across_isa_levels() {
    let fma: Vec<MicrokernelKind> = available_microkernels()
        .into_iter()
        .filter(|&k| k != MicrokernelKind::Portable)
        .collect();
    if fma.len() < 2 {
        return; // only one FMA level on this host: nothing to compare
    }
    for &(m, k, n) in PARITY_SHAPES {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 23) as f32 * 0.093 - 1.0);
        let b = Matrix::from_fn(k, n, |r, c| ((r * 13 + c * 5) % 19) as f32 * 0.081 - 0.7);
        let reference = {
            let _g = force_microkernel(fma[0]);
            matmul_nn(&a, &b)
        };
        for &kind in &fma[1..] {
            let _g = force_microkernel(kind);
            assert_eq!(
                reference,
                matmul_nn(&a, &b),
                "{:?} vs {kind:?} ({m},{k},{n})",
                fma[0]
            );
        }
    }
}

/// Dimensions the FMA chain spec draws from: tile and panel edges, `KC`
/// edges, a generation unit's score (`m ≤ 64` against `|C| = 1743`), a
/// `dblp_dense` backward (`k = 1909`), and sizes either side of the
/// tiled driver's packing rule.
const CHAIN_M: [usize; 7] = [1, 8, 17, 32, 33, 64, 1300];
const CHAIN_N: [usize; 7] = [1, 16, 17, 32, 33, 190, 1743];
const CHAIN_K: [usize; 6] = [16, 32, 255, 256, 257, 1909];
/// Largest `m·k·n` the chain spec multiplies: it keeps the scalar
/// reference cheap in a debug build and still admits `1300×16×190`, a
/// tall product against a wide B read in place.
const CHAIN_BUDGET: usize = 1 << 22;

/// `C[r, j]` as the FMA tiles are specified to compute it: one
/// `f32::mul_add` chain over ascending `k`, from `+0.0`.
fn mul_add_chain(
    m: usize,
    k: usize,
    n: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Vec<u32> {
    let mut out = Vec::with_capacity(m * n);
    for r in 0..m {
        for j in 0..n {
            let c = (0..k).fold(0.0f32, |acc, kk| a(r, kk).mul_add(b(kk, j), acc));
            out.push(c.to_bits());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The bit spec of the tiled path under every FMA kernel: each element
    /// of `matmul_{nn,nt,tn}` is exactly [`mul_add_chain`]'s, whatever the
    /// driver packs, reads in place or computes transposed. An `nt` with
    /// `m < n` and `m ≤ 64` computes `Cᵀ` (the swap), any other `nt` packs
    /// B, and `nn` and `tn` read both operands in place; the sets reach
    /// both sides of the swap rule, the `KC` boundary and the column
    /// fringes. Row 0 of A is `-0.0`, so a
    /// chain that started from `-0.0` would show in the bits.
    #[test]
    fn fma_tiles_are_one_mul_add_chain(
        dims in (0usize..CHAIN_M.len(), 0usize..CHAIN_N.len(), 0usize..CHAIN_K.len()),
        seed in 0u64..u64::MAX,
    ) {
        use rand::{Rng, SeedableRng};
        let (m, n) = (CHAIN_M[dims.0], CHAIN_N[dims.1]);
        // the k of the draw, or the next one down that fits the budget
        let fits = |k: usize| (TILE_THRESHOLD..=CHAIN_BUDGET).contains(&(m * k * n));
        let Some(&k) = CHAIN_K[..=dims.2].iter().rev().find(|&&k| fits(k)) else {
            return;
        };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut draw = |rows: usize, cols: usize, zero_row: bool| {
            Matrix::from_fn(rows, cols, |r, _| {
                if zero_row && r == 0 { -0.0 } else { rng.gen_range(-1.0f32..1.0) }
            })
        };
        let (a, b) = (draw(m, k, true), draw(k, n, false));
        let (at, bt) = (a.transpose(), b.transpose());
        let want = mul_add_chain(m, k, n, |r, kk| a.get(r, kk), |kk, j| b.get(kk, j));
        for kind in available_microkernels() {
            if kind == MicrokernelKind::Portable {
                continue;
            }
            let _g = force_microkernel(kind);
            for (op, got) in [
                ("nn", matmul_nn(&a, &b)),
                ("nt", matmul_nt(&a, &bt)),
                ("tn", matmul_tn(&at, &b)),
            ] {
                prop_assert_eq!(got.shape(), (m, n));
                let got: Vec<u32> = got.as_slice().iter().map(|x| x.to_bits()).collect();
                prop_assert!(got == want, "{kind:?} {op} ({m},{k},{n}) is not the mul_add chain");
            }
        }
    }

    /// A product cut along `k` into ascending pieces — of one step, of
    /// fewer than `KC` and of more — and accumulated piece by piece
    /// (`Start::Zero` over an output of NaNs, then `Start::Continue`) is
    /// bit-identical to one call over the whole of `k`: `tn`, whose pieces
    /// are row blocks of both stored operands (`Tape::score_xent`'s
    /// `∂W_c`), and `nn`, which one column reaches the matvec with; for
    /// every microkernel and on both loop nests. The operands carry signed
    /// zeros and subnormals, which the naive loops skip or keep.
    #[test]
    fn continued_matmul_matches_one_call(
        m in 1usize..40,
        n in 1usize..40,
        pieces in proptest::collection::vec(0u32..3, 1..5),
        seed in 0u64..u64::MAX,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut cuts = vec![0usize];
        for class in pieces {
            let len = match class {
                0 => 1,
                1 => rng.gen_range(2..KC),
                _ => rng.gen_range(KC + 1..KC + 100),
            };
            cuts.push(cuts[cuts.len() - 1] + len);
        }
        let k = cuts[cuts.len() - 1];
        let a = Matrix::from_fn(m, k, |_, _| edgy_value(&mut rng));
        let b = Matrix::from_fn(k, n, |_, _| edgy_value(&mut rng));
        let at = a.transpose();
        let bits = |out: &[f32]| out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for kind in available_microkernels() {
            let _g = force_microkernel(kind);
            for path in [GemmPath::Naive, GemmPath::Tiled] {
                for layout in [Layout::Transposed, Layout::RowMajor] {
                    let whole_a = match layout {
                        Layout::Transposed => &at,
                        Layout::RowMajor => &a,
                    };
                    let mut whole = vec![f32::NAN; m * n];
                    matmul_into_on(path, whole_a.into(), layout, (&b).into(), Layout::RowMajor, &mut whole, Start::Zero);
                    let mut cut = vec![f32::NAN; m * n];
                    for (p, piece) in cuts.windows(2).enumerate() {
                        let (k0, k1) = (piece[0], piece[1]);
                        let start = if p == 0 { Start::Zero } else { Start::Continue };
                        let a_cols;
                        let a_piece = match layout {
                            Layout::Transposed => at.row_block(k0..k1),
                            Layout::RowMajor => {
                                a_cols = Matrix::from_fn(m, k1 - k0, |r, c| a.get(r, k0 + c));
                                (&a_cols).into()
                            }
                        };
                        matmul_into_on(path, a_piece, layout, b.row_block(k0..k1), Layout::RowMajor, &mut cut, start);
                    }
                    prop_assert!(
                        bits(&cut) == bits(&whole),
                        "{kind:?} {path:?} {layout:?} ({m},{k},{n}) cut at {cuts:?}"
                    );
                }
            }
        }
    }
}

/// The force guard restores the previous selection on drop, nests, and
/// stays scoped to its thread (concurrent tests cannot observe it).
#[test]
fn force_microkernel_guard_scopes_and_nests() {
    let detected = active_microkernel();
    {
        let _g = force_microkernel(MicrokernelKind::Portable);
        assert_eq!(active_microkernel(), MicrokernelKind::Portable);
        {
            let inner = *available_microkernels().first().unwrap();
            let _g2 = force_microkernel(inner);
            assert_eq!(active_microkernel(), inner);
        }
        assert_eq!(active_microkernel(), MicrokernelKind::Portable);
        // Another thread sees normal runtime detection while this
        // thread's override is in force.
        let other = std::thread::spawn(active_microkernel).join().unwrap();
        assert_eq!(other, detected);
    }
    assert_eq!(active_microkernel(), detected);
}

/// Scalar f64 reference for the segment-softmax backward formula.
fn segment_backward_reference(y: &Matrix, g: &Matrix, seg: &[u32], n_seg: usize) -> Vec<f32> {
    let mut dot = vec![0.0f64; n_seg];
    for (j, &s) in seg.iter().enumerate() {
        dot[s as usize] += g.as_slice()[j] as f64 * y.as_slice()[j] as f64;
    }
    seg.iter()
        .enumerate()
        .map(|(j, &s)| {
            let yj = y.as_slice()[j] as f64;
            (yj * (g.as_slice()[j] as f64 - dot[s as usize])) as f32
        })
        .collect()
}

/// Random sorted segment layouts (uneven runs, including empty segments)
/// where the vectorised segment softmax and its backward must match the
/// scalar f64 reference implementations.
#[test]
fn segment_softmax_vectorised_matches_naive_on_random_layouts() {
    let mut state = 0xdead_beef_cafe_1234u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for case in 0..40 {
        let n_edges = 1 + (next() % 300) as usize;
        let n_seg = 1 + (next() % 24) as usize;
        let mut seg: Vec<u32> = (0..n_edges)
            .map(|_| (next() % n_seg as u64) as u32)
            .collect();
        seg.sort_unstable();
        let scores: Vec<f32> = (0..n_edges)
            .map(|_| ((next() % 2000) as f32 / 100.0) - 10.0)
            .collect();
        let m = Matrix::from_vec(n_edges, 1, scores);
        let fast = segment_softmax(&m, &seg, n_seg);
        let naive = segment_softmax_naive(&m, &seg, n_seg);
        assert_close(&fast, &naive, 1e-4);

        let g: Vec<f32> = (0..n_edges)
            .map(|_| ((next() % 400) as f32 / 100.0) - 2.0)
            .collect();
        let g = Matrix::from_vec(n_edges, 1, g);
        let back = segment_softmax_backward(&fast, &g, &seg, n_seg);
        let reference = segment_backward_reference(&fast, &g, &seg, n_seg);
        for (j, (&got, &want)) in back.as_slice().iter().zip(&reference).enumerate() {
            assert!(
                (got - want).abs() <= 1e-5 * (1.0 + want.abs()),
                "case {case} edge {j}: {got} vs {want}"
            );
        }
    }
}

/// Fixed-shape parity cases the random generator is unlikely to hit:
/// degenerate row/column vectors, empty matrices, and exact tile-boundary
/// shapes (multiples of MR/NR/KC).
#[test]
fn tiled_matmul_edge_shapes() {
    let shapes: &[(usize, usize, usize)] = &[
        (1, 64, 64), // single row
        (64, 64, 1), // single column
        (1, 1, 1),
        (0, 8, 8),    // empty output rows
        (8, 0, 8),    // empty inner dimension
        (8, 8, 0),    // empty output cols
        (4, 256, 16), // exact MR/KC/NR boundaries
        (5, 257, 17), // one past each boundary
        (3, 255, 15), // one short of each boundary
        (17, 31, 129),
    ];
    for &(m, k, n) in shapes {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 3 + c * 11) % 7) as f32 - 3.0);
        let b = Matrix::from_fn(k, n, |r, c| ((r * 5 + c * 2) % 9) as f32 - 4.0);
        let tiled = matmul_nn(&a, &b);
        let naive = matmul_nn_naive(&a, &b);
        assert_eq!(tiled.shape(), (m, n));
        for (x, y) in tiled.as_slice().iter().zip(naive.as_slice()) {
            assert!(
                (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())),
                "({m},{k},{n}): {x} vs {y}"
            );
        }
        let bt = Matrix::from_fn(n, k, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);
        let tiled = matmul_nt(&a, &bt);
        let naive = matmul_nt_naive(&a, &bt);
        for (x, y) in tiled.as_slice().iter().zip(naive.as_slice()) {
            assert!(
                (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())),
                "nt ({m},{k},{n})"
            );
        }
        let at = Matrix::from_fn(k, m, |r, c| ((r * 2 + c * 13) % 11) as f32 - 5.0);
        let tiled = matmul_tn(&at, &b);
        let naive = matmul_tn_naive(&at, &b);
        for (x, y) in tiled.as_slice().iter().zip(naive.as_slice()) {
            assert!(
                (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())),
                "tn ({m},{k},{n})"
            );
        }
    }
}

/// A one-column `matmul_nn` runs on a row walk of its own, and every
/// output bit is still the one the loop nest it stands in for produces:
/// `matmul_nn_naive` below [`TILE_THRESHOLD`] (ascending `k`, multiply then
/// add, a zero `a` skipped), column 0 of a two-column product through the
/// tiled driver above it (one fused chain under the FMA kernels, multiply
/// then add under the portable one, no skip). Each shape runs twice: on
/// finite operands with exact zeros in `a`, and with an `∞` in `b`
/// opposite a column of zeros, where the skip is observable — the naive
/// rows stay finite, the tiled ones are the NaN of `0 · ∞`. Shapes
/// straddle the eight-row blocks of the walk, the driver's `KC` blocks and
/// its parallel split; every microkernel of this CPU is swept.
#[test]
fn matvec_keeps_the_bits_of_the_path_it_replaces() {
    let same = |x: f32, y: f32| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
    let fill = |r: usize, c: usize| ((r * 31 + c * 17 + r * c) % 23) as f32 / 23.0 - 0.5;
    for kind in available_microkernels() {
        let _g = force_microkernel(kind);
        for (m, k, poisoned) in [1usize, 7, 8, 9, 255, 256, 257, 3000]
            .into_iter()
            .flat_map(|m| [1usize, 16, 255, 256, 257, 600].map(|k| (m, k)))
            .flat_map(|(m, k)| [(m, k, false), (m, k, true)])
        {
            let hot = k / 2;
            let a = Matrix::from_fn(m, k, |r, c| {
                if c == hot || (r + c) % 11 == 0 {
                    0.0
                } else {
                    fill(r, c)
                }
            });
            let b = Matrix::from_fn(k, 1, |r, _| {
                if poisoned && r == hot {
                    f32::INFINITY
                } else {
                    fill(r, 3)
                }
            });
            let got = matmul_nn(&a, &b);
            let tiled = m * k >= TILE_THRESHOLD;
            let want: Vec<f32> = if tiled {
                let b2 =
                    Matrix::from_fn(k, 2, |r, c| if c == 0 { b.get(r, 0) } else { fill(r, 5) });
                let wide = matmul_nn(&a, &b2);
                (0..m).map(|r| wide.get(r, 0)).collect()
            } else {
                matmul_nn_naive(&a, &b).as_slice().to_vec()
            };
            let ctx = format!("{kind:?} {m}x{k} tiled={tiled} poisoned={poisoned}");
            for (r, (&x, &y)) in got.as_slice().iter().zip(&want).enumerate() {
                assert!(same(x, y), "{ctx} row {r}: {x:e} vs {y:e}");
                assert_eq!(x.is_nan(), tiled && poisoned, "{ctx} row {r}: {x:e}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Generation's candidate-major softmax leaves every column exactly
    /// as the row kernel leaves the transposed row: `(x + b) / τ`, then
    /// [`exp_row`], then the `inv` scale — or the exponentials alone when
    /// the denominator is not positive. The candidate counts reach below
    /// one lane block of eight, and past it by a remainder; the logits
    /// carry `±∞` and NaN (a column whose max is `+∞`, or all `−∞`, or
    /// any NaN has a NaN denominator), and every column is finished,
    /// whether it holds a score row or pads the block.
    #[test]
    fn softmax_cols_is_exp_row_on_each_column(
        n_cands in 0usize..42,
        lane_blocks in 1usize..4,
        specials in 0u32..4,
        seed in 0u64..u64::MAX,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let width = 8 * lane_blocks;
        let tau = if rng.gen_bool(0.3) { 1.0 } else { rng.gen_range(0.05f32..3.0) };
        let special = [0.0, 0.02, 0.2, 0.6][specials as usize];
        let mut logit = || {
            if rng.gen_bool(special) {
                [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.gen_range(0..3usize)]
            } else {
                rng.gen_range(-30.0f32..30.0)
            }
        };
        let scores: Vec<f32> = (0..n_cands * width).map(|_| logit()).collect();
        let bias: Vec<f32> = (0..n_cands).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let mut got = scores.clone();
        softmax_cols_inplace(&mut got, width, &bias, tau);
        for j in 0..width {
            let mut row: Vec<f32> = (0..n_cands)
                .map(|c| (scores[c * width + j] + bias[c]) / tau)
                .collect();
            if let (_, Some(inv)) = exp_row(&mut row) {
                for v in row.iter_mut() {
                    *v *= inv;
                }
            }
            for (c, want) in row.iter().enumerate() {
                prop_assert_eq!(
                    got[c * width + j].to_bits(),
                    want.to_bits(),
                    "column {} candidate {} of {}",
                    j,
                    c,
                    n_cands
                );
            }
        }
    }

    /// The candidate-major score product is the transpose of the row
    /// product it replaces, bit for bit: column `i` of
    /// `matmul_nt_transposed(H, m, W)` is row `i` of `matmul_nt(H[..m], W)`
    /// under every microkernel, on both sides of `TILE_THRESHOLD` (the
    /// path comes from the unpadded `m × k × n`, which the padded product
    /// can lie on the other side of), on both sides of the row product's
    /// swap (`m < n`, `m ≤ 64`) and with `|C|` below the padded width.
    /// The rows past `m` are zeros, as generation pads them, or values,
    /// which must not reach the first `m` columns either.
    #[test]
    fn matmul_nt_transposed_is_the_transpose(
        classes in (0u32..2, 0u32..3, 0u32..2),
        zero_pad in 0u32..2,
        seed in 0u64..u64::MAX,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let m = [rng.gen_range(1usize..20), rng.gen_range(60usize..70)][classes.0 as usize];
        let k = [rng.gen_range(1usize..8), 32, rng.gen_range(30usize..70)][classes.1 as usize];
        let n = [rng.gen_range(1usize..12), rng.gen_range(12usize..300)][classes.2 as usize];
        let zero_pad = zero_pad == 1;
        let width = m.next_multiple_of(8);
        let h = Matrix::from_fn(width, k, |r, _| {
            if r >= m && zero_pad { 0.0 } else { edgy_value(&mut rng) }
        });
        let w = Matrix::from_fn(n, k, |_, _| edgy_value(&mut rng));
        let h_rows = Matrix::from_fn(m, k, |r, c| h.get(r, c));
        for kind in available_microkernels() {
            let _g = force_microkernel(kind);
            let want = matmul_nt(&h_rows, &w);
            let got = matmul_nt_transposed(&h, m, (&w).into());
            prop_assert_eq!(got.shape(), (n, width));
            for i in 0..m {
                for c in 0..n {
                    prop_assert_eq!(
                        got.get(c, i).to_bits(),
                        want.get(i, c).to_bits(),
                        "{:?} ({},{},{}) row {} candidate {}",
                        kind, m, k, n, i, c
                    );
                }
            }
        }
    }
}
