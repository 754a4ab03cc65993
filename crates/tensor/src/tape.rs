//! Reverse-mode automatic differentiation on a flat tape.
//!
//! A [`Tape`] records every operation of a forward pass as a node
//! holding its output [`Matrix`] and an op descriptor describing how to push
//! gradients to its inputs. [`Tape::backward`] walks the tape in reverse and
//! returns per-parameter gradients keyed by [`ParamId`].
//!
//! The op set is exactly what the TGAE encoder/decoder and the learned
//! baselines need: dense linear algebra, pointwise activations, row
//! gather/scatter, segment softmax (graph-attention edge softmax) and the
//! whole attention step of a bipartite layer in one op
//! ([`Tape::gat_attend`]), and fused losses (multi-target softmax
//! cross-entropy — alone, and fused with the candidate scoring that feeds
//! it — BCE-with-logits, Gaussian KL). Fused losses keep the tape short
//! and sidestep `log(0)`.

use crate::gemm::Layout::{self, RowMajor, Transposed};
use crate::gemm::{matmul, matmul_into_on, matmul_tn, GemmPath};
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::rows::{concat_cols, gather_rows, rowwise_dot, scale_rows, scatter_add_rows};
use crate::softmax::{
    fast_exp, gat_attend_head, gat_attend_head_backward, row_softmax_stats, seg_is_sorted,
    segment_softmax, segment_softmax_backward, softmax_rows, GatHead, GatHeadGrads,
};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Handle to a node on the tape. Cheap to copy; only valid for the tape that
/// created it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// Sparse supervision target for [`Tape::softmax_xent`]: `(row, col, weight)`.
pub type SparseTarget = (u32, u32, f32);

enum Op {
    /// Constant input; gradients stop here.
    Input,
    /// Trainable leaf; gradients are collected into [`Gradients`].
    Param(ParamId),
    /// `a @ op(b)`, with `b` read in the layout carried: `b^T` without
    /// materialising the transpose when it is `Transposed`.
    MatMul(Var, Var, Layout),
    Transpose(Var),
    Add(Var, Var),
    Mul(Var, Var),
    /// Broadcast-add a `1xC` bias row onto an `RxC` matrix.
    AddRow(Var, Var),
    Scale(Var, f32),
    LeakyRelu(Var, f32),
    Relu(Var),
    Sigmoid(Var),
    Tanh(Var),
    Exp(Var),
    ConcatCols(Var, Var),
    GatherRows(Var, Rc<Vec<u32>>),
    /// Fused row lookup straight from the parameter store (embedding
    /// tables, decoder rows): forward copied or decoded only the indexed
    /// rows to f32; backward scatter-adds the row gradients into a
    /// full-shape f32 gradient for the table.
    GatherParamRows {
        id: ParamId,
        idx: Rc<Vec<u32>>,
        /// Row count of the source table (gradient shape).
        table_rows: usize,
    },
    ScatterAddRows(Var, Rc<Vec<u32>>),
    SegmentSoftmax(Var, Rc<Vec<u32>>),
    /// Every head's edge attention of one bipartite layer
    /// ([`Tape::gat_attend`]). Boxed for the reason `ScoreXent` is.
    GatAttend(Box<GatAttend>),
    ScaleRows(Var, Var),
    RowwiseDot(Var, Var),
    Sum(Var),
    /// Fused softmax cross-entropy with flash-style recompute: only the
    /// per-row `(max, inv_denom)` statistics are retained; backward
    /// rebuilds probabilities from the logits node value row by row
    /// instead of reading an `O(rows × cols)` probs matrix.
    SoftmaxXent {
        logits: Var,
        targets: Rc<Vec<SparseTarget>>,
        norm: f32,
        /// `(max, inv_denom)` per logits row; only rows that carry at
        /// least one target are filled (others stay `(0, 0)` and are
        /// never read).
        stats: Vec<(f32, f32)>,
    },
    /// Reference softmax cross-entropy that materialises the full probs
    /// matrix (the pre-fusion implementation). Kept for the
    /// fused-vs-materialised parity tests; recorded by
    /// [`Tape::softmax_xent_materialised`].
    SoftmaxXentMaterialised {
        logits: Var,
        probs: Matrix,
        targets: Rc<Vec<SparseTarget>>,
        norm: f32,
    },
    /// Candidate scoring fused with its softmax cross-entropy
    /// ([`Tape::score_xent`]). Boxed: its state is three times the size of
    /// any other op's, and every node of every tape would carry it.
    ScoreXent(Box<ScoreXent>),
    BceWithLogits {
        logits: Var,
        targets: Rc<Matrix>,
    },
    KlNormal {
        mu: Var,
        logvar: Var,
        scale: f32,
    },
}

/// State of an [`Op::ScoreXent`] node: what [`Tape::score_xent`] scored,
/// over the rows of `h` that carry a target.
struct ScoreXent {
    h: Var,
    w_c: Var,
    b_c: Var,
    /// Rows of `h` with at least one target, ascending.
    rows: Vec<u32>,
    /// The targets in the caller's order, their row an index into `rows`.
    targets: Vec<SparseTarget>,
    norm: f32,
    /// Those rows of `h`, gathered (`R × d`).
    h_rows: Matrix,
    /// `(max, inv_denom)` of each scored row.
    stats: Vec<(f32, f32)>,
    /// The `R × |C|` logits, bias added, until backward turns them into
    /// their own gradient in place and sets `differentiated`: the op can
    /// be differentiated once.
    logits: RefCell<Matrix>,
    differentiated: Cell<bool>,
}

/// State of an [`Op::GatAttend`] node.
struct GatAttend {
    /// Per head `(hw, s_src, s_dst)`.
    heads: Vec<(Var, Var, Var)>,
    src: Rc<Vec<u32>>,
    dst: Rc<Vec<u32>>,
    self_idx: Rc<Vec<u32>>,
    slope: f32,
    /// The attention weights, `heads × edges`: row `h` is head `h`'s
    /// softmax over each target's edge run.
    alpha: Matrix,
}

impl GatAttend {
    /// Head `h`'s operands as the kernels take them.
    fn head<'a>(&'a self, tape: &'a Tape, h: usize) -> GatHead<'a> {
        let (hw, s_src, s_dst) = self.heads[h];
        GatHead {
            hw: tape.value(hw),
            s_src: tape.value(s_src).as_slice(),
            s_dst: tape.value(s_dst).as_slice(),
            src: &self.src,
            dst: &self.dst,
            self_idx: &self.self_idx,
            slope: self.slope,
        }
    }
}

struct Node {
    value: Matrix,
    op: Op,
    needs_grad: bool,
}

/// Gradients of a scalar loss with respect to every parameter that was
/// touched on the tape. Indexed by [`ParamId`].
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient for a parameter, if it participated in the loss.
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        self.grads.get(id.index()).and_then(|g| g.as_ref())
    }

    /// Iterate over `(ParamId, gradient)` pairs that are present.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.grads
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|m| (ParamId::from_index(i), m)))
    }

    /// Global L2 norm over all gradients (for clipping diagnostics).
    pub fn global_norm(&self) -> f64 {
        self.grads
            .iter()
            .flatten()
            .map(|g| {
                let n = g.frobenius_norm();
                n * n
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Scale every gradient in place (used for clipping).
    pub fn scale_all(&mut self, f: f32) {
        for g in self.grads.iter_mut().flatten() {
            g.map_inplace(|x| x * f);
        }
    }
}

/// Records a forward pass and differentiates it.
///
/// Every node value, backward intermediate and gradient is allocated
/// fresh, and [`Tape::clear`] frees them all: a tape holds no buffer
/// between steps. (A pool that kept them for the next step bought no time
/// and held 64 MiB per tape; ARCHITECTURE "Tape memory".)
pub struct Tape {
    nodes: Vec<Node>,
    n_params: usize,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// One persistent tape per OS thread, absent while a
    /// [`Tape::with_thread_local`] call on this thread is using it.
    static THREAD_TAPE: Cell<Option<Tape>> = const { Cell::new(None) };
}

impl Tape {
    /// Empty tape.
    pub fn new() -> Self {
        Tape {
            nodes: Vec::with_capacity(64),
            n_params: 0,
        }
    }

    /// Run `f` with this thread's **persistent tape**.
    ///
    /// The tape lives for the thread's lifetime, so forward passes
    /// executed on the persistent worker pool (`crate::parallel`) reuse
    /// its node list across work items. The tape is [`Tape::clear`]ed
    /// before `f` runs and after it returns.
    ///
    /// The tape is taken out of its thread-local slot while `f` runs, so
    /// `f` may re-enter: a pool thread that waits for a parallel gemm
    /// inside `f` helps by running other queued work, which can be another
    /// `with_thread_local` call on the same stack. The inner call finds
    /// the slot empty and runs on a fresh tape; results never depend on
    /// which tape recorded them.
    pub fn with_thread_local<R>(f: impl FnOnce(&mut Tape) -> R) -> R {
        let mut tape = THREAD_TAPE.take().unwrap_or_default();
        tape.clear();
        let out = f(&mut tape);
        // clear on the way out too, so an idle worker holds no activations
        tape.clear();
        THREAD_TAPE.set(Some(tape));
        out
    }

    /// Drop all recorded nodes and free their buffers. The tape is ready
    /// to record a fresh forward pass.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.n_params = 0;
    }

    /// Drops `grads`; kept because the frozen suite calls it.
    pub fn recycle(&self, grads: Gradients) {
        drop(grads);
    }

    fn push(&mut self, value: Matrix, op: Op, needs_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            op,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Value of a node (forward result).
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Mutable value of node `v` next to the value of an earlier node
    /// `with`, for **forward-only** passes that finish a result where it
    /// lies (generation adds the candidate biases to its score matrix,
    /// divides by the temperature and normalises the rows in place). Ops
    /// record no copy of their inputs, so a [`Tape::backward`] through `v`
    /// afterwards would read the overwritten values.
    ///
    /// # Panics
    /// If `with` was not recorded before `v`.
    pub fn value_mut_with(&mut self, v: Var, with: Var) -> (&mut Matrix, &Matrix) {
        assert!(with.0 < v.0, "value_mut_with: `with` must precede `v`");
        let (before, from_v) = self.nodes.split_at_mut(v.0);
        (&mut from_v[0].value, &before[with.0].value)
    }

    /// Shape convenience.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no operations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Insert a constant (non-differentiable) input.
    pub fn input(&mut self, m: Matrix) -> Var {
        self.push(m, Op::Input, false)
    }

    /// Insert a trainable parameter leaf, copying its current value from the
    /// store. Gradients flow into the returned slot of [`Gradients`].
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.n_params = self.n_params.max(id.index() + 1);
        self.push(store.value(id).clone(), Op::Param(id), true)
    }

    /// Record an element-wise unary op.
    fn map_op(&mut self, x: Var, op: Op, f: impl Fn(f32) -> f32) -> Var {
        let v = self.value(x).map(f);
        let ng = self.needs(x);
        self.push(v, op, ng)
    }

    /// Record an element-wise binary op.
    fn zip_op(&mut self, a: Var, b: Var, op: Op, f: impl Fn(f32, f32) -> f32) -> Var {
        let v = self.value(a).zip(self.value(b), f);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, op, ng)
    }

    /// `a @ b`
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.matmul_op(a, b, RowMajor)
    }

    /// `a @ b^T` — scores every row of `a` against every row of `b`
    /// (candidate-set decoding uses this with `b` = gathered decoder rows).
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        self.matmul_op(a, b, Transposed)
    }

    /// Record `a @ op(b)` with `b` read in `b_layout`.
    fn matmul_op(&mut self, a: Var, b: Var, b_layout: Layout) -> Var {
        let v = matmul(self.value(a), RowMajor, self.value(b), b_layout);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::MatMul(a, b, b_layout), ng)
    }

    /// Transposed copy of `x`.
    pub fn transpose(&mut self, x: Var) -> Var {
        let (r, c) = self.shape(x);
        let mut v = Matrix::zeros(c, r);
        let src = self.value(x);
        for i in 0..r {
            for (j, &s) in src.row(i).iter().enumerate() {
                v.set(j, i, s);
            }
        }
        let ng = self.needs(x);
        self.push(v, Op::Transpose(x), ng)
    }

    /// Element-wise `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.shape(a), self.shape(b), "add: shape mismatch");
        self.zip_op(a, b, Op::Add(a, b), |x, y| x + y)
    }

    /// Hadamard product `a * b` (same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.shape(a), self.shape(b), "mul: shape mismatch");
        self.zip_op(a, b, Op::Mul(a, b), |x, y| x * y)
    }

    /// `x + bias` where `bias` is `1xC` broadcast over the rows of `x`.
    pub fn add_row(&mut self, x: Var, bias: Var) -> Var {
        let (xr, xc) = self.shape(x);
        assert_eq!(self.shape(bias), (1, xc), "add_row: bias must be 1x{xc}");
        let mut v = Matrix::zeros(xr, xc);
        let x_val = self.value(x);
        let b_val = self.value(bias);
        for r in 0..xr {
            for ((o, &xv), &bv) in v.row_mut(r).iter_mut().zip(x_val.row(r)).zip(b_val.row(0)) {
                *o = xv + bv;
            }
        }
        let ng = self.needs(x) || self.needs(bias);
        self.push(v, Op::AddRow(x, bias), ng)
    }

    /// `c * x` for a compile-time constant scalar.
    pub fn scale(&mut self, x: Var, c: f32) -> Var {
        self.map_op(x, Op::Scale(x, c), |t| c * t)
    }

    /// LeakyReLU with negative slope `alpha` (paper uses 0.2 in Eq. 5).
    pub fn leaky_relu(&mut self, x: Var, alpha: f32) -> Var {
        self.map_op(x, Op::LeakyRelu(x, alpha), |t| {
            if t >= 0.0 {
                t
            } else {
                alpha * t
            }
        })
    }

    /// Element-wise `max(x, 0)`.
    pub fn relu(&mut self, x: Var) -> Var {
        self.map_op(x, Op::Relu(x), |t| t.max(0.0))
    }

    /// Element-wise logistic sigmoid (via [`fast_exp`]).
    pub fn sigmoid(&mut self, x: Var) -> Var {
        self.map_op(x, Op::Sigmoid(x), |t| 1.0 / (1.0 + fast_exp(-t)))
    }

    /// Element-wise hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        self.map_op(x, Op::Tanh(x), f32::tanh)
    }

    /// Element-wise `e^x` (via [`fast_exp`]; used by the VAE
    /// reparameterisation `σ = exp(logvar / 2)`).
    pub fn exp(&mut self, x: Var) -> Var {
        self.map_op(x, Op::Exp(x), fast_exp)
    }

    /// `[a | b]` column concatenation.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let v = concat_cols(self.value(a), self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::ConcatCols(a, b), ng)
    }

    /// `out[i,:] = x[idx[i],:]` (embedding lookup / neighbor gather).
    pub fn gather_rows(&mut self, x: Var, idx: Rc<Vec<u32>>) -> Var {
        let v = gather_rows(self.value(x), &idx);
        let ng = self.needs(x);
        self.push(v, Op::GatherRows(x, idx), ng)
    }

    /// Fused row lookup `out[i,:] = table[idx[i],:]` reading the
    /// parameter store directly: the tape holds `idx.len()` rows, not the
    /// table.
    ///
    /// Values and gradients are bit-identical to [`Tape::param`] +
    /// [`Tape::gather_rows`]: the rows are copies of the same `f32`s, and
    /// backward scatter-adds into a zeroed table-shaped buffer and adds
    /// that to the table's gradient slot at this node's position in the
    /// reverse walk — the position the `Param` leaf of the pair would
    /// have had — so several lookups of one table in a step accumulate in
    /// the same order.
    pub fn gather_param_rows(&mut self, store: &ParamStore, id: ParamId, idx: Rc<Vec<u32>>) -> Var {
        self.n_params = self.n_params.max(id.index() + 1);
        let table = store.value(id);
        let table_rows = table.rows();
        let v = gather_rows(table, &idx);
        self.push(
            v,
            Op::GatherParamRows {
                id,
                idx,
                table_rows,
            },
            true,
        )
    }

    /// `out[idx[i],:] += x[i,:]` into `out_rows` rows (message aggregation).
    pub fn scatter_add_rows(&mut self, x: Var, idx: Rc<Vec<u32>>, out_rows: usize) -> Var {
        let v = scatter_add_rows(self.value(x), &idx, out_rows);
        let ng = self.needs(x);
        self.push(v, Op::ScatterAddRows(x, idx), ng)
    }

    /// Edge softmax: normalise the column vector `scores` within segments
    /// given by `seg` (destination node of each edge), `n_segments` total.
    pub fn segment_softmax(&mut self, scores: Var, seg: Rc<Vec<u32>>, n_segments: usize) -> Var {
        let v = segment_softmax(self.value(scores), &seg, n_segments);
        let ng = self.needs(scores);
        self.push(v, Op::SegmentSoftmax(scores, seg), ng)
    }

    /// The edge attention of one bipartite layer, every head in one op
    /// (Eqs. 4–5). Head `h` is `(hw, s_src, s_dst)`: the projected source
    /// rows (`n_sources × d_head`) and the two halves of the attention
    /// logit (`n_sources × 1` each, `s_dst` read at a target's own slot
    /// `self_idx[t]`). Edge `e` runs from source `src[e]` to target
    /// `dst[e]`; `dst` must be sorted (each target's edges one contiguous
    /// run, as [`Tape::segment_softmax`] requires) and there are
    /// `self_idx.len()` targets. Per target and head:
    ///
    /// `out[t, h·d_head..] = leaky(Σ_e α_e · hw[src[e]])`, with
    /// `α = softmax_e(leaky(s_src[src[e]] + s_dst[self_idx[t]]))` over the
    /// target's run and `leaky` the LeakyReLU of negative slope `slope`.
    ///
    /// The `n_targets × heads·d_head` value and the gradients of every
    /// head's `hw`, `s_src` and `s_dst` are bit-identical (proptested) to
    /// the eleven ops per head this replaces — [`Tape::gather_rows`] ×3,
    /// [`Tape::add`], [`Tape::leaky_relu`], [`Tape::segment_softmax`],
    /// [`Tape::scale_rows`], [`Tape::scatter_add_rows`], `leaky_relu`,
    /// then [`Tape::concat_cols`] across heads — each of which is a pass
    /// over a fresh `edges × d_head` or `edges × 1` buffer. The op walks a
    /// run once per head and keeps, beside its value, only the `α`.
    ///
    /// # Panics
    ///
    /// If there is no head, the shapes disagree, `dst` is not
    /// non-decreasing, or an index is out of range.
    pub fn gat_attend(
        &mut self,
        heads: &[(Var, Var, Var)],
        src: Rc<Vec<u32>>,
        dst: Rc<Vec<u32>>,
        self_idx: Rc<Vec<u32>>,
        slope: f32,
    ) -> Var {
        assert!(!heads.is_empty(), "gat_attend: at least one head");
        let (n_sources, d_head) = self.shape(heads[0].0);
        for &(hw, s_src, s_dst) in heads {
            assert_eq!(self.shape(hw), (n_sources, d_head), "gat_attend: hw");
            assert_eq!(self.shape(s_src), (n_sources, 1), "gat_attend: s_src");
            assert_eq!(self.shape(s_dst), (n_sources, 1), "gat_attend: s_dst");
        }
        let n_targets = self_idx.len();
        assert_eq!(src.len(), dst.len(), "gat_attend: one target per edge");
        assert!(
            seg_is_sorted(&dst),
            "gat_attend expects edges sorted by target ({n_targets} targets)"
        );
        assert!(
            dst.last().is_none_or(|&t| (t as usize) < n_targets),
            "gat_attend: target out of {n_targets}"
        );
        let ng = heads
            .iter()
            .any(|&(hw, s_src, s_dst)| self.needs(hw) || self.needs(s_src) || self.needs(s_dst));
        let mut alpha = Matrix::zeros(heads.len(), src.len());
        let mut v = Matrix::zeros(n_targets, heads.len() * d_head);
        let mut op = Box::new(GatAttend {
            heads: heads.to_vec(),
            src,
            dst,
            self_idx,
            slope,
            alpha: Matrix::zeros(0, 0),
        });
        for h in 0..heads.len() {
            gat_attend_head(op.head(self, h), alpha.row_mut(h), &mut v, h * d_head);
        }
        op.alpha = alpha;
        self.push(v, Op::GatAttend(op), ng)
    }

    /// Scale row `i` of `x` by scalar `s[i]` (`s` is `Ex1`).
    pub fn scale_rows(&mut self, x: Var, s: Var) -> Var {
        let v = scale_rows(self.value(x), self.value(s));
        let ng = self.needs(x) || self.needs(s);
        self.push(v, Op::ScaleRows(x, s), ng)
    }

    /// Row-wise dot product -> `Ex1` column.
    pub fn rowwise_dot(&mut self, a: Var, b: Var) -> Var {
        let v = rowwise_dot(self.value(a), self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::RowwiseDot(a, b), ng)
    }

    /// Sum of all elements -> `1x1`.
    pub fn sum(&mut self, x: Var) -> Var {
        let v = Matrix::scalar(self.value(x).sum() as f32);
        let ng = self.needs(x);
        self.push(v, Op::Sum(x), ng)
    }

    /// Fused multi-target softmax cross-entropy (Eq. 6/7 reconstruction
    /// term): rows of `logits` are softmax-normalised and the loss is
    /// `-(1/norm) * sum_t w_t * log p[r_t, c_t]` over sparse targets.
    ///
    /// The probability matrix is **not** materialised: forward keeps only
    /// the per-row softmax statistics `(max, inv_denom)` for rows that
    /// carry targets, and backward recomputes probabilities from the
    /// logits node value (flash-attention-style recompute). This removes
    /// the `O(slots × candidates)` probs buffer per decoder level — the
    /// largest single term of peak training memory — at the cost of one
    /// extra `fast_exp` pass over target rows in backward. Gradients are
    /// bit-identical to the materialised reference (see
    /// [`Tape::softmax_xent_materialised`] and the parity proptests).
    pub fn softmax_xent(&mut self, logits: Var, targets: Rc<Vec<SparseTarget>>, norm: f32) -> Var {
        assert!(norm > 0.0, "softmax_xent: norm must be positive");
        let lv = self.value(logits);
        let rows = lv.rows();
        let mut has_target = vec![false; rows];
        for &(r, _, _) in targets.iter() {
            has_target[r as usize] = true;
        }
        let mut stats = vec![(0.0f32, 0.0f32); rows];
        for (r, s) in stats.iter_mut().enumerate() {
            if has_target[r] {
                *s = row_softmax_stats(lv.row(r));
            }
        }
        let mut loss = 0.0f64;
        for &(r, c, w) in targets.iter() {
            let (max, inv) = stats[r as usize];
            let p = (fast_exp(lv.get(r as usize, c as usize) - max) * inv).max(1e-12);
            loss -= (w as f64) * (p as f64).ln();
        }
        let v = Matrix::scalar((loss / norm as f64) as f32);
        let ng = self.needs(logits);
        self.push(
            v,
            Op::SoftmaxXent {
                logits,
                targets,
                norm,
                stats,
            },
            ng,
        )
    }

    /// The pre-fusion softmax cross-entropy: identical loss and gradients
    /// to [`Tape::softmax_xent`], but stores the full softmax of `logits`
    /// on the tape. Reference implementation for the parity tests and
    /// peak-memory A/Bs.
    pub fn softmax_xent_materialised(
        &mut self,
        logits: Var,
        targets: Rc<Vec<SparseTarget>>,
        norm: f32,
    ) -> Var {
        assert!(norm > 0.0, "softmax_xent: norm must be positive");
        let probs = softmax_rows(self.value(logits));
        let mut loss = 0.0f64;
        for &(r, c, w) in targets.iter() {
            let p = probs.get(r as usize, c as usize).max(1e-12);
            loss -= (w as f64) * (p as f64).ln();
        }
        let v = Matrix::scalar((loss / norm as f64) as f32);
        let ng = self.needs(logits);
        self.push(
            v,
            Op::SoftmaxXentMaterialised {
                logits,
                probs,
                targets,
                norm,
            },
            ng,
        )
    }

    /// Candidate scoring and its softmax cross-entropy in one op — the
    /// reconstruction term of one decode level (Eq. 6/7):
    /// `softmax_xent(h W_cᵀ + b_cᵀ, targets, norm)` with `h` the
    /// `slots × d` decode states, `w_c` the `|C| × d` candidate rows of
    /// `W_dec` and `b_c` their `|C| × 1` biases.
    ///
    /// A slot without a target contributes nothing to the loss and has an
    /// all-zero logits gradient, so only the `R` rows of `h` that carry a
    /// target are gathered and scored. The bias is added where the scores
    /// lie, forward keeps the per-row `(max, 1/Σexp)`, and backward writes
    /// `∂logits` over the logits: the op holds one `R × |C|` matrix where
    /// the unfused chain ([`Tape::matmul_nt`] → [`Tape::transpose`] →
    /// [`Tape::add_row`] → [`Tape::softmax_xent`]) holds three of
    /// `slots × |C|`.
    ///
    /// The loss and the gradients of `h`, `w_c` and `b_c` are
    /// bit-identical to that chain's (proptested): the three gemms run on
    /// the loop nest the **uncompacted** `slots · d · |C|` product selects,
    /// the rows left out would have added exact zeros, `∂b_c` sums
    /// `∂logits` by ascending row after the target subtraction, and `∂h`
    /// is scattered back to `slots × d` before it is accumulated. (One
    /// bit can differ in principle: an element of `∂w_c` whose every term
    /// underflows to `-0.0` keeps that sign here, where a zero row of the
    /// chain would have turned it into `+0.0`.)
    ///
    /// Because backward consumes the logits, [`Tape::backward`] can run
    /// through this op once; a second call panics — record the forward
    /// pass again instead.
    pub fn score_xent(
        &mut self,
        h: Var,
        w_c: Var,
        b_c: Var,
        targets: &[SparseTarget],
        norm: f32,
    ) -> Var {
        assert!(norm > 0.0, "score_xent: norm must be positive");
        let (slots, d) = self.shape(h);
        let (n_cand, wd) = self.shape(w_c);
        assert_eq!(wd, d, "score_xent: h is {slots}x{d}, w_c is {n_cand}x{wd}");
        assert_eq!(
            self.shape(b_c),
            (n_cand, 1),
            "score_xent: b_c must be {n_cand}x1"
        );
        // the rows that carry a target, and the targets re-addressed to them
        let mut has_target = vec![false; slots];
        for &(r, _, _) in targets {
            has_target[r as usize] = true;
        }
        let rows: Vec<u32> = (0..slots as u32)
            .filter(|&r| has_target[r as usize])
            .collect();
        let mut pos = vec![0u32; slots];
        for (i, &r) in rows.iter().enumerate() {
            pos[r as usize] = i as u32;
        }
        let targets: Vec<SparseTarget> = targets
            .iter()
            .map(|&(r, c, w)| (pos[r as usize], c, w))
            .collect();
        let h_rows = gather_rows(self.value(h), &rows);
        let mut logits = Matrix::zeros(rows.len(), n_cand);
        let path = GemmPath::for_product(slots, d, n_cand);
        let w = self.value(w_c);
        matmul_into_on(path, &h_rows, RowMajor, w, Transposed, &mut logits);
        let bias = self.value(b_c).as_slice();
        let mut stats = Vec::with_capacity(rows.len());
        for i in 0..rows.len() {
            let row = logits.row_mut(i);
            for (z, &b) in row.iter_mut().zip(bias) {
                *z += b;
            }
            stats.push(row_softmax_stats(row));
        }
        let mut loss = 0.0f64;
        for &(i, c, w) in &targets {
            let (max, inv) = stats[i as usize];
            let p = (fast_exp(logits.get(i as usize, c as usize) - max) * inv).max(1e-12);
            loss -= (w as f64) * (p as f64).ln();
        }
        let v = Matrix::scalar((loss / norm as f64) as f32);
        let ng = self.needs(h) || self.needs(w_c) || self.needs(b_c);
        self.push(
            v,
            Op::ScoreXent(Box::new(ScoreXent {
                h,
                w_c,
                b_c,
                rows,
                targets,
                norm,
                h_rows,
                stats,
                logits: RefCell::new(logits),
                differentiated: Cell::new(false),
            })),
            ng,
        )
    }

    /// Fused mean binary cross-entropy with logits (VGAE-family losses).
    pub fn bce_with_logits(&mut self, logits: Var, targets: Rc<Matrix>) -> Var {
        assert_eq!(self.shape(logits), targets.shape(), "bce: shape mismatch");
        let lv = self.value(logits);
        let mut loss = 0.0f64;
        for (&z, &y) in lv.as_slice().iter().zip(targets.as_slice()) {
            // stable: max(z,0) - z*y + ln(1 + exp(-|z|))
            let zl = z as f64;
            loss += zl.max(0.0) - zl * y as f64 + (1.0 + (-zl.abs()).exp()).ln();
        }
        let n = lv.len().max(1) as f64;
        let v = Matrix::scalar((loss / n) as f32);
        let ng = self.needs(logits);
        self.push(v, Op::BceWithLogits { logits, targets }, ng)
    }

    /// Fused KL( N(mu, exp(logvar)) || N(0, 1) ), scaled by `scale`:
    /// `-scale/2 * sum(1 + logvar - mu^2 - exp(logvar))`.
    pub fn kl_normal(&mut self, mu: Var, logvar: Var, scale: f32) -> Var {
        assert_eq!(self.shape(mu), self.shape(logvar), "kl: shape mismatch");
        let m = self.value(mu);
        let lv = self.value(logvar);
        let mut acc = 0.0f64;
        for (&mv, &lvv) in m.as_slice().iter().zip(lv.as_slice()) {
            acc += 1.0 + lvv as f64 - (mv as f64) * (mv as f64) - (lvv as f64).exp();
        }
        let v = Matrix::scalar((-0.5 * scale as f64 * acc) as f32);
        let ng = self.needs(mu) || self.needs(logvar);
        self.push(v, Op::KlNormal { mu, logvar, scale }, ng)
    }

    /// Reverse pass from a scalar `loss` node. Returns gradients for every
    /// parameter leaf reachable from the loss.
    ///
    /// Intermediate gradients are reference-counted: pass-through ops
    /// (`Add`, `AddRow`) forward the *same* buffer with an `Rc` bump
    /// instead of a deep copy, and accumulation into a shared buffer
    /// copies-on-write via [`Rc::make_mut`].
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(self.shape(loss), (1, 1), "backward: loss must be scalar");
        let mut grads: Vec<Option<Rc<Matrix>>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Rc::new(Matrix::scalar(1.0)));
        let mut out = Gradients {
            grads: (0..self.n_params).map(|_| None).collect(),
        };

        // Accumulate an owned gradient into a node slot (in place when the
        // slot's buffer is unshared).
        let accum = |grads: &mut Vec<Option<Rc<Matrix>>>, v: Var, add: Matrix| match &mut grads[v.0]
        {
            Some(existing) => Rc::make_mut(existing).add_assign(&add),
            slot @ None => *slot = Some(Rc::new(add)),
        };
        // Forward a shared gradient unchanged (O(1) unless accumulating).
        let accum_shared =
            |grads: &mut Vec<Option<Rc<Matrix>>>, v: Var, add: Rc<Matrix>| match &mut grads[v.0] {
                Some(existing) => Rc::make_mut(existing).add_assign(&add),
                slot @ None => *slot = Some(add),
            };

        for i in (0..=loss.0).rev() {
            let g = match grads[i].take() {
                Some(g) => g,
                None => continue,
            };
            if !self.nodes[i].needs_grad {
                continue;
            }
            match &self.nodes[i].op {
                Op::Input => {}
                Op::Param(id) => match &mut out.grads[id.index()] {
                    Some(existing) => existing.add_assign(&g),
                    slot @ None => *slot = Some(Rc::unwrap_or_clone(g)),
                },
                Op::MatMul(a, b, b_layout) => {
                    // y = a op(b): da = g op(b)^T; db = a^T g, or g^T a for op(b) = b^T
                    if self.needs(*a) {
                        let b_t = b_layout.transposed();
                        accum(&mut grads, *a, matmul(&g, RowMajor, self.value(*b), b_t));
                    }
                    if self.needs(*b) {
                        let gb = match b_layout {
                            RowMajor => matmul_tn(self.value(*a), &g),
                            Transposed => matmul_tn(&g, self.value(*a)),
                        };
                        accum(&mut grads, *b, gb);
                    }
                }
                Op::Transpose(x) => {
                    accum(&mut grads, *x, g.transpose());
                }
                Op::Add(a, b) => {
                    if self.needs(*a) {
                        accum_shared(&mut grads, *a, Rc::clone(&g));
                    }
                    if self.needs(*b) {
                        accum_shared(&mut grads, *b, Rc::clone(&g));
                    }
                }
                Op::Mul(a, b) => {
                    if self.needs(*a) {
                        accum(&mut grads, *a, g.zip(self.value(*b), |x, y| x * y));
                    }
                    if self.needs(*b) {
                        accum(&mut grads, *b, g.zip(self.value(*a), |x, y| x * y));
                    }
                }
                Op::AddRow(x, bias) => {
                    if self.needs(*bias) {
                        let cols = g.cols();
                        let mut bg = Matrix::zeros(1, cols);
                        for r in 0..g.rows() {
                            for (o, &v) in bg.row_mut(0).iter_mut().zip(g.row(r)) {
                                *o += v;
                            }
                        }
                        accum(&mut grads, *bias, bg);
                    }
                    if self.needs(*x) {
                        accum_shared(&mut grads, *x, Rc::clone(&g));
                    }
                }
                Op::Scale(x, c) => {
                    let c = *c;
                    accum(&mut grads, *x, g.map(|v| c * v));
                }
                Op::LeakyRelu(x, alpha) => {
                    let a = *alpha;
                    let gx = g.zip(self.value(*x), |gv, xv| if xv >= 0.0 { gv } else { a * gv });
                    accum(&mut grads, *x, gx);
                }
                Op::Relu(x) => {
                    let gx = g.zip(self.value(*x), |gv, xv| if xv > 0.0 { gv } else { 0.0 });
                    accum(&mut grads, *x, gx);
                }
                Op::Sigmoid(x) => {
                    let gx = g.zip(&self.nodes[i].value, |gv, yv| gv * yv * (1.0 - yv));
                    accum(&mut grads, *x, gx);
                }
                Op::Tanh(x) => {
                    let gx = g.zip(&self.nodes[i].value, |gv, yv| gv * (1.0 - yv * yv));
                    accum(&mut grads, *x, gx);
                }
                Op::Exp(x) => {
                    let gx = g.zip(&self.nodes[i].value, |gv, yv| gv * yv);
                    accum(&mut grads, *x, gx);
                }
                Op::ConcatCols(a, b) => {
                    let ac = self.value(*a).cols();
                    let bc = self.value(*b).cols();
                    if self.needs(*a) {
                        let mut ga = Matrix::zeros(g.rows(), ac);
                        for r in 0..g.rows() {
                            ga.row_mut(r).copy_from_slice(&g.row(r)[..ac]);
                        }
                        accum(&mut grads, *a, ga);
                    }
                    if self.needs(*b) {
                        let mut gb = Matrix::zeros(g.rows(), bc);
                        for r in 0..g.rows() {
                            gb.row_mut(r).copy_from_slice(&g.row(r)[ac..]);
                        }
                        accum(&mut grads, *b, gb);
                    }
                }
                Op::GatherRows(x, idx) => {
                    let rows = self.value(*x).rows();
                    accum(&mut grads, *x, scatter_add_rows(&g, idx, rows));
                }
                Op::ScatterAddRows(x, idx) => {
                    accum(&mut grads, *x, gather_rows(&g, idx));
                }
                Op::SegmentSoftmax(scores, seg) => {
                    // y_i = softmax within segment; dL/ds_i = y_i*(g_i -
                    // sum_j_in_seg g_j*y_j), via the blocked run-based
                    // kernel shared with the forward pass.
                    let y = &self.nodes[i].value;
                    let n_seg = seg.iter().map(|&s| s as usize + 1).max().unwrap_or(0);
                    let gx = segment_softmax_backward(y, &g, seg, n_seg);
                    accum(&mut grads, *scores, gx);
                }
                Op::GatAttend(op) => {
                    let y = &self.nodes[i].value;
                    for (h, &(hw, s_src, s_dst)) in op.heads.iter().enumerate() {
                        if !(self.needs(hw) || self.needs(s_src) || self.needs(s_dst)) {
                            continue;
                        }
                        let (n_sources, d_head) = self.shape(hw);
                        let mut g_hw = Matrix::zeros(n_sources, d_head);
                        let mut g_src = Matrix::zeros(n_sources, 1);
                        let mut g_dst = Matrix::zeros(n_sources, 1);
                        gat_attend_head_backward(
                            op.head(self, h),
                            op.alpha.row(h),
                            y,
                            &g,
                            h * d_head,
                            GatHeadGrads {
                                hw: &mut g_hw,
                                s_src: g_src.as_mut_slice(),
                                s_dst: g_dst.as_mut_slice(),
                            },
                        );
                        for (v, gv) in [(hw, g_hw), (s_dst, g_dst), (s_src, g_src)] {
                            if self.needs(v) {
                                accum(&mut grads, v, gv);
                            }
                        }
                    }
                }
                Op::GatherParamRows {
                    id,
                    idx,
                    table_rows,
                } => {
                    let gx = scatter_add_rows(&g, idx, *table_rows);
                    match &mut out.grads[id.index()] {
                        Some(existing) => existing.add_assign(&gx),
                        slot @ None => *slot = Some(gx),
                    }
                }
                Op::ScaleRows(x, s) => {
                    if self.needs(*x) {
                        accum(&mut grads, *x, scale_rows(&g, self.value(*s)));
                    }
                    if self.needs(*s) {
                        accum(&mut grads, *s, rowwise_dot(&g, self.value(*x)));
                    }
                }
                Op::RowwiseDot(a, b) => {
                    if self.needs(*a) {
                        accum(&mut grads, *a, scale_rows(self.value(*b), &g));
                    }
                    if self.needs(*b) {
                        accum(&mut grads, *b, scale_rows(self.value(*a), &g));
                    }
                }
                Op::Sum(x) => {
                    let (r, c) = self.shape(*x);
                    let mut gx = Matrix::zeros(r, c);
                    gx.as_mut_slice().fill(g.item());
                    accum(&mut grads, *x, gx);
                }
                Op::SoftmaxXent {
                    logits,
                    targets,
                    norm,
                    stats,
                } => {
                    // dL/dz[r, :] = go * (rw_r * softmax(z[r, :]) - onehot
                    // targets); probabilities are recomputed from the
                    // logits value and the stored (max, inv) row stats
                    // instead of a materialised probs matrix.
                    let go = g.item() / norm;
                    let lv = self.value(*logits);
                    let (r, c) = lv.shape();
                    let mut row_w = vec![0.0f32; r];
                    for &(rr, _, w) in targets.iter() {
                        row_w[rr as usize] += w;
                    }
                    let mut gx = Matrix::zeros(r, c);
                    for (rr, &rw) in row_w.iter().enumerate() {
                        if rw == 0.0 {
                            continue;
                        }
                        let w = rw * go;
                        let (max, inv) = stats[rr];
                        for (o, &z) in gx.row_mut(rr).iter_mut().zip(lv.row(rr)) {
                            *o = w * (fast_exp(z - max) * inv);
                        }
                    }
                    for &(rr, cc, w) in targets.iter() {
                        let v = gx.get(rr as usize, cc as usize) - w * go;
                        gx.set(rr as usize, cc as usize, v);
                    }
                    accum(&mut grads, *logits, gx);
                }
                Op::SoftmaxXentMaterialised {
                    logits,
                    probs,
                    targets,
                    norm,
                } => {
                    let go = g.item() / norm;
                    let (r, c) = probs.shape();
                    let mut row_w = vec![0.0f32; r];
                    for &(rr, _, w) in targets.iter() {
                        row_w[rr as usize] += w;
                    }
                    let mut gx = Matrix::zeros(r, c);
                    for (rr, &rw) in row_w.iter().enumerate() {
                        if rw == 0.0 {
                            continue;
                        }
                        let w = rw * go;
                        for (o, &p) in gx.row_mut(rr).iter_mut().zip(probs.row(rr)) {
                            *o = w * p;
                        }
                    }
                    for &(rr, cc, w) in targets.iter() {
                        let v = gx.get(rr as usize, cc as usize) - w * go;
                        gx.set(rr as usize, cc as usize, v);
                    }
                    accum(&mut grads, *logits, gx);
                }
                Op::ScoreXent(op) => {
                    let ScoreXent {
                        h,
                        w_c,
                        b_c,
                        rows,
                        targets,
                        norm,
                        h_rows,
                        stats,
                        logits,
                        differentiated,
                    } = &**op;
                    assert!(
                        !differentiated.replace(true),
                        "score_xent: backward already turned this op's logits into their \
                         gradient; record the forward pass again to differentiate it twice"
                    );
                    let mut gz = logits.borrow_mut();
                    // dL/dz as in `SoftmaxXent`, over the scored rows only
                    // and written where the logits lie
                    let go = g.item() / norm;
                    let (slots, d) = self.shape(*h);
                    let n_cand = gz.cols();
                    let mut row_w = vec![0.0f32; rows.len()];
                    for &(i, _, w) in targets {
                        row_w[i as usize] += w;
                    }
                    for (i, &rw) in row_w.iter().enumerate() {
                        if rw == 0.0 {
                            gz.row_mut(i).fill(0.0);
                            continue;
                        }
                        let w = rw * go;
                        let (max, inv) = stats[i];
                        for z in gz.row_mut(i) {
                            *z = w * (fast_exp(*z - max) * inv);
                        }
                    }
                    for &(i, c, w) in targets {
                        let v = gz.get(i as usize, c as usize) - w * go;
                        gz.set(i as usize, c as usize, v);
                    }
                    let path = GemmPath::for_product(slots, d, n_cand);
                    if self.needs(*b_c) {
                        let mut gb = Matrix::zeros(n_cand, 1);
                        for i in 0..rows.len() {
                            for (o, &v) in gb.as_mut_slice().iter_mut().zip(gz.row(i)) {
                                *o += v;
                            }
                        }
                        accum(&mut grads, *b_c, gb);
                    }
                    if self.needs(*h) {
                        let mut gh_rows = Matrix::zeros(rows.len(), d);
                        let w = self.value(*w_c);
                        matmul_into_on(path, &gz, RowMajor, w, RowMajor, &mut gh_rows);
                        let mut gh = Matrix::zeros(slots, d);
                        for (i, &r) in rows.iter().enumerate() {
                            gh.row_mut(r as usize).copy_from_slice(gh_rows.row(i));
                        }
                        accum(&mut grads, *h, gh);
                    }
                    if self.needs(*w_c) {
                        let mut gw = Matrix::zeros(n_cand, d);
                        matmul_into_on(path, &gz, Transposed, h_rows, RowMajor, &mut gw);
                        accum(&mut grads, *w_c, gw);
                    }
                }
                Op::BceWithLogits { logits, targets } => {
                    let lv = self.value(*logits);
                    let n = lv.len().max(1) as f32;
                    let go = g.item() / n;
                    let gx = lv.zip(targets, |z, y| go * (1.0 / (1.0 + (-z).exp()) - y));
                    accum(&mut grads, *logits, gx);
                }
                Op::KlNormal { mu, logvar, scale } => {
                    let go = g.item() * *scale;
                    if self.needs(*mu) {
                        accum(&mut grads, *mu, self.value(*mu).map(|m| go * m));
                    }
                    if self.needs(*logvar) {
                        let gx = self.value(*logvar).map(|l| 0.5 * go * (l.exp() - 1.0));
                        accum(&mut grads, *logvar, gx);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul_nn;
    use crate::params::ParamStore;

    /// Finite-difference check for a scalar-producing closure of one
    /// parameter matrix.
    fn grad_check(init: Matrix, f: impl Fn(&mut Tape, Var) -> Var) {
        let mut store = ParamStore::new();
        let id = store.create("w", init.clone());
        // analytic
        let mut tape = Tape::new();
        let w = tape.param(&store, id);
        let loss = f(&mut tape, w);
        let grads = tape.backward(loss);
        let g = grads.get(id).expect("param grad missing").clone();
        // numeric
        let eps = 1e-3f32;
        for i in 0..init.len() {
            let mut plus = init.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = init.clone();
            minus.as_mut_slice()[i] -= eps;
            let mut sp = ParamStore::new();
            let idp = sp.create("w", plus);
            let mut tp = Tape::new();
            let wp = tp.param(&sp, idp);
            let lp = f(&mut tp, wp);
            let mut sm = ParamStore::new();
            let idm = sm.create("w", minus);
            let mut tm = Tape::new();
            let wm = tm.param(&sm, idm);
            let lm = f(&mut tm, wm);
            let num = (tp.value(lp).item() - tm.value(lm).item()) / (2.0 * eps);
            let ana = g.as_slice()[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs().max(ana.abs())),
                "element {i}: numeric {num} vs analytic {ana}"
            );
        }
    }

    fn test_matrix(rows: usize, cols: usize) -> Matrix {
        // Offset keeps values away from activation kinks (x = 0 exactly),
        // where one-sided numeric gradients disagree with the subgradient.
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * cols + c) as f32 * 0.7 + 0.31).sin() * 0.5
        })
    }

    #[test]
    fn grad_matmul_sum() {
        grad_check(test_matrix(3, 4), |t, w| {
            let x = t.input(test_matrix(2, 3));
            let y = t.matmul(x, w);
            t.sum(y)
        });
    }

    #[test]
    fn grad_matmul_left_operand() {
        grad_check(test_matrix(2, 3), |t, w| {
            let x = t.input(test_matrix(3, 4));
            let y = t.matmul(w, x);
            let z = t.tanh(y);
            t.sum(z)
        });
    }

    #[test]
    fn grad_activations() {
        for act in 0..5 {
            grad_check(test_matrix(3, 3), move |t, w| {
                let y = match act {
                    0 => t.leaky_relu(w, 0.2),
                    1 => t.sigmoid(w),
                    2 => t.tanh(w),
                    3 => t.exp(w),
                    _ => t.relu(w),
                };
                t.sum(y)
            });
        }
    }

    #[test]
    fn grad_matmul_nt_both_operands() {
        grad_check(test_matrix(3, 4), |t, w| {
            let x = t.input(test_matrix(5, 4));
            let y = t.matmul_nt(w, x); // (3,5)
            let z = t.tanh(y);
            t.sum(z)
        });
        grad_check(test_matrix(5, 4), |t, w| {
            let x = t.input(test_matrix(3, 4));
            let y = t.matmul_nt(x, w);
            let z = t.sigmoid(y);
            t.sum(z)
        });
    }

    #[test]
    fn matmul_nt_value_matches_manual_transpose() {
        let mut tape = Tape::new();
        let a = tape.input(test_matrix(2, 3));
        let b = tape.input(test_matrix(4, 3));
        let y = tape.matmul_nt(a, b);
        let bt = tape.value(b).transpose();
        let expect = matmul_nn(tape.value(a), &bt);
        assert_eq!(tape.value(y), &expect);
    }

    #[test]
    fn grad_transpose() {
        grad_check(test_matrix(2, 5), |t, w| {
            let y = t.transpose(w);
            let x = t.input(test_matrix(2, 5).transpose());
            let z = t.mul(y, x);
            t.sum(z)
        });
    }

    #[test]
    fn grad_add_row_bias() {
        grad_check(test_matrix(1, 4), |t, w| {
            let x = t.input(test_matrix(3, 4));
            let y = t.add_row(x, w);
            let z = t.sigmoid(y);
            t.sum(z)
        });
    }

    #[test]
    fn grad_hadamard_and_sub() {
        grad_check(test_matrix(2, 2), |t, w| {
            let x = t.input(test_matrix(2, 2));
            let p = t.mul(w, x);
            let neg_w = t.scale(w, -1.0);
            let q = t.add(p, neg_w);
            t.sum(q)
        });
    }

    #[test]
    fn grad_concat() {
        grad_check(test_matrix(2, 3), |t, w| {
            let x = t.input(test_matrix(2, 2));
            let y = t.concat_cols(w, x);
            let z = t.tanh(y);
            t.sum(z)
        });
    }

    #[test]
    fn grad_gather_scatter() {
        grad_check(test_matrix(4, 3), |t, w| {
            let idx = Rc::new(vec![1u32, 3, 1, 0]);
            let g = t.gather_rows(w, idx.clone());
            let s = t.scatter_add_rows(g, Rc::new(vec![0u32, 0, 1, 2]), 3);
            let z = t.sigmoid(s);
            t.sum(z)
        });
    }

    #[test]
    fn grad_segment_softmax_pipeline() {
        grad_check(test_matrix(5, 1), |t, w| {
            let seg = Rc::new(vec![0u32, 0, 1, 1, 1]);
            let a = t.segment_softmax(w, seg, 2);
            let x = t.input(test_matrix(5, 2));
            let weighted = t.scale_rows(x, a);
            let z = t.tanh(weighted);
            t.sum(z)
        });
    }

    #[test]
    fn grad_rowwise_dot() {
        grad_check(test_matrix(3, 4), |t, w| {
            let x = t.input(test_matrix(3, 4));
            let d = t.rowwise_dot(w, x);
            let z = t.sigmoid(d);
            t.sum(z)
        });
    }

    #[test]
    fn grad_softmax_xent() {
        grad_check(test_matrix(3, 5), |t, w| {
            let targets = Rc::new(vec![
                (0u32, 1u32, 1.0f32),
                (1, 4, 2.0),
                (2, 0, 1.0),
                (0, 3, 0.5),
            ]);
            t.softmax_xent(w, targets, 3.0)
        });
    }

    #[test]
    fn grad_bce_with_logits() {
        grad_check(test_matrix(3, 3), |t, w| {
            let y = Rc::new(Matrix::from_fn(3, 3, |r, c| ((r + c) % 2) as f32));
            t.bce_with_logits(w, y)
        });
    }

    #[test]
    fn grad_kl_normal_mu() {
        grad_check(test_matrix(3, 2), |t, w| {
            let lv = t.input(test_matrix(3, 2));
            t.kl_normal(w, lv, 0.1)
        });
    }

    #[test]
    fn grad_kl_normal_logvar() {
        grad_check(test_matrix(3, 2), |t, w| {
            let mu = t.input(test_matrix(3, 2));
            t.kl_normal(mu, w, 0.1)
        });
    }

    #[test]
    fn grad_through_two_params_accumulates() {
        // loss = sum((w@x) * (w@x)) touches w twice; check vs numeric.
        grad_check(test_matrix(2, 2), |t, w| {
            let x = t.input(test_matrix(2, 2));
            let y = t.matmul(w, x);
            let z = t.mul(y, y);
            t.sum(z)
        });
    }

    #[test]
    fn constant_inputs_get_no_grad() {
        let mut store = ParamStore::new();
        let id = store.create("w", test_matrix(2, 2));
        let mut tape = Tape::new();
        let w = tape.param(&store, id);
        let x = tape.input(test_matrix(2, 2));
        let y = tape.matmul(x, w);
        let l = tape.sum(y);
        let grads = tape.backward(l);
        assert!(grads.get(id).is_some());
        assert_eq!(grads.iter().count(), 1);
    }

    #[test]
    fn kl_zero_at_standard_normal() {
        let mut tape = Tape::new();
        let mu = tape.input(Matrix::zeros(4, 4));
        let lv = tape.input(Matrix::zeros(4, 4));
        let kl = tape.kl_normal(mu, lv, 1.0);
        assert!(tape.value(kl).item().abs() < 1e-9);
    }

    #[test]
    fn softmax_xent_matches_manual_single_target() {
        let mut tape = Tape::new();
        let logits = tape.input(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let loss = tape.softmax_xent(logits, Rc::new(vec![(0, 2, 1.0)]), 1.0);
        let z: Vec<f64> = vec![1.0, 2.0, 3.0];
        let denom: f64 = z.iter().map(|v| v.exp()).sum();
        let expect = -(z[2].exp() / denom).ln();
        assert!((tape.value(loss).item() as f64 - expect).abs() < 1e-5);
    }

    #[test]
    fn gradients_global_norm_and_scale() {
        let mut store = ParamStore::new();
        let id = store.create("w", Matrix::full(2, 2, 1.0));
        let mut tape = Tape::new();
        let w = tape.param(&store, id);
        let l = tape.sum(w);
        let mut grads = tape.backward(l);
        assert!((grads.global_norm() - 2.0).abs() < 1e-6); // sqrt(4 * 1^2)
        grads.scale_all(0.5);
        assert!((grads.global_norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn thread_local_tape_is_cleared_and_matches_fresh_tape() {
        let run = |tape: &mut Tape| -> f32 {
            let a = tape.input(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
            let b = tape.input(Matrix::from_vec(2, 2, vec![0.5, 0.5, 0.5, 0.5]));
            let c = tape.matmul(a, b);
            let s = tape.sum(c);
            tape.value(s).item()
        };
        let fresh = run(&mut Tape::new());
        // two back-to-back thread-local uses: the second must see a
        // cleared tape
        let first = Tape::with_thread_local(|t| run(t));
        let second = Tape::with_thread_local(|t| {
            assert!(t.is_empty(), "thread-local tape not cleared");
            run(t)
        });
        assert_eq!(first, fresh);
        assert_eq!(second, fresh);
    }

    #[test]
    fn thread_local_tape_is_reentrant() {
        let inner_was_empty =
            Tape::with_thread_local(|_| Tape::with_thread_local(|inner| inner.is_empty()));
        assert!(inner_was_empty);
    }

    #[test]
    fn thread_local_tapes_are_per_worker_on_the_pool() {
        // every pool task gets *a* tape; distinct threads get distinct
        // tapes, so concurrent use never aliases
        let results = crate::parallel::par_map(16, |i| {
            Tape::with_thread_local(|tape| {
                let x = tape.input(Matrix::full(1, 1, i as f32));
                let y = tape.scale(x, 2.0);
                tape.value(y).item()
            })
        });
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, 2.0 * i as f32);
        }
    }
}
