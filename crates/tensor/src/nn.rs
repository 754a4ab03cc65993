//! Reusable neural-network building blocks: linear layers, MLPs, and
//! embedding tables. Each layer registers its parameters in a shared
//! [`ParamStore`] at construction and replays them onto a [`Tape`] per
//! forward pass — except [`Embedding`], whose table is read by row.

use crate::gemm::{matmul_into_on, GemmPath, Layout, Start};
use crate::init::{normal_matrix, xavier_uniform};
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::rc::Rc;

/// Activation functions selectable on MLP hidden layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic tangent.
    Tanh,
    /// Pass-through (no activation).
    Identity,
}

impl Activation {
    /// Apply this activation on the tape.
    pub fn apply(self, tape: &mut Tape, x: Var) -> Var {
        match self {
            Activation::Tanh => tape.tanh(x),
            Activation::Identity => x,
        }
    }
}

/// Dense affine layer `y = x W + b`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Linear {
    /// Weight matrix handle (`in_dim x out_dim`).
    pub w: ParamId,
    /// Bias row handle (`1 x out_dim`).
    pub b: ParamId,
    /// Input feature dimension.
    pub in_dim: usize,
    /// Output feature dimension.
    pub out_dim: usize,
}

impl Linear {
    /// Create with Xavier-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = store.create(format!("{name}.w"), xavier_uniform(rng, in_dim, out_dim));
        let b = store.create(format!("{name}.b"), Matrix::zeros(1, out_dim));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Forward: `x (Rxin) -> (Rxout)`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let w = tape.param(store, self.w);
        let y = tape.matmul(x, w);
        let b = tape.param(store, self.b);
        tape.add_row(y, b)
    }
}

/// Multi-layer perceptron with a shared hidden activation and identity
/// output (callers fuse their own loss/softmax).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Mlp {
    /// The stacked affine layers, input to output.
    pub layers: Vec<Linear>,
    /// Activation applied between (not after) layers.
    pub hidden_act: Activation,
}

impl Mlp {
    /// `dims = [in, h1, ..., out]`; requires at least one layer.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        dims: &[usize],
        hidden_act: Activation,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp needs at least [in, out]");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, rng, &format!("{name}.l{i}"), w[0], w[1]))
            .collect();
        Mlp { layers, hidden_act }
    }

    /// Forward through every layer: `x (Rxin) -> (Rxout)`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, store, h);
            if i != last {
                h = self.hidden_act.apply(tape, h);
            }
        }
        h
    }

    /// The first `rows` rows of [`Mlp::forward`] over all of `x`,
    /// computed off the tape from those rows alone. Each layer's product
    /// runs on the loop nest the whole `x.rows()`-row product takes
    /// ([`GemmPath::for_product`]), so the rows keep every bit.
    pub fn forward_rows(&self, store: &ParamStore, x: &Matrix, rows: usize) -> Matrix {
        let full = x.rows();
        let mut h = Matrix::from_vec(rows, x.cols(), x.row_block(0..rows).as_slice().to_vec());
        for (i, layer) in self.layers.iter().enumerate() {
            let mut y = Matrix::zeros(rows, layer.out_dim);
            matmul_into_on(
                GemmPath::for_product(full, layer.in_dim, layer.out_dim),
                (&h).into(),
                Layout::RowMajor,
                store.value(layer.w).into(),
                Layout::RowMajor,
                y.as_mut_slice(),
                Start::Zero,
            );
            let bias = store.value(layer.b).row(0);
            for r in 0..rows {
                for (o, &b) in y.row_mut(r).iter_mut().zip(bias) {
                    *o += b;
                }
            }
            if i + 1 != self.layers.len() && self.hidden_act == Activation::Tanh {
                y = y.map(f32::tanh);
            }
            h = y;
        }
        h
    }

    /// Output dimension of the final layer.
    #[expect(clippy::expect_used, reason = "`Mlp::new` builds at least one layer")]
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim
    }
}

/// Embedding table: a learnable `(n, dim)` matrix with row lookup.
///
/// TGAE uses node-identity features ("node identity numbers as default node
/// features"); an embedding lookup is the dense equivalent of one-hot input
/// times a weight matrix.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Embedding {
    /// Table handle (`n x dim`).
    pub table: ParamId,
    /// Number of rows (vocabulary size).
    pub n: usize,
    /// Embedding dimension.
    pub dim: usize,
}

impl Embedding {
    /// Create with `N(0, 1/dim)` rows (keeps lookup norms ~1).
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        n: usize,
        dim: usize,
    ) -> Self {
        let std = (1.0 / dim as f64).sqrt() as f32;
        let table = store.create(format!("{name}.table"), normal_matrix(rng, n, dim, std));
        Embedding { table, n, dim }
    }

    /// Look up rows by index with the fused
    /// [`Tape::gather_param_rows`]: only the indexed rows are copied onto
    /// the tape, never the whole table, and the backward pass leaves a
    /// gradient of the touched rows only.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, idx: Rc<Vec<u32>>) -> Var {
        tape.gather_param_rows(store, self.table, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let lin = Linear::new(&mut store, &mut rng, "lin", 4, 7);
        let mut tape = Tape::new();
        let x = tape.input(Matrix::zeros(3, 4));
        let y = lin.forward(&mut tape, &store, x);
        assert_eq!(tape.shape(y), (3, 7));
    }

    /// Row subsets of a two-layer tanh MLP across the naive/tiled
    /// switch: at 16 wide fewer than 16 rows alone run naive, the
    /// 20-row product tiled.
    #[test]
    fn forward_rows_keeps_the_bits_of_the_full_forward() {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let mlp = Mlp::new(&mut store, &mut rng, "mlp", &[16, 16, 16], Activation::Tanh);
        for layer in &mlp.layers {
            let b = store.value_mut(layer.b);
            for (i, v) in b.as_mut_slice().iter_mut().enumerate() {
                *v = (i as f32 - 7.5) * 0.031;
            }
        }
        let x = normal_matrix(&mut rng, 20, 16, 1.0);
        let mut tape = Tape::new();
        let xv = tape.input(x.clone());
        let full = mlp.forward(&mut tape, &store, xv);
        let full = tape.value(full);
        for rows in [0, 1, 3, 15, 20] {
            let got = mlp.forward_rows(&store, &x, rows);
            assert_eq!(got.shape(), (rows, 16));
            for r in 0..rows {
                let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got.row(r)), bits(full.row(r)), "rows {rows}, row {r}");
            }
        }
    }

    #[test]
    fn mlp_learns_xor_ish_regression() {
        // Fit y = x0 * x1 on 4 corner points: needs the hidden layer.
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(42);
        let mlp = Mlp::new(&mut store, &mut rng, "mlp", &[2, 16, 1], Activation::Tanh);
        let xs = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let ys = Matrix::from_vec(4, 1, vec![0., 1., 1., 0.]);
        let mut opt = Adam::new(0.05);
        let mut last = f32::INFINITY;
        for _ in 0..400 {
            let mut tape = Tape::new();
            let x = tape.input(xs.clone());
            let pred = mlp.forward(&mut tape, &store, x);
            let t = tape.input(ys.clone());
            let neg_t = tape.scale(t, -1.0);
            let d = tape.add(pred, neg_t);
            let sq = tape.mul(d, d);
            let sse = tape.sum(sq);
            let loss = tape.scale(sse, 0.25);
            last = tape.value(loss).item();
            let grads = tape.backward(loss);
            opt.step(&mut store, &grads);
        }
        assert!(last < 0.01, "XOR regression did not converge: {last}");
    }

    #[test]
    fn embedding_lookup_and_grad_flow() {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(9);
        let emb = Embedding::new(&mut store, &mut rng, "emb", 5, 3);
        let mut tape = Tape::new();
        let h = emb.forward(&mut tape, &store, Rc::new(vec![0, 2, 2, 4]));
        assert_eq!(tape.shape(h), (4, 3));
        let loss = tape.sum(h);
        let grads = tape.backward(loss);
        let g = grads.get(emb.table).expect("embedding grad");
        // rows 0 and 4 used once => grad 1; row 2 used twice => grad 2; rows 1,3 unused => 0.
        assert_eq!(g.row(0), &[1., 1., 1.]);
        assert_eq!(g.row(1), &[0., 0., 0.]);
        assert_eq!(g.row(2), &[2., 2., 2.]);
        assert_eq!(g.row(3), &[0., 0., 0.]);
        assert_eq!(g.row(4), &[1., 1., 1.]);
    }

    /// The layer layout `model.json` embeds: the bias handle is written
    /// bare and the activation by its variant name.
    #[test]
    fn serde_pins_the_layer_layout() {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mlp = Mlp::new(&mut store, &mut rng, "mlp", &[2, 3], Activation::Identity);
        let json = serde_json::to_string(&mlp).unwrap();
        assert_eq!(
            json,
            r#"{"layers":[{"w":0,"b":1,"in_dim":2,"out_dim":3}],"hidden_act":"Identity"}"#
        );
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn activations_apply() {
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_vec(1, 2, vec![-1.0, 1.0]));
        let y = Activation::Tanh.apply(&mut tape, x);
        assert_eq!(tape.value(y).as_slice(), &[(-1.0f32).tanh(), 1.0f32.tanh()]);
        let z = Activation::Identity.apply(&mut tape, x);
        assert_eq!(z, x);
    }
}
