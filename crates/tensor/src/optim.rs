//! The Adam optimizer (the paper's choice for TGAE-style models) and
//! global-norm gradient clipping.

use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Grad, Gradients, RowGrad};
use serde::{Deserialize, Serialize};

/// Adam optimizer state and hyper-parameters.
#[derive(Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay (conventional 0.9).
    pub beta1: f32,
    /// Second-moment decay (conventional 0.999).
    pub beta2: f32,
    /// Denominator fuzz to avoid division by zero.
    pub eps: f32,
    t: u64,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

/// The scalars of one Adam step.
#[derive(Clone, Copy)]
struct StepConsts {
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
}

impl StepConsts {
    /// The update of `p` and its moments `m`, `v` from the gradient `g`
    /// (`None`: a zero gradient).
    #[inline(always)]
    fn apply(self, p: &mut [f32], m: &mut [f32], v: &mut [f32], g: Option<&[f32]>) {
        let n = p.len();
        let (m, v) = (&mut m[..n], &mut v[..n]);
        match g {
            Some(g) => self.walk(p, m, v, g[..n].iter().copied()),
            None => self.walk(p, m, v, std::iter::repeat(0.0)),
        }
    }

    /// [`StepConsts::apply`]'s loop, over slices of one length.
    #[inline(always)]
    fn walk(self, p: &mut [f32], m: &mut [f32], v: &mut [f32], g: impl Iterator<Item = f32>) {
        let StepConsts {
            lr,
            b1,
            b2,
            eps,
            bc1,
            bc2,
        } = self;
        for (((p, m), v), gi) in p.iter_mut().zip(m).zip(v).zip(g) {
            *m = b1 * *m + (1.0 - b1) * gi;
            *v = b2 * *v + (1.0 - b2) * gi * gi;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p -= lr * mhat / (vhat.sqrt() + eps);
        }
    }

    /// The update of a whole table from its row-sparse gradient: the rows
    /// between gradient rows take a zero gradient, and each block of
    /// consecutive gradient rows takes one update.
    fn apply_rows(self, g: &RowGrad, p: &mut [f32], m: &mut [f32], v: &mut [f32]) {
        let cols = g.values.cols();
        let mut at = 0;
        let mut next = 0;
        while let Some(&gr) = g.ids.get(next) {
            // gradient rows `next..next + k` are table rows `gr..gr + k`
            let gr = gr as usize;
            let k = g.ids[next..]
                .iter()
                .zip(gr..)
                .take_while(|&(&id, want)| id as usize == want)
                .count();
            let grad_rows = &g.values.as_slice()[next * cols..(next + k) * cols];
            let (gap, rows) = (at * cols..gr * cols, gr * cols..(gr + k) * cols);
            self.apply(&mut p[gap.clone()], &mut m[gap.clone()], &mut v[gap], None);
            let (pr, mr, vr) = (&mut p[rows.clone()], &mut m[rows.clone()], &mut v[rows]);
            self.apply(pr, mr, vr, Some(grad_rows));
            at = gr + k;
            next += k;
        }
        let tail = at * cols..;
        self.apply(
            &mut p[tail.clone()],
            &mut m[tail.clone()],
            &mut v[tail],
            None,
        );
    }
}

impl Adam {
    /// Adam with the conventional defaults (`beta1=0.9, beta2=0.999`).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.t
    }

    fn slot(&mut self, id: ParamId, shape: (usize, usize)) -> (&mut Matrix, &mut Matrix) {
        let i = id.index();
        if self.m.len() <= i {
            self.m.resize_with(i + 1, || None);
            self.v.resize_with(i + 1, || None);
        }
        // Split borrows: m and v are distinct fields.
        let zeros = || Matrix::zeros(shape.0, shape.1);
        (
            self.m[i].get_or_insert_with(zeros),
            self.v[i].get_or_insert_with(zeros),
        )
    }

    /// Apply one update from `grads` into `store`.
    pub fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        self.t += 1;
        let k = StepConsts {
            lr: self.lr,
            b1: self.beta1,
            b2: self.beta2,
            eps: self.eps,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
        };
        for (id, g) in grads.stored() {
            let shape = store.value(id).shape();
            let full_shape = match g {
                Grad::Dense(g) => g.shape(),
                Grad::Rows(g) => (g.table_rows, g.values.cols()),
            };
            assert_eq!(
                full_shape,
                shape,
                "gradient/param shape mismatch for {}",
                store.name(id)
            );
            if let Grad::Rows(g) = g {
                assert!(
                    g.ids.last().is_none_or(|&r| (r as usize) < shape.0),
                    "gradient row out of {} rows for {}",
                    shape.0,
                    store.name(id)
                );
            }
            let (m, v) = self.slot(id, shape);
            let (md, vd) = (m.as_mut_slice(), v.as_mut_slice());
            let pd = store.value_mut(id).as_mut_slice();
            match g {
                Grad::Dense(g) => k.apply(pd, md, vd, Some(g.as_slice())),
                Grad::Rows(g) => k.apply_rows(g, pd, md, vd),
            }
        }
    }
}

/// Clip gradients to a maximum global L2 norm; returns the pre-clip norm.
pub fn clip_global_norm(grads: &mut Gradients, max_norm: f64) -> f64 {
    let norm = grads.global_norm();
    if norm > max_norm && norm > 0.0 {
        grads.scale_all((max_norm / norm) as f32);
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::tape::Tape;
    use std::rc::Rc;

    /// Minimise ||w - target||^2 with Adam; should converge quickly.
    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let id = store.create("w", Matrix::zeros(2, 2));
        let target = Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 3.0]);
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            let mut tape = Tape::new();
            let w = tape.param(&store, id);
            let t = tape.input(target.clone());
            let neg_t = tape.scale(t, -1.0);
            let d = tape.add(w, neg_t);
            let sq = tape.mul(d, d);
            let loss = tape.sum(sq);
            let grads = tape.backward(loss);
            opt.step(&mut store, &grads);
        }
        for (a, b) in store.value(id).as_slice().iter().zip(target.as_slice()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
        assert_eq!(opt.steps(), 300);
    }

    /// `train_ckpt.json`'s optimizer layout: the field order, `null` for a
    /// parameter without moments, and whole-table moments after a
    /// row-sparse step.
    #[test]
    fn serde_pins_the_adam_layout() {
        let mut store = ParamStore::new();
        let unused = store.create("unused", Matrix::zeros(1, 1));
        let table = store.create("table", Matrix::zeros(3, 1));
        let mut opt = Adam::new(0.5);
        (opt.beta1, opt.beta2, opt.eps) = (0.5, 0.75, 0.25);
        let mut tape = Tape::new();
        let rows = tape.gather_param_rows(&store, table, Rc::new(vec![1]));
        let loss = tape.scale(rows, 2.0);
        let loss = tape.sum(loss);
        opt.step(&mut store, &tape.backward(loss));
        let json = serde_json::to_string(&opt).unwrap();
        assert_eq!(
            json,
            r#"{"lr":0.5,"beta1":0.5,"beta2":0.75,"eps":0.25,"t":1,"m":[null,{"rows":3,"cols":1,"data":[0.0,1.0,0.0]}],"v":[null,{"rows":3,"cols":1,"data":[0.0,1.0,0.0]}]}"#
        );
        let back: Adam = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(store.value(unused).item(), 0.0);
    }

    /// An optimizer written out and read back mid-run continues exactly as
    /// the one that never stopped, through row-sparse steps that leave
    /// rows idle with non-zero moments.
    #[test]
    fn adam_reloaded_mid_run_matches_the_uninterrupted_run() {
        let mut init = ParamStore::new();
        let table = init.create(
            "table",
            Matrix::from_fn(40, 3, |r, c| (r * 3 + c) as f32 * 0.01),
        );
        let run = |reload_at: Option<usize>| {
            let mut store = init.clone();
            let mut opt = Adam::new(0.05);
            for step in 0..12u32 {
                if reload_at == Some(step as usize) {
                    let json = serde_json::to_string(&opt).unwrap();
                    opt = serde_json::from_str(&json).unwrap();
                }
                // a few rows per step, drifting, so rows go idle with
                // non-zero moments
                let idx: Vec<u32> = (0..4).map(|i| (step * 3 + i * 7) % 40).collect();
                let mut tape = Tape::new();
                let rows = tape.gather_param_rows(&store, table, Rc::new(idx));
                let sq = tape.mul(rows, rows);
                let loss = tape.sum(sq);
                opt.step(&mut store, &tape.backward(loss));
            }
            (
                store.value(table).clone(),
                serde_json::to_string(&opt).unwrap(),
            )
        };
        let (want, want_opt) = run(None);
        for at in [1, 6, 11] {
            let (got, got_opt) = run(Some(at));
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "reloaded before step {at}");
            assert_eq!(got_opt, want_opt, "reloaded before step {at}");
        }
    }

    #[test]
    fn clipping_reduces_norm() {
        let mut store = ParamStore::new();
        let id = store.create("w", Matrix::full(10, 10, 5.0));
        let mut tape = Tape::new();
        let w = tape.param(&store, id);
        let s = tape.scale(w, 100.0);
        let loss = tape.sum(s);
        let mut grads = tape.backward(loss);
        let pre = clip_global_norm(&mut grads, 1.0);
        assert!(pre > 1.0);
        assert!((grads.global_norm() - 1.0).abs() < 1e-4);
    }
}
