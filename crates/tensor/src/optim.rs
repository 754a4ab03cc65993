//! The Adam optimizer (the paper's choice for TGAE-style models) and
//! global-norm gradient clipping.

use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::tape::Gradients;
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
        if self.m[i].is_none() {
            self.m[i] = Some(Matrix::zeros(shape.0, shape.1));
            self.v[i] = Some(Matrix::zeros(shape.0, shape.1));
        }
        // Split borrows: m and v are distinct fields.
        #[expect(clippy::expect_used, reason = "both slots were filled a few lines up")]
        let m = self.m[i].as_mut().expect("just initialised");
        #[expect(clippy::expect_used, reason = "both slots were filled a few lines up")]
        let v = self.v[i].as_mut().expect("just initialised");
        (m, v)
    }

    /// Apply one update from `grads` into `store`.
    pub fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        for (id, g) in grads.iter() {
            let shape = store.value(id).shape();
            assert_eq!(
                g.shape(),
                shape,
                "gradient/param shape mismatch for {}",
                store.name(id)
            );
            let (m, v) = self.slot(id, shape);
            let md = m.as_mut_slice();
            let vd = v.as_mut_slice();
            let gd = g.as_slice();
            let pd = store.value_mut(id).as_mut_slice();
            for i in 0..pd.len() {
                let gi = gd[i];
                md[i] = b1 * md[i] + (1.0 - b1) * gi;
                vd[i] = b2 * vd[i] + (1.0 - b2) * gi * gi;
                let mhat = md[i] / bc1;
                let vhat = vd[i] / bc2;
                pd[i] -= lr * mhat / (vhat.sqrt() + eps);
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
