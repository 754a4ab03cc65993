//! `tg-tensor`: a minimal dense `f32` tensor library with reverse-mode
//! automatic differentiation, built as the training substrate for the TGAE
//! reproduction (ICDE 2025, "Efficient Learning-based Graph Simulation for
//! Temporal Graphs").
//!
//! The paper trains its models with PyTorch on a V100 GPU. This crate
//! replaces that stack with a CPU implementation that keeps the same
//! *batched* computation structure: the op set includes the row
//! gather/scatter and segment-softmax kernels needed to run merged
//! k-bipartite computation graphs (paper §IV-C, Fig. 4) as single fused
//! steps, parallelised across rows with a scoped thread pool.
//!
//! # Layout
//! - [`matrix`] — dense row-major matrix + raw kernels (matmul variants,
//!   gather/scatter, segment softmax).
//! - [`tape`] — the autodiff tape and op set, including fused losses.
//! - [`params`] — parameter storage shared between layers and optimizers.
//! - [`nn`] — Linear / MLP / Embedding layers.
//! - [`optim`] — Adam, gradient clipping.
//! - [`init`] — Xavier init, Box–Muller normals, categorical sampling.
//! - [`parallel`] — chunked thread-pool helpers.
//!
//! # Example
//! ```
//! use tg_tensor::prelude::*;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut store = ParamStore::new();
//! let mut rng = SmallRng::seed_from_u64(0);
//! let layer = Linear::new(&mut store, &mut rng, "demo", 3, 2);
//! let mut opt = Adam::new(1e-2);
//!
//! for _ in 0..10 {
//!     let mut tape = Tape::new();
//!     let x = tape.input(Matrix::full(4, 3, 1.0));
//!     let y = layer.forward(&mut tape, &store, x);
//!     let loss = tape.sum(y);
//!     let grads = tape.backward(loss);
//!     opt.step(&mut store, &grads);
//! }
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

pub mod init;
pub mod matrix;
pub mod nn;
pub mod optim;
pub mod parallel;
pub mod params;
pub mod tape;

/// One-stop imports for model code.
pub mod prelude {
    pub use crate::init::{
        normal_matrix, sample_categorical, sample_categorical_without_replacement, standard_normal,
        xavier_uniform,
    };
    pub use crate::matrix::{
        active_microkernel, available_microkernels, force_microkernel, Matrix, MicrokernelKind,
    };
    pub use crate::nn::{Activation, Embedding, Linear, Mlp};
    pub use crate::optim::{clip_global_norm, Adam};
    pub use crate::params::{ParamId, ParamStore};
    pub use crate::tape::{Gradients, SparseTarget, Tape, Var};
}

#[cfg(test)]
mod integration_tests {
    use crate::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::rc::Rc;

    /// End-to-end: a one-layer "attention" toy where messages from three
    /// source nodes are softmax-weighted into one target, trained so the
    /// target matches a known vector. Exercises gather/segment-softmax/
    /// scale_rows/scatter as a unit (the TGAT layer uses exactly this
    /// pipeline).
    #[test]
    fn attention_pipeline_trains() {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(11);
        let emb = Embedding::new(&mut store, &mut rng, "emb", 4, 4);
        let att = Linear::new(&mut store, &mut rng, "att", 8, 1);
        let target = Matrix::from_vec(1, 4, vec![1.0, -1.0, 0.5, 0.0]);
        let src: Rc<Vec<u32>> = Rc::new(vec![0, 1, 2]);
        let dst: Rc<Vec<u32>> = Rc::new(vec![3, 3, 3]);
        let seg: Rc<Vec<u32>> = Rc::new(vec![0, 0, 0]);
        let mut opt = Adam::new(0.05);
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            let mut tape = Tape::new();
            let all: Rc<Vec<u32>> = Rc::new(vec![0, 1, 2, 3]);
            let h = emb.forward(&mut tape, &store, all);
            let hs = tape.gather_rows(h, src.clone());
            let hd = tape.gather_rows(h, dst.clone());
            let cat = tape.concat_cols(hs, hd);
            let score = att.forward(&mut tape, &store, cat);
            let score = tape.leaky_relu(score, 0.2);
            let alpha = tape.segment_softmax(score, seg.clone(), 1);
            let weighted = tape.scale_rows(hs, alpha);
            let agg = tape.scatter_add_rows(weighted, seg.clone(), 1);
            let t = tape.input(target.clone());
            let neg_t = tape.scale(t, -1.0);
            let d = tape.add(agg, neg_t);
            let sq = tape.mul(d, d);
            let loss = tape.sum(sq);
            last = tape.value(loss).item();
            let grads = tape.backward(loss);
            opt.step(&mut store, &grads);
        }
        assert!(last < 1e-2, "attention toy did not converge: {last}");
    }
}
