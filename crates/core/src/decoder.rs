//! Variational ego-graph decoder — paper §IV-D, Algorithm 2.
//!
//! Two MLPs infer the posterior parameters `μ, log σ²` from ego-node
//! features; the reparameterised latent `Z = μ + σ ⊙ ε` seeds a recursive
//! reconstruction that walks the ego-graph outward from the center:
//! every visited temporal node `v` receives a decode state
//! `h(v) = h(parent) + Z(v)` and emits a categorical edge-probability row
//! `softmax(h(v) W_dec + b_dec)` over (a candidate set of) the `n` nodes.
//!
//! Implementation note (documented interpretation): Algorithm 2 emits rows
//! only at recursion depth `k`, yet the loss (Eq. 7) is the cross-entropy
//! of the *center's* adjacency row. We emit a row at **every** visited
//! node — the center at depth 0 (which realises Eq. 7 exactly) and each
//! sampled neighbor at depths `1..k` (which realises the "reconstruct the
//! entire ego-graph evolutionarily" description). Deduplicated slots with
//! several parents average their parents' decode states, keeping the batch
//! computation a DAG pass rather than a per-path walk.
//!
//! For graphs larger than `dense_cutoff` the softmax runs over a sampled
//! candidate set (all positive targets plus uniform negatives) — a sampled
//! softmax, which is what keeps decoding memory `O(n(T + n_s))` rather
//! than `O(T n²)`.
//!
//! Training reads `W_dec` and `b_dec` by candidate row
//! ([`EgoDecoder::candidate_rows`], a fused gather from the parameter
//! store): a forward pass holds `|C|` decoder rows, never the `n`-row
//! tables, and their gradients are scatter-added from those rows. It
//! scores every decode level against one gather of them. Generation
//! scores level 0 only, `h₀ = enc[0] + μ[centers]`, off the tape, and
//! reads a dense candidate set's rows in place (`Tgae::generation_rows`).
//!
//! A training step hands each level's decode states, the gathered rows
//! and the level's targets to [`tg_tensor::tape::Tape::score_xent`]: one
//! tape op that scores only the slots that carry a target, one L2-sized
//! block of rows at a time: each block's scores are biased,
//! exponentiated and turned into their gradient before the next block
//! is scored, so no `R × |C|` matrix outlives a block, and the op keeps
//! only the gradients of its inputs. [`EgoDecoder::score`] — the
//! same logits for every slot, as separate `matmul_nt` → `transpose` →
//! `add_row` ops, feeding [`tg_tensor::tape::Tape::softmax_xent`] — is
//! the reference the fused op is tested against bit for bit
//! (`tests/train_step_oracle.rs`); the training pass does not call it.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::rc::Rc;
use tg_graph::NodeId;
use tg_sampling::ComputationGraph;
use tg_tensor::matrix::Matrix;
use tg_tensor::prelude::*;

/// The decoder parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EgoDecoder {
    /// `MLP_mu`: features -> latent mean.
    pub mlp_mu: Mlp,
    /// `MLP_sigma`: features -> latent log-variance.
    pub mlp_logvar: Mlp,
    /// Per-node output rows `W_dec` (`n x d_model`).
    pub w_dec: ParamId,
    /// Per-node output bias `b_dec` (`n x 1`).
    pub b_dec: ParamId,
    /// Latent / decode-state dimension `d_att`.
    pub d_model: usize,
    /// Number of nodes (rows of `W_dec`).
    pub n_nodes: usize,
}

impl EgoDecoder {
    /// Initialise the decoder parameters (Xavier) into `store`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        rng: &mut R,
        d_in: usize,
        d_model: usize,
        n_nodes: usize,
    ) -> Self {
        let mlp_mu = Mlp::new(store, rng, "dec.mu", &[d_in, d_model], Activation::Identity);
        let mlp_logvar = Mlp::new(
            store,
            rng,
            "dec.logvar",
            &[d_in, d_model],
            Activation::Identity,
        );
        let w_dec = store.create("dec.w", xavier_uniform(rng, n_nodes, d_model));
        let b_dec = store.create("dec.b", Matrix::zeros(n_nodes, 1));
        EgoDecoder {
            mlp_mu,
            mlp_logvar,
            w_dec,
            b_dec,
            d_model,
            n_nodes,
        }
    }

    /// Latent `Z` for all slots. Probabilistic mode draws
    /// `Z = μ + exp(logvar/2) ⊙ ε`; deterministic mode (TGAE-p, Eq. 8) uses
    /// `Z = μ`. `x_all` are the slot features (flattened level order).
    pub fn latent<R: Rng + ?Sized>(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x_all: Var,
        probabilistic: bool,
        rng: &mut R,
    ) -> (Var, Var, Option<Var>) {
        let mu = self.mlp_mu.forward(tape, store, x_all);
        if !probabilistic {
            return (mu, mu, None);
        }
        let logvar = self.mlp_logvar.forward(tape, store, x_all);
        let (rows, cols) = tape.shape(mu);
        let half = tape.scale(logvar, 0.5);
        let std = tape.exp(half);
        let eps = tape.input(normal_matrix(rng, rows, cols, 1.0));
        let noise = tape.mul(std, eps);
        let z = tape.add(mu, noise);
        (z, mu, Some(logvar))
    }

    /// Walk the computation graph outward, producing decode states per
    /// level: the centers' `h[0] = h_center_enc + Z[centers]` (the
    /// centers are the first slots), then for each bipartite layer,
    /// children receive the mean of their parents' states plus their own
    /// `Z` row.
    pub fn decode_levels(
        &self,
        tape: &mut Tape,
        cg: &ComputationGraph,
        h_center_enc: Var,
        z_all: Var,
        level_offsets: &[usize],
    ) -> Vec<Var> {
        let k = cg.k();
        let mut levels = Vec::with_capacity(k + 1);
        let z0 = tape.gather_rows(z_all, Rc::new((0..level_offsets[1] as u32).collect()));
        levels.push(tape.add(h_center_enc, z0));
        for (i, layer) in cg.layers.iter().enumerate() {
            // mean over parent contributions per child slot
            let mut counts = vec![0f32; layer.n_sources];
            for &s in layer.src.iter() {
                counts[s as usize] += 1.0;
            }
            let w: Vec<f32> = layer
                .src
                .iter()
                .map(|&s| 1.0 / counts[s as usize])
                .collect();
            let w_in = tape.input(Matrix::from_vec(w.len(), 1, w));
            let parent_rows = tape.gather_rows(levels[i], layer.dst.clone());
            let weighted = tape.scale_rows(parent_rows, w_in);
            let agg = tape.scatter_add_rows(weighted, layer.src.clone(), layer.n_sources);
            let lo = level_offsets[i + 1] as u32;
            let hi = level_offsets[i + 2] as u32;
            let z_i = tape.gather_rows(z_all, Rc::new((lo..hi).collect()));
            levels.push(tape.add(agg, z_i));
        }
        levels
    }

    /// The decoder rows and biases of a candidate set, `(W_dec[C], b_dec[C])`
    /// as `|C| x d_model` and `|C| x 1`, gathered straight from the store:
    /// the tape never holds the `n`-row tables, and their gradients are
    /// scatter-added from the candidate rows.
    pub fn candidate_rows(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        candidates: Rc<Vec<u32>>,
    ) -> (Var, Var) {
        let w_c = tape.gather_param_rows(store, self.w_dec, candidates.clone());
        let b_c = tape.gather_param_rows(store, self.b_dec, candidates);
        (w_c, b_c)
    }

    /// Score decode states against a candidate node set:
    /// `logits = H W_dec[C]^T + b_dec[C]` (`rows x |C|`), every row, as
    /// separate tape ops — the reference for
    /// [`tg_tensor::tape::Tape::score_xent`], which training uses instead.
    pub fn score(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        h: Var,
        candidates: Rc<Vec<u32>>,
    ) -> Var {
        let (w_c, b_c) = self.candidate_rows(tape, store, candidates);
        let logits = tape.matmul_nt(h, w_c);
        let b_row = tape.transpose(b_c);
        tape.add_row(logits, b_row)
    }
}

/// Build a candidate set: all `positives`, plus `n_negatives` uniform
/// draws, deduplicated. In dense mode (`n <= dense_cutoff`) returns all
/// nodes. Returns `(candidates, index_of_candidate_by_node)` where the
/// lookup maps a global node id to its candidate column (dense vector,
/// `u32::MAX` = absent).
pub fn build_candidates<R: Rng + ?Sized>(
    n_nodes: usize,
    positives: impl Iterator<Item = NodeId>,
    dense_cutoff: usize,
    n_negatives: usize,
    rng: &mut R,
) -> (Rc<Vec<u32>>, Vec<u32>) {
    let mut lookup = vec![u32::MAX; n_nodes];
    if n_nodes <= dense_cutoff {
        let cands: Vec<u32> = (0..n_nodes as u32).collect();
        for (i, slot) in lookup.iter_mut().enumerate() {
            *slot = i as u32;
        }
        return (Rc::new(cands), lookup);
    }
    let mut cands: Vec<u32> = Vec::new();
    let push = |v: u32, cands: &mut Vec<u32>, lookup: &mut Vec<u32>| {
        if lookup[v as usize] == u32::MAX {
            lookup[v as usize] = cands.len() as u32;
            cands.push(v);
        }
    };
    for v in positives {
        push(v, &mut cands, &mut lookup);
    }
    for _ in 0..n_negatives {
        let v = rng.gen_range(0..n_nodes) as u32;
        push(v, &mut cands, &mut lookup);
    }
    (Rc::new(cands), lookup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tg_graph::{TemporalEdge, TemporalGraph};
    use tg_sampling::SamplerConfig;

    fn setup() -> (TemporalGraph, ComputationGraph) {
        let g = TemporalGraph::from_edges(
            4,
            2,
            vec![
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(1, 2, 0),
                TemporalEdge::new(2, 3, 1),
            ],
        );
        let cfg = SamplerConfig {
            k: 2,
            threshold: 8,
            time_window: 1,
            degree_weighted: true,
        };
        let mut rng = SmallRng::seed_from_u64(0);
        let cg = ComputationGraph::build(&g, &[(1, 0), (2, 1)], &cfg, &mut rng);
        (g, cg)
    }

    #[test]
    fn latent_shapes_probabilistic_and_not() {
        let (_, cg) = setup();
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let dec = EgoDecoder::new(&mut store, &mut rng, 6, 8, 4);
        let n_slots = cg.n_slots();
        let mut tape = Tape::new();
        let x = tape.input(Matrix::full(n_slots, 6, 0.1));
        let (z, mu, logvar) = dec.latent(&mut tape, &store, x, true, &mut rng);
        assert_eq!(tape.shape(z), (n_slots, 8));
        assert_eq!(tape.shape(mu), (n_slots, 8));
        assert!(logvar.is_some());
        // non-probabilistic: z == mu, no logvar
        let mut tape2 = Tape::new();
        let x2 = tape2.input(Matrix::full(n_slots, 6, 0.1));
        let (z2, mu2, lv2) = dec.latent(&mut tape2, &store, x2, false, &mut rng);
        assert_eq!(z2, mu2);
        assert!(lv2.is_none());
    }

    #[test]
    fn decode_levels_shapes() {
        let (_, cg) = setup();
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(2);
        let dec = EgoDecoder::new(&mut store, &mut rng, 6, 8, 4);
        let (_, offsets) = cg.all_slots();
        let mut tape = Tape::new();
        let h_enc = tape.input(Matrix::full(cg.centers().len(), 8, 0.2));
        let z = tape.input(Matrix::full(cg.n_slots(), 8, 0.1));
        let levels = dec.decode_levels(&mut tape, &cg, h_enc, z, &offsets);
        assert_eq!(levels.len(), cg.k() + 1);
        for (i, lvl) in levels.iter().enumerate() {
            assert_eq!(tape.shape(*lvl), (cg.levels[i].len(), 8), "level {i}");
        }
    }

    #[test]
    fn score_shapes_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let dec = EgoDecoder::new(&mut store, &mut rng, 6, 8, 10);
        let mut tape = Tape::new();
        let h = tape.input(normal_matrix(&mut rng, 3, 8, 1.0));
        let cands: Rc<Vec<u32>> = Rc::new(vec![0, 3, 7]);
        let logits = dec.score(&mut tape, &store, h, cands);
        assert_eq!(tape.shape(logits), (3, 3));
    }

    #[test]
    fn candidates_dense_mode() {
        let mut rng = SmallRng::seed_from_u64(4);
        let (c, lookup) = build_candidates(100, [5u32, 7].into_iter(), 4096, 10, &mut rng);
        assert_eq!(c.len(), 100);
        assert_eq!(lookup[42], 42);
    }

    #[test]
    fn candidates_sparse_mode_contains_positives() {
        let mut rng = SmallRng::seed_from_u64(5);
        let (c, lookup) =
            build_candidates(10_000, [42u32, 4242, 42].into_iter(), 100, 16, &mut rng);
        assert!(c.len() <= 2 + 16);
        assert!(lookup[42] != u32::MAX);
        assert!(lookup[4242] != u32::MAX);
        // dedup: 42 appears once
        assert_eq!(c.iter().filter(|&&v| v == 42).count(), 1);
        // lookup is consistent
        for (col, &v) in c.iter().enumerate() {
            assert_eq!(lookup[v as usize] as usize, col);
        }
    }

    #[test]
    fn gradients_flow_through_decoder() {
        let (g, cg) = setup();
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(6);
        let dec = EgoDecoder::new(&mut store, &mut rng, 6, 8, g.n_nodes());
        let (slots, offsets) = cg.all_slots();
        let mut tape = Tape::new();
        let x = tape.input(normal_matrix(&mut rng, cg.n_slots(), 6, 0.5));
        let (z, _mu, logvar) = dec.latent(&mut tape, &store, x, true, &mut rng);
        let h_enc = tape.input(normal_matrix(&mut rng, cg.centers().len(), 8, 0.5));
        let levels = dec.decode_levels(&mut tape, &cg, h_enc, z, &offsets);
        let cands: Rc<Vec<u32>> = Rc::new((0..g.n_nodes() as u32).collect());
        // loss: xent of level-0 rows against observed out-neighbors
        let mut targets = Vec::new();
        for (r, &(v, t)) in cg.centers().iter().enumerate() {
            for nb in g.out_neighbors_at(v, t) {
                targets.push((r as u32, nb, 1.0f32));
            }
        }
        assert!(!targets.is_empty());
        let logits = dec.score(&mut tape, &store, levels[0], cands);
        let xent = tape.softmax_xent(logits, Rc::new(targets), 1.0);
        let kl = {
            let lv = logvar.unwrap();
            let mu2 = tape.gather_rows(z, Rc::new((0..slots.len() as u32).collect()));
            tape.kl_normal(mu2, lv, 0.01)
        };
        let loss = tape.add(xent, kl);
        let grads = tape.backward(loss);
        assert!(grads.get(dec.w_dec).is_some());
        assert!(grads.get(dec.b_dec).is_some());
        assert!(grads.get(dec.mlp_mu.layers[0].w).is_some());
    }
}
