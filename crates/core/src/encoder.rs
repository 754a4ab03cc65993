//! Temporal graph attention (TGAT) encoder — paper §IV-C, Eqs. 3–5.
//!
//! The encoder stacks `k` multi-head graph-attention layers over the
//! merged k-bipartite computation graph, passing messages from the
//! periphery (level `k`) inward to the centers (level 0). One layer runs
//! per bipartite level, exactly the batched schedule of Fig. 4.
//!
//! Per head `i` (Eqs. 4–5):
//! `α_{u,v} = softmax_v( LeakyReLU( a_i^T [W h_v ‖ W h_u] ) )` over the
//! sampled in-neighborhood of each target, followed by the α-weighted sum
//! of projected source messages; heads are concatenated and projected by
//! `W_o` (Eq. 3). Every target has a self-loop source slot, so segments
//! are never empty.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::rc::Rc;
use tg_sampling::{BipartiteLayer, ComputationGraph};
use tg_tensor::prelude::*;

/// Negative slope of the LeakyReLU on the attention logits (Eq. 5) and on
/// the aggregated messages (σ of Eq. 4).
const LEAKY_SLOPE: f32 = 0.2;

/// One attention head's parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct TgaHead {
    /// Projection `W` (`in_dim x d_head`).
    w: ParamId,
    /// Attention vector, source half (`d_head x 1`).
    a_src: ParamId,
    /// Attention vector, target/query half (`d_head x 1`).
    a_dst: ParamId,
}

impl TgaHead {
    /// `(hw, s_src, s_dst)`: the projected source rows `h_src W`
    /// (`n_src x d_head`) and their products with the two halves of the
    /// attention vector (`n_src x 1` each; `s_dst` is read at self slots).
    fn project(&self, tape: &mut Tape, store: &ParamStore, h_src: Var) -> (Var, Var, Var) {
        let w = tape.param(store, self.w);
        let hw = tape.matmul(h_src, w);
        let a_s = tape.param(store, self.a_src);
        let a_d = tape.param(store, self.a_dst);
        (hw, tape.matmul(hw, a_s), tape.matmul(hw, a_d))
    }
}

/// One multi-head TGAT layer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TgatLayer {
    heads: Vec<TgaHead>,
    /// Output projection `W_o` (`heads*d_head x out_dim`), Eq. 3.
    w_o: Linear,
    /// Input row width this layer consumes.
    pub in_dim: usize,
    /// Per-head hidden dimension `d_enc`.
    pub d_head: usize,
    /// Output row width after the `W_o` projection.
    pub out_dim: usize,
}

impl TgatLayer {
    /// Initialise one multi-head layer's parameters (Xavier) into `store`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        d_head: usize,
        n_heads: usize,
        out_dim: usize,
    ) -> Self {
        let heads = (0..n_heads)
            .map(|h| TgaHead {
                w: store.create(
                    format!("{name}.h{h}.w"),
                    xavier_uniform(rng, in_dim, d_head),
                ),
                a_src: store.create(format!("{name}.h{h}.a_src"), xavier_uniform(rng, d_head, 1)),
                a_dst: store.create(format!("{name}.h{h}.a_dst"), xavier_uniform(rng, d_head, 1)),
            })
            .collect();
        let w_o = Linear::new(
            store,
            rng,
            &format!("{name}.w_o"),
            n_heads * d_head,
            out_dim,
        );
        TgatLayer {
            heads,
            w_o,
            in_dim,
            d_head,
            out_dim,
        }
    }

    /// Run one bipartite attention step: `h_src` are source-level hidden
    /// rows (`n_sources x in_dim`); returns target-level rows
    /// (`n_targets x out_dim`).
    ///
    /// Per head the tape holds the projection `hw = h_src W` and the two
    /// halves `hw a_src`, `hw a_dst` of the attention logit; one
    /// [`Tape::gat_attend`] then does Eqs. 4–5 for every head, and `W_o`
    /// projects its concatenated output (Eq. 3).
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        h_src: Var,
        layer: &BipartiteLayer,
    ) -> Var {
        assert_eq!(tape.shape(h_src).0, layer.n_sources, "source row mismatch");
        let heads: Vec<(Var, Var, Var)> = self
            .heads
            .iter()
            .map(|head| head.project(tape, store, h_src))
            .collect();
        let cat = tape.gat_attend(
            &heads,
            layer.src.clone(),
            layer.dst.clone(),
            layer.self_idx.clone(),
            LEAKY_SLOPE,
        );
        self.w_o.forward(tape, store, cat)
    }

    /// [`TgatLayer::forward`] with the attention of each head recorded op
    /// by op — three gathers, `add`, `leaky_relu`, `segment_softmax`,
    /// `scale_rows`, `scatter_add_rows`, `leaky_relu`, then `concat_cols`
    /// across heads — as it was before [`Tape::gat_attend`]. The test
    /// reference that op is held against bit for bit, values and
    /// gradients (`tests/generation_rows_oracle.rs`,
    /// `tests/train_step_oracle.rs`); nothing else calls it.
    pub fn forward_reference(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        h_src: Var,
        layer: &BipartiteLayer,
    ) -> Var {
        assert_eq!(tape.shape(h_src).0, layer.n_sources, "source row mismatch");
        // per-edge index of the target's own (self-loop) source slot
        let query_idx: Rc<Vec<u32>> = Rc::new(
            layer
                .dst
                .iter()
                .map(|&d| layer.self_idx[d as usize])
                .collect(),
        );
        let mut head_outs = Vec::with_capacity(self.heads.len());
        for head in &self.heads {
            let (hw, s_src, s_dst) = head.project(tape, store, h_src);
            let e_src = tape.gather_rows(s_src, layer.src.clone());
            let e_dst = tape.gather_rows(s_dst, query_idx.clone());
            let e_sum = tape.add(e_src, e_dst);
            let e = tape.leaky_relu(e_sum, LEAKY_SLOPE); // Eq. 5
            let alpha = tape.segment_softmax(e, layer.dst.clone(), layer.n_targets);
            let msgs = tape.gather_rows(hw, layer.src.clone());
            let weighted = tape.scale_rows(msgs, alpha);
            let agg = tape.scatter_add_rows(weighted, layer.dst.clone(), layer.n_targets);
            head_outs.push(tape.leaky_relu(agg, LEAKY_SLOPE)); // σ of Eq. 4
        }
        // Concat heads then project (Eq. 3).
        let mut cat = head_outs[0];
        for &h in &head_outs[1..] {
            cat = tape.concat_cols(cat, h);
        }
        self.w_o.forward(tape, store, cat)
    }
}

/// The stacked k-layer encoder. Layer `i` consumes level `i+1` rows and
/// produces level `i` rows; `layers[k-1]` (the outermost) reads the raw
/// `d_in` features, every other layer reads `d_model` hidden rows.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TgatEncoder {
    /// `layers[i]` maps level `i+1` rows to level `i` rows; index `k-1`
    /// is the outermost (reads raw `d_in` features).
    pub layers: Vec<TgatLayer>,
}

impl TgatEncoder {
    /// Initialise the `k` stacked layers' parameters into `store`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        rng: &mut R,
        k: usize,
        d_in: usize,
        d_head: usize,
        heads: usize,
        d_model: usize,
    ) -> Self {
        assert!(k >= 1, "encoder needs at least one layer");
        let layers = (0..k)
            .map(|i| {
                let in_dim = if i == k - 1 { d_in } else { d_model };
                TgatLayer::new(
                    store,
                    rng,
                    &format!("enc.l{i}"),
                    in_dim,
                    d_head,
                    heads,
                    d_model,
                )
            })
            .collect();
        TgatEncoder { layers }
    }

    /// Encode the computation graph. `outer_features` are the raw features
    /// of the deepest level (`levels[k]`). Returns hidden rows for every
    /// level `0..k` (index 0 = centers).
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        cg: &ComputationGraph,
        outer_features: Var,
    ) -> Vec<Var> {
        self.forward_with(TgatLayer::forward, tape, store, cg, outer_features)
    }

    /// [`TgatEncoder::forward`] over [`TgatLayer::forward_reference`]: the
    /// op-by-op encoder the oracle tests compare against; no production
    /// caller.
    pub fn forward_reference(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        cg: &ComputationGraph,
        outer_features: Var,
    ) -> Vec<Var> {
        self.forward_with(
            TgatLayer::forward_reference,
            tape,
            store,
            cg,
            outer_features,
        )
    }

    fn forward_with(
        &self,
        layer_forward: fn(&TgatLayer, &mut Tape, &ParamStore, Var, &BipartiteLayer) -> Var,
        tape: &mut Tape,
        store: &ParamStore,
        cg: &ComputationGraph,
        outer_features: Var,
    ) -> Vec<Var> {
        let k = self.layers.len();
        assert_eq!(cg.k(), k, "computation graph radius != encoder depth");
        let mut h = outer_features;
        let mut per_level: Vec<Var> = Vec::with_capacity(k);
        for i in (0..k).rev() {
            h = layer_forward(&self.layers[i], tape, store, h, &cg.layers[i]);
            per_level.push(h);
        }
        per_level.reverse(); // now index 0 = centers
        per_level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tg_graph::{TemporalEdge, TemporalGraph};
    use tg_sampling::SamplerConfig;

    fn toy_graph() -> TemporalGraph {
        TemporalGraph::from_edges(
            5,
            2,
            vec![
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(1, 2, 0),
                TemporalEdge::new(2, 3, 1),
                TemporalEdge::new(3, 4, 1),
                TemporalEdge::new(0, 4, 1),
            ],
        )
    }

    fn build_cg(k: usize) -> ComputationGraph {
        let g = toy_graph();
        let cfg = SamplerConfig {
            k,
            threshold: 10,
            time_window: 1,
            degree_weighted: true,
        };
        let mut rng = SmallRng::seed_from_u64(0);
        ComputationGraph::build(&g, &[(0, 0), (2, 1)], &cfg, &mut rng)
    }

    #[test]
    fn layer_shapes() {
        let cg = build_cg(1);
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let layer = TgatLayer::new(&mut store, &mut rng, "l", 6, 4, 2, 8);
        let mut tape = Tape::new();
        let h = tape.input(Matrix::full(cg.layers[0].n_sources, 6, 0.1));
        let out = layer.forward(&mut tape, &store, h, &cg.layers[0]);
        assert_eq!(tape.shape(out), (cg.layers[0].n_targets, 8));
    }

    #[test]
    fn encoder_stacks_to_centers() {
        let cg = build_cg(2);
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(2);
        let enc = TgatEncoder::new(&mut store, &mut rng, 2, 6, 4, 2, 8);
        let mut tape = Tape::new();
        let feats = tape.input(Matrix::full(cg.levels[2].len(), 6, 0.1));
        let levels = enc.forward(&mut tape, &store, &cg, feats);
        assert_eq!(levels.len(), 2);
        assert_eq!(tape.shape(levels[0]), (cg.levels[0].len(), 8));
        assert_eq!(tape.shape(levels[1]), (cg.levels[1].len(), 8));
    }

    /// A layer at the default widths is four heads of six nodes
    /// (`W`, `hW`, `a_src`, `a_dst` and the two logit halves), one
    /// `gat_attend` and the four nodes of `W_o` (op by op it was 67).
    #[test]
    fn a_default_config_layer_records_29_nodes() {
        let cfg = crate::config::TgaeConfig::default();
        let k = cfg.sampler.k;
        let cg = build_cg(k);
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(6);
        let enc = TgatEncoder::new(
            &mut store,
            &mut rng,
            k,
            cfg.d_in,
            cfg.d_head,
            cfg.heads,
            cfg.d_model,
        );
        let mut tape = Tape::new();
        let feats = tape.input(Matrix::full(cg.levels[k].len(), cfg.d_in, 0.1));
        let before = tape.len();
        enc.forward(&mut tape, &store, &cg, feats);
        assert_eq!(tape.len() - before, 29 * k);
    }

    #[test]
    fn gradients_flow_to_all_layer_params() {
        let cg = build_cg(2);
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let enc = TgatEncoder::new(&mut store, &mut rng, 2, 6, 4, 2, 8);
        let n_params = store.len();
        let mut tape = Tape::new();
        let feats = tape.input(Matrix::full(cg.levels[2].len(), 6, 0.3));
        let levels = enc.forward(&mut tape, &store, &cg, feats);
        let loss = tape.sum(levels[0]);
        let grads = tape.backward(loss);
        let with_grad = grads.iter().count();
        assert_eq!(with_grad, n_params, "some encoder params got no gradient");
    }

    #[test]
    fn attention_weights_differ_for_different_inputs() {
        // with random (non-constant) features, two different targets should
        // generally produce different center outputs
        let cg = build_cg(1);
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(4);
        let layer = TgatLayer::new(&mut store, &mut rng, "l", 6, 4, 2, 8);
        let mut tape = Tape::new();
        let feats = normal_matrix(&mut rng, cg.layers[0].n_sources, 6, 1.0);
        let h = tape.input(feats);
        let out = layer.forward(&mut tape, &store, h, &cg.layers[0]);
        let m = tape.value(out);
        assert_ne!(m.row(0), m.row(1));
    }

    #[test]
    #[should_panic(expected = "radius != encoder depth")]
    fn depth_mismatch_panics() {
        let cg = build_cg(1);
        let mut store = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(5);
        let enc = TgatEncoder::new(&mut store, &mut rng, 2, 6, 4, 2, 8);
        let mut tape = Tape::new();
        let feats = tape.input(Matrix::zeros(cg.levels[1].len(), 6));
        enc.forward(&mut tape, &store, &cg, feats);
    }
}
