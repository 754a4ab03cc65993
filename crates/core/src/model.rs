//! The assembled TGAE model: features + TGAT encoder + variational
//! ego-graph decoder, with the approximate mini-batch loss of Eq. 7.
//!
//! Two forward passes share the layers. Training
//! ([`Tgae::forward_batch_into`]) decodes every level of the computation
//! graph, gathers the candidates' decoder rows once, and records one
//! [`Tape::score_xent`] per level — scoring, bias and softmax
//! cross-entropy over the slots that carry a target — then returns the
//! loss. Generation ([`Tgae::decode_rows_for_generation`], and the
//! simulation engine through the same internal pass) is deterministic
//! (`Z = μ`), decodes the centers only, and turns their scores into
//! probabilities in place, candidate-major (one column per center). Both
//! read the embedding and decoder tables by row, so a pass costs its
//! sampled ego-graph plus `rows × candidates` scores whatever the size of
//! the tables (§IV-D, §IV-G).

use crate::config::{TgaeConfig, TgaeVariant};
use crate::decoder::{build_candidates, EgoDecoder};
use crate::encoder::TgatEncoder;
use crate::features::TemporalFeatures;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::rc::Rc;
use tg_graph::{NodeId, TemporalGraph, Time};
use tg_sampling::ComputationGraph;
use tg_tensor::gemm::matmul_nt_transposed;
use tg_tensor::prelude::*;
use tg_tensor::rows::gather_rows;
use tg_tensor::softmax::softmax_cols_inplace;

/// Diagnostics of one batch forward pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchStats {
    /// Slots across all computation-graph levels.
    pub n_slots: usize,
    /// Message edges across all bipartite layers.
    pub n_edges: usize,
    /// Positive supervision entries (observed out-edges).
    pub n_targets: usize,
    /// Candidate columns in the decoder softmax.
    pub n_candidates: usize,
}

/// The Temporal Graph Autoencoder.
#[derive(Clone, Serialize, Deserialize)]
pub struct Tgae {
    /// Architecture, sampling, and optimisation settings.
    pub cfg: TgaeConfig,
    /// All trainable parameters, keyed by `ParamId`.
    pub store: ParamStore,
    /// Node-id + timestamp embedding tables (model input features).
    pub features: TemporalFeatures,
    /// The stacked TGAT attention encoder (Eqs. 3–5).
    pub encoder: TgatEncoder,
    /// The variational ego-graph decoder (Algorithm 2).
    pub decoder: EgoDecoder,
    /// Number of nodes the model was shaped for.
    pub n_nodes: usize,
    /// Number of timestamps the model was shaped for.
    pub n_timestamps: usize,
}

impl Tgae {
    /// Initialise a model for graphs with the given shape. Parameter init
    /// is seeded from `cfg.seed`.
    pub fn new(n_nodes: usize, n_timestamps: usize, cfg: TgaeConfig) -> Self {
        assert!(n_nodes >= 2 && n_timestamps >= 1);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let features = TemporalFeatures::new(&mut store, &mut rng, n_nodes, n_timestamps, cfg.d_in);
        let encoder = TgatEncoder::new(
            &mut store,
            &mut rng,
            cfg.sampler.k,
            cfg.d_in,
            cfg.d_head,
            cfg.heads,
            cfg.d_model,
        );
        let decoder = EgoDecoder::new(&mut store, &mut rng, cfg.d_in, cfg.d_model, n_nodes);
        Tgae {
            cfg,
            store,
            features,
            encoder,
            decoder,
            n_nodes,
            n_timestamps,
        }
    }

    /// Whether the decoder is variational (everything but TGAE-p).
    pub fn probabilistic(&self) -> bool {
        self.cfg.variant != TgaeVariant::NonProbabilistic
    }

    /// Total trainable scalars.
    pub fn n_parameters(&self) -> usize {
        self.store.total_scalars()
    }

    /// Forward pass on a batch of center temporal nodes, recording onto a
    /// caller-owned tape, which is [`Tape::clear`]ed before recording;
    /// returns the scalar loss node and diagnostics. The caller runs
    /// `backward` and the optimizer step. The training loop reuses one
    /// tape across every epoch; see `trainer::fit`.
    pub fn forward_batch_into<R: Rng + ?Sized>(
        &self,
        tape: &mut Tape,
        g: &TemporalGraph,
        centers: &[(NodeId, Time)],
        rng: &mut R,
    ) -> (Var, BatchStats) {
        tape.clear();
        let cg = ComputationGraph::build(g, centers, &self.cfg.sampler, rng);
        let (slots, offsets) = cg.all_slots();

        // Features for every slot; the deepest level feeds the encoder.
        let x_all = self.features.forward(tape, &self.store, &slots);
        let k = cg.k();
        let outer_idx: Rc<Vec<u32>> = Rc::new((offsets[k] as u32..offsets[k + 1] as u32).collect());
        let x_outer = tape.gather_rows(x_all, outer_idx);
        let enc_levels = self.encoder.forward(tape, &self.store, &cg, x_outer);

        // Variational latent over all slots, then outward decode.
        let (z, mu, logvar) =
            self.decoder
                .latent(tape, &self.store, x_all, self.probabilistic(), rng);
        let dec_levels = self
            .decoder
            .decode_levels(tape, &cg, enc_levels[0], z, &offsets);

        // Supervision: observed out-neighbor rows per slot, per level.
        let mut per_level_targets: Vec<Vec<(u32, NodeId, f32)>> = Vec::with_capacity(k + 1);
        let mut positives: Vec<NodeId> = Vec::new();
        let mut total_weight = 0.0f32;
        for level in &cg.levels {
            let mut targets: Vec<(u32, NodeId, f32)> = Vec::new();
            for (r, &(v, t)) in level.iter().enumerate() {
                // Aggregate repeated out-neighbors by sorted run-length
                // so target order is canonical (node-id order), not
                // hash order: the f64 loss sum and the sparse-path
                // candidate ordering both see this sequence.
                let mut nbs: Vec<NodeId> = g.out_neighbors_at(v, t).collect();
                nbs.sort_unstable();
                let mut idx = 0usize;
                while idx < nbs.len() {
                    let nb = nbs[idx];
                    let mut w = 0.0f32;
                    while idx < nbs.len() && nbs[idx] == nb {
                        w += 1.0;
                        idx += 1;
                    }
                    positives.push(nb);
                    total_weight += w;
                    targets.push((r as u32, nb, w));
                }
            }
            per_level_targets.push(targets);
        }

        let (candidates, lookup) = build_candidates(
            self.n_nodes,
            positives.iter().copied(),
            self.cfg.dense_cutoff,
            self.cfg.n_negatives,
            rng,
        );

        // Every level scores against the same candidates: their decoder
        // rows are gathered once (by the first level that has a target)
        // and the three levels' gradients meet in that one node.
        let norm = total_weight.max(1.0);
        let mut cand_rows: Option<(Var, Var)> = None;
        let mut loss: Option<Var> = None;
        let mut n_targets = 0usize;
        for (level_var, targets) in dec_levels.iter().zip(&per_level_targets) {
            if targets.is_empty() {
                continue;
            }
            n_targets += targets.len();
            let remapped: Vec<SparseTarget> = targets
                .iter()
                .map(|&(r, v, w)| (r, lookup[v as usize], w))
                .collect();
            let (w_c, b_c) = *cand_rows.get_or_insert_with(|| {
                self.decoder
                    .candidate_rows(tape, &self.store, candidates.clone())
            });
            let xent = tape.score_xent(*level_var, w_c, b_c, &remapped, norm);
            loss = Some(match loss {
                Some(l) => tape.add(l, xent),
                None => xent,
            });
        }

        // KL over all slots (paper: KL is computed on all nodes of the batch).
        if let Some(lv) = logvar {
            let scale = self.cfg.kl_beta / slots.len().max(1) as f32;
            let kl = tape.kl_normal(mu, lv, scale);
            loss = Some(match loss {
                Some(l) => tape.add(l, kl),
                None => kl,
            });
        }
        let loss = loss.unwrap_or_else(|| {
            // nothing to supervise (isolated batch): zero-loss constant
            tape.input(Matrix::scalar(0.0))
        });

        let stats = BatchStats {
            n_slots: slots.len(),
            n_edges: cg.n_edges(),
            n_targets,
            n_candidates: candidates.len(),
        };
        (loss, stats)
    }

    /// Deterministic decode rows for a set of centers (generation path):
    /// returns, per center, the probability row over `candidates`
    /// (softmax already applied) as an owned `centers × |C|` matrix,
    /// along with the candidate list used. The simulation engine samples
    /// the same probabilities where [`Tgae::generation_rows`] leaves them,
    /// candidate-major; this copy transposes them back, block by block.
    pub fn decode_rows_for_generation<R: Rng + ?Sized>(
        &self,
        g: &TemporalGraph,
        centers: &[(NodeId, Time)],
        rng: &mut R,
    ) -> (Matrix, Rc<Vec<u32>>) {
        let scores = Tape::with_thread_local(|tape| self.generation_rows(tape, g, centers, rng));
        (scores.center_rows(centers.len()), scores.cands)
    }

    /// Record the generation forward pass of `centers` onto `tape` (which
    /// the caller hands over cleared) and return their probabilities over
    /// the returned candidate list, candidate-major.
    ///
    /// A unit touches only what its rows depend on: the feature rows of
    /// its slots, the encoder over its computation graph, the decode state
    /// of the centers (`h₀ = enc[0] + μ[centers]`, with `μ` computed for
    /// the center rows alone; the outer decode levels are a training
    /// target, generation never scores them) and the `|C|` decoder rows
    /// of its candidates — read in place for a dense candidate set,
    /// gathered from the store for a sparse one; no table is replayed.
    /// `μ[centers]`, `h₀` and the scores are owned matrices, not tape
    /// nodes (nothing differentiates them). The scores are written
    /// candidate-major, `S' = W_dec[C] · h₀ᵀ` (`|C| × width`, `h₀` padded
    /// with zero rows to a multiple of [`SCORE_LANES`];
    /// [`matmul_nt_transposed`]), so column `j` holds the bits of center
    /// `j`'s score row, and bias, temperature and softmax finish every
    /// column in place ([`softmax_cols_inplace`]). `rng` is consumed by
    /// computation-graph sampling, then by the negative candidates, and
    /// by nothing else.
    ///
    /// Three spans split the pass for a traced run: `unit.cgbuild` (the
    /// computation graph and its slot list), `unit.encode` (feature rows
    /// and the encoder) and `unit.score` (latent, decode state, candidates,
    /// scores, softmax; it ends with the finished probabilities).
    pub(crate) fn generation_rows<R: Rng + ?Sized>(
        &self,
        tape: &mut Tape,
        g: &TemporalGraph,
        centers: &[(NodeId, Time)],
        rng: &mut R,
    ) -> CandidateScores {
        let cgbuild = tg_obs::trace::span("unit.cgbuild");
        let cg = ComputationGraph::build(g, centers, &self.cfg.sampler, rng);
        assert_eq!(
            cg.centers(),
            centers,
            "generation centers must be distinct and sorted"
        );
        let (slots, offsets) = cg.all_slots();
        drop(cgbuild);
        let encode = tg_obs::trace::span("unit.encode");
        let x_all = self.features.forward(tape, &self.store, &slots);
        let k = cg.k();
        let outer_idx: Rc<Vec<u32>> = Rc::new((offsets[k] as u32..offsets[k + 1] as u32).collect());
        let x_outer = tape.gather_rows(x_all, outer_idx);
        let enc_levels = self.encoder.forward(tape, &self.store, &cg, x_outer);
        drop(encode);
        let _score = tg_obs::trace::span("unit.score");
        // deterministic latent Z = μ (it draws nothing), for the center
        // rows only, with the bits of μ over every slot
        let mu_c = self
            .decoder
            .mlp_mu
            .forward_rows(&self.store, tape.value(x_all), centers.len());
        let enc = tape.value(enc_levels[0]);
        let width = centers.len().next_multiple_of(SCORE_LANES);
        let mut h0 = Matrix::zeros(width, enc.cols());
        for (h, (&e, &m)) in h0
            .as_mut_slice()
            .iter_mut()
            .zip(enc.as_slice().iter().zip(mu_c.as_slice()))
        {
            *h = e + m;
        }

        // Candidates: dense for small n; otherwise the observed temporal
        // neighborhoods of the centers plus uniform negatives (the
        // candidate sets of docs/ARCHITECTURE.md, "The train → generate
        // data flow").
        let dense = self.n_nodes <= self.cfg.dense_cutoff;
        let mut positives: Vec<NodeId> = Vec::new();
        if !dense {
            let mut occurrences = Vec::new();
            for &(v, t) in centers {
                tg_sampling::temporal_neighbor_occurrences_into(
                    g,
                    v,
                    t,
                    self.cfg.sampler.time_window,
                    &mut occurrences,
                );
                positives.extend(occurrences.iter().map(|&(u, _)| u));
            }
        }
        let (cands, lookup) = build_candidates(
            self.n_nodes,
            positives.iter().copied(),
            self.cfg.dense_cutoff,
            self.cfg.n_negatives * 4,
            rng,
        );
        let (w_dec, b_dec) = (
            self.store.value(self.decoder.w_dec),
            self.store.value(self.decoder.b_dec),
        );
        // a dense candidate set is every node in order: the tables as stored
        let gathered = (!dense).then(|| (gather_rows(w_dec, &cands), gather_rows(b_dec, &cands)));
        let (w_c, b_c) = gathered.as_ref().map_or((w_dec, b_dec), |(w, b)| (w, b));
        let mut probs = matmul_nt_transposed(&h0, centers.len(), w_c.into());
        let tau = self.cfg.gen_temperature.max(1e-3);
        softmax_cols_inplace(probs.as_mut_slice(), width, b_c.as_slice(), tau);
        CandidateScores {
            probs,
            cands,
            lookup,
        }
    }
}

/// The multiple a unit's score columns are padded to: the rows the
/// engine's draw advances abreast, one `[f64; 8]` lane group each.
pub(crate) const SCORE_LANES: usize = 8;

/// One unit's generation probabilities, candidate-major.
pub(crate) struct CandidateScores {
    /// `|C| × width`: column `j` below the unit's center count is center
    /// `j`'s distribution over `cands`; the rest pad to [`SCORE_LANES`].
    pub probs: Matrix,
    /// The candidate node ids, in column order of a center's row.
    pub cands: Rc<Vec<u32>>,
    /// Candidate index of each node id, `u32::MAX` where a node is not a
    /// candidate ([`build_candidates`]).
    pub lookup: Vec<u32>,
}

impl CandidateScores {
    /// The first `rows` columns as a row-major `rows × |C|` matrix,
    /// transposed in blocks of candidates so both sides stay in cache.
    fn center_rows(&self, rows: usize) -> Matrix {
        const BLOCK: usize = 64;
        let (n_cands, width) = (self.probs.rows(), self.probs.cols());
        let src = self.probs.as_slice();
        let mut out = Matrix::zeros(rows, n_cands);
        for c0 in (0..n_cands).step_by(BLOCK) {
            let c1 = (c0 + BLOCK).min(n_cands);
            for (j, row) in out.as_mut_slice().chunks_exact_mut(n_cands).enumerate() {
                for (c, o) in (c0..c1).zip(&mut row[c0..c1]) {
                    *o = src[c * width + j];
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_graph::TemporalEdge;

    fn toy_graph() -> TemporalGraph {
        let mut edges = Vec::new();
        for t in 0..3u32 {
            edges.push(TemporalEdge::new(0, 1, t));
            edges.push(TemporalEdge::new(1, 2, t));
            edges.push(TemporalEdge::new(2, 3, t));
            edges.push(TemporalEdge::new(3, 0, t));
            edges.push(TemporalEdge::new(0, 2, t));
        }
        TemporalGraph::from_edges(4, 3, edges)
    }

    #[test]
    fn forward_batch_produces_finite_loss() {
        let g = toy_graph();
        let model = Tgae::new(g.n_nodes(), g.n_timestamps(), TgaeConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(0);
        let centers = vec![(0u32, 0u32), (1, 1), (2, 2)];
        let mut tape = Tape::new();
        let (loss, stats) = model.forward_batch_into(&mut tape, &g, &centers, &mut rng);
        let l = tape.value(loss).item();
        assert!(l.is_finite(), "loss {l}");
        assert!(l > 0.0);
        assert!(stats.n_slots >= 3);
        assert!(stats.n_targets > 0);
        assert_eq!(stats.n_candidates, 4); // dense mode
    }

    #[test]
    fn backward_reaches_every_parameter_family() {
        let g = toy_graph();
        let model = Tgae::new(g.n_nodes(), g.n_timestamps(), TgaeConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(1);
        let centers = vec![(0u32, 0u32), (2, 1)];
        let mut tape = Tape::new();
        let (loss, _) = model.forward_batch_into(&mut tape, &g, &centers, &mut rng);
        let grads = tape.backward(loss);
        assert!(
            grads.get(model.features.node_emb.table).is_some(),
            "node emb"
        );
        assert!(
            grads.get(model.features.time_emb.table).is_some(),
            "time emb"
        );
        assert!(grads.get(model.decoder.w_dec).is_some(), "w_dec");
        assert!(
            grads.get(model.decoder.mlp_mu.layers[0].w).is_some(),
            "mlp_mu"
        );
    }

    #[test]
    fn non_probabilistic_variant_has_no_kl_and_is_deterministic() {
        let g = toy_graph();
        let cfg = TgaeConfig::tiny().with_variant(TgaeVariant::NonProbabilistic);
        let model = Tgae::new(g.n_nodes(), g.n_timestamps(), cfg);
        let centers = vec![(0u32, 0u32)];
        let mut tape = Tape::new();
        let mut loss_with = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (loss, _) = model.forward_batch_into(&mut tape, &g, &centers, &mut rng);
            tape.value(loss).item()
        };
        let l1 = loss_with(7);
        let l2 = loss_with(8); // different rng, same loss
        assert_eq!(l1, l2, "TGAE-p forward must not depend on sampling noise");
    }

    #[test]
    fn probabilistic_variant_is_stochastic() {
        let g = toy_graph();
        // no-truncation + large threshold -> the computation graph is
        // deterministic, so any loss difference comes from the VAE noise
        let cfg = TgaeConfig {
            sampler: tg_sampling::SamplerConfig {
                threshold: usize::MAX,
                ..Default::default()
            },
            ..TgaeConfig::tiny()
        };
        let model = Tgae::new(g.n_nodes(), g.n_timestamps(), cfg);
        let centers = vec![(0u32, 0u32)];
        let mut tape = Tape::new();
        let mut loss_with = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (loss, _) = model.forward_batch_into(&mut tape, &g, &centers, &mut rng);
            tape.value(loss).item()
        };
        assert_ne!(loss_with(7), loss_with(8));
    }

    #[test]
    fn generation_rows_are_distributions() {
        let g = toy_graph();
        let model = Tgae::new(g.n_nodes(), g.n_timestamps(), TgaeConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(2);
        let centers = vec![(0u32, 0u32), (1, 0)];
        let (probs, cands) = model.decode_rows_for_generation(&g, &centers, &mut rng);
        assert_eq!(probs.rows(), 2);
        assert_eq!(probs.cols(), cands.len());
        for r in 0..probs.rows() {
            let s: f32 = probs.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row {r} sums to {s}");
            assert!(probs.row(r).iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn parameter_count_is_positive_and_reported() {
        let g = toy_graph();
        let model = Tgae::new(g.n_nodes(), g.n_timestamps(), TgaeConfig::tiny());
        assert!(model.n_parameters() > 100);
    }
}
