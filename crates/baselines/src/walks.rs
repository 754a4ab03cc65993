//! Random-walk-family baselines: NetGAN-lite, TagGen-lite, TGGAN-lite and
//! TIGGER-lite.
//!
//! Each keeps the defining mechanism of its namesake:
//!
//! - **NetGAN-lite** — walk-distribution learning via low-rank logit
//!   factorisation of the walk transition matrix. The paper's own citation
//!   \[45\] ("NetGAN without GAN") shows NetGAN's generator is equivalent to
//!   a low-rank approximation of the random-walk transition matrix, which
//!   is what we fit (sampled-softmax bigram model, per snapshot bucket).
//! - **TagGen-lite** — temporal random walks with a node-transition model
//!   *and* a dense `T x T` time-affinity table (the O(T²) structure that
//!   limits TagGen's scalability); the sampled walk corpus is retained in
//!   memory, mirroring TagGen's need for a large walk set.
//! - **TGGAN-lite** — TagGen-lite plus one adversarial round: a
//!   discriminator MLP over walk features re-weights the transition model.
//! - **TIGGER-lite** — first-order autoregressive temporal-walk model with
//!   a per-node inter-event gap distribution; O(n + M) state.

use crate::autoencoder::{bucketize, generate_from_scores};
use crate::traits::TemporalGraphGenerator;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::rc::Rc;
use tg_graph::{NodeId, TemporalEdge, TemporalGraph, Time};
use tg_tensor::matrix::Matrix;
use tg_tensor::prelude::*;

// ---------------------------------------------------------------------
// shared machinery
// ---------------------------------------------------------------------

/// Sparse node-transition counts learned from walks or edges.
#[derive(Default, Clone)]
pub(crate) struct TransitionModel {
    /// `next[u]` = (target, weight) list, one per node.
    next: Vec<Vec<(NodeId, f64)>>,
    /// start-node weights (by temporal degree).
    starts: Vec<f64>,
}

impl TransitionModel {
    fn from_edges(n: usize, edges: impl Iterator<Item = (NodeId, NodeId)>) -> Self {
        // ordered by target: `sample_next` draws an index into each list,
        // so its order is part of the seeded output
        let mut next: Vec<BTreeMap<NodeId, f64>> = vec![BTreeMap::new(); n];
        let mut starts = vec![0.0; n];
        for (u, v) in edges {
            *next[u as usize].entry(v).or_insert(0.0) += 1.0;
            starts[u as usize] += 1.0;
            starts[v as usize] += 0.5; // targets may start walks too
        }
        let next = next.into_iter().map(|m| m.into_iter().collect()).collect();
        TransitionModel { next, starts }
    }

    fn sample_start(&self, rng: &mut dyn RngCore) -> Option<NodeId> {
        if self.starts.iter().all(|&w| w <= 0.0) {
            return None;
        }
        Some(sample_categorical(rng, &self.starts) as NodeId)
    }

    fn sample_next(&self, u: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        let opts = self.next.get(u as usize)?;
        let weights: Vec<f64> = opts.iter().map(|&(_, w)| w).collect();
        if weights.iter().all(|&w| w <= 0.0) {
            return None;
        }
        Some(opts[sample_categorical(rng, &weights)].0)
    }

    /// Multiply the weight of transition `(u, v)` by `factor`.
    fn reweight(&mut self, u: NodeId, v: NodeId, factor: f64) {
        if let Some(opts) = self.next.get_mut(u as usize) {
            for (t, w) in opts.iter_mut() {
                if *t == v {
                    *w *= factor;
                }
            }
        }
    }
}

/// Budget-matched assembly: repeatedly draw candidate temporal edges from
/// `propose` and fill each timestamp's budget; any remainder (proposer
/// starved) is completed with uniform random pairs so the output always
/// honours the protocol.
pub(crate) fn assemble_with_budgets(
    observed: &TemporalGraph,
    mut propose: impl FnMut(&mut dyn RngCore) -> Vec<TemporalEdge>,
    rng: &mut dyn RngCore,
) -> TemporalGraph {
    let n = observed.n_nodes();
    let t_count = observed.n_timestamps();
    let budgets = observed.edge_counts_per_timestamp();
    let mut remaining: Vec<usize> = budgets.clone();
    let mut edges: Vec<TemporalEdge> = Vec::with_capacity(observed.n_edges());
    let mut stale_rounds = 0;
    while remaining.iter().any(|&r| r > 0) && stale_rounds < 40 {
        let batch = propose(rng);
        let mut progressed = false;
        for e in batch {
            let t = e.t as usize;
            if t < t_count && remaining[t] > 0 && e.u != e.v {
                edges.push(e);
                remaining[t] -= 1;
                progressed = true;
            }
        }
        if !progressed {
            stale_rounds += 1;
        }
    }
    // fallback fill (documented): uniform pairs for starved timestamps
    for (t, &r) in remaining.iter().enumerate() {
        for _ in 0..r {
            let u = rng.gen_range(0..n) as u32;
            let mut v = rng.gen_range(0..n) as u32;
            while v == u {
                v = rng.gen_range(0..n) as u32;
            }
            edges.push(TemporalEdge::new(u, v, t as u32));
        }
    }
    TemporalGraph::from_edges(n, t_count, edges)
}

// ---------------------------------------------------------------------
// NetGAN-lite
// ---------------------------------------------------------------------

/// Configuration for NetGAN-lite.
#[derive(Clone, Copy)]
pub struct NetGanConfig {
    pub dim: usize,
    pub walk_len: usize,
    pub n_walks: usize,
    pub epochs: usize,
    pub lr: f32,
    pub max_buckets: usize,
    pub n_negatives: usize,
    pub seed: u64,
}

impl Default for NetGanConfig {
    fn default() -> Self {
        NetGanConfig {
            dim: 16,
            walk_len: 8,
            n_walks: 400,
            epochs: 60,
            lr: 2e-2,
            max_buckets: 8,
            n_negatives: 128,
            seed: 2,
        }
    }
}

/// NetGAN-lite: low-rank factorisation of the walk transition matrix.
pub struct NetGanGenerator {
    pub cfg: NetGanConfig,
}

impl NetGanGenerator {
    pub fn new(cfg: NetGanConfig) -> Self {
        NetGanGenerator { cfg }
    }
}

fn sample_static_walks(
    tm: &TransitionModel,
    n_walks: usize,
    len: usize,
    rng: &mut dyn RngCore,
) -> Vec<Vec<NodeId>> {
    let mut walks = Vec::with_capacity(n_walks);
    for _ in 0..n_walks {
        let Some(mut cur) = tm.sample_start(rng) else {
            break;
        };
        let mut walk = vec![cur];
        for _ in 1..len {
            match tm.sample_next(cur, rng) {
                Some(nxt) => {
                    walk.push(nxt);
                    cur = nxt;
                }
                None => break,
            }
        }
        if walk.len() >= 2 {
            walks.push(walk);
        }
    }
    walks
}

impl TemporalGraphGenerator for NetGanGenerator {
    fn name(&self) -> &'static str {
        "NetGAN"
    }

    fn fit_generate(&mut self, observed: &TemporalGraph, rng: &mut dyn RngCore) -> TemporalGraph {
        let n = observed.n_nodes();
        let buckets = bucketize(observed, self.cfg.max_buckets);
        let mut train_rng = SmallRng::seed_from_u64(self.cfg.seed ^ rng.next_u64());
        // one (src-emb, dst-emb) pair per bucket, fit on walk bigrams
        let mut models: Vec<(Matrix, Matrix)> = Vec::with_capacity(buckets.pairs.len());
        for pairs in &buckets.pairs {
            let tm = TransitionModel::from_edges(n, pairs.iter().copied());
            let walks =
                sample_static_walks(&tm, self.cfg.n_walks, self.cfg.walk_len, &mut train_rng);
            let mut bigrams: Vec<(u32, u32)> = Vec::new();
            for w in &walks {
                for win in w.windows(2) {
                    bigrams.push((win[0], win[1]));
                }
            }
            let mut store = ParamStore::new();
            let src_emb = store.create("s", xavier_uniform(&mut train_rng, n, self.cfg.dim));
            let dst_emb = store.create("d", xavier_uniform(&mut train_rng, n, self.cfg.dim));
            let mut opt = Adam::new(self.cfg.lr);
            if !bigrams.is_empty() {
                for _ in 0..self.cfg.epochs {
                    let batch: Vec<(u32, u32)> = (0..bigrams.len().min(1024))
                        .map(|_| bigrams[train_rng.gen_range(0..bigrams.len())])
                        .collect();
                    // candidate set: positives + uniform negatives
                    let mut cands: Vec<u32> = batch.iter().map(|&(_, v)| v).collect();
                    for _ in 0..self.cfg.n_negatives {
                        cands.push(train_rng.gen_range(0..n) as u32);
                    }
                    cands.sort_unstable();
                    cands.dedup();
                    let mut tape = Tape::new();
                    let s = tape.param(&store, src_emb);
                    let d = tape.param(&store, dst_emb);
                    let us: Vec<u32> = batch.iter().map(|&(u, _)| u).collect();
                    let su = tape.gather_rows(s, Rc::new(us));
                    let dc = tape.gather_rows(d, Rc::new(cands.clone()));
                    let logits = tape.matmul_nt(su, dc);
                    // `cands` is sorted, deduplicated and holds every
                    // positive: a positive's column is its rank
                    let col_of = |v: u32| cands.partition_point(|&c| c < v) as u32;
                    let targets: Vec<SparseTarget> = batch
                        .iter()
                        .enumerate()
                        .map(|(r, &(_, v))| (r as u32, col_of(v), 1.0f32))
                        .collect();
                    let norm = targets.len() as f32;
                    let loss = tape.softmax_xent(logits, Rc::new(targets), norm);
                    let mut grads = tape.backward(loss);
                    clip_global_norm(&mut grads, 5.0);
                    opt.step(&mut store, &grads);
                }
            }
            models.push((store.value(src_emb).clone(), store.value(dst_emb).clone()));
        }
        let score = |b: usize, u: u32| -> Vec<f64> {
            let (s, d) = &models[b];
            let su = Matrix::from_vec(1, s.cols(), s.row(u as usize).to_vec());
            let row = tg_tensor::gemm::matmul_nt(&su, d);
            // softmax-ish positive weights
            let max = row
                .as_slice()
                .iter()
                .cloned()
                .fold(f32::NEG_INFINITY, f32::max);
            row.as_slice()
                .iter()
                .map(|&x| ((x - max) as f64).exp())
                .collect()
        };
        generate_from_scores(observed, &buckets.bucket_of_t, &score, rng)
    }
}

// ---------------------------------------------------------------------
// TagGen-lite / TGGAN-lite
// ---------------------------------------------------------------------

/// Configuration shared by TagGen-lite and TGGAN-lite.
#[derive(Clone, Copy)]
pub struct TagGenConfig {
    /// Temporal walk length.
    pub walk_len: usize,
    /// Walks sampled per proposal round (TagGen needs a large corpus).
    pub walks_per_round: usize,
    /// Time window for temporal transitions.
    pub time_window: u32,
    pub seed: u64,
}

impl Default for TagGenConfig {
    fn default() -> Self {
        TagGenConfig {
            walk_len: 8,
            walks_per_round: 2000,
            time_window: 2,
            seed: 3,
        }
    }
}

/// Internal state shared by TagGen-lite and TGGAN-lite.
struct TemporalWalkModel {
    tm: TransitionModel,
    /// Dense `T x T` time-affinity table — TagGen's O(T²) structure.
    time_affinity: Vec<f64>,
    t_count: usize,
    /// Retained walk corpus (mirrors TagGen's memory footprint).
    corpus: Vec<Vec<(NodeId, Time)>>,
}

impl TemporalWalkModel {
    fn fit(observed: &TemporalGraph, cfg: &TagGenConfig, rng: &mut dyn RngCore) -> Self {
        let t_count = observed.n_timestamps();
        let tm = TransitionModel::from_edges(
            observed.n_nodes(),
            observed.edges().iter().map(|e| (e.u, e.v)),
        );
        // time affinity: co-occurrence of consecutive edge timestamps per node
        let mut time_affinity = vec![1e-6f64; t_count * t_count];
        for e in observed.edges() {
            let lo = e.t.saturating_sub(cfg.time_window);
            let hi = ((e.t + cfg.time_window) as usize).min(t_count - 1) as Time;
            for t2 in lo..=hi {
                time_affinity[e.t as usize * t_count + t2 as usize] += 1.0;
            }
        }
        // sample the retained corpus of temporal walks
        let mut corpus = Vec::with_capacity(cfg.walks_per_round);
        for _ in 0..cfg.walks_per_round {
            if let Some(w) = sample_temporal_walk(observed, &tm, &time_affinity, t_count, cfg, rng)
            {
                corpus.push(w);
            }
        }
        TemporalWalkModel {
            tm,
            time_affinity,
            t_count,
            corpus,
        }
    }

    fn propose(&self, cfg: &TagGenConfig, rng: &mut dyn RngCore) -> Vec<TemporalEdge> {
        let mut out = Vec::new();
        for _ in 0..cfg.walks_per_round / 4 {
            if let Some(w) = sample_temporal_walk_from_model(
                &self.tm,
                &self.time_affinity,
                self.t_count,
                cfg,
                rng,
            ) {
                for pair in w.windows(2) {
                    out.push(TemporalEdge::new(pair[0].0, pair[1].0, pair[1].1));
                }
            }
        }
        out
    }
}

/// One observed-graph-anchored temporal walk (used for corpus building).
fn sample_temporal_walk(
    g: &TemporalGraph,
    tm: &TransitionModel,
    affinity: &[f64],
    t_count: usize,
    cfg: &TagGenConfig,
    rng: &mut dyn RngCore,
) -> Option<Vec<(NodeId, Time)>> {
    let e0 = g.edges()[rng.gen_range(0..g.n_edges())];
    let mut walk = vec![(e0.u, e0.t), (e0.v, e0.t)];
    let mut cur = e0.v;
    let mut cur_t = e0.t;
    for _ in 2..cfg.walk_len {
        let Some(nxt) = tm.sample_next(cur, rng) else {
            break;
        };
        let row = &affinity[cur_t as usize * t_count..(cur_t as usize + 1) * t_count];
        let t_nxt = sample_categorical(rng, row) as Time;
        walk.push((nxt, t_nxt));
        cur = nxt;
        cur_t = t_nxt;
    }
    (walk.len() >= 2).then_some(walk)
}

/// A purely model-driven temporal walk (generation path).
fn sample_temporal_walk_from_model(
    tm: &TransitionModel,
    affinity: &[f64],
    t_count: usize,
    cfg: &TagGenConfig,
    rng: &mut dyn RngCore,
) -> Option<Vec<(NodeId, Time)>> {
    let start = tm.sample_start(rng)?;
    let mut cur_t = rng.gen_range(0..t_count) as Time;
    let mut walk = vec![(start, cur_t)];
    let mut cur = start;
    for _ in 1..cfg.walk_len {
        let Some(nxt) = tm.sample_next(cur, rng) else {
            break;
        };
        let row = &affinity[cur_t as usize * t_count..(cur_t as usize + 1) * t_count];
        let t_nxt = sample_categorical(rng, row) as Time;
        walk.push((nxt, t_nxt));
        cur = nxt;
        cur_t = t_nxt;
    }
    (walk.len() >= 2).then_some(walk)
}

/// TagGen-lite.
pub struct TagGenGenerator {
    pub cfg: TagGenConfig,
}

impl TagGenGenerator {
    pub fn new(cfg: TagGenConfig) -> Self {
        TagGenGenerator { cfg }
    }
}

impl TemporalGraphGenerator for TagGenGenerator {
    fn name(&self) -> &'static str {
        "TagGen"
    }

    fn fit_generate(&mut self, observed: &TemporalGraph, rng: &mut dyn RngCore) -> TemporalGraph {
        let model = TemporalWalkModel::fit(observed, &self.cfg, rng);
        let cfg = self.cfg;
        assemble_with_budgets(observed, |r| model.propose(&cfg, r), rng)
    }
}

/// TGGAN-lite: TagGen-lite plus one adversarial re-weighting round.
pub struct TgganGenerator {
    pub cfg: TagGenConfig,
    pub disc_epochs: usize,
}

impl TgganGenerator {
    pub fn new(cfg: TagGenConfig) -> Self {
        TgganGenerator {
            cfg,
            disc_epochs: 40,
        }
    }
}

/// Hand-crafted walk features for the discriminator: [mean node degree,
/// repeat fraction, time span / T, length / walk_len].
fn walk_features(
    w: &[(NodeId, Time)],
    degrees: &[usize],
    t_count: usize,
    max_len: usize,
) -> Vec<f32> {
    let mean_deg = w
        .iter()
        .map(|&(v, _)| degrees[v as usize] as f32)
        .sum::<f32>()
        / w.len() as f32;
    let mut seen: Vec<NodeId> = w.iter().map(|&(v, _)| v).collect();
    let total = seen.len() as f32;
    seen.sort_unstable();
    seen.dedup();
    let repeat = 1.0 - seen.len() as f32 / total;
    let t_min = w.iter().map(|&(_, t)| t).min().unwrap_or(0) as f32;
    let t_max = w.iter().map(|&(_, t)| t).max().unwrap_or(0) as f32;
    vec![
        (mean_deg / 16.0).tanh(),
        repeat,
        (t_max - t_min) / t_count.max(1) as f32,
        w.len() as f32 / max_len.max(1) as f32,
    ]
}

impl TemporalGraphGenerator for TgganGenerator {
    fn name(&self) -> &'static str {
        "TGGAN"
    }

    fn fit_generate(&mut self, observed: &TemporalGraph, rng: &mut dyn RngCore) -> TemporalGraph {
        let mut model = TemporalWalkModel::fit(observed, &self.cfg, rng);
        let degrees = observed.static_degrees();
        let t_count = observed.n_timestamps();
        // fake walks from the untrained generator
        let fakes: Vec<Vec<(NodeId, Time)>> = (0..model.corpus.len())
            .filter_map(|_| {
                sample_temporal_walk_from_model(
                    &model.tm,
                    &model.time_affinity,
                    model.t_count,
                    &self.cfg,
                    rng,
                )
            })
            .collect();
        if !model.corpus.is_empty() && !fakes.is_empty() {
            // discriminator: 2-layer MLP on walk features
            let mut train_rng = SmallRng::seed_from_u64(self.cfg.seed ^ 0xd15c);
            let mut store = ParamStore::new();
            let mlp = Mlp::new(
                &mut store,
                &mut train_rng,
                "disc",
                &[4, 8, 1],
                Activation::Tanh,
            );
            let mut opt = Adam::new(2e-2);
            let feats: Vec<Vec<f32>> = model
                .corpus
                .iter()
                .map(|w| walk_features(w, &degrees, t_count, self.cfg.walk_len))
                .chain(
                    fakes
                        .iter()
                        .map(|w| walk_features(w, &degrees, t_count, self.cfg.walk_len)),
                )
                .collect();
            let labels: Vec<f32> = std::iter::repeat_n(1.0f32, model.corpus.len())
                .chain(std::iter::repeat_n(0.0f32, fakes.len()))
                .collect();
            let x_mat = Matrix::from_vec(feats.len(), 4, feats.iter().flatten().copied().collect());
            let y_mat = Rc::new(Matrix::from_vec(labels.len(), 1, labels));
            for _ in 0..self.disc_epochs {
                let mut tape = Tape::new();
                let x = tape.input(x_mat.clone());
                let logits = mlp.forward(&mut tape, &store, x);
                let loss = tape.bce_with_logits(logits, y_mat.clone());
                let grads = tape.backward(loss);
                opt.step(&mut store, &grads);
            }
            // adversarial re-weighting: walks the discriminator rejects
            // down-weight their transitions
            let mut tape = Tape::new();
            let fake_feats = Matrix::from_vec(
                fakes.len(),
                4,
                fakes
                    .iter()
                    .flat_map(|w| walk_features(w, &degrees, t_count, self.cfg.walk_len))
                    .collect(),
            );
            let x = tape.input(fake_feats);
            let logits = mlp.forward(&mut tape, &store, x);
            let scores = tape.sigmoid(logits);
            let sv = tape.value(scores).clone();
            for (i, w) in fakes.iter().enumerate() {
                let s = sv.get(i, 0) as f64; // 1 = looks real
                let factor = (0.25 + 1.5 * s).clamp(0.25, 1.75);
                for pair in w.windows(2) {
                    model.tm.reweight(pair[0].0, pair[1].0, factor);
                }
            }
        }
        let cfg = self.cfg;
        assemble_with_budgets(observed, |r| model.propose(&cfg, r), rng)
    }
}

// ---------------------------------------------------------------------
// TIGGER-lite
// ---------------------------------------------------------------------

/// Configuration for TIGGER-lite.
#[derive(Clone, Copy)]
pub struct TiggerConfig {
    pub walk_len: usize,
    pub walks_per_round: usize,
    pub seed: u64,
}

impl Default for TiggerConfig {
    fn default() -> Self {
        TiggerConfig {
            walk_len: 10,
            walks_per_round: 2000,
            seed: 4,
        }
    }
}

/// TIGGER-lite: autoregressive temporal walks with per-node inter-event
/// gap distributions; O(n + M) state.
pub struct TiggerGenerator {
    pub cfg: TiggerConfig,
}

impl TiggerGenerator {
    pub fn new(cfg: TiggerConfig) -> Self {
        TiggerGenerator { cfg }
    }
}

impl TemporalGraphGenerator for TiggerGenerator {
    fn name(&self) -> &'static str {
        "TIGGER"
    }

    fn fit_generate(&mut self, observed: &TemporalGraph, rng: &mut dyn RngCore) -> TemporalGraph {
        let n = observed.n_nodes();
        let t_count = observed.n_timestamps();
        let tm = TransitionModel::from_edges(n, observed.edges().iter().map(|e| (e.u, e.v)));
        // per-source inter-event gap histogram (global fallback histogram)
        let mut gap_hist = vec![1e-9f64; t_count];
        let mut last_t: Vec<Option<Time>> = vec![None; n];
        for e in observed.edges() {
            if let Some(lt) = last_t[e.u as usize] {
                gap_hist[(e.t - lt).min(t_count as u32 - 1) as usize] += 1.0;
            }
            last_t[e.u as usize] = Some(e.t);
        }
        // start-time distribution = observed per-timestamp volume
        let start_t_weights: Vec<f64> = observed
            .edge_counts_per_timestamp()
            .iter()
            .map(|&c| c as f64 + 1e-9)
            .collect();
        let cfg = self.cfg;
        let propose = |r: &mut dyn RngCore| -> Vec<TemporalEdge> {
            let mut out = Vec::new();
            for _ in 0..cfg.walks_per_round / 4 {
                let Some(mut cur) = tm.sample_start(r) else {
                    break;
                };
                let mut t = sample_categorical(r, &start_t_weights) as u32;
                for _ in 0..cfg.walk_len {
                    let Some(nxt) = tm.sample_next(cur, r) else {
                        break;
                    };
                    out.push(TemporalEdge::new(cur, nxt, t));
                    let gap = sample_categorical(r, &gap_hist) as u32;
                    t = (t + gap).min(t_count as u32 - 1);
                    cur = nxt;
                }
            }
            out
        };
        assemble_with_budgets(observed, propose, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::validate_output;

    fn observed() -> TemporalGraph {
        let mut edges = Vec::new();
        for t in 0..5u32 {
            for u in 0..8u32 {
                edges.push(TemporalEdge::new(u, (u + 1) % 8, t));
                if u % 2 == 0 {
                    edges.push(TemporalEdge::new(u, (u + 2) % 8, t));
                }
            }
        }
        TemporalGraph::from_edges(8, 5, edges)
    }

    #[test]
    fn transition_model_follows_counts() {
        let tm = TransitionModel::from_edges(3, [(0u32, 1u32), (0, 1), (0, 2)].into_iter());
        let mut rng = SmallRng::seed_from_u64(0);
        let mut to1 = 0;
        for _ in 0..3000 {
            if tm.sample_next(0, &mut rng) == Some(1) {
                to1 += 1;
            }
        }
        let frac = to1 as f64 / 3000.0;
        assert!((0.58..0.75).contains(&frac), "{frac}");
        assert_eq!(tm.sample_next(1, &mut rng), None);
    }

    #[test]
    fn assemble_exactly_fills_budgets() {
        let g = observed();
        let mut rng = SmallRng::seed_from_u64(1);
        // proposer that only ever offers edges at t=0: fallback must fill the rest
        let out = assemble_with_budgets(
            &g,
            |r| vec![TemporalEdge::new(r.gen_range(0..8), 0, 0)],
            &mut rng,
        );
        assert_eq!(
            out.edge_counts_per_timestamp(),
            g.edge_counts_per_timestamp()
        );
    }

    #[test]
    fn netgan_generates_valid_graph() {
        let g = observed();
        let mut rng = SmallRng::seed_from_u64(2);
        let cfg = NetGanConfig {
            epochs: 20,
            n_walks: 100,
            max_buckets: 2,
            ..Default::default()
        };
        let out = NetGanGenerator::new(cfg).fit_generate(&g, &mut rng);
        validate_output(&g, &out);
        assert_eq!(out.n_edges(), g.n_edges());
    }

    #[test]
    fn taggen_generates_valid_graph() {
        let g = observed();
        let mut rng = SmallRng::seed_from_u64(3);
        let cfg = TagGenConfig {
            walks_per_round: 300,
            ..Default::default()
        };
        let out = TagGenGenerator::new(cfg).fit_generate(&g, &mut rng);
        validate_output(&g, &out);
        assert_eq!(
            out.edge_counts_per_timestamp(),
            g.edge_counts_per_timestamp()
        );
    }

    #[test]
    fn taggen_keeps_time_affinity_table() {
        let g = observed();
        let mut rng = SmallRng::seed_from_u64(4);
        let cfg = TagGenConfig {
            walks_per_round: 50,
            ..Default::default()
        };
        let model = TemporalWalkModel::fit(&g, &cfg, &mut rng);
        assert_eq!(model.time_affinity.len(), 25); // T^2 — the O(T²) table
        assert!(!model.corpus.is_empty());
    }

    #[test]
    fn tggan_generates_valid_graph() {
        let g = observed();
        let mut rng = SmallRng::seed_from_u64(5);
        let cfg = TagGenConfig {
            walks_per_round: 200,
            ..Default::default()
        };
        let out = TgganGenerator::new(cfg).fit_generate(&g, &mut rng);
        validate_output(&g, &out);
        assert_eq!(out.n_edges(), g.n_edges());
    }

    #[test]
    fn tigger_generates_valid_graph() {
        let g = observed();
        let mut rng = SmallRng::seed_from_u64(6);
        let out = TiggerGenerator::new(TiggerConfig::default()).fit_generate(&g, &mut rng);
        validate_output(&g, &out);
        assert_eq!(
            out.edge_counts_per_timestamp(),
            g.edge_counts_per_timestamp()
        );
    }

    #[test]
    fn walk_models_reuse_observed_edges_mostly() {
        // proposals come from observed transitions, so a large share of
        // generated (u,v) pairs should exist in the observed pair set
        let g = observed();
        let mut rng = SmallRng::seed_from_u64(7);
        let out = TagGenGenerator::new(TagGenConfig {
            walks_per_round: 500,
            ..Default::default()
        })
        .fit_generate(&g, &mut rng);
        let truth: std::collections::BTreeSet<(u32, u32)> =
            g.edges().iter().map(|e| (e.u, e.v)).collect();
        let hits = out
            .edges()
            .iter()
            .filter(|e| truth.contains(&(e.u, e.v)))
            .count();
        let frac = hits as f64 / out.n_edges() as f64;
        assert!(frac > 0.5, "observed-pair fraction {frac}");
    }

    #[test]
    fn names() {
        assert_eq!(NetGanGenerator::new(Default::default()).name(), "NetGAN");
        assert_eq!(TagGenGenerator::new(Default::default()).name(), "TagGen");
        assert_eq!(TgganGenerator::new(Default::default()).name(), "TGGAN");
        assert_eq!(TiggerGenerator::new(Default::default()).name(), "TIGGER");
    }
}
