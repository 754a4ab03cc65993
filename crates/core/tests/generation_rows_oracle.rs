//! Bit-identity oracle for the generation probability rows.
//!
//! The seeded edge streams other tests byte-compare can survive a
//! last-bit change in a probability, so this test pins the rows
//! themselves. It rebuilds the row computation the long way from public
//! tape ops, each step a fresh copy: whole tables replayed with `param`
//! and read with `gather_rows`, every decode level, the bias added
//! through `transpose` and `add_row`, then `map(x / τ)` and
//! `softmax_rows`, and the encoder through
//! `TgatEncoder::forward_reference` — the attention of every head as
//! eleven separate ops. It asserts `to_bits()` equality with
//! [`Tgae::decode_rows_for_generation`], which gathers only the rows it
//! scores, encodes with one `Tape::gat_attend` per layer, computes `μ`
//! for the centers alone, stops at decode level 0 and finishes the score
//! matrix in place — under every
//! microkernel of this CPU. Both sides must also leave the RNG in the
//! same state (computation-graph sampling, then negatives).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::rc::Rc;
use tg_graph::{NodeId, TemporalEdge, TemporalGraph, Time};
use tg_sampling::ComputationGraph;
use tg_tensor::gemm::{available_microkernels, force_microkernel, GemmPath};
use tg_tensor::matrix::Matrix;
use tg_tensor::prelude::*;
use tg_tensor::softmax::softmax_rows;
use tgae::decoder::build_candidates;
use tgae::{Tgae, TgaeConfig};

const N_NODES: u32 = 40;

fn graph() -> TemporalGraph {
    let mut edges = Vec::new();
    for t in 0..3u32 {
        for u in 0..N_NODES {
            for v in [u + 1, u + 5, u * 7 + t + 2] {
                if v % N_NODES != u {
                    edges.push(TemporalEdge::new(u, v % N_NODES, t));
                }
            }
        }
    }
    TemporalGraph::from_edges(N_NODES as usize, 3, edges)
}

/// A default-width model (`d_in = d_model = 32`, so 1–3 centers score
/// through the naive gemm and 4–6 through the tiled one) with a non-zero
/// `b_dec`: initialisation leaves the bias at zero, which would hide a
/// misplaced bias add.
fn model(g: &TemporalGraph, k: usize, dense: bool) -> Tgae {
    let mut cfg = TgaeConfig::default();
    cfg.sampler.k = k;
    cfg.sampler.threshold = 6;
    if !dense {
        cfg.dense_cutoff = 8;
        cfg.n_negatives = 3;
    }
    let mut model = Tgae::new(g.n_nodes(), g.n_timestamps(), cfg);
    let b_dec = model.store.value_mut(model.decoder.b_dec);
    for (i, b) in b_dec.as_mut_slice().iter_mut().enumerate() {
        *b = ((i * 37 % 19) as f32 - 9.0) * 0.173;
    }
    model
}

/// All rows of a stored table on the tape, then the indexed ones.
fn replayed_rows(tape: &mut Tape, store: &ParamStore, id: ParamId, idx: Vec<u32>) -> Var {
    let table = tape.param(store, id);
    tape.gather_rows(table, Rc::new(idx))
}

/// The generation rows as they were computed before a unit touched only
/// what it scores, the candidates, and the number of slots `μ` was
/// computed over.
fn reference_rows(
    model: &Tgae,
    g: &TemporalGraph,
    centers: &[(NodeId, Time)],
    rng: &mut SmallRng,
) -> (Matrix, Vec<u32>, usize) {
    let (store, cfg) = (&model.store, &model.cfg);
    let mut tape = Tape::new();
    let cg = ComputationGraph::build(g, centers, &cfg.sampler, rng);
    assert_eq!(cg.centers(), centers);
    let (slots, offsets) = cg.all_slots();
    let nodes = slots.iter().map(|&(v, _)| v).collect();
    let times = slots.iter().map(|&(_, t)| t).collect();
    let nv = replayed_rows(&mut tape, store, model.features.node_emb.table, nodes);
    let tv = replayed_rows(&mut tape, store, model.features.time_emb.table, times);
    let x_all = tape.add(nv, tv);
    let k = cg.k();
    let outer = (offsets[k] as u32..offsets[k + 1] as u32).collect();
    let x_outer = tape.gather_rows(x_all, Rc::new(outer));
    let enc_levels = model
        .encoder
        .forward_reference(&mut tape, store, &cg, x_outer);
    let (_, mu, _) = model.decoder.latent(&mut tape, store, x_all, false, rng);
    let dec_levels = model
        .decoder
        .decode_levels(&mut tape, &cg, enc_levels[0], mu, &offsets);
    assert_eq!(dec_levels.len(), k + 1);

    let mut positives: Vec<NodeId> = Vec::new();
    if model.n_nodes > cfg.dense_cutoff {
        let mut occ = Vec::new();
        for &(v, t) in centers {
            let window = cfg.sampler.time_window;
            tg_sampling::temporal_neighbor_occurrences_into(g, v, t, window, &mut occ);
            positives.extend(occ.iter().map(|&(u, _)| u));
        }
    }
    let (candidates, _) = build_candidates(
        model.n_nodes,
        positives.iter().copied(),
        cfg.dense_cutoff,
        cfg.n_negatives * 4,
        rng,
    );
    let w = tape.param(store, model.decoder.w_dec);
    let w_c = tape.gather_rows(w, candidates.clone());
    let scores = tape.matmul_nt(dec_levels[0], w_c);
    let b = tape.param(store, model.decoder.b_dec);
    let b_c = tape.gather_rows(b, candidates.clone());
    let b_row = tape.transpose(b_c);
    let logits = tape.add_row(scores, b_row);
    let tau = cfg.gen_temperature.max(1e-3);
    let sharpened = tape.value(logits).map(|x| x / tau);
    (softmax_rows(&sharpened), candidates.to_vec(), slots.len())
}

#[test]
fn generation_rows_keep_every_bit_of_the_replayed_computation() {
    let g = graph();
    for kind in available_microkernels() {
        let _forced = force_microkernel(kind);
        let mut cases = 0;
        let mut mu_paths_split = 0;
        for dense in [true, false] {
            for k in [1usize, 2] {
                let model = model(&g, k, dense);
                for n_centers in 1..=6u32 {
                    let ctx = format!("{kind:?} dense={dense} k={k} centers={n_centers}");
                    let centers: Vec<(NodeId, Time)> =
                        (0..n_centers).map(|i| (3 + 6 * i, 1)).collect();
                    let seed = 1000 + cases;
                    let mut rng_ref = SmallRng::seed_from_u64(seed);
                    let mut rng_new = SmallRng::seed_from_u64(seed);
                    let (want, want_cands, n_slots) =
                        reference_rows(&model, &g, &centers, &mut rng_ref);
                    let (got, got_cands) =
                        model.decode_rows_for_generation(&g, &centers, &mut rng_new);
                    assert_eq!(*got_cands, want_cands, "{ctx}: candidates");
                    assert_eq!(dense, want_cands.len() == N_NODES as usize, "{ctx}: path");
                    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
                    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: element {i}: {a} vs {b}");
                    }
                    assert_eq!(rng_new.state(), rng_ref.state(), "{ctx}: rng order");
                    let layer = &model.decoder.mlp_mu.layers[0];
                    let path = |rows| GemmPath::for_product(rows, layer.in_dim, layer.out_dim);
                    if path(centers.len()) == GemmPath::Naive && path(n_slots) == GemmPath::Tiled {
                        mu_paths_split += 1;
                    }
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 24);
        // μ of the centers alone would run naive where μ of every slot
        // runs tiled
        assert!(mu_paths_split > 0, "no case splits μ's gemm path");
    }
}
