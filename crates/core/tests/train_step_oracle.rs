//! Bit-identity oracle for the training step — the training twin of
//! `generation_rows_oracle.rs`.
//!
//! [`Tgae::forward_batch_into`] encodes each bipartite layer with one
//! [`Tape::gat_attend`] op and scores each decode level with one
//! [`Tape::score_xent`] op over the rows that carry a target, against
//! candidate rows it gathers once per step. This test records the same
//! step the long way — the encoder through
//! [`TgatEncoder::forward_reference`](tgae::encoder::TgatEncoder::forward_reference)
//! (eleven ops per head, `concat_cols` across heads), and
//! [`EgoDecoder::score`](tgae::decoder::EgoDecoder::score)
//! (per-level gathers, `matmul_nt`, `transpose`, `add_row`) into
//! `softmax_xent`, every slot scored — and asserts that after backward,
//! clipping and Adam every loss and every parameter is `to_bits()`-equal,
//! step after step, on each side of `dense_cutoff` and under every
//! microkernel of this CPU (the portable one included, so the equality is
//! checked on runners without AVX-512). Both sides must also leave the
//! RNG in the same state.
//!
//! It also holds the memory claim: a fused step keeps one `R × |C|` matrix
//! per level where the reference keeps three `slots × |C|`, so its tracked
//! heap peak has to be lower.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::rc::Rc;
use std::sync::Mutex;
use tg_graph::{NodeId, TemporalEdge, TemporalGraph, Time};
use tg_obs::memtrack;
use tg_sampling::{ComputationGraph, InitialNodeSampler};
use tg_tensor::gemm::{available_microkernels, force_microkernel};
use tg_tensor::prelude::*;
use tgae::decoder::build_candidates;
use tgae::{Tgae, TgaeConfig};

#[global_allocator]
static ALLOC: memtrack::TrackingAllocator = memtrack::TrackingAllocator;

/// The heap peak is process-wide: the tests of this binary take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A multigraph in which a third of the temporal nodes have no out-edge
/// (slots that carry no target) and some edges repeat (target weights
/// above one).
fn graph(n: u32, n_timestamps: u32) -> TemporalGraph {
    let mut edges = Vec::new();
    for t in 0..n_timestamps {
        for u in 0..n {
            if (u + t) % 3 == 0 {
                continue;
            }
            for v in [u + 5, u * 7 + t + 1, u + 5] {
                if v % n != u {
                    edges.push(TemporalEdge::new(u, v % n, t));
                }
            }
        }
    }
    TemporalGraph::from_edges(n as usize, n_timestamps as usize, edges)
}

/// A default-width model with a non-zero `b_dec` (initialisation leaves
/// the bias at zero, which would hide a misplaced bias add in step one).
fn model(g: &TemporalGraph, dense: bool, batch_centers: usize) -> Tgae {
    let mut cfg = TgaeConfig::default();
    cfg.sampler.threshold = 6;
    cfg.batch_centers = batch_centers;
    if !dense {
        cfg.dense_cutoff = 16;
        cfg.n_negatives = 12;
    }
    let mut model = Tgae::new(g.n_nodes(), g.n_timestamps(), cfg);
    let b_dec = model.store.value_mut(model.decoder.b_dec);
    for (i, b) in b_dec.as_mut_slice().iter_mut().enumerate() {
        *b = ((i * 37 % 19) as f32 - 9.0) * 0.173;
    }
    model
}

/// The forward pass of a training step as it was before the attention
/// and scoring chains were fused: the encoder op by op, every slot of
/// every level scored through `EgoDecoder::score`, the loss through
/// `softmax_xent`. Returns the loss
/// and how many of the slots carried no target.
fn reference_forward(
    model: &Tgae,
    tape: &mut Tape,
    g: &TemporalGraph,
    centers: &[(NodeId, Time)],
    rng: &mut SmallRng,
) -> (Var, usize) {
    let (store, cfg) = (&model.store, &model.cfg);
    tape.clear();
    let cg = ComputationGraph::build(g, centers, &cfg.sampler, rng);
    let (slots, offsets) = cg.all_slots();
    let x_all = model.features.forward(tape, store, &slots);
    let k = cg.k();
    let outer = (offsets[k] as u32..offsets[k + 1] as u32).collect();
    let x_outer = tape.gather_rows(x_all, Rc::new(outer));
    let enc_levels = model.encoder.forward_reference(tape, store, &cg, x_outer);
    let (z, mu, logvar) = model
        .decoder
        .latent(tape, store, x_all, model.probabilistic(), rng);
    let dec_levels = model
        .decoder
        .decode_levels(tape, &cg, enc_levels[0], z, &offsets);

    let mut per_level: Vec<Vec<(u32, NodeId, f32)>> = Vec::new();
    let mut positives: Vec<NodeId> = Vec::new();
    let mut total_weight = 0.0f32;
    let mut unsupervised = 0;
    for level in &cg.levels {
        let mut targets = Vec::new();
        for (r, &(v, t)) in level.iter().enumerate() {
            let mut nbs: Vec<NodeId> = g.out_neighbors_at(v, t).collect();
            unsupervised += usize::from(nbs.is_empty());
            nbs.sort_unstable();
            for run in nbs.chunk_by(|a, b| a == b) {
                let w = run.iter().fold(0.0f32, |w, _| w + 1.0);
                positives.push(run[0]);
                total_weight += w;
                targets.push((r as u32, run[0], w));
            }
        }
        per_level.push(targets);
    }
    let (candidates, lookup) = build_candidates(
        model.n_nodes,
        positives.iter().copied(),
        cfg.dense_cutoff,
        cfg.n_negatives,
        rng,
    );
    let norm = total_weight.max(1.0);
    let mut loss: Option<Var> = None;
    for (&h, targets) in dec_levels.iter().zip(&per_level) {
        if targets.is_empty() {
            continue;
        }
        let remapped: Vec<SparseTarget> = targets
            .iter()
            .map(|&(r, v, w)| (r, lookup[v as usize], w))
            .collect();
        let logits = model.decoder.score(tape, store, h, candidates.clone());
        let xent = tape.softmax_xent(logits, Rc::new(remapped), norm);
        loss = Some(match loss {
            Some(l) => tape.add(l, xent),
            None => xent,
        });
    }
    if let Some(lv) = logvar {
        let kl = tape.kl_normal(mu, lv, cfg.kl_beta / slots.len().max(1) as f32);
        loss = Some(match loss {
            Some(l) => tape.add(l, kl),
            None => kl,
        });
    }
    (loss.expect("the batch supervises something"), unsupervised)
}

/// Backward, clip, Adam — the rest of `train_loop`'s step. Returns the
/// loss bits.
fn finish_step(model: &mut Tgae, opt: &mut Adam, tape: &Tape, loss: Var) -> u32 {
    let bits = tape.value(loss).item().to_bits();
    let mut grads = tape.backward(loss);
    clip_global_norm(&mut grads, model.cfg.grad_clip);
    opt.step(&mut model.store, &grads);
    bits
}

fn param_bits(model: &Tgae) -> Vec<(String, Vec<u32>)> {
    let store = &model.store;
    store
        .ids()
        .map(|id| {
            let bits = store
                .value(id)
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (store.name(id).to_string(), bits)
        })
        .collect()
}

#[test]
fn fused_steps_keep_every_bit_of_the_reference_steps() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const STEPS: usize = 6;
    // the sparse graph outnumbers what eight ego-graphs can reach, so its
    // candidate set is a strict subset of the nodes
    let (g_dense, g_sparse) = (graph(120, 4), graph(900, 4));
    let mut runs = 0;
    for kind in available_microkernels() {
        let _forced = force_microkernel(kind);
        for dense in [true, false] {
            let ctx = format!("{kind:?} dense={dense}");
            let (g, batch_centers) = if dense {
                (&g_dense, 24)
            } else {
                (&g_sparse, 8)
            };
            let sampler = InitialNodeSampler::new(g, true);
            let mut fused = model(g, dense, batch_centers);
            let mut reference = fused.clone();
            let (mut opt_f, mut opt_r) = (Adam::new(fused.cfg.lr), Adam::new(fused.cfg.lr));
            let (mut tape_f, mut tape_r) = (Tape::new(), Tape::new());
            let (mut rng_f, mut rng_r) = (SmallRng::seed_from_u64(77), SmallRng::seed_from_u64(77));
            let mut unsupervised_slots = 0;
            for step in 0..STEPS {
                let mut centers = sampler.sample_batch(fused.cfg.batch_centers, &mut rng_f);
                assert_eq!(
                    centers,
                    sampler.sample_batch(fused.cfg.batch_centers, &mut rng_r)
                );
                if step % 2 == 1 {
                    // Two centers, the first without an out-edge: level
                    // 0 scores one row of two, and at these widths the
                    // one-row product is a naive gemm where the two-row
                    // product is a tiled one.
                    centers = vec![(3, 0), (4, 0)];
                }
                let (loss_f, stats) =
                    fused.forward_batch_into(&mut tape_f, g, &centers, &mut rng_f);
                let (loss_r, unsupervised) =
                    reference_forward(&reference, &mut tape_r, g, &centers, &mut rng_r);
                assert_eq!(dense, stats.n_candidates == g.n_nodes(), "{ctx}: path");
                unsupervised_slots += unsupervised;
                let bits_f = finish_step(&mut fused, &mut opt_f, &tape_f, loss_f);
                let bits_r = finish_step(&mut reference, &mut opt_r, &tape_r, loss_r);
                assert_eq!(bits_f, bits_r, "{ctx}: loss of step {step}");
                assert_eq!(rng_f.state(), rng_r.state(), "{ctx}: rng after step {step}");
                for ((name, got), (_, want)) in
                    param_bits(&fused).iter().zip(&param_bits(&reference))
                {
                    let diff = got.iter().zip(want).position(|(a, b)| a != b);
                    assert_eq!(diff, None, "{ctx}: `{name}` after step {step}");
                }
            }
            assert!(unsupervised_slots > 0, "{ctx}: every slot carried a target");
            runs += 1;
        }
    }
    assert_eq!(runs, 2 * available_microkernels().len());
}

#[test]
fn a_fused_step_peaks_lower_than_the_reference_step() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let g = graph(600, 4);
    let model = model(&g, true, 48);
    let centers =
        InitialNodeSampler::new(&g, true).sample_batch(48, &mut SmallRng::seed_from_u64(5));
    // forward + backward on a cold tape: everything the step holds, pooled
    // or live, is on the heap at its peak
    let peak_of = |fused: bool| -> (usize, usize) {
        let mut rng = SmallRng::seed_from_u64(6);
        let before = memtrack::current_bytes();
        memtrack::reset_peak();
        let mut tape = Tape::new();
        let (loss, slots) = if fused {
            let (loss, stats) = model.forward_batch_into(&mut tape, &g, &centers, &mut rng);
            (loss, stats.n_slots)
        } else {
            (
                reference_forward(&model, &mut tape, &g, &centers, &mut rng).0,
                0,
            )
        };
        let grads = tape.backward(loss);
        let peak = memtrack::peak_bytes() - before;
        drop((grads, tape));
        (peak, slots)
    };
    let (reference, _) = peak_of(false);
    let (fused, slots) = peak_of(true);
    // the reference holds two more `slots × |C|` matrices than the fused
    // step holds `R × |C|` ones; one of them is a safe lower bound
    let one_logits_matrix = slots * g.n_nodes() * std::mem::size_of::<f32>();
    assert!(
        fused + one_logits_matrix < reference,
        "fused step peaks at {}, reference at {}, one slots x |C| matrix is {}",
        memtrack::fmt_bytes(fused),
        memtrack::fmt_bytes(reference),
        memtrack::fmt_bytes(one_logits_matrix),
    );
}
