//! Criterion micro-benchmarks for the hot paths behind every table:
//! ego-graph sampling, computation-graph building, TGAT forward/backward,
//! the training step at the suite's sizes, motif census, snapshot
//! statistics, and the core tensor kernels.

#![allow(clippy::field_reassign_with_default)] // config-building style

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tg_datasets::{GridPoint, SyntheticConfig};
use tg_graph::Snapshot;
use tg_metrics::{count_motifs, CumulativeStats, GraphStats};
use tg_sampling::{sample_ego_graph, ComputationGraph, InitialNodeSampler, SamplerConfig};
use tg_tensor::matrix::{matmul_nn, matmul_nn_naive, segment_softmax, Matrix};
use tg_tensor::optim::{clip_global_norm, Adam};
use tg_tensor::params::ParamStore;
use tg_tensor::tape::{SparseTarget, Tape};
use tgae::{Tgae, TgaeConfig};

fn bench_graph() -> tg_graph::TemporalGraph {
    let cfg = SyntheticConfig {
        nodes: 500,
        edges: 4000,
        timestamps: 10,
        ..Default::default()
    };
    tg_datasets::generate(&cfg, &mut SmallRng::seed_from_u64(1))
}

fn sampling_benches(c: &mut Criterion) {
    let g = bench_graph();
    let scfg = SamplerConfig::default();
    c.bench_function("ego_graph_sample_k2", |b| {
        let mut rng = SmallRng::seed_from_u64(2);
        b.iter(|| sample_ego_graph(&g, (10, 3), &scfg, &mut rng))
    });
    let sampler = InitialNodeSampler::new(&g, true);
    c.bench_function("initial_node_batch_64", |b| {
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| sampler.sample_batch(64, &mut rng))
    });
    for batch in [16usize, 64, 256] {
        c.bench_with_input(
            BenchmarkId::new("computation_graph_build", batch),
            &batch,
            |b, &batch| {
                let mut rng = SmallRng::seed_from_u64(4);
                let centers = sampler.sample_batch(batch, &mut rng);
                b.iter(|| ComputationGraph::build(&g, &centers, &scfg, &mut rng))
            },
        );
    }
}

fn model_benches(c: &mut Criterion) {
    let g = bench_graph();
    let cfg = TgaeConfig::default();
    let model = Tgae::new(g.n_nodes(), g.n_timestamps(), cfg);
    let sampler = InitialNodeSampler::new(&g, true);
    c.bench_function("tgae_forward_batch_64", |b| {
        let mut rng = SmallRng::seed_from_u64(5);
        let centers = sampler.sample_batch(64, &mut rng);
        b.iter(|| model.forward_batch(&g, &centers, &mut rng))
    });
    c.bench_function("tgae_forward_backward_64", |b| {
        let mut rng = SmallRng::seed_from_u64(6);
        let centers = sampler.sample_batch(64, &mut rng);
        b.iter(|| {
            let (tape, loss, _) = model.forward_batch(&g, &centers, &mut rng);
            tape.backward(loss)
        })
    });
}

/// The training step the suite's `train_s` is made of — sample, forward,
/// backward, clip, Adam on one reused tape, `TgaeConfig::default()` — on
/// the two Table II graphs it trains on either side of `dense_cutoff`, and
/// the op that dominates it: candidate scoring with its cross-entropy at
/// the shape of DBLP's outer decode level (1800 slots of which 5 in 7
/// carry a target, `d = 32`, 1909 candidates), forward and backward.
fn train_step_benches(c: &mut Criterion) {
    for (name, preset) in [
        ("tgae_train_step_dblp_dense", tg_datasets::presets::dblp()),
        (
            "tgae_train_step_btc_sparse",
            tg_datasets::presets::bitcoin_otc(),
        ),
    ] {
        let g = preset.generate_scaled(1.0, 7);
        let cfg = TgaeConfig::default();
        let mut model = Tgae::new(g.n_nodes(), g.n_timestamps(), cfg.clone());
        let sampler = InitialNodeSampler::new(&g, cfg.sampler.degree_weighted);
        c.bench_function(name, |b| {
            let mut rng = SmallRng::seed_from_u64(10);
            let mut opt = Adam::new(cfg.lr);
            let mut tape = Tape::new();
            b.iter(|| {
                let centers = sampler.sample_batch(cfg.batch_centers, &mut rng);
                let (loss, _) = model.forward_batch_into(&mut tape, &g, &centers, &mut rng);
                let mut grads = tape.backward(loss);
                clip_global_norm(&mut grads, cfg.grad_clip);
                opt.step(&mut model.store, &grads);
            })
        });
    }

    let (slots, d, n_cand) = (1800usize, 32usize, 1909usize);
    let mut store = ParamStore::new();
    let cell = |r: usize, c: usize| ((r * 31 + c * 7) % 23) as f32 * 0.02 - 0.2;
    let h = store.create("h", Matrix::from_fn(slots, d, cell));
    let w_dec = store.create("dec.w", Matrix::from_fn(n_cand, d, cell));
    let b_dec = store.create("dec.b", Matrix::from_fn(n_cand, 1, cell));
    let candidates = std::rc::Rc::new((0..n_cand as u32).collect::<Vec<u32>>());
    let targets: Vec<SparseTarget> = (0..slots as u32)
        .filter(|r| r % 7 < 5)
        .map(|r| (r, r * 13 % n_cand as u32, 1.0))
        .collect();
    c.bench_function("score_xent_1800x32x1909", |b| {
        let mut tape = Tape::new();
        b.iter(|| {
            tape.clear();
            let h = tape.param(&store, h);
            let w_c = tape.gather_param_rows(&store, w_dec, candidates.clone());
            let b_c = tape.gather_param_rows(&store, b_dec, candidates.clone());
            let loss = tape.score_xent(h, w_c, b_c, &targets, targets.len() as f32);
            tape.backward(loss)
        })
    });
}

fn metric_benches(c: &mut Criterion) {
    let g = bench_graph();
    c.bench_function("motif_census_exact", |b| b.iter(|| count_motifs(&g, 2)));
    let snap = Snapshot::accumulated(&g, g.n_timestamps() as u32 - 1, true);
    c.bench_function("graph_stats_full", |b| {
        b.iter(|| GraphStats::compute(&snap))
    });
    // all ten accumulated snapshots in one incremental pass
    c.bench_function("cumulative_series", |b| {
        b.iter(|| CumulativeStats::new(&g).collect::<Vec<GraphStats>>())
    });
    c.bench_function("snapshot_accumulate", |b| {
        b.iter(|| Snapshot::accumulated(&g, 9, true))
    });
}

fn tensor_benches(c: &mut Criterion) {
    let a = Matrix::from_fn(128, 128, |r, cc| ((r * 31 + cc) % 17) as f32 * 0.1);
    let bm = Matrix::from_fn(128, 128, |r, cc| ((r * 7 + cc) % 13) as f32 * 0.1);
    c.bench_function("matmul_128", |b| b.iter(|| matmul_nn(&a, &bm)));
    // tiled vs naive across the sizes the acceptance criteria track
    for size in [256usize, 512, 1024] {
        let a = Matrix::from_fn(size, size, |r, cc| {
            ((r * 31 + cc * 7) % 13) as f32 * 0.1 - 0.5
        });
        let bm = Matrix::from_fn(size, size, |r, cc| {
            ((r * 17 + cc * 3) % 11) as f32 * 0.1 - 0.4
        });
        c.bench_with_input(BenchmarkId::new("matmul_tiled", size), &size, |b, _| {
            b.iter(|| matmul_nn(&a, &bm))
        });
        c.bench_with_input(BenchmarkId::new("matmul_naive", size), &size, |b, _| {
            b.iter(|| matmul_nn_naive(&a, &bm))
        });
    }
    let scores = Matrix::from_fn(4096, 1, |r, _| (r % 37) as f32 * 0.05);
    let seg: Vec<u32> = (0..4096u32).map(|i| i / 16).collect();
    c.bench_function("segment_softmax_4096x256", |b| {
        b.iter(|| segment_softmax(&scores, &seg, 256))
    });
}

fn generation_benches(c: &mut Criterion) {
    let p = GridPoint {
        nodes: 500,
        timestamps: 5,
        density: 0.01,
    };
    let g = p.generate(7);
    let mut cfg = TgaeConfig::tiny();
    cfg.epochs = 5;
    let mut session = tgae::Session::builder(&g)
        .config(cfg)
        .build()
        .expect("session");
    session.train().expect("train");
    let run = session.into_shared();
    c.bench_function("tgae_generate_500n_5t", |b| {
        let mut master = 8u64;
        b.iter(|| {
            master = master.wrapping_add(1);
            run.simulate_seeded(
                master,
                tg_graph::sink::GraphSink::new(g.n_nodes(), g.n_timestamps()),
            )
            .expect("simulate")
        })
    });
    // One generation unit's decode (computation graph → encoder → level-0
    // decode state → candidate scores → in-place softmax) at the default
    // model widths, on each side of `dense_cutoff`.
    let mut sources: Vec<(u32, u32)> = g.edges_at(2).iter().map(|e| (e.u, 2)).collect();
    sources.dedup();
    sources.truncate(32);
    for (name, dense_cutoff) in [
        ("tgae_decode_unit_dense", usize::MAX),
        ("tgae_decode_unit_sparse", 64),
    ] {
        let cfg = TgaeConfig {
            dense_cutoff,
            ..TgaeConfig::default()
        };
        let model = Tgae::new(g.n_nodes(), g.n_timestamps(), cfg);
        c.bench_function(name, |b| {
            let mut rng = SmallRng::seed_from_u64(9);
            b.iter(|| model.decode_rows_for_generation(&g, &sources, &mut rng))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = sampling_benches, model_benches, train_step_benches, metric_benches, tensor_benches, generation_benches
}
criterion_main!(benches);
