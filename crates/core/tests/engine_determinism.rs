//! Determinism invariance of the sharded streaming simulation engine:
//! for a fixed master seed the generated edge stream must be
//! bit-identical across **thread counts × shard counts × sink
//! implementations**, and the statistics sink fed the engine's stream
//! must agree exactly with the graph walk over the in-memory graph.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tg_graph::io::read_edge_list_exact;
use tg_graph::io::StreamingWriterSink;
use tg_graph::sink::GraphSink;
use tg_graph::{TemporalEdge, TemporalGraph};
use tg_metrics::{CumulativeStats, GraphStats, StatsSeries, StatsSink};
use tg_tensor::parallel::ThreadPin;
use tgae::{generate_shard_with_sink, Session, SharedRun, SimulationEngine, TgaeConfig};

/// A small multigraph with ring structure plus seeded random extra edges
/// (including re-fired pairs, so the multiplicity path is exercised).
fn mixed_graph(n: u32, t_count: u32, extra: usize, seed: u64) -> TemporalGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for t in 0..t_count {
        for u in 0..n {
            edges.push(TemporalEdge::new(u, (u + 1) % n, t));
        }
    }
    for _ in 0..extra {
        let u = rng.gen_range(0..n);
        let mut v = rng.gen_range(0..n);
        if v == u {
            v = (v + 1) % n;
        }
        let t = rng.gen_range(0..t_count);
        edges.push(TemporalEdge::new(u, v, t));
        if rng.gen_bool(0.3) {
            edges.push(TemporalEdge::new(u, v, t)); // multigraph re-fire
        }
    }
    TemporalGraph::from_edges(n as usize, t_count as usize, edges)
}

fn tiny_trained(g: &TemporalGraph, batch_centers: usize) -> SharedRun {
    let mut cfg = TgaeConfig::tiny();
    cfg.epochs = 4;
    cfg.batch_centers = batch_centers;
    let mut session = Session::builder(g).config(cfg).build().expect("session");
    session.train().expect("train");
    session.into_shared()
}

fn graph_sink(g: &TemporalGraph) -> GraphSink {
    GraphSink::new(g.n_nodes(), g.n_timestamps())
}

fn stats_sink(g: &TemporalGraph) -> StatsSink {
    StatsSink::new(g.n_nodes(), g.n_timestamps())
}

/// The graph walk's series over `edges`, in `g`'s shape, with volume.
fn walked(g: &TemporalGraph, edges: Vec<TemporalEdge>) -> StatsSeries {
    let full = TemporalGraph::from_edges(g.n_nodes(), g.n_timestamps(), edges);
    StatsSeries {
        volume: full
            .edge_counts_per_timestamp()
            .into_iter()
            .map(|c| c as u64)
            .collect(),
        stats: CumulativeStats::new(&full).collect::<Vec<GraphStats>>(),
    }
}

/// Full-run reference edges through a `GraphSink`.
fn reference_edges(run: &SharedRun, master: u64) -> Vec<TemporalEdge> {
    run.simulate_seeded(master, graph_sink(run.observed()))
        .expect("simulate")
        .edges()
        .to_vec()
}

#[test]
fn edges_bit_identical_across_threads_shards_and_sinks() {
    let g = mixed_graph(10, 3, 12, 5);
    let run = tiny_trained(&g, 4); // several chunks per timestamp
    let model = run.model();
    let master = 20240731u64;
    let reference = reference_edges(&run, master);
    assert_eq!(reference.len(), g.n_edges());

    for threads in [1usize, 2, 4] {
        let _pin = ThreadPin::new(threads);
        for n_shards in [1usize, 2, 4] {
            let shards = run.plan(master).shards(n_shards);

            // GraphSink per shard, merged
            let mut merged: Vec<TemporalEdge> = Vec::new();
            for spec in &shards {
                let shard = generate_shard_with_sink(model, &g, spec, graph_sink(&g));
                merged.extend_from_slice(shard.edges());
            }
            let merged = TemporalGraph::from_edges(g.n_nodes(), g.n_timestamps(), merged);
            assert_eq!(
                merged.edges(),
                &reference[..],
                "GraphSink: threads={threads} shards={n_shards}"
            );

            // StreamingWriterSink per shard; shard buffers concatenate in
            // shard order and parse back to the reference edges
            let mut bytes: Vec<u8> = Vec::new();
            for spec in &shards {
                let mut sink = StreamingWriterSink::new(Vec::new());
                let engine = SimulationEngine::new(model, &g);
                let shard_plan = engine.plan(spec.master_seed);
                engine.execute(shard_plan.shard_units(spec), &mut sink);
                bytes.extend_from_slice(&sink.into_inner().unwrap());
            }
            let parsed = read_edge_list_exact(bytes.as_slice(), g.n_nodes(), g.n_timestamps())
                .expect("streamed text parses");
            assert_eq!(
                parsed.edges(),
                &reference[..],
                "StreamingWriterSink: threads={threads} shards={n_shards}"
            );
        }

        // the whole-run stream into the statistics sink equals the graph
        // walk over the same run's GraphSink output
        let (graph, series) = run
            .simulate_seeded(master, (graph_sink(&g), stats_sink(&g)))
            .expect("simulate");
        assert_eq!(graph.edges(), &reference[..], "threads={threads}");
        assert_eq!(
            series,
            walked(&g, graph.edges().to_vec()),
            "StatsSink: threads={threads}"
        );
    }
}

#[test]
fn streamed_bytes_are_shard_concatenation() {
    let g = mixed_graph(8, 2, 6, 9);
    let run = tiny_trained(&g, 4);
    let master = 77u64;
    let dir = std::env::temp_dir().join(format!("tg_engine_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let full_path = dir.join("full.txt");
    let n_full = run
        .simulate_seeded(master, StreamingWriterSink::create(&full_path).unwrap())
        .expect("simulate")
        .unwrap();
    assert_eq!(n_full as usize, g.n_edges());

    let mut shard_paths = Vec::new();
    for spec in run.plan(master).shards(3) {
        let p = dir.join(format!("shard_{}.txt", spec.shard));
        let sink = StreamingWriterSink::create(&p).unwrap();
        generate_shard_with_sink(run.model(), &g, &spec, sink).unwrap();
        shard_paths.push(p);
    }
    let concatenated: Vec<u8> = shard_paths
        .iter()
        .flat_map(|p| std::fs::read(p).unwrap())
        .collect();
    assert_eq!(
        std::fs::read(&full_path).unwrap(),
        concatenated,
        "shard files must concatenate byte-identically to the full stream"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Over random small multigraphs: sharded GraphSink union equals the
    /// full run, and the whole-run StatsSink series equals the graph walk
    /// over that union.
    #[test]
    fn sharding_and_stats_invariants_hold(
        n in 5u32..9,
        t_count in 1u32..4,
        extra in 0usize..10,
        graph_seed in 0u64..1000,
        master in 0u64..1000,
    ) {
        let g = mixed_graph(n, t_count, extra, graph_seed);
        let run = tiny_trained(&g, 4);
        let reference = reference_edges(&run, master);
        prop_assert_eq!(reference.len(), g.n_edges());

        let mut merged: Vec<TemporalEdge> = Vec::new();
        for spec in run.plan(master).shards(2) {
            let shard = generate_shard_with_sink(run.model(), &g, &spec, graph_sink(&g));
            merged.extend_from_slice(shard.edges());
        }
        let merged = TemporalGraph::from_edges(g.n_nodes(), g.n_timestamps(), merged);
        prop_assert_eq!(merged.edges(), &reference[..]);

        let series = run
            .simulate_seeded(master, stats_sink(&g))
            .expect("simulate");
        prop_assert_eq!(series, walked(&g, merged.edges().to_vec()));
    }
}
