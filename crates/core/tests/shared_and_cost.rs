//! PR-7 enabling-refactor proofs:
//!
//! - a [`SharedRun`] is bit-identical to itself across threads (one
//!   `Arc`-held model, no per-caller state);
//! - [`CostEstimate`] is monotone in edges, timestamps, and chunk
//!   granularity, additive over shards, and master-seed independent —
//!   property-tested over random small multigraphs, because these are
//!   exactly the invariants admission control banks on.

use proptest::prelude::*;
use std::sync::Arc;
use tg_graph::io::StreamingWriterSink;
use tg_graph::{TemporalEdge, TemporalGraph};
use tgae::{Session, SharedRun, SimulationPlan, TgaeConfig};

fn ring(n: u32, t_count: u32) -> TemporalGraph {
    let mut edges = Vec::new();
    for t in 0..t_count {
        for u in 0..n {
            edges.push(TemporalEdge::new(u, (u + 1) % n, t));
        }
    }
    TemporalGraph::from_edges(n as usize, t_count as usize, edges)
}

fn trained_run() -> SharedRun {
    let observed = ring(18, 3);
    let mut cfg = TgaeConfig::tiny();
    cfg.epochs = 2;
    let mut session = Session::builder(&observed)
        .config(cfg)
        .seed(13)
        .build()
        .unwrap();
    session.train().unwrap();
    session.into_shared()
}

fn stream_bytes(run: &SharedRun, master: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    run.simulate_seeded(master, StreamingWriterSink::new(&mut buf))
        .unwrap()
        .unwrap();
    buf
}

#[test]
fn concurrent_shared_simulations_are_bit_identical_to_sequential() {
    let run = trained_run();
    let masters = [3u64, 7, 21, 100];
    let sequential: Vec<Vec<u8>> = masters.iter().map(|&m| stream_bytes(&run, m)).collect();

    let model_before = run.model_arc();
    let handles: Vec<_> = masters
        .iter()
        .map(|&m| {
            let run = run.clone();
            std::thread::spawn(move || (m, stream_bytes(&run, m), run.model_arc()))
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let (m, bytes, model_arc) = h.join().unwrap();
        assert_eq!(
            bytes, sequential[i],
            "master {m}: concurrent stream diverged from sequential"
        );
        assert!(
            Arc::ptr_eq(&model_arc, &model_before),
            "a thread ended up with a different model instance"
        );
    }
}

/// Random small multigraph parts: shape + self-loop-free edge triples.
fn graph_parts() -> impl Strategy<Value = (usize, usize, Vec<(u32, u32, u32)>)> {
    (4usize..12, 1usize..4).prop_flat_map(|(n, t)| {
        proptest::collection::vec((0u32..n as u32, 1u32..n as u32, 0u32..t as u32), 1..60)
            .prop_map(move |triples| (n, t, triples))
    })
}

fn build(n: usize, t: usize, triples: &[(u32, u32, u32)]) -> TemporalGraph {
    let edges = triples
        .iter()
        .map(|&(u, off, ts)| TemporalEdge::new(u, (u + off) % n as u32, ts))
        .collect();
    TemporalGraph::from_edges(n, t, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cost_is_monotone_in_edges(parts in graph_parts(), split in 0usize..60) {
        let (n, t, triples) = parts;
        let split = 1 + split % triples.len();
        let smaller = build(n, t, &triples[..split]);
        let larger = build(n, t, &triples);
        let small = SimulationPlan::new(&smaller, 32, 0).cost_estimate();
        let large = SimulationPlan::new(&larger, 32, 0).cost_estimate();
        prop_assert!(large.edges >= small.edges);
        prop_assert!(large.centers >= small.centers);
        prop_assert!(large.units >= small.units);
        prop_assert!(large.cost >= small.cost, "adding edges reduced the cost");
    }

    #[test]
    fn cost_is_monotone_in_timestamps(parts in graph_parts()) {
        let (n, t, triples) = parts;
        let base = build(n, t, &triples);
        // Same edges plus one more populated timestamp appended.
        let mut extended: Vec<(u32, u32, u32)> = triples.clone();
        extended.push((0, 1, t as u32));
        let taller = build(n, t + 1, &extended);
        let small = SimulationPlan::new(&base, 32, 0).cost_estimate();
        let large = SimulationPlan::new(&taller, 32, 0).cost_estimate();
        prop_assert!(large.units > small.units, "new timestamp must add a unit");
        prop_assert!(large.cost > small.cost, "extending the horizon reduced the cost");
    }

    #[test]
    fn finer_chunking_never_costs_less(parts in graph_parts()) {
        let (n, t, triples) = parts;
        let g = build(n, t, &triples);
        let fine = SimulationPlan::new(&g, 32, 0).cost_estimate();
        let coarse = SimulationPlan::new(&g, 256, 0).cost_estimate();
        prop_assert_eq!(fine.edges, coarse.edges);
        prop_assert_eq!(fine.centers, coarse.centers);
        prop_assert!(fine.units >= coarse.units);
        prop_assert!(fine.cost >= coarse.cost, "finer chunks reduced the cost");
    }

    #[test]
    fn cost_is_master_seed_independent_and_shard_additive(
        parts in graph_parts(),
        master_a in 0u64..1000,
        master_b in 0u64..1000,
        n_shards in 1usize..6,
    ) {
        let (n, t, triples) = parts;
        let g = build(n, t, &triples);
        let plan_a = SimulationPlan::new(&g, 32, master_a);
        let plan_b = SimulationPlan::new(&g, 32, master_b);
        prop_assert_eq!(plan_a.cost_estimate(), plan_b.cost_estimate(),
            "cost must not depend on the master seed");

        let total = plan_a.cost_estimate();
        let mut units = 0u64;
        let mut centers = 0u64;
        let mut edges = 0u64;
        let mut cost = 0u64;
        for spec in plan_a.shards(n_shards) {
            let e = plan_a.shard_cost_estimate(&spec);
            units += e.units;
            centers += e.centers;
            edges += e.edges;
            cost += e.cost;
        }
        prop_assert_eq!(units, total.units);
        prop_assert_eq!(centers, total.centers);
        prop_assert_eq!(edges, total.edges);
        prop_assert_eq!(cost, total.cost, "shard costs must sum to the plan cost");
    }
}
