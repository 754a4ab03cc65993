//! Cross-crate property-based tests (proptest): invariants that must hold
//! for *any* temporal graph, not just the unit-test fixtures.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tgx::graph::{Snapshot, TemporalEdge, TemporalGraph};
use tgx::metrics::{count_motifs, GraphStats, MetricKind};
use tgx::sampling::{ComputationGraph, SamplerConfig};

/// Strategy: a random temporal graph with up to 12 nodes, 4 timestamps,
/// and 40 edges.
fn arb_graph() -> impl Strategy<Value = TemporalGraph> {
    (
        2usize..12,
        1usize..4,
        proptest::collection::vec((0u32..12, 0u32..12, 0u32..4), 1..40),
    )
        .prop_map(|(n, t, raw)| {
            let n = n.max(2);
            let t = t.max(1);
            let edges: Vec<TemporalEdge> = raw
                .into_iter()
                .map(|(u, v, tt)| TemporalEdge::new(u % n as u32, v % n as u32, tt % t as u32))
                .collect();
            TemporalGraph::from_edges(n, t, edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Accumulated snapshots are monotone: edge sets only grow with t.
    #[test]
    fn accumulated_snapshots_grow(g in arb_graph()) {
        let mut prev = 0usize;
        for t in 0..g.n_timestamps() as u32 {
            let snap = Snapshot::accumulated(&g, t, true);
            prop_assert!(snap.n_edges() >= prev);
            prev = snap.n_edges();
        }
    }

    /// Degree sums: undirected adjacency degree total equals 2x the number
    /// of undirected simple edges.
    #[test]
    fn undirected_degree_sum_is_even(g in arb_graph()) {
        let snap = Snapshot::accumulated(&g, g.n_timestamps() as u32 - 1, true);
        let adj = snap.undirected_adjacency();
        let total: usize = adj.iter().map(|a| a.len()).sum();
        prop_assert_eq!(total % 2, 0);
    }

    /// Wedge count >= 3 * triangle count (every triangle contains 3 wedges).
    #[test]
    fn wedges_bound_triangles(g in arb_graph()) {
        let snap = Snapshot::accumulated(&g, g.n_timestamps() as u32 - 1, true);
        let s = GraphStats::compute(&snap);
        prop_assert!(s.wedge_count + 1e-9 >= 3.0 * s.triangle_count,
            "wedges {} triangles {}", s.wedge_count, s.triangle_count);
    }

    /// LCC size + (components - 1) <= n: the largest component and the
    /// remaining components partition the nodes.
    #[test]
    fn lcc_and_components_partition(g in arb_graph()) {
        let snap = Snapshot::accumulated(&g, g.n_timestamps() as u32 - 1, true);
        let s = GraphStats::compute(&snap);
        prop_assert!(s.lcc + s.n_components - 1.0 <= g.n_nodes() as f64 + 1e-9);
        prop_assert!(s.lcc >= 1.0 || g.n_nodes() == 0);
    }

    /// Metric dispatch is consistent with the bulk computation.
    #[test]
    fn metric_kind_matches_bulk(g in arb_graph()) {
        let snap = Snapshot::accumulated(&g, 0, true);
        let bulk = GraphStats::compute(&snap);
        for kind in MetricKind::ALL {
            prop_assert_eq!(kind.compute(&snap), bulk.get(kind));
        }
    }

    /// Motif census is monotone in delta: a larger window never counts fewer.
    #[test]
    fn motif_census_monotone_in_delta(g in arb_graph()) {
        let small = count_motifs(&g, 1).total();
        let large = count_motifs(&g, 3).total();
        prop_assert!(large >= small);
    }

    /// Computation-graph invariants on any graph: self-loops present,
    /// slot indices in range, level-0 equals the centers.
    #[test]
    fn computation_graph_contracts(g in arb_graph(), seed in 0u64..1000) {
        let cfg = SamplerConfig { k: 2, threshold: 4, time_window: 1, degree_weighted: true };
        let mut rng = SmallRng::seed_from_u64(seed);
        let centers = vec![(0u32, 0u32), (1u32 % g.n_nodes() as u32, 0u32)];
        let cg = ComputationGraph::build(&g, &centers, &cfg, &mut rng);
        prop_assert_eq!(cg.k(), 2);
        for (i, layer) in cg.layers.iter().enumerate() {
            prop_assert_eq!(layer.n_targets, cg.levels[i].len());
            prop_assert_eq!(layer.n_sources, cg.levels[i + 1].len());
            for j in 0..layer.n_targets {
                let si = layer.self_idx[j] as usize;
                prop_assert_eq!(cg.levels[i][j], cg.levels[i + 1][si]);
            }
            for (&s, &d) in layer.src.iter().zip(layer.dst.iter()) {
                prop_assert!((s as usize) < layer.n_sources);
                prop_assert!((d as usize) < layer.n_targets);
            }
        }
    }

    /// Edge-list IO round-trips arbitrary graphs.
    #[test]
    fn io_roundtrip(g in arb_graph()) {
        let mut buf = Vec::new();
        tgx::graph::io::write_edge_list(&g, &mut buf).expect("write");
        let g2 = tgx::graph::io::read_edge_list(buf.as_slice(), None).expect("read");
        // node ids are re-interned and timestamps compacted, so compare
        // edge count and per-timestamp histogram shape
        prop_assert_eq!(g2.n_edges(), g.n_edges());
        let nonempty: Vec<usize> = g
            .edge_counts_per_timestamp()
            .into_iter()
            .filter(|&c| c > 0)
            .collect();
        prop_assert_eq!(g2.edge_counts_per_timestamp(), nonempty);
    }
}
