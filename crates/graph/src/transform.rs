//! Temporal graph transformations: sub-graph extraction, time slicing,
//! relabeling, and direction reversal. These are the "data-wrangling"
//! operations a downstream user needs to carve experiment inputs out of a
//! bigger corpus; no shipped path of this workspace calls them.

use crate::temporal::{NodeId, TemporalEdge, TemporalGraph, Time};

/// Induced temporal subgraph on a node subset: keeps edges whose both
/// endpoints are in `nodes`, relabeling node ids densely in the order
/// given. Timestamp axis is preserved.
pub fn induced_subgraph(g: &TemporalGraph, nodes: &[NodeId]) -> TemporalGraph {
    let mut new_id: Vec<Option<NodeId>> = vec![None; g.n_nodes()];
    let mut n: NodeId = 0;
    for &v in nodes {
        assert!((v as usize) < g.n_nodes(), "node {v} out of range");
        let slot = &mut new_id[v as usize];
        if slot.is_none() {
            *slot = Some(n);
            n += 1;
        }
    }
    let edges: Vec<TemporalEdge> = g
        .edges()
        .iter()
        .filter_map(|e| {
            Some(TemporalEdge::new(
                new_id[e.u as usize]?,
                new_id[e.v as usize]?,
                e.t,
            ))
        })
        .collect();
    TemporalGraph::from_edges((n as usize).max(1), g.n_timestamps(), edges)
}

/// Restrict to a timestamp window `[lo, hi)`, re-basing timestamps to
/// start at zero. Node set is preserved.
pub fn time_slice(g: &TemporalGraph, lo: Time, hi: Time) -> TemporalGraph {
    assert!(lo < hi, "empty window");
    let hi = (hi as usize).min(g.n_timestamps()) as Time;
    assert!(lo < hi, "window beyond time axis");
    let edges: Vec<TemporalEdge> = g
        .edges()
        .iter()
        .filter(|e| e.t >= lo && e.t < hi)
        .map(|e| TemporalEdge::new(e.u, e.v, e.t - lo))
        .collect();
    TemporalGraph::from_edges(g.n_nodes(), (hi - lo) as usize, edges)
}

/// Reverse every edge direction (in-degree <-> out-degree views).
pub fn reverse(g: &TemporalGraph) -> TemporalGraph {
    let edges: Vec<TemporalEdge> = g
        .edges()
        .iter()
        .map(|e| TemporalEdge::new(e.v, e.u, e.t))
        .collect();
    TemporalGraph::from_edges(g.n_nodes(), g.n_timestamps(), edges)
}

/// Drop nodes that never occur (degree 0 across all timestamps),
/// relabeling the remainder densely. Returns the compacted graph and the
/// old-id list (new id -> old id).
pub fn compact_nodes(g: &TemporalGraph) -> (TemporalGraph, Vec<NodeId>) {
    let deg = g.static_degrees();
    let keep: Vec<NodeId> = (0..g.n_nodes() as NodeId)
        .filter(|&v| deg[v as usize] > 0)
        .collect();
    let sub = induced_subgraph(g, &keep);
    (sub, keep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> TemporalGraph {
        TemporalGraph::from_edges(
            5,
            4,
            vec![
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(1, 2, 1),
                TemporalEdge::new(2, 3, 2),
                TemporalEdge::new(3, 0, 3),
            ],
        )
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = toy();
        let sub = induced_subgraph(&g, &[0, 1, 2]);
        assert_eq!(sub.n_nodes(), 3);
        assert_eq!(sub.n_edges(), 2); // 0->1 and 1->2 survive
        assert_eq!(sub.n_timestamps(), 4);
        assert_eq!(sub.edges()[0], TemporalEdge::new(0, 1, 0));
        assert_eq!(sub.edges()[1], TemporalEdge::new(1, 2, 1));
    }

    #[test]
    fn induced_subgraph_relabels_in_given_order() {
        let g = toy();
        let sub = induced_subgraph(&g, &[2, 1]);
        // 2 -> 0, 1 -> 1; edge 1->2 becomes 1->0
        assert_eq!(sub.edges()[0], TemporalEdge::new(1, 0, 1));
    }

    #[test]
    fn time_slice_rebases() {
        let g = toy();
        let s = time_slice(&g, 1, 3);
        assert_eq!(s.n_timestamps(), 2);
        assert_eq!(s.n_edges(), 2);
        assert_eq!(s.edges()[0], TemporalEdge::new(1, 2, 0));
        assert_eq!(s.edges()[1], TemporalEdge::new(2, 3, 1));
    }

    #[test]
    fn time_slice_clamps_to_axis() {
        let g = toy();
        let s = time_slice(&g, 2, 100);
        assert_eq!(s.n_timestamps(), 2);
        assert_eq!(s.n_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn time_slice_rejects_empty() {
        time_slice(&toy(), 2, 2);
    }

    #[test]
    fn reverse_swaps_directions() {
        let g = toy();
        let r = reverse(&g);
        assert_eq!(r.out_neighbors_at(1, 0).collect::<Vec<_>>(), vec![0]);
        // in the reversal, node 1 no longer has any in-edges at t=0
        assert_eq!(r.in_neighbors_at(1, 0).count(), 0);
        assert_eq!(r.in_neighbors_at(0, 0).collect::<Vec<_>>(), vec![1]);
        // double reversal is identity
        let rr = reverse(&r);
        assert_eq!(rr.edges(), g.edges());
    }

    #[test]
    fn compact_drops_isolated() {
        let g = TemporalGraph::from_edges(
            6,
            2,
            vec![TemporalEdge::new(0, 3, 0), TemporalEdge::new(3, 5, 1)],
        );
        let (c, keep) = compact_nodes(&g);
        assert_eq!(c.n_nodes(), 3);
        assert_eq!(keep, vec![0, 3, 5]);
        assert_eq!(c.edges()[0], TemporalEdge::new(0, 1, 0));
        assert_eq!(c.edges()[1], TemporalEdge::new(1, 2, 1));
    }

    #[test]
    fn compact_on_fully_active_graph_is_identity_shaped() {
        let g = toy();
        let (c, keep) = compact_nodes(&g);
        assert_eq!(c.n_nodes(), 4); // node 4 was isolated
        assert_eq!(keep.len(), 4);
        assert_eq!(c.n_edges(), g.n_edges());
    }
}
