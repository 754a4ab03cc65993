//! Static graph snapshots in CSR form.
//!
//! The paper's evaluation (Eq. 10) compares *accumulated* snapshots: the
//! static graph containing every edge with timestamp `<= t`. [`Snapshot`]
//! is that static graph — a directed out-adjacency CSR — plus the
//! undirected simple-graph view the Table III statistics are computed on.

use crate::temporal::{NodeId, TemporalGraph, Time};
use serde::{Deserialize, Serialize};

/// A static directed graph in CSR form.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Snapshot {
    n: usize,
    /// CSR out-adjacency.
    out_offsets: Vec<usize>,
    out_targets: Vec<NodeId>,
    /// Number of (directed) edges stored.
    m: usize,
}

impl Snapshot {
    /// Build from `(u, v)` pairs. When `dedup` is set, parallel edges are
    /// collapsed (self-loops are kept as provided either way).
    pub fn from_pairs(n: usize, pairs: &[(NodeId, NodeId)], dedup: bool) -> Self {
        let mut edges: Vec<(NodeId, NodeId)> = pairs.to_vec();
        edges.sort_unstable();
        if dedup {
            edges.dedup();
        }
        let m = edges.len();
        let mut out_offsets = vec![0usize; n + 1];
        for &(u, _) in &edges {
            out_offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let out_targets: Vec<NodeId> = edges.iter().map(|&(_, v)| v).collect();
        Snapshot {
            n,
            out_offsets,
            out_targets,
            m,
        }
    }

    /// The snapshot of a temporal graph accumulated through timestamp `t`
    /// (edges with timestamp `<= t`), deduplicated to a simple digraph —
    /// this is the object the paper's metrics are evaluated on.
    pub fn accumulated(g: &TemporalGraph, t: Time, dedup: bool) -> Self {
        let pairs: Vec<(NodeId, NodeId)> = g.edges_until(t).iter().map(|e| (e.u, e.v)).collect();
        Snapshot::from_pairs(g.n_nodes(), &pairs, dedup)
    }

    /// The snapshot at exactly timestamp `t`.
    pub fn at_time(g: &TemporalGraph, t: Time, dedup: bool) -> Self {
        let pairs: Vec<(NodeId, NodeId)> = g.edges_at(t).iter().map(|e| (e.u, e.v)).collect();
        Snapshot::from_pairs(g.n_nodes(), &pairs, dedup)
    }

    /// Number of nodes (fixed across all snapshots of a temporal graph).
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Directed edge count (after any dedup at construction).
    pub fn n_edges(&self) -> usize {
        self.m
    }

    /// Out-neighbors of `u`.
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.out_targets[self.out_offsets[u as usize]..self.out_offsets[u as usize + 1]]
    }

    /// Undirected simple adjacency: for each node, the sorted deduplicated
    /// union of in- and out-neighbors with self-loops removed. This is the
    /// view Table III statistics (wedge/claw/triangle counts, LCC, PLE) are
    /// computed on.
    pub fn undirected_adjacency(&self) -> Vec<Vec<NodeId>> {
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); self.n];
        for u in 0..self.n as NodeId {
            for &v in self.out_neighbors(u) {
                if v != u {
                    adj[u as usize].push(v);
                    adj[v as usize].push(u);
                }
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::TemporalEdge;

    fn toy_temporal() -> TemporalGraph {
        TemporalGraph::from_edges(
            4,
            2,
            vec![
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(1, 2, 0),
                TemporalEdge::new(0, 1, 1), // duplicate of t=0 edge (different time)
                TemporalEdge::new(2, 3, 1),
            ],
        )
    }

    #[test]
    fn from_pairs_csr_roundtrip() {
        let s = Snapshot::from_pairs(3, &[(0, 1), (0, 2), (2, 1)], false);
        assert_eq!(s.n_edges(), 3);
        assert_eq!(s.out_neighbors(0), &[1, 2]);
        assert_eq!(s.out_neighbors(1), &[] as &[NodeId]);
        assert_eq!(s.out_neighbors(2), &[1]);
    }

    #[test]
    fn dedup_collapses_parallel_edges() {
        let s = Snapshot::from_pairs(2, &[(0, 1), (0, 1), (0, 1)], true);
        assert_eq!(s.n_edges(), 1);
        let s2 = Snapshot::from_pairs(2, &[(0, 1), (0, 1)], false);
        assert_eq!(s2.n_edges(), 2);
    }

    #[test]
    fn accumulated_includes_prior_timestamps() {
        let g = toy_temporal();
        let s0 = Snapshot::accumulated(&g, 0, true);
        assert_eq!(s0.n_edges(), 2);
        let s1 = Snapshot::accumulated(&g, 1, true);
        // (0,1) at t=0 and t=1 dedups to one edge
        assert_eq!(s1.n_edges(), 3);
        let s1_multi = Snapshot::accumulated(&g, 1, false);
        assert_eq!(s1_multi.n_edges(), 4);
    }

    #[test]
    fn at_time_is_exact() {
        let g = toy_temporal();
        let s = Snapshot::at_time(&g, 1, true);
        assert_eq!(s.n_edges(), 2);
        assert_eq!(s.out_neighbors(2), &[3]);
    }

    #[test]
    fn undirected_adjacency_symmetric_simple() {
        let s = Snapshot::from_pairs(3, &[(0, 1), (1, 0), (1, 1), (2, 1)], false);
        let adj = s.undirected_adjacency();
        assert_eq!(adj[0], vec![1]); // (0,1)+(1,0) collapse; self-loop (1,1) dropped
        assert_eq!(adj[1], vec![0, 2]);
        assert_eq!(adj[2], vec![1]);
        // symmetry
        for u in 0..3u32 {
            for &v in &adj[u as usize] {
                assert!(adj[v as usize].contains(&u));
            }
        }
    }
}
