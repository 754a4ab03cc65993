//! The central temporal-graph container.
//!
//! Following the paper (§III, Def. 2), a temporal graph is a series of graph
//! snapshots `{G_1, ..., G_T}`: every edge carries a timestamp `t` in
//! `0..T`. We store one flat edge array sorted by `(t, u, v)` plus a twin
//! sort by `(t, v, u)`, giving O(log m) neighbor queries per timestamp
//! without materialising per-timestamp CSR offset tables (which would cost
//! O(nT) memory — prohibitive at UBUNTU scale, ~14M temporal nodes).

use serde::{Deserialize, Serialize};

/// Node identifier (dense, `0..n`).
pub type NodeId = u32;
/// Timestamp (dense, `0..T`).
pub type Time = u32;

/// A directed timestamped edge `u -> v` at time `t`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TemporalEdge {
    /// Timestamp (field order puts `t` first so derived `Ord` sorts by
    /// time, then source, then target — the engine's emission order).
    pub t: Time,
    /// Source node.
    pub u: NodeId,
    /// Target node.
    pub v: NodeId,
}

impl TemporalEdge {
    /// Edge `u -> v` at time `t`.
    pub fn new(u: NodeId, v: NodeId, t: Time) -> Self {
        TemporalEdge { t, u, v }
    }
}

/// The edge-list row `u v t` (no newline): the one spelling every text
/// writer and the serve protocol's `Edges` payload share.
impl std::fmt::Display for TemporalEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {}", self.u, self.v, self.t)
    }
}

/// An immutable temporal graph: `n` nodes, `T` timestamps, edges sorted by
/// `(t, u, v)`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TemporalGraph {
    n: usize,
    t: usize,
    /// Sorted by (t, u, v): out-edge order.
    edges: Vec<TemporalEdge>,
    /// Permutation of `edges` sorted by (t, v, u): in-edge order. Stores
    /// indices into `edges`.
    in_order: Vec<u32>,
    /// `time_offsets[t]..time_offsets[t+1]` is the slice of `edges` at `t`.
    time_offsets: Vec<usize>,
}

impl TemporalGraph {
    /// Build from an arbitrary edge list. Panics if any endpoint `>= n` or
    /// timestamp `>= t`. Duplicate edges are kept (temporal multigraph).
    pub fn from_edges(n: usize, t: usize, mut edges: Vec<TemporalEdge>) -> Self {
        assert!(t > 0, "temporal graph needs at least one timestamp");
        for e in &edges {
            assert!(
                (e.u as usize) < n && (e.v as usize) < n,
                "edge endpoint out of range: {e:?}"
            );
            assert!((e.t as usize) < t, "edge timestamp out of range: {e:?}");
        }
        edges.sort_unstable();
        let mut in_order: Vec<u32> = (0..edges.len() as u32).collect();
        in_order.sort_unstable_by_key(|&i| {
            let e = edges[i as usize];
            (e.t, e.v, e.u)
        });
        let mut time_offsets = vec![0usize; t + 1];
        for e in &edges {
            time_offsets[e.t as usize + 1] += 1;
        }
        for i in 0..t {
            time_offsets[i + 1] += time_offsets[i];
        }
        TemporalGraph {
            n,
            t,
            edges,
            in_order,
            time_offsets,
        }
    }

    /// Assemble from already-validated sorted parts — the streaming
    /// construction path of [`crate::source::GraphAssembler`], which
    /// builds `edges` / `in_order` / `time_offsets` incrementally from
    /// per-timestamp chunks and therefore never re-sorts or copies the
    /// edge array. Callers must uphold the [`TemporalGraph`] invariants:
    /// `edges` sorted by `(t, u, v)` with endpoints `< n` and timestamps
    /// `< t`, `in_order` the `(t, v, u)` permutation, and `time_offsets`
    /// the per-timestamp prefix sums.
    pub(crate) fn from_sorted_parts(
        n: usize,
        t: usize,
        edges: Vec<TemporalEdge>,
        in_order: Vec<u32>,
        time_offsets: Vec<usize>,
    ) -> Self {
        debug_assert_eq!(time_offsets.len(), t + 1);
        debug_assert_eq!(in_order.len(), edges.len());
        debug_assert!(edges.windows(2).all(|w| w[0] <= w[1]));
        TemporalGraph {
            n,
            t,
            edges,
            in_order,
            time_offsets,
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Number of timestamps `T`.
    pub fn n_timestamps(&self) -> usize {
        self.t
    }

    /// Total number of temporal edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// All edges, sorted by `(t, u, v)`.
    pub fn edges(&self) -> &[TemporalEdge] {
        &self.edges
    }

    /// Edges at exactly timestamp `t`.
    pub fn edges_at(&self, t: Time) -> &[TemporalEdge] {
        let t = t as usize;
        assert!(t < self.t, "timestamp {t} out of range");
        &self.edges[self.time_offsets[t]..self.time_offsets[t + 1]]
    }

    /// Edges with timestamp in `0..=t` (the accumulated snapshot contents).
    pub fn edges_until(&self, t: Time) -> &[TemporalEdge] {
        let t = (t as usize).min(self.t - 1);
        &self.edges[..self.time_offsets[t + 1]]
    }

    /// Number of edges at each timestamp (the generation budget per `t`).
    pub fn edge_counts_per_timestamp(&self) -> Vec<usize> {
        (0..self.t)
            .map(|t| self.time_offsets[t + 1] - self.time_offsets[t])
            .collect()
    }

    /// Out-neighbors of `u` at exactly timestamp `t` (with multiplicity).
    pub fn out_neighbors_at(&self, u: NodeId, t: Time) -> impl Iterator<Item = NodeId> + '_ {
        let slice = self.edges_at(t);
        let lo = slice.partition_point(|e| e.u < u);
        let hi = slice.partition_point(|e| e.u <= u);
        slice[lo..hi].iter().map(|e| e.v)
    }

    /// In-neighbors of `v` at exactly timestamp `t` (with multiplicity).
    pub fn in_neighbors_at(&self, v: NodeId, t: Time) -> impl Iterator<Item = NodeId> + '_ {
        let t_us = t as usize;
        assert!(t_us < self.t);
        let order = &self.in_order[self.time_offsets[t_us]..self.time_offsets[t_us + 1]];
        let lo = order.partition_point(|&i| self.edges[i as usize].v < v);
        let hi = order.partition_point(|&i| self.edges[i as usize].v <= v);
        order[lo..hi].iter().map(move |&i| self.edges[i as usize].u)
    }

    /// Undirected temporal neighbors of `(u, t)` within the time window
    /// `|t - t'| <= t_n` (Def. 3 with `d_N = 1`): deduplicated node list.
    pub fn temporal_neighbors(&self, u: NodeId, t: Time, t_n: Time) -> Vec<NodeId> {
        let lo = t.saturating_sub(t_n);
        let hi = (t as usize + t_n as usize).min(self.t - 1) as Time;
        let mut out: Vec<NodeId> = Vec::new();
        for tt in lo..=hi {
            out.extend(self.out_neighbors_at(u, tt));
            out.extend(self.in_neighbors_at(u, tt));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Temporal degree of `(u, t)`: number of incident temporal edges at
    /// exactly `t` (in + out, with multiplicity). This drives the
    /// degree-weighted initial-node sampling of Eq. 2.
    pub fn temporal_degree(&self, u: NodeId, t: Time) -> usize {
        self.out_neighbors_at(u, t).count() + self.in_neighbors_at(u, t).count()
    }

    /// All occurring temporal nodes `(u, t)` — pairs with at least one
    /// incident edge — with their temporal degrees. This is the sampling
    /// population `~V` of the paper, sorted by `(u, t)`.
    pub fn temporal_nodes(&self) -> Vec<(NodeId, Time, usize)> {
        let mut ends: Vec<(NodeId, Time)> = self
            .edges
            .iter()
            .flat_map(|e| [(e.u, e.t), (e.v, e.t)])
            .collect();
        ends.sort_unstable();
        let mut out: Vec<(NodeId, Time, usize)> = Vec::new();
        for (u, t) in ends {
            match out.last_mut() {
                Some(last) if (last.0, last.1) == (u, t) => last.2 += 1,
                _ => out.push((u, t, 1)),
            }
        }
        out
    }

    /// Static (time-collapsed) degree of each node, counting both
    /// directions, with multiplicity.
    pub fn static_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n];
        for e in &self.edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        deg
    }

    /// Rebuild with edges strictly deduplicated per `(t, u, v)`.
    pub fn dedup(&self) -> TemporalGraph {
        let mut edges = self.edges.clone();
        edges.dedup();
        TemporalGraph::from_edges(self.n, self.t, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> TemporalGraph {
        // t=0: 0->1, 1->2 ; t=1: 2->0, 0->1 ; t=2: (empty)
        TemporalGraph::from_edges(
            3,
            3,
            vec![
                TemporalEdge::new(1, 2, 0),
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(2, 0, 1),
                TemporalEdge::new(0, 1, 1),
            ],
        )
    }

    #[test]
    fn basic_counts() {
        let g = toy();
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_timestamps(), 3);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.edge_counts_per_timestamp(), vec![2, 2, 0]);
    }

    #[test]
    fn edges_sorted_and_sliced() {
        let g = toy();
        assert_eq!(g.edges_at(0).len(), 2);
        assert_eq!(g.edges_at(0)[0], TemporalEdge::new(0, 1, 0));
        assert_eq!(g.edges_at(2).len(), 0);
        assert_eq!(g.edges_until(1).len(), 4);
        assert_eq!(g.edges_until(0).len(), 2);
    }

    #[test]
    fn neighbor_queries() {
        let g = toy();
        assert_eq!(g.out_neighbors_at(0, 0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(g.out_neighbors_at(0, 1).collect::<Vec<_>>(), vec![1]);
        assert_eq!(g.in_neighbors_at(0, 1).collect::<Vec<_>>(), vec![2]);
        assert_eq!(g.in_neighbors_at(1, 0).collect::<Vec<_>>(), vec![0]);
        assert_eq!(g.out_neighbors_at(1, 1).count(), 0);
    }

    #[test]
    fn temporal_neighbors_window() {
        let g = toy();
        // (0, t=0) window 0: out {1}; window 1 adds t=1 edges: out {1}, in {2}
        assert_eq!(g.temporal_neighbors(0, 0, 0), vec![1]);
        assert_eq!(g.temporal_neighbors(0, 0, 1), vec![1, 2]);
    }

    #[test]
    fn temporal_degrees_match_incidence() {
        let g = toy();
        assert_eq!(g.temporal_degree(0, 0), 1);
        assert_eq!(g.temporal_degree(1, 0), 2); // in from 0, out to 2
        assert_eq!(g.temporal_degree(0, 1), 2); // out to 1, in from 2
        assert_eq!(g.temporal_degree(2, 2), 0);
    }

    #[test]
    fn temporal_nodes_population() {
        let g = toy();
        let tn = g.temporal_nodes();
        // occurrences: (0,0),(1,0),(2,0) at t0; (0,1),(1,1),(2,1) at t1
        assert_eq!(tn.len(), 6);
        let total_deg: usize = tn.iter().map(|&(_, _, d)| d).sum();
        assert_eq!(total_deg, 2 * g.n_edges());
        assert!(tn.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        for &(u, t, d) in &tn {
            assert_eq!(d, g.temporal_degree(u, t));
        }
    }

    #[test]
    fn static_degrees_sum_to_twice_edges() {
        let g = toy();
        let deg = g.static_degrees();
        assert_eq!(deg.iter().sum::<usize>(), 2 * g.n_edges());
        assert_eq!(deg[0], 3);
    }

    #[test]
    fn multigraph_kept_then_dedup() {
        let g = TemporalGraph::from_edges(
            2,
            1,
            vec![TemporalEdge::new(0, 1, 0), TemporalEdge::new(0, 1, 0)],
        );
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.dedup().n_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_endpoint() {
        TemporalGraph::from_edges(2, 1, vec![TemporalEdge::new(0, 5, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_timestamp() {
        TemporalGraph::from_edges(2, 1, vec![TemporalEdge::new(0, 1, 3)]);
    }
}
