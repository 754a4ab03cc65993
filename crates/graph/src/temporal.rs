//! The central temporal-graph container.
//!
//! Following the paper (§III, Def. 2), a temporal graph is a series of graph
//! snapshots `{G_1, ..., G_T}`: every edge carries a timestamp `t` in
//! `0..T`. We store one flat edge array sorted by `(t, u, v)`, sliced per
//! timestamp by `T + 1` offsets, plus one temporal adjacency: for each node,
//! the edges incident to it as `(t', neighbour)` entries in time order (the
//! per-node history of STDNE's `node2hist`), in CSR form. A node's
//! neighbourhood over a time window is then one `partition_point` pair on
//! its own slice. The adjacency costs 16 B per edge (one 8 B entry per
//! endpoint) plus 4 B per node, held once per graph (clones share it); it
//! replaces a 4 B-per-edge `(t, v, u)` permutation of the edge array. Per
//! node *and* timestamp offset tables would cost O(nT) memory, prohibitive
//! at UBUNTU scale (~14M temporal nodes), so none are kept.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

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

/// One endpoint's view of an edge in the temporal adjacency: the other
/// endpoint and the timestamp, with the edge's direction in the low bit.
#[derive(Clone, Copy, Debug, Default)]
struct AdjEntry {
    /// `t << 1`, plus 1 when the edge is an in-edge (`nbr -> node`).
    t_dir: u32,
    nbr: NodeId,
}

impl AdjEntry {
    fn t(self) -> Time {
        self.t_dir >> 1
    }

    fn is_in(self) -> bool {
        self.t_dir & 1 == 1
    }
}

/// Per-node temporal adjacency in CSR form: the entries from `offsets[v]`
/// to `offsets[v + 1]` are the edges incident to `v`, sorted by time, one
/// entry per endpoint (so a self-loop appears twice, once in each
/// direction).
#[derive(Debug)]
struct Adjacency {
    offsets: Vec<u32>,
    entries: Vec<AdjEntry>,
}

impl Adjacency {
    /// One counting pass over `edges`, which must be sorted by `(t, u, v)`
    /// with endpoints `< n`. Filling each node's slice in edge order leaves
    /// it time-sorted without a sort, and within a timestamp leaves its
    /// in-entries in ascending source order.
    fn build(n: usize, edges: &[TemporalEdge]) -> Self {
        assert!(
            edges.len() <= (u32::MAX / 2) as usize,
            "{} edges exceed the u32 adjacency offsets",
            edges.len()
        );
        let mut offsets = vec![0u32; n + 1];
        for e in edges {
            offsets[e.u as usize + 1] += 1;
            offsets[e.v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets[..n].to_vec();
        let mut entries = vec![AdjEntry::default(); 2 * edges.len()];
        for e in edges {
            let t_dir = e.t << 1;
            let out_entry = AdjEntry { t_dir, nbr: e.v };
            let in_entry = AdjEntry {
                t_dir: t_dir | 1,
                nbr: e.u,
            };
            for (node, entry) in [(e.u, out_entry), (e.v, in_entry)] {
                let at = &mut fill[node as usize];
                entries[*at as usize] = entry;
                *at += 1;
            }
        }
        Adjacency { offsets, entries }
    }

    /// The entries of `v` with timestamp in `lo..=hi`, in time order; empty
    /// when `v` is not a node or the window is empty.
    fn window(&self, v: NodeId, lo: Time, hi: Time) -> &[AdjEntry] {
        let v = v as usize;
        let (Some(&start), Some(&end)) = (self.offsets.get(v), self.offsets.get(v + 1)) else {
            return &[];
        };
        let slice = &self.entries[start as usize..end as usize];
        let slice = &slice[slice.partition_point(|e| e.t() < lo)..];
        &slice[..slice.partition_point(|e| e.t() <= hi)]
    }
}

/// An immutable temporal graph: `n` nodes, `T` timestamps, edges sorted by
/// `(t, u, v)`, and the per-node temporal adjacency over them.
#[derive(Clone, Debug)]
pub struct TemporalGraph {
    n: usize,
    t: usize,
    /// Sorted by (t, u, v): out-edge order.
    edges: Vec<TemporalEdge>,
    /// `time_offsets[t]..time_offsets[t+1]` is the slice of `edges` at `t`.
    time_offsets: Vec<usize>,
    /// Shared, not copied, by `clone`: a session clones its observed graph.
    adj: Arc<Adjacency>,
}

impl TemporalGraph {
    /// Build from an arbitrary edge list. Panics if any endpoint `>= n` or
    /// timestamp `>= t`, or if `t > 2^31`. Duplicate edges are kept
    /// (temporal multigraph).
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
        let mut time_offsets = vec![0usize; t + 1];
        for e in &edges {
            time_offsets[e.t as usize + 1] += 1;
        }
        for i in 0..t {
            time_offsets[i + 1] += time_offsets[i];
        }
        Self::from_sorted_parts(n, t, edges, time_offsets)
    }

    /// Assemble from already-validated sorted parts — the tail of
    /// [`TemporalGraph::from_edges`] and the streaming construction path of
    /// [`crate::source::GraphAssembler`], which builds `edges` /
    /// `time_offsets` incrementally from per-timestamp chunks and therefore
    /// never re-sorts or copies the edge array. Callers must uphold the
    /// [`TemporalGraph`] invariants: `edges` sorted by `(t, u, v)` with
    /// endpoints `< n` and timestamps `< t`, and `time_offsets` the
    /// per-timestamp prefix sums.
    pub(crate) fn from_sorted_parts(
        n: usize,
        t: usize,
        edges: Vec<TemporalEdge>,
        time_offsets: Vec<usize>,
    ) -> Self {
        // the adjacency keeps a timestamp in 31 bits
        assert!(t <= 1 << 31, "{t} timestamps exceed the adjacency's range");
        debug_assert_eq!(time_offsets.len(), t + 1);
        debug_assert!(edges.windows(2).all(|w| w[0] <= w[1]));
        let adj = Arc::new(Adjacency::build(n, &edges));
        TemporalGraph {
            n,
            t,
            edges,
            time_offsets,
            adj,
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

    /// In-neighbors of `v` at exactly timestamp `t` (with multiplicity, in
    /// ascending order).
    pub fn in_neighbors_at(&self, v: NodeId, t: Time) -> impl Iterator<Item = NodeId> + '_ {
        assert!((t as usize) < self.t, "timestamp {t} out of range");
        self.adj
            .window(v, t, t)
            .iter()
            .filter(|e| e.is_in())
            .map(|e| e.nbr)
    }

    /// Every edge incident to `v` with a timestamp `t'` in the window
    /// `|t - t'| <= t_n`, as `(neighbour, t')` in time order: both
    /// directions, with multiplicity (a self-loop appears twice).
    pub fn incident_within(
        &self,
        v: NodeId,
        t: Time,
        t_n: Time,
    ) -> impl ExactSizeIterator<Item = (NodeId, Time)> + '_ {
        self.adj
            .window(v, t.saturating_sub(t_n), t.saturating_add(t_n))
            .iter()
            .map(|e| (e.nbr, e.t()))
    }

    /// Undirected temporal neighbors of `(u, t)` within the time window
    /// `|t - t'| <= t_n` (Def. 3 with `d_N = 1`): deduplicated node list.
    pub fn temporal_neighbors(&self, u: NodeId, t: Time, t_n: Time) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.incident_within(u, t, t_n).map(|(w, _)| w).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Temporal degree of `(u, t)`: number of incident temporal edges at
    /// exactly `t` (in + out, with multiplicity). This drives the
    /// degree-weighted initial-node sampling of Eq. 2.
    pub fn temporal_degree(&self, u: NodeId, t: Time) -> usize {
        assert!((t as usize) < self.t, "timestamp {t} out of range");
        self.adj.window(u, t, t).len()
    }

    /// All occurring temporal nodes `(u, t)` — pairs with at least one
    /// incident edge — with their temporal degrees (a self-loop counts
    /// twice). This is the sampling population `~V` of the paper, in
    /// `(u, t)` order: one walk over each node's time-sorted adjacency,
    /// where each run of equal `t` is one temporal node.
    pub fn temporal_nodes(&self) -> impl Iterator<Item = (NodeId, Time, usize)> + '_ {
        (0..self.n as NodeId).flat_map(move |u| {
            self.adj
                .window(u, 0, Time::MAX)
                .chunk_by(|a, b| a.t() == b.t())
                .map(move |run| (u, run[0].t(), run.len()))
        })
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
    fn incident_within_reads_one_time_ordered_slice() {
        let g = toy();
        // node 0: t=0 out to 1; t=1 out to 1, in from 2 (edge order)
        assert_eq!(
            g.incident_within(0, 0, 1).collect::<Vec<_>>(),
            vec![(1, 0), (1, 1), (2, 1)]
        );
        assert_eq!(g.incident_within(0, 2, 0).len(), 0);
        assert_eq!(g.incident_within(0, u32::MAX, u32::MAX).len(), 3);
        assert_eq!(g.incident_within(7, 0, 1).len(), 0, "not a node");
        let lp = TemporalGraph::from_edges(2, 1, vec![TemporalEdge::new(1, 1, 0)]);
        assert_eq!(
            lp.incident_within(1, 0, 0).collect::<Vec<_>>(),
            vec![(1, 0), (1, 0)]
        );
        assert_eq!(lp.in_neighbors_at(1, 0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(lp.temporal_degree(1, 0), 2);
        // clones share the adjacency
        assert!(Arc::ptr_eq(&g.adj, &g.clone().adj));
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
        let tn: Vec<_> = g.temporal_nodes().collect();
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
        assert_eq!(g.temporal_degree(0, 0), 2);
        let snap = crate::snapshot::Snapshot::at_time(&g, 0, true);
        assert_eq!(snap.n_edges(), 1);
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
