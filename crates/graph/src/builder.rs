//! Incremental construction of temporal graphs from raw (sparse) ids.
//!
//! Real dumps use arbitrary node ids and epoch timestamps; models need
//! dense `0..n` node ids and `0..T` timestamps. The builder relabels nodes
//! in first-seen order and compacts (or buckets) timestamps.

use crate::temporal::{NodeId, TemporalEdge, TemporalGraph, Time};
use std::num::NonZeroUsize;

/// Accumulates raw edges, then compacts them into a [`TemporalGraph`].
#[derive(Default)]
pub struct TemporalGraphBuilder {
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookups only; node ids are assigned in first-seen insertion order, never by iteration"
    )]
    node_map: std::collections::HashMap<u64, NodeId>,
    raw: Vec<(NodeId, NodeId, u64)>,
}

impl TemporalGraphBuilder {
    /// An empty builder (equivalent to `Default::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an edge with raw (uncompacted) ids and timestamp.
    pub fn add_raw(&mut self, u: u64, v: u64, t: u64) {
        let ui = self.intern(u);
        let vi = self.intern(v);
        self.raw.push((ui, vi, t));
    }

    fn intern(&mut self, raw: u64) -> NodeId {
        let next = self.node_map.len() as NodeId;
        *self.node_map.entry(raw).or_insert(next)
    }

    /// Whether no edges have been added yet.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Number of edges accumulated so far.
    pub fn n_edges(&self) -> usize {
        self.raw.len()
    }

    /// Number of distinct nodes seen so far.
    pub fn n_nodes(&self) -> usize {
        self.node_map.len()
    }

    /// Build, compacting each distinct raw timestamp to its rank.
    pub fn build(self) -> TemporalGraph {
        let mut times: Vec<u64> = self.raw.iter().map(|&(_, _, t)| t).collect();
        times.sort_unstable();
        times.dedup();
        let n = self.node_map.len();
        let t_count = times.len().max(1);
        let edges = self
            .raw
            .into_iter()
            .map(|(u, v, t)| TemporalEdge::new(u, v, times.partition_point(|&x| x < t) as Time))
            .collect();
        TemporalGraph::from_edges(n, t_count, edges)
    }

    /// Build, quantising raw timestamps into `buckets` equal-width bins
    /// over `[min_t, max_t]` — the paper's snapshot aggregation.
    pub fn build_bucketed(self, buckets: NonZeroUsize) -> TemporalGraph {
        let buckets = buckets.get();
        let min_t = self.raw.iter().map(|&(_, _, t)| t).min().unwrap_or(0);
        let max_t = self.raw.iter().map(|&(_, _, t)| t).max().unwrap_or(0);
        let span = (max_t - min_t).max(1) as f64;
        let n = self.node_map.len();
        let edges = self
            .raw
            .into_iter()
            .map(|(u, v, t)| {
                let frac = (t - min_t) as f64 / span;
                let b = ((frac * buckets as f64) as usize).min(buckets - 1);
                TemporalEdge::new(u, v, b as Time)
            })
            .collect();
        TemporalGraph::from_edges(n, buckets, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_first_seen_order() {
        let mut b = TemporalGraphBuilder::new();
        b.add_raw(100, 7, 0);
        b.add_raw(7, 55, 1);
        let g = b.build();
        assert_eq!(g.n_nodes(), 3);
        // 100 -> 0, 7 -> 1, 55 -> 2
        assert_eq!(g.edges()[0], TemporalEdge::new(0, 1, 0));
        assert_eq!(g.edges()[1], TemporalEdge::new(1, 2, 1));
    }

    #[test]
    fn timestamp_compaction_is_rank_order() {
        let mut b = TemporalGraphBuilder::new();
        b.add_raw(0, 1, 1_000_000);
        b.add_raw(1, 0, 5);
        b.add_raw(0, 1, 99);
        let g = b.build();
        assert_eq!(g.n_timestamps(), 3);
        assert_eq!(g.edges_at(0)[0], TemporalEdge::new(1, 0, 0)); // raw 5
        assert_eq!(g.edges_at(2)[0], TemporalEdge::new(0, 1, 2)); // raw 1e6
    }

    #[test]
    fn bucketed_build_respects_bucket_count() {
        let mut b = TemporalGraphBuilder::new();
        for t in 0..100u64 {
            b.add_raw(t % 5, (t + 1) % 5, t);
        }
        let g = b.build_bucketed(NonZeroUsize::new(10).unwrap());
        assert_eq!(g.n_timestamps(), 10);
        assert_eq!(g.n_edges(), 100);
        // roughly uniform
        for t in 0..10 {
            let c = g.edges_at(t).len();
            assert!((8..=12).contains(&c), "bucket {t} has {c}");
        }
    }

    #[test]
    fn bucketed_single_timestamp_graph() {
        let mut b = TemporalGraphBuilder::new();
        b.add_raw(0, 1, 42);
        b.add_raw(1, 2, 42);
        let g = b.build_bucketed(NonZeroUsize::new(4).unwrap());
        assert_eq!(g.n_timestamps(), 4);
        assert_eq!(g.edges_at(0).len(), 2);
    }

    #[test]
    fn counters() {
        let mut b = TemporalGraphBuilder::new();
        assert!(b.is_empty());
        b.add_raw(0, 1, 3);
        assert_eq!(b.n_edges(), 1);
        assert_eq!(b.n_nodes(), 2);
    }
}
