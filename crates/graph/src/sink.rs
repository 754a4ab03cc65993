//! Edge sinks: where generated edges go.
//!
//! The simulation engine (`tgae::engine`) produces edges in a
//! deterministic stream of `(timestamp, chunk)` work units. Rather than
//! hard-coding "concatenate everything into one `Vec<TemporalEdge>` and
//! build a [`TemporalGraph`]", the engine emits each finished unit into an
//! [`EdgeSink`]. Three implementations cover the serving spectrum:
//!
//! - [`GraphSink`] — accumulate edges and build an in-memory
//!   [`TemporalGraph`] (the classic `generate()` behavior);
//! - [`crate::io::StreamingWriterSink`] — write edge-list text straight to
//!   any `io::Write`, so peak memory is bounded by the in-flight unit
//!   window rather than the total edge count;
//! - [`StatsSink`] — fold each unit into online per-timestamp
//!   degree/volume accumulators and store **no edges at all**, for
//!   monitoring pipelines that only need the summary statistics consumed
//!   by `tg-metrics`.
//!
//! # Contract
//!
//! The engine calls [`EdgeSink::accept`] once per work unit, **in plan
//! order** (timestamps ascending, chunks ascending within a timestamp),
//! regardless of how many worker threads executed the units. A sink may
//! therefore rely on the emission order being deterministic for a fixed
//! master seed; this is what makes `StreamingWriterSink` shard files
//! byte-concatenatable (see `tg-graph::io::merge_edge_lists`).

use crate::temporal::{NodeId, TemporalEdge, TemporalGraph, Time};
use serde::{Deserialize, Serialize};

/// Consumer of the deterministic generated-edge stream.
///
/// Implementations receive whole work units (already-sampled edge slices)
/// in plan order and produce an implementation-specific [`EdgeSink::Output`]
/// when the stream ends.
pub trait EdgeSink {
    /// What [`EdgeSink::finish`] yields (a graph, a write result, stats, …).
    type Output;

    /// Consume one finished work unit. `t` and `chunk` identify the unit;
    /// `edges` all carry timestamp `t`. Units arrive in plan order.
    fn accept(&mut self, t: Time, chunk: u32, edges: &[TemporalEdge]);

    /// Signal end of stream and convert the sink into its output.
    fn finish(self) -> Self::Output;
}

/// Accumulates every emitted edge and builds an in-memory
/// [`TemporalGraph`] — the original monolithic `generate()` behavior.
pub struct GraphSink {
    n_nodes: usize,
    n_timestamps: usize,
    edges: Vec<TemporalEdge>,
}

impl GraphSink {
    /// Sink for a graph with the given shape (usually the observed
    /// graph's `n_nodes()` / `n_timestamps()`).
    pub fn new(n_nodes: usize, n_timestamps: usize) -> Self {
        GraphSink {
            n_nodes,
            n_timestamps,
            edges: Vec::new(),
        }
    }

    /// Edges accepted so far.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }
}

impl EdgeSink for GraphSink {
    type Output = TemporalGraph;

    fn accept(&mut self, _t: Time, _chunk: u32, edges: &[TemporalEdge]) {
        self.edges.extend_from_slice(edges);
    }

    fn finish(self) -> TemporalGraph {
        TemporalGraph::from_edges(self.n_nodes, self.n_timestamps, self.edges)
    }
}

/// Per-timestamp accumulators of [`StatsSink`]: edge volume plus directed
/// degree tallies (with multiplicity), keyed by node. Only nodes that
/// actually appear are stored, so memory is `O(active temporal nodes)`
/// rather than `O(nT)` — and no edge is ever retained.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TimestampStats {
    /// Temporal edges at this timestamp (volume).
    pub n_edges: u64,
    /// Out-degree (with multiplicity) per source node seen at this `t`.
    #[expect(
        clippy::disallowed_types,
        reason = "merged by exact integer entry-sums and consumed via keyed lookups / order-free `.values()` folds"
    )]
    pub out_degrees: std::collections::HashMap<NodeId, u64>,
    /// In-degree (with multiplicity) per target node seen at this `t`.
    #[expect(
        clippy::disallowed_types,
        reason = "same as `out_degrees`: integer merges and order-free folds only"
    )]
    pub in_degrees: std::collections::HashMap<NodeId, u64>,
}

impl TimestampStats {
    /// Fold another accumulator over the same timestamp into this one
    /// (degree tallies add; volume adds).
    pub fn merge(&mut self, other: &TimestampStats) {
        self.n_edges += other.n_edges;
        for (&node, &d) in &other.out_degrees {
            *self.out_degrees.entry(node).or_insert(0) += d;
        }
        for (&node, &d) in &other.in_degrees {
            *self.in_degrees.entry(node).or_insert(0) += d;
        }
    }

    /// Distinct sources active at this timestamp.
    pub fn n_sources(&self) -> usize {
        self.out_degrees.len()
    }

    /// Mean out-degree over active sources (0 for an empty snapshot).
    pub fn mean_out_degree(&self) -> f64 {
        if self.out_degrees.is_empty() {
            0.0
        } else {
            self.n_edges as f64 / self.out_degrees.len() as f64
        }
    }
}

/// Summary produced by [`StatsSink::finish`]: one [`TimestampStats`] per
/// timestamp plus whole-run totals. `Default` is the empty (zero
/// timestamps) summary — the identity of [`GenerationStats::merge`], so
/// shard statistics fold into `GenerationStats::default()`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct GenerationStats {
    /// One accumulator per timestamp `0..T`.
    pub per_timestamp: Vec<TimestampStats>,
}

impl GenerationStats {
    /// Fold another run's (or shard's) statistics into this one,
    /// timestamp by timestamp. If `other` covers more timestamps, the
    /// horizon grows to match — so shard stats merge cleanly regardless
    /// of which shard finished first.
    ///
    /// Because every [`TimestampStats`] field is a sum, merging the
    /// per-shard outputs of a sharded generation run (in any order)
    /// yields exactly the statistics of the equivalent whole-horizon
    /// run (asserted in `engine_determinism.rs` and by
    /// `examples/simulate.rs`).
    pub fn merge(&mut self, other: &GenerationStats) {
        if other.per_timestamp.len() > self.per_timestamp.len() {
            self.per_timestamp
                .resize_with(other.per_timestamp.len(), TimestampStats::default);
        }
        for (mine, theirs) in self.per_timestamp.iter_mut().zip(&other.per_timestamp) {
            mine.merge(theirs);
        }
    }

    /// Total generated edges across all timestamps.
    pub fn n_edges(&self) -> u64 {
        self.per_timestamp.iter().map(|s| s.n_edges).sum()
    }

    /// Edge count per timestamp — comparable to
    /// [`TemporalGraph::edge_counts_per_timestamp`].
    pub fn edge_counts(&self) -> Vec<usize> {
        self.per_timestamp
            .iter()
            .map(|s| s.n_edges as usize)
            .collect()
    }

    /// Directed degree tallies recomputed from an in-memory graph, for
    /// cross-checking a streaming run against a [`GraphSink`] one. Returns
    /// the same structure a `StatsSink` over the identical edge stream
    /// would produce.
    pub fn from_graph(g: &TemporalGraph) -> GenerationStats {
        let mut sink = StatsSink::new(g.n_timestamps());
        sink.accept_all(g.edges());
        sink.finish()
    }
}

/// Online per-timestamp degree/volume accumulation with **no edge
/// storage**: each accepted unit is folded into [`TimestampStats`]
/// counters and dropped. Peak memory is independent of the number of
/// generated edges.
pub struct StatsSink {
    per_timestamp: Vec<TimestampStats>,
}

impl StatsSink {
    /// Sink covering timestamps `0..n_timestamps`.
    pub fn new(n_timestamps: usize) -> Self {
        StatsSink {
            per_timestamp: vec![TimestampStats::default(); n_timestamps],
        }
    }

    /// Fold a plain edge slice (possibly spanning timestamps) into the
    /// accumulators; used by [`GenerationStats::from_graph`].
    pub fn accept_all(&mut self, edges: &[TemporalEdge]) {
        for e in edges {
            let s = &mut self.per_timestamp[e.t as usize];
            s.n_edges += 1;
            *s.out_degrees.entry(e.u).or_insert(0) += 1;
            *s.in_degrees.entry(e.v).or_insert(0) += 1;
        }
    }
}

impl EdgeSink for StatsSink {
    type Output = GenerationStats;

    fn accept(&mut self, _t: Time, _chunk: u32, edges: &[TemporalEdge]) {
        self.accept_all(edges);
    }

    fn finish(self) -> GenerationStats {
        GenerationStats {
            per_timestamp: self.per_timestamp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit(sink: &mut impl EdgeSink, edges: &[TemporalEdge]) {
        // group by (t) preserving order, one accept per timestamp
        for (i, e) in edges.iter().enumerate() {
            sink.accept(e.t, i as u32, std::slice::from_ref(e));
        }
    }

    #[test]
    fn graph_sink_reproduces_from_edges() {
        let edges = vec![
            TemporalEdge::new(0, 1, 0),
            TemporalEdge::new(1, 2, 0),
            TemporalEdge::new(2, 0, 1),
        ];
        let mut sink = GraphSink::new(3, 2);
        emit(&mut sink, &edges);
        assert_eq!(sink.n_edges(), 3);
        let g = sink.finish();
        assert_eq!(g.edges(), TemporalGraph::from_edges(3, 2, edges).edges());
    }

    #[test]
    fn stats_sink_counts_degrees_and_volume() {
        let edges = vec![
            TemporalEdge::new(0, 1, 0),
            TemporalEdge::new(0, 1, 0), // multiplicity kept
            TemporalEdge::new(1, 0, 1),
        ];
        let mut sink = StatsSink::new(2);
        emit(&mut sink, &edges);
        let stats = sink.finish();
        assert_eq!(stats.n_edges(), 3);
        assert_eq!(stats.edge_counts(), vec![2, 1]);
        assert_eq!(stats.per_timestamp[0].out_degrees[&0], 2);
        assert_eq!(stats.per_timestamp[0].in_degrees[&1], 2);
        assert_eq!(stats.per_timestamp[0].n_sources(), 1);
        assert!((stats.per_timestamp[0].mean_out_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stats_from_graph_matches_streaming() {
        let edges = vec![
            TemporalEdge::new(0, 1, 0),
            TemporalEdge::new(2, 1, 0),
            TemporalEdge::new(1, 2, 1),
            TemporalEdge::new(1, 2, 1),
        ];
        let g = TemporalGraph::from_edges(3, 2, edges.clone());
        let mut sink = StatsSink::new(2);
        emit(&mut sink, &edges);
        assert_eq!(sink.finish(), GenerationStats::from_graph(&g));
    }

    #[test]
    fn merge_equals_stats_over_union() {
        let edges_a = vec![
            TemporalEdge::new(0, 1, 0),
            TemporalEdge::new(0, 1, 0),
            TemporalEdge::new(1, 2, 1),
        ];
        let edges_b = vec![TemporalEdge::new(2, 0, 1), TemporalEdge::new(0, 2, 2)];
        let stats_of = |edges: &[TemporalEdge], t_count: usize| {
            let mut sink = StatsSink::new(t_count);
            sink.accept_all(edges);
            sink.finish()
        };
        let mut merged = stats_of(&edges_a, 2);
        // other side covers one more timestamp: merge must grow
        merged.merge(&stats_of(&edges_b, 3));
        let mut union = edges_a.clone();
        union.extend_from_slice(&edges_b);
        assert_eq!(merged, stats_of(&union, 3));
        // merging in the opposite order gives the same totals
        let mut reversed = stats_of(&edges_b, 3);
        reversed.merge(&stats_of(&edges_a, 2));
        assert_eq!(reversed, merged);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let edges = vec![TemporalEdge::new(0, 1, 0), TemporalEdge::new(1, 0, 1)];
        let mut sink = StatsSink::new(2);
        sink.accept_all(&edges);
        let mut stats = sink.finish();
        let before = stats.clone();
        stats.merge(&StatsSink::new(2).finish());
        assert_eq!(stats, before);
        let mut empty = StatsSink::new(0).finish();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
