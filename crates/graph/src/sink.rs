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
//! - `tg_metrics::StatsSink` — fold each unit into the Table III
//!   statistics of every accumulated snapshot (Eq. 10's inputs) and keep
//!   no edge list.
//!
//! A pair of sinks is a sink that feeds both, and `Option<S>` one that
//! may be absent, so one pass can write edges and statistics together.
//!
//! # Contract
//!
//! The engine calls [`EdgeSink::accept`] once per work unit, **in plan
//! order** (timestamps ascending, chunks ascending within a timestamp),
//! regardless of how many worker threads executed the units. A sink may
//! therefore rely on the emission order being deterministic for a fixed
//! master seed; this is what makes `StreamingWriterSink` shard files
//! byte-concatenatable (see `tg-graph::io::StreamingWriterSink`).

use crate::temporal::{TemporalEdge, TemporalGraph, Time};

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

impl<A: EdgeSink, B: EdgeSink> EdgeSink for (A, B) {
    type Output = (A::Output, B::Output);

    fn accept(&mut self, t: Time, chunk: u32, edges: &[TemporalEdge]) {
        self.0.accept(t, chunk, edges);
        self.1.accept(t, chunk, edges);
    }

    fn finish(self) -> Self::Output {
        (self.0.finish(), self.1.finish())
    }
}

impl<S: EdgeSink> EdgeSink for Option<S> {
    type Output = Option<S::Output>;

    fn accept(&mut self, t: Time, chunk: u32, edges: &[TemporalEdge]) {
        if let Some(sink) = self {
            sink.accept(t, chunk, edges);
        }
    }

    fn finish(self) -> Self::Output {
        self.map(EdgeSink::finish)
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
    fn a_pair_feeds_both_and_none_feeds_nothing() {
        let edges = vec![TemporalEdge::new(0, 1, 0), TemporalEdge::new(2, 0, 1)];
        let mut pair = (GraphSink::new(3, 2), Some(GraphSink::new(3, 2)));
        emit(&mut pair, &edges);
        let (g, h) = pair.finish();
        assert_eq!(Some(g.edges()), h.as_ref().map(TemporalGraph::edges));
        let mut none: Option<GraphSink> = None;
        emit(&mut none, &edges);
        assert!(none.finish().is_none());
    }
}
