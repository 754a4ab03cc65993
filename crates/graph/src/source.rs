//! Edge sources: where observed edges come from.
//!
//! The mirror image of [`crate::sink::EdgeSink`]. The simulation engine
//! *emits* its deterministic edge stream into a sink one `(timestamp,
//! chunk)` unit at a time; an [`EdgeSource`] *produces* an observed graph
//! as the same kind of stream, so training-side ingest can consume
//! bounded per-timestamp chunks instead of requiring the whole edge list
//! to be staged in memory at once:
//!
//! ```text
//!   ingest (this module)                      serving (crate::sink)
//!   EdgeSource ──chunks──▶ GraphAssembler     engine ──units──▶ EdgeSink
//!   InMemorySource  (wraps TemporalGraph)     GraphSink
//!   tg-store StoreSource (streams from disk)  StreamingWriterSink
//!                                             tg-metrics StatsSink
//! ```
//!
//! Two implementations cover the spectrum: [`InMemorySource`] adapts an
//! existing [`TemporalGraph`] (so every consumer of the trait also works
//! on in-memory data, and the two paths can be regression-tested against
//! each other), and `tg-store`'s `StoreSource` streams the columnar
//! on-disk edge store block by block with `O(block)` resident memory.
//!
//! # Chunk contract
//!
//! [`EdgeSource::for_each_chunk`] delivers the edge stream in **plan
//! order** — timestamps ascending, and `(u, v)`-sorted within a timestamp
//! — as non-empty chunks of at most `max_chunk` edges that never span a
//! timestamp boundary. `(t, chunk)` identifies each unit exactly like
//! [`EdgeSink::accept`](crate::sink::EdgeSink::accept) does on the emit
//! side; chunk indices restart at 0 on every timestamp. Consumers may
//! rely on this order: [`GraphAssembler`] rebuilds a [`TemporalGraph`]
//! from it without ever re-sorting, and `tg-store`'s `write_source`
//! writes it into a store block by block. Each edge of the stream obeys
//! [`check_edge`], the one definition every consumer checks it with.

use crate::temporal::{TemporalEdge, TemporalGraph, Time};

/// Producer of an observed temporal-edge stream, in `(t, u, v)` order,
/// chunked so consumers hold only `O(max_chunk)` edges at a time.
///
/// Mirrors [`EdgeSink`](crate::sink::EdgeSink): where a sink receives the
/// generated stream unit by unit, a source yields the observed stream the
/// same way. See the [module docs](crate::source) for the chunk contract.
pub trait EdgeSource {
    /// Error the source can raise mid-stream (I/O, corruption, …).
    /// Infallible in-memory sources use [`std::convert::Infallible`].
    type Error: std::error::Error;

    /// Number of nodes of the underlying graph.
    fn n_nodes(&self) -> usize;

    /// Number of timestamps `T` of the underlying graph.
    fn n_timestamps(&self) -> usize;

    /// Total number of temporal edges the stream will yield.
    fn n_edges(&self) -> u64;

    /// Stream every edge as per-timestamp chunks of at most `max_chunk`
    /// edges (clamped to at least 1), calling `f(t, chunk, edges)` for
    /// each unit in plan order. Restartable: each call re-streams from
    /// the beginning.
    fn for_each_chunk(
        &mut self,
        max_chunk: usize,
        f: &mut dyn FnMut(Time, u32, &[TemporalEdge]),
    ) -> Result<(), Self::Error>;
}

/// [`EdgeSource`] over an already-materialised [`TemporalGraph`] — the
/// in-memory twin of `tg-store`'s `StoreSource`, and the adapter that
/// lets chunk-consuming code (graph assembly, store writing) run
/// identically on either path.
pub struct InMemorySource<'a> {
    g: &'a TemporalGraph,
}

impl<'a> InMemorySource<'a> {
    /// Wrap a graph borrow.
    pub fn new(g: &'a TemporalGraph) -> Self {
        InMemorySource { g }
    }
}

impl EdgeSource for InMemorySource<'_> {
    type Error = std::convert::Infallible;

    fn n_nodes(&self) -> usize {
        self.g.n_nodes()
    }

    fn n_timestamps(&self) -> usize {
        self.g.n_timestamps()
    }

    fn n_edges(&self) -> u64 {
        self.g.n_edges() as u64
    }

    fn for_each_chunk(
        &mut self,
        max_chunk: usize,
        f: &mut dyn FnMut(Time, u32, &[TemporalEdge]),
    ) -> Result<(), Self::Error> {
        let max_chunk = max_chunk.max(1);
        for t in 0..self.g.n_timestamps() as Time {
            for (ci, chunk) in self.g.edges_at(t).chunks(max_chunk).enumerate() {
                f(t, ci as u32, chunk);
            }
        }
        Ok(())
    }
}

/// Why a chunk stream could not be assembled into a [`TemporalGraph`].
#[derive(Debug, PartialEq, Eq)]
pub enum AssembleError {
    /// An edge endpoint was `>= n_nodes`.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The assembler's node bound.
        n_nodes: usize,
    },
    /// A chunk carried a timestamp `>= n_timestamps`.
    TimeOutOfRange {
        /// The offending timestamp.
        t: Time,
        /// The assembler's timestamp bound.
        n_timestamps: usize,
    },
    /// An edge sorted before the one the stream yielded last, or
    /// disagreed with its chunk's timestamp: the stream broke `(t, u, v)`
    /// order.
    OutOfOrder {
        /// Human-readable description of the violation.
        what: String,
    },
    /// The source declared zero timestamps — no valid temporal-graph
    /// shape exists to assemble into.
    NoTimestamps,
}

impl std::fmt::Display for AssembleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssembleError::NodeOutOfRange { node, n_nodes } => {
                write!(f, "edge endpoint {node} out of range (< {n_nodes})")
            }
            AssembleError::TimeOutOfRange { t, n_timestamps } => {
                write!(f, "timestamp {t} out of range (< {n_timestamps})")
            }
            AssembleError::OutOfOrder { what } => {
                write!(f, "edge stream out of (t, u, v) order: {what}")
            }
            AssembleError::NoTimestamps => {
                write!(f, "source declares zero timestamps — nothing to assemble")
            }
        }
    }
}

impl std::error::Error for AssembleError {}

/// The edge-stream contract, written once: `e`'s endpoints are below
/// `n_nodes`, its timestamp is below `n_timestamps`, and it does not sort
/// before `prev`, the edge the stream yielded last — so the stream is in
/// `(t, u, v)` order. Every ingest consumer calls this and maps the
/// result to its own error: [`GraphAssembler`], `tg-store`'s writer, its
/// reader and its salvage walk.
#[inline]
pub fn check_edge(
    prev: Option<TemporalEdge>,
    e: TemporalEdge,
    n_nodes: usize,
    n_timestamps: usize,
) -> Result<(), AssembleError> {
    let in_shape =
        (e.u as usize) < n_nodes && (e.v as usize) < n_nodes && (e.t as usize) < n_timestamps;
    if in_shape && prev.is_none_or(|p| p <= e) {
        Ok(())
    } else {
        Err(edge_error(prev, e, n_nodes, n_timestamps))
    }
}

/// Which part of [`check_edge`]'s contract `e` breaks. Out of line and
/// cold, so that what `check_edge` inlines into each ingest loop is its
/// comparisons alone.
#[cold]
#[inline(never)]
fn edge_error(
    prev: Option<TemporalEdge>,
    e: TemporalEdge,
    n_nodes: usize,
    n_timestamps: usize,
) -> AssembleError {
    for node in [e.u, e.v] {
        if node as usize >= n_nodes {
            return AssembleError::NodeOutOfRange { node, n_nodes };
        }
    }
    if e.t as usize >= n_timestamps {
        return AssembleError::TimeOutOfRange {
            t: e.t,
            n_timestamps,
        };
    }
    // in shape, so the order broke, which takes a `prev`
    let p = prev.unwrap_or(e);
    AssembleError::OutOfOrder {
        what: format!("edge {e:?} after {p:?}"),
    }
}

/// Incremental [`TemporalGraph`] construction from a sorted chunk stream.
///
/// [`TemporalGraph::from_edges`] takes the whole edge list at once and
/// re-sorts it, which means the ingest path briefly holds the unsorted
/// input *and* the sorted copy. The assembler instead consumes the
/// already-ordered chunks an [`EdgeSource`] yields: edges append straight
/// into an exactly-reserved array, per-timestamp offsets accumulate as
/// timestamps close, and [`GraphAssembler::finish`] builds the temporal
/// adjacency in one counting pass over the finished array. Peak memory
/// above the finished graph is therefore the caller's chunk buffer plus
/// that pass's 4 B per node, independent of the total edge count.
pub struct GraphAssembler {
    n: usize,
    t: usize,
    edges: Vec<TemporalEdge>,
    time_offsets: Vec<usize>,
    /// Timestamp whose slice is currently open (edges may still arrive).
    open_t: Time,
}

impl GraphAssembler {
    /// Assembler for a graph of known shape; `n_edges_hint` pre-reserves
    /// the edge array exactly (pass the source's [`EdgeSource::n_edges`]).
    pub fn new(n_nodes: usize, n_timestamps: usize, n_edges_hint: usize) -> Self {
        assert!(
            n_timestamps > 0,
            "temporal graph needs at least one timestamp"
        );
        let mut time_offsets = Vec::with_capacity(n_timestamps + 1);
        time_offsets.push(0);
        GraphAssembler {
            n: n_nodes,
            t: n_timestamps,
            edges: Vec::with_capacity(n_edges_hint),
            time_offsets,
            open_t: 0,
        }
    }

    /// Close timestamp slices up to (excluding) `t`, recording where each
    /// closed slice ends.
    fn close_until(&mut self, t: Time) {
        while self.open_t < t {
            self.time_offsets.push(self.edges.len());
            self.open_t += 1;
        }
    }

    /// Feed one chunk of edges, all at timestamp `t`. Chunks must honor
    /// the [`EdgeSource`] contract: every edge passes [`check_edge`]
    /// and carries the chunk's timestamp.
    pub fn accept(&mut self, t: Time, edges: &[TemporalEdge]) -> Result<(), AssembleError> {
        for &e in edges {
            if e.t != t {
                return Err(AssembleError::OutOfOrder {
                    what: format!("edge {e:?} inside a t={t} chunk"),
                });
            }
            check_edge(self.edges.last().copied(), e, self.n, self.t)?;
            self.close_until(t);
            self.edges.push(e);
        }
        Ok(())
    }

    /// Edges accepted so far.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Close the stream and produce the graph. Equivalent to
    /// [`TemporalGraph::from_edges`] over the concatenated chunks
    /// (regression-tested), without the sort or the staging copy.
    pub fn finish(mut self) -> TemporalGraph {
        self.close_until(self.t as Time);
        TemporalGraph::from_sorted_parts(self.n, self.t, self.edges, self.time_offsets)
    }
}

/// Error of [`read_graph`]: either the source failed mid-stream or the
/// stream it produced violated the chunk contract.
#[derive(Debug)]
pub enum SourceError<E> {
    /// The underlying source failed (I/O, corruption, …).
    Source(E),
    /// The stream could not be assembled into a graph.
    Assemble(AssembleError),
}

impl<E: std::fmt::Display> std::fmt::Display for SourceError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Source(e) => write!(f, "edge source failed: {e}"),
            SourceError::Assemble(e) => write!(f, "bad edge stream: {e}"),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for SourceError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SourceError::Source(e) => Some(e),
            SourceError::Assemble(e) => Some(e),
        }
    }
}

/// Default chunk size for [`read_graph`] and other whole-stream
/// consumers: large enough to amortise per-chunk overhead, small enough
/// that the resident batch stays in the L2 cache (8192 edges ≈ 96 KiB).
pub const DEFAULT_CHUNK_EDGES: usize = 8192;

/// Materialise a full [`TemporalGraph`] from any [`EdgeSource`] by
/// streaming its chunks through a [`GraphAssembler`]. Peak memory above
/// the finished graph is `O(max_chunk)`.
pub fn read_graph<S: EdgeSource>(
    source: &mut S,
    max_chunk: usize,
) -> Result<TemporalGraph, SourceError<S::Error>> {
    if source.n_timestamps() == 0 {
        // GraphAssembler::new treats a zero-timestamp shape as a
        // programmer error (panic); a *source* declaring one is input,
        // so it must surface through the typed-error path instead.
        return Err(SourceError::Assemble(AssembleError::NoTimestamps));
    }
    let mut asm = GraphAssembler::new(
        source.n_nodes(),
        source.n_timestamps(),
        source.n_edges() as usize,
    );
    let mut failed: Option<AssembleError> = None;
    source
        .for_each_chunk(max_chunk, &mut |t, _chunk, edges| {
            if failed.is_none() {
                if let Err(e) = asm.accept(t, edges) {
                    failed = Some(e);
                }
            }
        })
        .map_err(SourceError::Source)?;
    match failed {
        Some(e) => Err(SourceError::Assemble(e)),
        None => Ok(asm.finish()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> TemporalGraph {
        TemporalGraph::from_edges(
            4,
            3,
            vec![
                TemporalEdge::new(1, 2, 0),
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(2, 0, 1),
                TemporalEdge::new(0, 1, 1),
                TemporalEdge::new(0, 1, 1), // multiplicity kept
            ],
        )
    }

    #[test]
    fn in_memory_source_reports_shape() {
        let g = toy();
        let s = InMemorySource::new(&g);
        assert_eq!(s.n_nodes(), 4);
        assert_eq!(s.n_timestamps(), 3);
        assert_eq!(s.n_edges(), 5);
    }

    #[test]
    fn chunks_are_per_timestamp_in_plan_order() {
        let g = toy();
        let mut s = InMemorySource::new(&g);
        let mut seen: Vec<(Time, u32, Vec<TemporalEdge>)> = Vec::new();
        s.for_each_chunk(1, &mut |t, c, e| seen.push((t, c, e.to_vec())))
            .unwrap();
        // chunk size 1: one chunk per edge, chunk index restarting per t
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[0].0, 0);
        assert_eq!((seen[0].1, seen[1].1), (0, 1));
        assert_eq!((seen[2].0, seen[2].1), (1, 0));
        for w in seen.windows(2) {
            assert!((w[0].0, w[0].1) < (w[1].0, w[1].1));
        }
        let flat: Vec<TemporalEdge> = seen.into_iter().flat_map(|(_, _, e)| e).collect();
        assert_eq!(flat, g.edges());
    }

    #[test]
    fn read_graph_round_trips_any_chunk_size() {
        // a self-loop, a repeated edge and empty timestamps at both ends
        let loops = TemporalGraph::from_edges(
            4,
            6,
            vec![
                TemporalEdge::new(2, 2, 1),
                TemporalEdge::new(3, 0, 1),
                TemporalEdge::new(0, 3, 3),
                TemporalEdge::new(0, 3, 3),
                TemporalEdge::new(1, 2, 4),
            ],
        );
        for g in [toy(), loops] {
            for chunk in [1usize, 2, 3, 100] {
                let rebuilt = read_graph(&mut InMemorySource::new(&g), chunk).unwrap();
                assert_eq!(rebuilt.n_nodes(), g.n_nodes());
                assert_eq!(rebuilt.n_timestamps(), g.n_timestamps());
                assert_eq!(rebuilt.edges(), g.edges(), "chunk={chunk}");
                // the adjacency must match too: compare neighbour and window queries
                for t in 0..g.n_timestamps() as Time {
                    for v in 0..g.n_nodes() as u32 {
                        assert_eq!(
                            rebuilt.in_neighbors_at(v, t).collect::<Vec<_>>(),
                            g.in_neighbors_at(v, t).collect::<Vec<_>>()
                        );
                        assert_eq!(rebuilt.temporal_degree(v, t), g.temporal_degree(v, t));
                        for t_n in [0, 1, 3, 10] {
                            assert_eq!(
                                rebuilt.incident_within(v, t, t_n).collect::<Vec<_>>(),
                                g.incident_within(v, t, t_n).collect::<Vec<_>>(),
                                "chunk={chunk} v={v} t={t} t_n={t_n}"
                            );
                            assert_eq!(
                                rebuilt.temporal_neighbors(v, t, t_n),
                                g.temporal_neighbors(v, t, t_n)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn assembler_equals_from_edges_on_empty_timestamps() {
        // leading, middle, and trailing empty timestamps all close cleanly
        let g = TemporalGraph::from_edges(
            3,
            5,
            vec![TemporalEdge::new(0, 1, 1), TemporalEdge::new(1, 2, 3)],
        );
        let rebuilt = read_graph(&mut InMemorySource::new(&g), 4).unwrap();
        assert_eq!(rebuilt.edges(), g.edges());
        assert_eq!(
            rebuilt.edge_counts_per_timestamp(),
            g.edge_counts_per_timestamp()
        );
    }

    #[test]
    fn assembler_rejects_out_of_range_and_disorder() {
        let mut asm = GraphAssembler::new(2, 2, 4);
        assert!(matches!(
            asm.accept(5, &[TemporalEdge::new(0, 1, 5)]),
            Err(AssembleError::TimeOutOfRange { t: 5, .. })
        ));
        assert!(matches!(
            asm.accept(0, &[TemporalEdge::new(0, 7, 0)]),
            Err(AssembleError::NodeOutOfRange { node: 7, .. })
        ));
        asm.accept(1, &[TemporalEdge::new(1, 0, 1)]).unwrap();
        // timestamp regression
        assert!(matches!(
            asm.accept(0, &[TemporalEdge::new(0, 1, 0)]),
            Err(AssembleError::OutOfOrder { .. })
        ));
        // unsorted within a timestamp
        let mut asm = GraphAssembler::new(3, 1, 4);
        asm.accept(0, &[TemporalEdge::new(1, 0, 0)]).unwrap();
        assert!(matches!(
            asm.accept(0, &[TemporalEdge::new(0, 1, 0)]),
            Err(AssembleError::OutOfOrder { .. })
        ));
        // edge timestamp disagreeing with the chunk timestamp
        let mut asm = GraphAssembler::new(3, 2, 4);
        assert!(matches!(
            asm.accept(0, &[TemporalEdge::new(0, 1, 1)]),
            Err(AssembleError::OutOfOrder { .. })
        ));
    }

    #[test]
    fn zero_timestamp_source_is_a_typed_error_not_a_panic() {
        struct EmptyShape;
        impl EdgeSource for EmptyShape {
            type Error = std::convert::Infallible;
            fn n_nodes(&self) -> usize {
                3
            }
            fn n_timestamps(&self) -> usize {
                0
            }
            fn n_edges(&self) -> u64 {
                0
            }
            fn for_each_chunk(
                &mut self,
                _max_chunk: usize,
                _f: &mut dyn FnMut(Time, u32, &[TemporalEdge]),
            ) -> Result<(), Self::Error> {
                Ok(())
            }
        }
        assert!(matches!(
            read_graph(&mut EmptyShape, 8),
            Err(SourceError::Assemble(AssembleError::NoTimestamps))
        ));
    }

    #[test]
    fn error_messages_name_the_problem() {
        let e = AssembleError::NodeOutOfRange {
            node: 9,
            n_nodes: 4,
        };
        assert!(e.to_string().contains('9'));
        let e = AssembleError::TimeOutOfRange {
            t: 3,
            n_timestamps: 2,
        };
        assert!(e.to_string().contains('3'));
        let s: SourceError<std::io::Error> =
            SourceError::Assemble(AssembleError::OutOfOrder { what: "x".into() });
        assert!(s.to_string().contains("bad edge stream"));
    }
}
