#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]
//! `tg-graph`: temporal-graph storage for the TGAE reproduction.
//!
//! A temporal graph (paper §III, Def. 2) is a series of snapshots
//! `{G_1, ..., G_T}` over a fixed node set; every edge carries a dense
//! timestamp. This crate provides:
//!
//! - [`temporal::TemporalGraph`] — the immutable edge store with
//!   per-timestamp slicing and a per-node, time-ordered adjacency that
//!   answers temporal neighborhoods (Def. 3 with `d_N = 1`) and temporal
//!   degrees (the Eq. 2 sampling weights);
//! - [`snapshot::Snapshot`] — accumulated/exact static out-adjacency CSR
//!   snapshots, the objects the paper's evaluation metrics are computed on;
//! - [`builder::TemporalGraphBuilder`] — relabeling/compaction from raw
//!   ids and epoch timestamps;
//! - [`io`] — the `src dst timestamp` text interchange format used by the
//!   paper's datasets (SNAP/Bitcoin/StackExchange dumps drop in directly)
//!   through one record reader, [`io::for_each_record`]; the streaming
//!   writer/merger behind sharded generation; and [`io::commit_atomic`],
//!   the crash-safe commit every durable file goes through;
//! - [`sink`] — the [`sink::EdgeSink`] abstraction consumed by the
//!   simulation engine (`tgae::engine`): in-memory graph assembly,
//!   streaming edge-list writing, or online statistics with no edge
//!   storage;
//! - [`source`] — the mirror-image [`source::EdgeSource`] abstraction
//!   produced by ingest: observed edges as per-timestamp chunk streams
//!   (in-memory via [`source::InMemorySource`], out-of-core via
//!   `tg-store`'s `StoreSource`), plus the streaming
//!   [`source::GraphAssembler`] that rebuilds a graph from them with
//!   `O(chunk)` overhead.

pub mod builder;
pub mod io;
pub mod sink;
pub mod snapshot;
pub mod source;
pub mod temporal;

pub use builder::TemporalGraphBuilder;
pub use sink::{EdgeSink, GraphSink};
pub use snapshot::Snapshot;
pub use source::{EdgeSource, GraphAssembler, InMemorySource};
pub use temporal::{NodeId, TemporalEdge, TemporalGraph, Time};
