//! `tg-metrics`: the TGAE paper's evaluation stack.
//!
//! - [`stats`] — the seven Table III graph statistics ([`stats::MetricKind`],
//!   [`stats::GraphStats`]) computed on undirected simple snapshot views;
//! - [`cumulative`] — the same seven statistics on *every* accumulated
//!   snapshot of an edge stream in one incremental pass: [`StatsSink`]
//!   takes the engine's units, [`CumulativeStats`] walks a graph, and
//!   both are bit-identical to [`GraphStats::compute`] per timestamp;
//! - [`harness`] — the Eq. 10 comparison harness producing the `f_avg`
//!   (Table V) and `f_med` (Table IV) scores, plus the per-timestamp metric
//!   series behind Figure 5, both reduced from that pass;
//! - [`motifs`] — the δ-temporal motif census over all 36 two/three-node
//!   three-edge motif classes (reference \[43\] of the paper);
//! - [`mmd`] — Gaussian-kernel total-variation MMD (Eq. 1) used by Table VI;
//! - [`union_find`] — disjoint sets for component statistics.

#![forbid(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

pub mod cumulative;
pub mod degree;
pub mod harness;
pub mod mmd;
pub mod motifs;
pub mod stats;
pub mod union_find;

pub use cumulative::{CumulativeStats, StatsSeries, StatsSink};
pub use degree::{degree_histogram, degree_mmd};
pub use harness::{
    evaluate, evaluate_against, evaluate_graph_against, metric_timeseries, relative_error,
    MetricScore, MetricSeries,
};
pub use mmd::{gaussian_kernel, mmd2_single, mmd2_tv, tv_distance};
pub use motifs::{
    census_per_chunk, census_per_chunk_sampled, count_motifs, count_motifs_sampled, MotifCensus,
    N_MOTIFS,
};
pub use stats::{GraphStats, MetricKind};
pub use union_find::UnionFind;
