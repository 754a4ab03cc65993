//! One-pass Table III statistics over *accumulated* snapshots.
//!
//! Eq. 10 scores a generator on the snapshot accumulated through every
//! timestamp. Those snapshots only ever grow, so [`StatsSink`] takes the
//! edge stream once in time order — the engine's units, or a graph's
//! timestamps through [`CumulativeStats`] — and keeps the undirected
//! simple view up to date instead of rebuilding it per timestamp:
//!
//! - run-stamped, unsorted per-node adjacency. Consecutive edges of one
//!   source `u` form a run (`edges_at(t)` is sorted by `(u, v)`, so there
//!   a timestamp is one run per source), and each run stamps `N(u)` once
//!   in a per-node `u32` array. A self-loop or
//!   a stamped `v` is a repeated or reciprocal edge and an O(1) no-op,
//!   exactly as `Snapshot::undirected_adjacency` collapses it; a new pair
//!   is pushed onto both lists unsorted and stamped;
//! - the triangle count — a *new* undirected edge `{u, v}` closes one
//!   triangle per common neighbour, so it grows by `|N(u) ∩ N(v)|`, the
//!   number of stamped entries in `N(v)`, and every triangle is counted
//!   once, when its last edge arrives;
//! - a [`UnionFind`], whose component count and largest component are
//!   running values;
//! - the degree counts: a dense `u32` degree per node, the degree sum,
//!   the wedges `Σ C(d, 2)` and claws `Σ C(d, 3)` as `u128`, the number
//!   of positive-degree nodes and a histogram of the positive degrees.
//!   Each new pair raises two degrees by one, and raising `d` to `d + 1`
//!   adds `d` wedges and `C(d, 2)` claws (Pascal's rule). `d_min` moves
//!   up when the histogram empties at it and falls back to 1 when a node
//!   gets its first edge; `d_max` is the histogram's top.
//!
//! Closing a timestamp then reads six of the seven statistics from
//! running values in O(1). PLE's `Σ ln(d / d_min)` is one branch-free
//! node-order sweep of the dense degrees through a per-degree logarithm
//! table. Total: O(Σ_runs d_u + Σ_new d_v + T·n) — one stamping of the
//! source's list per run, one scan of the target's list per new pair,
//! and `n` table reads and `f64` adds per timestamp — against
//! O(T·(E log E + n)) for `GraphStats::compute(&Snapshot::accumulated(..))`
//! at every `t`.
//!
//! # Bit-identity with [`GraphStats::compute`]
//!
//! The emitted values are `to_bits()`-equal to the batch computation,
//! which stays in the crate as the single-snapshot API and as the test
//! oracle. Mean degree, wedges, claws, triangles, LCC and N-Components
//! are exact integers converted to `f64` once (mean degree then divided
//! once by `n`), so how they were counted cannot show. PLE is a
//! floating-point sum whose value depends on the order of the additions,
//! so the sweep visits nodes in node order and adds the batch code's
//! addends `(d / d_min).ln()`, read from a table — the same expression
//! evaluated once per distinct degree rather than once per node, rebuilt
//! only when `d_min` changes. A node of degree 0, which the batch code
//! skips, reads the table's `+0.0`: every addend is `≥ +0.0`, so adding
//! `+0.0` changes no partial sum.

use crate::stats::{choose2, ple_from_log_sum, GraphStats};
use crate::union_find::UnionFind;
use serde::{Deserialize, Serialize};
use tg_graph::{EdgeSink, NodeId, TemporalEdge, TemporalGraph, Time};

/// What [`StatsSink`] yields: one entry per timestamp `0..T`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsSeries {
    /// `volume[t]`: temporal edges at timestamp `t`.
    pub volume: Vec<u64>,
    /// `stats[t]`: the snapshot accumulated through timestamp `t`.
    pub stats: Vec<GraphStats>,
}

impl StatsSeries {
    /// Total temporal edges across all timestamps.
    pub fn n_edges(&self) -> u64 {
        self.volume.iter().sum()
    }
}

/// The Table III statistics of every accumulated snapshot of an edge
/// stream, folded in as the stream arrives; no edge is kept beyond the
/// undirected simple adjacency.
///
/// # Order
///
/// The sink needs no sort and no buffer. Timestamp `t` closes when a unit
/// of a later timestamp arrives, or at [`EdgeSink::finish`], so a
/// timestamp no unit names still yields its snapshot, as does every one
/// after the last unit up to `n_timestamps`. The counts therefore depend
/// only on units arriving in ascending timestamp order, which the
/// [`EdgeSink`] contract guarantees. Within a timestamp, order, chunking
/// and repeats change only how many stampings the pass does, not a value.
/// A unit whose `t` lies below a closed timestamp breaks the contract
/// (a `debug_assert!`).
pub struct StatsSink {
    /// Undirected simple adjacency of the edges ingested so far, each
    /// list in arrival order.
    adj: Vec<Vec<NodeId>>,
    /// `stamp[x] == epoch` iff `x` is in `N(u)` for the current run's
    /// source `u`.
    stamp: Vec<u32>,
    epoch: u32,
    triangles: u64,
    components: UnionFind,
    degrees: DegreeCounts,
    /// `volume[t]`: edges accepted at timestamp `t`.
    volume: Vec<u64>,
    /// One entry per closed timestamp.
    stats: Vec<GraphStats>,
}

impl StatsSink {
    /// Sink over nodes `0..n_nodes` and timestamps `0..n_timestamps`.
    pub fn new(n_nodes: usize, n_timestamps: usize) -> Self {
        Self::presized(vec![0; n_nodes], n_timestamps)
    }

    /// Sink whose node `x` has room for `capacity[x]` neighbours.
    fn presized(capacity: Vec<usize>, n_timestamps: usize) -> Self {
        let n = capacity.len();
        StatsSink {
            adj: capacity.into_iter().map(Vec::with_capacity).collect(),
            stamp: vec![0; n],
            epoch: 0,
            triangles: 0,
            components: UnionFind::new(n),
            degrees: DegreeCounts::new(n),
            volume: vec![0; n_timestamps],
            stats: Vec::with_capacity(n_timestamps),
        }
    }

    /// Add edges of the open timestamp. Runs of one source are cut from
    /// consecutive edges, so an unsorted slice would only cost more
    /// stampings, not change a count.
    fn ingest(&mut self, edges: &[TemporalEdge]) {
        for run in edges.chunk_by(|a, b| a.u == b.u) {
            let u = run[0].u;
            let epoch = self.next_epoch();
            for &x in &self.adj[u as usize] {
                self.stamp[x as usize] = epoch;
            }
            for e in run {
                let v = e.v;
                if v == u || self.stamp[v as usize] == epoch {
                    continue;
                }
                let stamp = &self.stamp;
                self.triangles += self.adj[v as usize]
                    .iter()
                    .filter(|&&x| stamp[x as usize] == epoch)
                    .count() as u64;
                self.adj[u as usize].push(v);
                self.adj[v as usize].push(u);
                self.degrees.increment(u);
                self.degrees.increment(v);
                self.stamp[v as usize] = epoch;
                self.components.union(u, v);
            }
        }
    }

    /// A stamp no entry of `stamp` holds. On wrap-around every entry is
    /// cleared first, so a stamp from 2^32 runs ago cannot match.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }

    /// Close every timestamp before `t`.
    fn close_before(&mut self, t: usize) {
        while self.stats.len() < t {
            let s = self.snapshot();
            self.stats.push(s);
        }
    }

    /// The statistics of the snapshot ingested so far.
    fn snapshot(&mut self) -> GraphStats {
        let ple = self.degrees.power_law_exponent();
        let d = &self.degrees;
        let n = d.degree.len();
        GraphStats {
            mean_degree: if n == 0 {
                0.0
            } else {
                d.deg_sum as f64 / n as f64
            },
            lcc: self.components.largest_component() as f64,
            wedge_count: d.wedges as f64,
            claw_count: d.claws as f64,
            triangle_count: self.triangles as f64,
            ple,
            n_components: self.components.n_components() as f64,
        }
    }
}

/// The degree statistics of the simple graph ingested so far, kept as
/// running counts (the module doc's "degree counts").
struct DegreeCounts {
    /// `degree[x]`: distinct neighbours of node `x`.
    degree: Vec<u32>,
    deg_sum: u64,
    /// `Σ_x C(degree[x], 2)`.
    wedges: u128,
    /// `Σ_x C(degree[x], 3)`.
    claws: u128,
    n_positive: usize,
    /// `hist[d]`: nodes of degree `d > 0`; `hist[0]` stays 0. Degrees
    /// only grow, so the top entry is the largest degree: `d_max ==
    /// hist.len() - 1`.
    hist: Vec<u32>,
    /// Smallest positive degree (0 while every degree is 0).
    d_min: usize,
    /// `ln_ratio[d] == (d as f64 / ln_ratio_d_min as f64).ln()` for
    /// `d > 0`, and `ln_ratio[0] == +0.0`.
    ln_ratio: Vec<f64>,
    ln_ratio_d_min: usize,
}

impl DegreeCounts {
    fn new(n_nodes: usize) -> Self {
        DegreeCounts {
            degree: vec![0; n_nodes],
            deg_sum: 0,
            wedges: 0,
            claws: 0,
            n_positive: 0,
            hist: vec![0],
            d_min: 0,
            ln_ratio: Vec::new(),
            ln_ratio_d_min: 0,
        }
    }

    /// Node `x` gains a neighbour.
    fn increment(&mut self, x: NodeId) {
        let slot = &mut self.degree[x as usize];
        let d = *slot as usize;
        *slot += 1;
        self.deg_sum += 1;
        // C(d + 1, k) - C(d, k) == C(d, k - 1)
        self.wedges += d as u128;
        self.claws += choose2(d);
        if d == 0 {
            self.n_positive += 1;
            self.d_min = 1;
        } else {
            self.hist[d] -= 1;
            if d == self.d_min && self.hist[d] == 0 {
                self.d_min = d + 1;
            }
        }
        if d + 1 == self.hist.len() {
            self.hist.push(0);
        }
        self.hist[d + 1] += 1;
    }

    /// `stats::power_law_exponent` over the current degrees: the
    /// logarithms read from the per-degree table, summed over every node
    /// in node order.
    fn power_law_exponent(&mut self) -> f64 {
        if self.n_positive == 0 {
            return 1.0;
        }
        if self.ln_ratio_d_min != self.d_min {
            self.ln_ratio.clear();
            self.ln_ratio.push(0.0);
            self.ln_ratio_d_min = self.d_min;
        }
        let d_min = self.d_min as f64;
        for d in self.ln_ratio.len()..self.hist.len() {
            self.ln_ratio.push((d as f64 / d_min).ln());
        }
        let ln_ratio = self.ln_ratio.as_slice();
        let log_sum: f64 = self.degree.iter().map(|&d| ln_ratio[d as usize]).sum();
        ple_from_log_sum(self.n_positive, log_sum)
    }
}

impl EdgeSink for StatsSink {
    type Output = StatsSeries;

    fn accept(&mut self, t: Time, _chunk: u32, edges: &[TemporalEdge]) {
        let t = t as usize;
        debug_assert!(
            t >= self.stats.len(),
            "unit at t={t} after timestamp {} closed",
            self.stats.len().wrapping_sub(1)
        );
        self.close_before(t);
        self.volume[t] += edges.len() as u64;
        self.ingest(edges);
    }

    fn finish(mut self) -> StatsSeries {
        self.close_before(self.volume.len());
        StatsSeries {
            volume: self.volume,
            stats: self.stats,
        }
    }
}

/// Iterator over the [`GraphStats`] of a temporal graph's accumulated
/// snapshots: item `t` equals
/// `GraphStats::compute(&Snapshot::accumulated(g, t, true))`. A
/// [`StatsSink`] fed one timestamp per item, each adjacency list sized
/// once from the graph: to its node's incident non-self-loop edge count,
/// an upper bound on its final degree, 8 B per edge in all.
pub struct CumulativeStats<'g> {
    graph: &'g TemporalGraph,
    /// Next timestamp to ingest.
    t: usize,
    sink: StatsSink,
}

impl<'g> CumulativeStats<'g> {
    /// Start before the first timestamp of `graph`.
    pub fn new(graph: &'g TemporalGraph) -> Self {
        let mut incident = vec![0usize; graph.n_nodes()];
        for e in graph.edges().iter().filter(|e| e.u != e.v) {
            incident[e.u as usize] += 1;
            incident[e.v as usize] += 1;
        }
        CumulativeStats {
            graph,
            t: 0,
            sink: StatsSink::presized(incident, 0),
        }
    }
}

impl Iterator for CumulativeStats<'_> {
    type Item = GraphStats;

    fn next(&mut self) -> Option<GraphStats> {
        if self.t >= self.graph.n_timestamps() {
            return None;
        }
        self.sink.ingest(self.graph.edges_at(self.t as u32));
        self.t += 1;
        Some(self.sink.snapshot())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.graph.n_timestamps() - self.t;
        (left, Some(left))
    }
}

impl ExactSizeIterator for CumulativeStats<'_> {}

#[cfg(test)]
mod tests {
    use super::CumulativeStats;
    use crate::stats::GraphStats;
    use tg_graph::{TemporalEdge, TemporalGraph};

    // the accumulator itself is tested against the batch oracle in
    // `tests/cumulative.rs`

    /// Stamps left over from an earlier cycle of the epoch counter must
    /// not read as neighbours once it wraps, whichever stamp they hold.
    #[test]
    fn epoch_wrap_clears_stale_stamps() {
        let e = TemporalEdge::new;
        // per timestamp: a star from 0, then edges closing triangles
        let mut edges = Vec::new();
        for t in 0..6 {
            for v in 1..6 {
                edges.push(e(0, v, t));
            }
            edges.push(e(t % 5 + 1, (t + 1) % 5 + 1, t));
            edges.push(e(6, t % 5 + 1, t));
        }
        let g = TemporalGraph::from_edges(7, 6, edges);
        let bits = |s: &GraphStats| s.as_array().map(f64::to_bits);
        let want: Vec<_> = CumulativeStats::new(&g).map(|s| bits(&s)).collect();

        // 6 timestamps of 3 runs: the first two stamp u32::MAX - 1 and
        // u32::MAX, the third wraps to 1, the last stamps 16
        for stale in 1..=16 {
            let mut wrapped = CumulativeStats::new(&g);
            wrapped.sink.epoch = u32::MAX - 2;
            wrapped.sink.stamp.fill(stale);
            let got: Vec<_> = wrapped.map(|s| bits(&s)).collect();
            assert_eq!(got, want, "stale stamp {stale}");
        }
    }
}
