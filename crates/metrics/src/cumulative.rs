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
//!   running values.
//!
//! Each timestamp then costs one O(n) pass over the degrees for the
//! degree, wedge, claw and PLE sums. Total: O(Σ_runs d_u + Σ_new d_v +
//! T·n) — one stamping of the source's list per run, one scan of the
//! target's list per new pair — against O(T·(E log E + n)) for
//! `GraphStats::compute(&Snapshot::accumulated(..))` at every `t`.
//!
//! # Bit-identity with [`GraphStats::compute`]
//!
//! The emitted values are `to_bits()`-equal to the batch computation,
//! which stays in the crate as the single-snapshot API and as the test
//! oracle. Mean degree, triangles, LCC and N-Components are exact
//! integers converted to `f64` once, so how they were counted cannot
//! show. Wedge, claw and PLE are floating-point sums whose value depends
//! on the order of the additions; the per-timestamp pass therefore
//! visits nodes in node order and applies the same expressions as the
//! batch code. PLE's addends `(d / d_min).ln()` are read from a
//! per-degree table — the same expression evaluated once per distinct
//! degree rather than once per node — rebuilt only when `d_min` changes.

use crate::stats::{ple_from_log_sum, GraphStats};
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
    /// `ln_ratio[d] == (d as f64 / ln_ratio_d_min as f64).ln()`.
    ln_ratio: Vec<f64>,
    ln_ratio_d_min: usize,
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
            ln_ratio: Vec::new(),
            ln_ratio_d_min: 0,
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
        let mut deg_sum = 0usize;
        let mut wedge = 0.0f64;
        let mut claw = 0.0f64;
        let mut n_positive = 0usize;
        let mut d_min = usize::MAX;
        let mut d_max = 0usize;
        for nbrs in &self.adj {
            let degree = nbrs.len();
            deg_sum += degree;
            if degree > 0 {
                n_positive += 1;
                d_min = d_min.min(degree);
                d_max = d_max.max(degree);
            }
            let d = degree as f64;
            wedge += d * (d - 1.0) / 2.0;
            claw += d * (d - 1.0) * (d - 2.0) / 6.0;
        }

        let n = self.adj.len();
        GraphStats {
            mean_degree: if n == 0 {
                0.0
            } else {
                deg_sum as f64 / n as f64
            },
            lcc: self.components.largest_component() as f64,
            wedge_count: wedge,
            claw_count: claw,
            triangle_count: self.triangles as f64,
            ple: self.power_law_exponent(n_positive, d_min, d_max),
            n_components: self.components.n_components() as f64,
        }
    }

    /// `stats::power_law_exponent` over the current degrees, with the
    /// logarithms read from the per-degree table.
    fn power_law_exponent(&mut self, n_positive: usize, d_min: usize, d_max: usize) -> f64 {
        if n_positive == 0 {
            return 1.0;
        }
        if self.ln_ratio_d_min != d_min {
            self.ln_ratio.clear();
            self.ln_ratio_d_min = d_min;
        }
        let d_min = d_min as f64;
        for d in self.ln_ratio.len()..=d_max {
            self.ln_ratio.push((d as f64 / d_min).ln());
        }
        let log_sum: f64 = self
            .adj
            .iter()
            .filter(|nbrs| !nbrs.is_empty())
            .map(|nbrs| self.ln_ratio[nbrs.len()])
            .sum();
        ple_from_log_sum(n_positive, log_sum)
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
