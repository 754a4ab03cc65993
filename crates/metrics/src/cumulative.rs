//! One-pass Table III statistics over *accumulated* snapshots.
//!
//! Eq. 10 scores a generator on the snapshot accumulated through every
//! timestamp. Those snapshots only ever grow, so [`CumulativeStats`]
//! walks the edge stream once in time order and keeps the undirected
//! simple view up to date instead of rebuilding it per timestamp:
//!
//! - sorted per-node adjacency (a repeated, reciprocal or self-loop edge
//!   is a no-op, exactly as `Snapshot::undirected_adjacency` collapses it);
//! - the triangle count — a *new* undirected edge `{u, v}` closes one
//!   triangle per common neighbour, so it grows by `|N(u) ∩ N(v)|` and
//!   every triangle is counted once, when its last edge arrives;
//! - a [`UnionFind`], whose component count and largest component are
//!   running values.
//!
//! Each timestamp then costs one O(n) pass over the degrees for the
//! degree, wedge, claw and PLE sums. Total: O(Σ deg at insertion + T·n), against
//! O(T·(E log E + n)) for `GraphStats::compute(&Snapshot::accumulated(..))`
//! at every `t`.
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
use tg_graph::{NodeId, TemporalEdge, TemporalGraph};

/// Iterator over the [`GraphStats`] of a temporal graph's accumulated
/// snapshots: item `t` equals
/// `GraphStats::compute(&Snapshot::accumulated(g, t, true))`.
pub struct CumulativeStats<'g> {
    graph: &'g TemporalGraph,
    /// Next timestamp to ingest.
    t: usize,
    /// Sorted undirected simple adjacency of the edges ingested so far.
    adj: Vec<Vec<NodeId>>,
    triangles: u64,
    components: UnionFind,
    /// `ln_ratio[d] == (d as f64 / ln_ratio_d_min as f64).ln()`.
    ln_ratio: Vec<f64>,
    ln_ratio_d_min: usize,
}

impl<'g> CumulativeStats<'g> {
    /// Start before the first timestamp of `graph`.
    pub fn new(graph: &'g TemporalGraph) -> Self {
        let n = graph.n_nodes();
        // each list sized once, to its node's incident non-self-loop edge
        // count: an upper bound on its final degree, 8 B per edge in all
        let mut incident = vec![0usize; n];
        for e in graph.edges().iter().filter(|e| e.u != e.v) {
            incident[e.u as usize] += 1;
            incident[e.v as usize] += 1;
        }
        CumulativeStats {
            graph,
            t: 0,
            adj: incident.into_iter().map(Vec::with_capacity).collect(),
            triangles: 0,
            components: UnionFind::new(n),
            ln_ratio: Vec::new(),
            ln_ratio_d_min: 0,
        }
    }

    fn ingest(&mut self, edges: &[TemporalEdge]) {
        for e in edges {
            if e.u == e.v {
                continue;
            }
            let Err(at_u) = self.adj[e.u as usize].binary_search(&e.v) else {
                continue;
            };
            self.triangles += common_neighbors(&self.adj[e.u as usize], &self.adj[e.v as usize]);
            self.adj[e.u as usize].insert(at_u, e.v);
            let nv = &mut self.adj[e.v as usize];
            let at_v = nv.partition_point(|&x| x < e.u);
            nv.insert(at_v, e.u);
            self.components.union(e.u, e.v);
        }
    }

    fn stats(&mut self) -> GraphStats {
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

impl Iterator for CumulativeStats<'_> {
    type Item = GraphStats;

    fn next(&mut self) -> Option<GraphStats> {
        if self.t >= self.graph.n_timestamps() {
            return None;
        }
        let graph = self.graph;
        self.ingest(graph.edges_at(self.t as u32));
        self.t += 1;
        Some(self.stats())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.graph.n_timestamps() - self.t;
        (left, Some(left))
    }
}

/// `|a ∩ b|` for two sorted duplicate-free lists: walk the shorter one and
/// binary-search the unvisited tail of the longer, so intersecting a
/// leaf's list with a hub's costs O(log deg(hub)), not O(deg(hub)).
fn common_neighbors(a: &[NodeId], b: &[NodeId]) -> u64 {
    let (short, mut long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut common = 0u64;
    for x in short {
        match long.binary_search(x) {
            Ok(i) => {
                common += 1;
                long = &long[i + 1..];
            }
            Err(i) => long = &long[i..],
        }
    }
    common
}

#[cfg(test)]
mod tests {
    use super::common_neighbors;

    // the accumulator itself is tested against the batch oracle in
    // `tests/cumulative.rs`

    #[test]
    fn common_neighbors_counts_the_intersection() {
        assert_eq!(common_neighbors(&[], &[1, 2]), 0);
        assert_eq!(common_neighbors(&[1, 3, 5, 9], &[0, 3, 4, 9, 11]), 2);
        assert_eq!(common_neighbors(&[7], &[1, 2, 3, 7]), 1);
        assert_eq!(common_neighbors(&[2, 4], &[2, 4]), 2);
    }
}
