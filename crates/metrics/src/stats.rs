//! The seven graph statistics of Table III, computed on the undirected
//! simple view of a snapshot.
//!
//! | Metric        | Computation                              | Arithmetic                  |
//! |---------------|------------------------------------------|-----------------------------|
//! | Mean Degree   | `E[d(v)]`                                | exact `Σ d`, one division   |
//! | Wedge Count   | `Σ_v C(d(v), 2)`                         | exact `u128`, rounded once  |
//! | Claw Count    | `Σ_v C(d(v), 3)`                         | exact `u128`, rounded once  |
//! | Triangle Count| `trace(A^3)/6` (counted combinatorially) | exact `u64`                 |
//! | LCC           | size of the largest connected component  | exact                       |
//! | PLE           | `1 + n' (Σ_v ln(d(v)/d_min))^-1` (MLE)   | `f64` sum in node order     |
//! | N-Component   | number of connected components           | exact                       |
//!
//! Every statistic but PLE is an integer (or a ratio of two) converted
//! to `f64` once, so any way of counting it gives the same bits. Wedges
//! and claws are the correctly rounded counts at any size. An `f64` sum
//! of `d (d−1) (d−2) / 6.0` per node gives the same bits only while every
//! term and partial sum is an integer below 2⁵³, as on every Table II
//! preset; past that (a product at degree ~208,000, or the total) it
//! rounds, and the total's rounding depends on the node order.

use crate::union_find::UnionFind;
use serde::{Deserialize, Serialize};
use tg_graph::Snapshot;

/// Which Table III statistic to compute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MetricKind {
    MeanDegree,
    Lcc,
    WedgeCount,
    ClawCount,
    TriangleCount,
    Ple,
    NComponents,
}

impl MetricKind {
    /// All seven metrics in the paper's table order.
    pub const ALL: [MetricKind; 7] = [
        MetricKind::MeanDegree,
        MetricKind::Lcc,
        MetricKind::WedgeCount,
        MetricKind::ClawCount,
        MetricKind::TriangleCount,
        MetricKind::Ple,
        MetricKind::NComponents,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::MeanDegree => "Mean Degree",
            MetricKind::Lcc => "LCC",
            MetricKind::WedgeCount => "Wedge Count",
            MetricKind::ClawCount => "Claw Count",
            MetricKind::TriangleCount => "Triangle Count",
            MetricKind::Ple => "PLE",
            MetricKind::NComponents => "N-Components",
        }
    }

    /// Compute this statistic on a snapshot.
    pub fn compute(self, s: &Snapshot) -> f64 {
        let stats = GraphStats::compute(s);
        stats.get(self)
    }
}

/// All seven statistics computed in one pass over the snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    pub mean_degree: f64,
    pub lcc: f64,
    pub wedge_count: f64,
    pub claw_count: f64,
    pub triangle_count: f64,
    pub ple: f64,
    pub n_components: f64,
}

impl GraphStats {
    /// Compute every Table III statistic for one snapshot.
    pub fn compute(s: &Snapshot) -> GraphStats {
        let adj = s.undirected_adjacency();
        let n = s.n_nodes();
        let degrees: Vec<usize> = adj.iter().map(|a| a.len()).collect();

        let deg_sum: usize = degrees.iter().sum();
        let mean_degree = if n == 0 {
            0.0
        } else {
            deg_sum as f64 / n as f64
        };

        let wedge: u128 = degrees.iter().map(|&d| choose2(d)).sum();
        let claw: u128 = degrees.iter().map(|&d| choose3(d)).sum();

        let triangle_count = count_triangles(&adj) as f64;

        let mut uf = UnionFind::new(n);
        for (u, nbrs) in adj.iter().enumerate() {
            for &v in nbrs {
                if (v as usize) > u {
                    uf.union(u as u32, v);
                }
            }
        }
        let lcc = uf.largest_component() as f64;
        let n_components = uf.n_components() as f64;

        let ple = power_law_exponent(&degrees);

        GraphStats {
            mean_degree,
            lcc,
            wedge_count: wedge as f64,
            claw_count: claw as f64,
            triangle_count,
            ple,
            n_components,
        }
    }

    /// Select one statistic by kind.
    pub fn get(&self, kind: MetricKind) -> f64 {
        match kind {
            MetricKind::MeanDegree => self.mean_degree,
            MetricKind::Lcc => self.lcc,
            MetricKind::WedgeCount => self.wedge_count,
            MetricKind::ClawCount => self.claw_count,
            MetricKind::TriangleCount => self.triangle_count,
            MetricKind::Ple => self.ple,
            MetricKind::NComponents => self.n_components,
        }
    }

    /// All seven values in [`MetricKind::ALL`] order.
    pub fn as_array(&self) -> [f64; 7] {
        [
            self.mean_degree,
            self.lcc,
            self.wedge_count,
            self.claw_count,
            self.triangle_count,
            self.ple,
            self.n_components,
        ]
    }
}

/// `C(d, 2)`, the wedges centred on a node of degree `d`, exactly.
pub(crate) fn choose2(d: usize) -> u128 {
    let d = d as u128;
    d * d.saturating_sub(1) / 2
}

/// `C(d, 3)`, the claws centred on a node of degree `d`, exactly.
pub(crate) fn choose3(d: usize) -> u128 {
    let d = d as u128;
    d * d.saturating_sub(1) * d.saturating_sub(2) / 6
}

/// Exact triangle count on a sorted undirected adjacency (each triangle
/// counted once). Classic edge-iterator with sorted-intersection.
pub fn count_triangles(adj: &[Vec<u32>]) -> u64 {
    let mut count = 0u64;
    for (u, nbrs) in adj.iter().enumerate() {
        let u = u as u32;
        for &v in nbrs {
            if v <= u {
                continue;
            }
            // count w > v adjacent to both u and v
            count += intersect_above(&adj[u as usize], &adj[v as usize], v);
        }
    }
    count
}

/// Count common elements of two sorted lists strictly greater than `floor`.
fn intersect_above(a: &[u32], b: &[u32], floor: u32) -> u64 {
    let mut i = a.partition_point(|&x| x <= floor);
    let mut j = b.partition_point(|&x| x <= floor);
    let mut c = 0u64;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Maximum-likelihood power-law exponent over positive-degree nodes
/// (Table III): `1 + n' / Σ ln(d / d_min)`.
pub fn power_law_exponent(degrees: &[usize]) -> f64 {
    let positive: Vec<f64> = degrees
        .iter()
        .filter(|&&d| d > 0)
        .map(|&d| d as f64)
        .collect();
    if positive.is_empty() {
        return 1.0;
    }
    let d_min = positive.iter().cloned().fold(f64::INFINITY, f64::min);
    let log_sum: f64 = positive.iter().map(|&d| (d / d_min).ln()).sum();
    ple_from_log_sum(positive.len(), log_sum)
}

/// The closing step of the PLE estimator, shared with the incremental
/// accumulator: `1 + n' / Σ ln(d / d_min)` over `n' > 0` positive-degree
/// nodes, with the degenerate all-degrees-equal case (`Σ ≈ 0`) mapped to
/// a large-but-finite exponent.
pub(crate) fn ple_from_log_sum(n_positive: usize, log_sum: f64) -> f64 {
    1.0 + n_positive as f64 / log_sum.max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_graph::Snapshot;

    /// K4: every pair connected.
    fn k4() -> Snapshot {
        let mut pairs = Vec::new();
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                pairs.push((u, v));
            }
        }
        Snapshot::from_pairs(4, &pairs, true)
    }

    /// Path 0-1-2-3 plus isolated node 4.
    fn path_plus_isolate() -> Snapshot {
        Snapshot::from_pairs(5, &[(0, 1), (1, 2), (2, 3)], true)
    }

    #[test]
    fn k4_statistics() {
        let s = GraphStats::compute(&k4());
        assert_eq!(s.mean_degree, 3.0);
        assert_eq!(s.wedge_count, 4.0 * 3.0); // C(3,2)=3 per node
        assert_eq!(s.claw_count, 4.0); // C(3,3)=1 per node
        assert_eq!(s.triangle_count, 4.0); // C(4,3)
        assert_eq!(s.lcc, 4.0);
        assert_eq!(s.n_components, 1.0);
    }

    #[test]
    fn path_statistics() {
        let s = GraphStats::compute(&path_plus_isolate());
        assert!((s.mean_degree - 6.0 / 5.0).abs() < 1e-12);
        assert_eq!(s.wedge_count, 2.0); // two middle nodes with d=2
        assert_eq!(s.claw_count, 0.0);
        assert_eq!(s.triangle_count, 0.0);
        assert_eq!(s.lcc, 4.0);
        assert_eq!(s.n_components, 2.0); // path + isolate
    }

    #[test]
    fn triangle_count_on_two_sharing_edge() {
        // triangles {0,1,2} and {0,1,3}
        let s = Snapshot::from_pairs(4, &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)], true);
        assert_eq!(GraphStats::compute(&s).triangle_count, 2.0);
    }

    #[test]
    fn triangle_count_ignores_direction_and_multiplicity() {
        let s = Snapshot::from_pairs(3, &[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (0, 2)], false);
        assert_eq!(GraphStats::compute(&s).triangle_count, 1.0);
    }

    #[test]
    fn ple_star_vs_regular() {
        // star: one hub degree n-1, leaves degree 1 -> low exponent;
        // near-regular ring -> degenerate/huge exponent.
        let star: Vec<(u32, u32)> = (1..20u32).map(|v| (0, v)).collect();
        let s_star = Snapshot::from_pairs(20, &star, true);
        let ring: Vec<(u32, u32)> = (0..20u32).map(|v| (v, (v + 1) % 20)).collect();
        let s_ring = Snapshot::from_pairs(20, &ring, true);
        let p_star = GraphStats::compute(&s_star).ple;
        let p_ring = GraphStats::compute(&s_ring).ple;
        assert!(p_star < p_ring, "star {p_star} ring {p_ring}");
        assert!(p_star > 1.0);
    }

    /// Past 2⁵³ the `f64` product `d (d−1) (d−2)` rounds; the count does
    /// not, and converts to the correctly rounded `C(d, 3)`.
    #[test]
    fn claw_count_of_a_huge_degree_is_exact() {
        let f64_chain = |d: f64| d * (d - 1.0) * (d - 2.0) / 6.0;
        for (d, exact) in [
            (300_000usize, 4_499_955_000_100_000u128),
            (300_007, 4_500_270_005_350_035),
        ] {
            assert!((d * (d - 1) * (d - 2)) as f64 > 2f64.powi(53));
            assert_eq!(choose3(d), exact);
            assert_eq!((choose3(d) as f64).to_bits(), (exact as f64).to_bits());
        }
        // the chain the exact count replaced is half a claw low at 300,007
        assert_eq!(f64_chain(300_007.0), 4_500_270_005_350_034.5);
        assert_eq!(choose2(300_000), 44_999_850_000);
    }

    #[test]
    fn metric_kind_dispatch_matches_struct() {
        let snap = k4();
        let stats = GraphStats::compute(&snap);
        for (k, v) in MetricKind::ALL.iter().zip(stats.as_array()) {
            assert_eq!(k.compute(&snap), v, "{}", k.name());
        }
    }

    #[test]
    fn empty_graph_is_safe() {
        let s = Snapshot::from_pairs(0, &[], true);
        let stats = GraphStats::compute(&s);
        assert_eq!(stats.mean_degree, 0.0);
        assert_eq!(stats.n_components, 0.0);
    }
}
