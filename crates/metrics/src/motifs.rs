//! δ-temporal motif census: all 2- and 3-node, 3-edge temporal motifs
//! (Paranjape, Benson & Leskovec, WSDM'17 — the paper's reference \[43\]).
//!
//! A motif instance is an ordered triple of edges `(e1, e2, e3)` with
//! non-decreasing timestamps (ties broken by edge index), spanning at most
//! three distinct nodes, whose time span satisfies `t3 - t1 <= δ`.
//! Canonicalising node labels by first appearance (first edge is always
//! `0 -> 1`) yields exactly **36 motif classes** — the 6x6 grid of the
//! reference paper: 6 choices for the second edge times 6 for the third.
//!
//! Two counters are provided:
//! - [`count_motifs`] — exact, adjacency-driven: for each anchor edge it
//!   only touches window edges incident to the anchor's endpoints.
//! - [`count_motifs_sampled`] — anchors a random subset of edges and
//!   rescales; an unbiased estimator of the census used on large/bursty
//!   graphs where the exact count is not worth the time.
//!
//! The brute-force reference enumerator lives in the test module and
//! cross-validates the adjacency-driven counter on random graphs.

use rand::Rng;
use serde::{Deserialize, Serialize};
use tg_graph::TemporalGraph;

/// Number of distinct 2-/3-node 3-edge motif classes.
pub const N_MOTIFS: usize = 36;

/// Edge-label codes: pairs over labels {0,1,2}, excluding self-loops, in a
/// fixed canonical order.
const EDGE_CODES: [(u8, u8); 6] = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)];

fn edge_code_index(u: u8, v: u8) -> usize {
    match (u, v) {
        (0, 1) => 0,
        (1, 0) => 1,
        (0, 2) => 2,
        (2, 0) => 3,
        (1, 2) => 4,
        (2, 1) => 5,
        _ => unreachable!("invalid label pair ({u},{v})"),
    }
}

/// Census of the 36 motif classes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MotifCensus {
    /// `counts[c2 * 6 + c3]` where `c2`/`c3` are canonical edge-code
    /// indices of the second and third edges. Always length [`N_MOTIFS`].
    pub counts: Vec<u64>,
}

impl Default for MotifCensus {
    fn default() -> Self {
        MotifCensus {
            counts: vec![0; N_MOTIFS],
        }
    }
}

impl MotifCensus {
    /// Total instances counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Normalised motif distribution (all zeros if nothing was counted).
    pub fn distribution(&self) -> Vec<f64> {
        let total = self.total();
        let mut out = vec![0.0; N_MOTIFS];
        if total > 0 {
            for (o, &c) in out.iter_mut().zip(&self.counts) {
                *o = c as f64 / total as f64;
            }
        }
        out
    }

    /// Human-readable class name, e.g. `(0->1)(1->0)(0->2)`.
    pub fn class_name(idx: usize) -> String {
        let (c2, c3) = (idx / 6, idx % 6);
        let fmt = |c: (u8, u8)| format!("({}->{})", c.0, c.1);
        format!("(0->1){}{}", fmt(EDGE_CODES[c2]), fmt(EDGE_CODES[c3]))
    }

    fn add(&mut self, c2: usize, c3: usize, weight: u64) {
        self.counts[c2 * 6 + c3] += weight;
    }
}

/// Label an endpoint under the map `a->0, b->1, c->2` where `c` is the
/// (optional) third node; returns `None` if the node is none of them.
#[inline]
fn label(x: u32, a: u32, b: u32, c: Option<u32>) -> Option<u8> {
    if x == a {
        Some(0)
    } else if x == b {
        Some(1)
    } else if Some(x) == c {
        Some(2)
    } else {
        None
    }
}

/// Label an endpoint of a second edge, which is incident to `a` or `b`:
/// `a->0`, `b->1`, and any other node `->2`, as that node is the `c`
/// the edge introduces.
#[inline]
fn label_e2(x: u32, a: u32, b: u32) -> u8 {
    if x == a {
        0
    } else if x == b {
        1
    } else {
        2
    }
}

struct EdgeRec {
    t: u64,
    u: u32,
    v: u32,
}

/// Shared machinery: count motifs anchored at the given edge indices.
fn count_anchored(
    edges: &[EdgeRec],
    incident: &[Vec<u32>],
    anchors: impl Iterator<Item = usize>,
    delta: u64,
    census: &mut MotifCensus,
) {
    let mut cand2: Vec<u32> = Vec::new();
    let mut cand3: Vec<u32> = Vec::new();
    for i in anchors {
        let e1 = &edges[i];
        let (a, b) = (e1.u, e1.v);
        let t_hi = e1.t.saturating_add(delta);
        // window candidates for the 2nd edge: incident to a or b, j > i
        cand2.clear();
        merge_window(
            edges,
            &incident[a as usize],
            &incident[b as usize],
            i,
            t_hi,
            &mut cand2,
        );
        for &j in cand2.iter() {
            let e2 = &edges[j as usize];
            // identify third node (if any) introduced by e2
            let c: Option<u32> = [e2.u, e2.v].into_iter().find(|&x| x != a && x != b);
            let c2 = edge_code_index(label_e2(e2.u, a, b), label_e2(e2.v, a, b));
            // window candidates for the 3rd edge
            cand3.clear();
            match c {
                Some(cn) => {
                    // 3 nodes fixed: e3 must have BOTH endpoints in {a,b,cn}
                    merge_window3(
                        edges,
                        &incident[a as usize],
                        &incident[b as usize],
                        &incident[cn as usize],
                        j as usize,
                        t_hi,
                        &mut cand3,
                    );
                    for &k in cand3.iter() {
                        let e3 = &edges[k as usize];
                        let (Some(l3u), Some(l3v)) = (label(e3.u, a, b, c), label(e3.v, a, b, c))
                        else {
                            continue;
                        };
                        census.add(c2, edge_code_index(l3u, l3v), 1);
                    }
                }
                None => {
                    // e2 within {a,b}: e3 may introduce the third node
                    merge_window(
                        edges,
                        &incident[a as usize],
                        &incident[b as usize],
                        j as usize,
                        t_hi,
                        &mut cand3,
                    );
                    for &k in cand3.iter() {
                        let e3 = &edges[k as usize];
                        let c3n: Option<u32> = [e3.u, e3.v].into_iter().find(|&x| x != a && x != b);
                        let (Some(l3u), Some(l3v)) =
                            (label(e3.u, a, b, c3n), label(e3.v, a, b, c3n))
                        else {
                            continue;
                        };
                        census.add(c2, edge_code_index(l3u, l3v), 1);
                    }
                }
            }
        }
    }
}

/// Sorted-merge of two incident lists, keeping indices `> lo` with
/// `t <= t_hi`, deduplicated.
fn merge_window(
    edges: &[EdgeRec],
    la: &[u32],
    lb: &[u32],
    lo: usize,
    t_hi: u64,
    out: &mut Vec<u32>,
) {
    let sa = upper_slice(edges, la, lo, t_hi);
    let sb = upper_slice(edges, lb, lo, t_hi);
    let (mut i, mut j) = (0, 0);
    while i < sa.len() || j < sb.len() {
        let next = match (sa.get(i), sb.get(j)) {
            (Some(&x), Some(&y)) => {
                if x == y {
                    i += 1;
                    j += 1;
                    x
                } else if x < y {
                    i += 1;
                    x
                } else {
                    j += 1;
                    y
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => break,
        };
        out.push(next);
    }
}

/// Three-way variant of [`merge_window`].
fn merge_window3(
    edges: &[EdgeRec],
    la: &[u32],
    lb: &[u32],
    lc: &[u32],
    lo: usize,
    t_hi: u64,
    out: &mut Vec<u32>,
) {
    let mut tmp: Vec<u32> = Vec::new();
    merge_window(edges, la, lb, lo, t_hi, &mut tmp);
    let sc = upper_slice(edges, lc, lo, t_hi);
    let (mut i, mut j) = (0, 0);
    while i < tmp.len() || j < sc.len() {
        let next = match (tmp.get(i), sc.get(j)) {
            (Some(&x), Some(&y)) => {
                if x == y {
                    i += 1;
                    j += 1;
                    x
                } else if x < y {
                    i += 1;
                    x
                } else {
                    j += 1;
                    y
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => break,
        };
        out.push(next);
    }
}

/// Sub-slice of an incident list with edge index `> lo` and time `<= t_hi`.
/// Incident lists are sorted by edge index, and edge index order is time
/// order, so both bounds are binary searches.
fn upper_slice<'a>(edges: &[EdgeRec], list: &'a [u32], lo: usize, t_hi: u64) -> &'a [u32] {
    let start = list.partition_point(|&e| (e as usize) <= lo);
    let end = list.partition_point(|&e| edges[e as usize].t <= t_hi);
    if start >= end {
        &[]
    } else {
        &list[start..end]
    }
}

fn prepare(g: &TemporalGraph) -> (Vec<EdgeRec>, Vec<Vec<u32>>) {
    // edges are already sorted by (t,u,v); keep that order as the tiebreak.
    let edges: Vec<EdgeRec> = g
        .edges()
        .iter()
        .filter(|e| e.u != e.v)
        .map(|e| EdgeRec {
            t: e.t as u64,
            u: e.u,
            v: e.v,
        })
        .collect();
    let mut incident: Vec<Vec<u32>> = vec![Vec::new(); g.n_nodes()];
    for (i, e) in edges.iter().enumerate() {
        incident[e.u as usize].push(i as u32);
        if e.v != e.u {
            incident[e.v as usize].push(i as u32);
        }
    }
    (edges, incident)
}

/// Exact census of all δ-temporal motifs in `g`.
pub fn count_motifs(g: &TemporalGraph, delta: u64) -> MotifCensus {
    let (edges, incident) = prepare(g);
    let mut census = MotifCensus::default();
    count_anchored(&edges, &incident, 0..edges.len(), delta, &mut census);
    census
}

/// Anchor-sampled census: pick `max_anchors` anchor edges uniformly at
/// random, count exactly for those anchors, and rescale by `m/max_anchors`.
/// Returns the exact census when `m <= max_anchors`.
pub fn count_motifs_sampled<R: Rng + ?Sized>(
    g: &TemporalGraph,
    delta: u64,
    max_anchors: usize,
    rng: &mut R,
) -> MotifCensus {
    let (edges, incident) = prepare(g);
    let m = edges.len();
    if m <= max_anchors {
        let mut census = MotifCensus::default();
        count_anchored(&edges, &incident, 0..m, delta, &mut census);
        return census;
    }
    // Floyd-ish sampling of distinct anchors
    let mut picked = std::collections::HashSet::with_capacity(max_anchors);
    while picked.len() < max_anchors {
        picked.insert(rng.gen_range(0..m));
    }
    let mut anchors: Vec<usize> = picked.into_iter().collect();
    anchors.sort_unstable();
    let mut census = MotifCensus::default();
    count_anchored(&edges, &incident, anchors.into_iter(), delta, &mut census);
    let scale = m as f64 / max_anchors as f64;
    for c in census.counts.iter_mut() {
        *c = (*c as f64 * scale).round() as u64;
    }
    census
}

/// Census per contiguous time chunk: splits `0..T` into `n_chunks` ranges
/// and counts motifs among edges inside each range. The resulting
/// distributions serve as the sample sets for the Table VI MMD.
pub fn census_per_chunk(g: &TemporalGraph, delta: u64, n_chunks: usize) -> Vec<MotifCensus> {
    assert!(n_chunks >= 1);
    let t_count = g.n_timestamps();
    let mut out = Vec::with_capacity(n_chunks);
    for c in 0..n_chunks {
        let lo = (c * t_count / n_chunks) as u32;
        let hi = (((c + 1) * t_count / n_chunks).max(c * t_count / n_chunks + 1)) as u32;
        let chunk_edges: Vec<tg_graph::TemporalEdge> = g
            .edges()
            .iter()
            .filter(|e| e.t >= lo && e.t < hi)
            .copied()
            .collect();
        let sub = TemporalGraph::from_edges(g.n_nodes(), t_count, chunk_edges);
        out.push(count_motifs(&sub, delta));
    }
    out
}

/// Sampled variant of [`census_per_chunk`]: each chunk census anchors at
/// most `max_anchors` edges (see [`count_motifs_sampled`]). Use on dense,
/// bursty graphs (EMAIL-like) where the exact census is quadratic in the
/// burst size.
pub fn census_per_chunk_sampled<R: Rng + ?Sized>(
    g: &TemporalGraph,
    delta: u64,
    n_chunks: usize,
    max_anchors: usize,
    rng: &mut R,
) -> Vec<MotifCensus> {
    assert!(n_chunks >= 1);
    let t_count = g.n_timestamps();
    let mut out = Vec::with_capacity(n_chunks);
    for c in 0..n_chunks {
        let lo = (c * t_count / n_chunks) as u32;
        let hi = (((c + 1) * t_count / n_chunks).max(c * t_count / n_chunks + 1)) as u32;
        let chunk_edges: Vec<tg_graph::TemporalEdge> = g
            .edges()
            .iter()
            .filter(|e| e.t >= lo && e.t < hi)
            .copied()
            .collect();
        let sub = TemporalGraph::from_edges(g.n_nodes(), t_count, chunk_edges);
        out.push(count_motifs_sampled(&sub, delta, max_anchors, rng));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tg_graph::TemporalEdge;

    /// Reference O(m^3) enumerator.
    fn brute_force(g: &TemporalGraph, delta: u64) -> MotifCensus {
        let edges: Vec<&TemporalEdge> = g.edges().iter().filter(|e| e.u != e.v).collect();
        let mut census = MotifCensus::default();
        let m = edges.len();
        for i in 0..m {
            for j in (i + 1)..m {
                for k in (j + 1)..m {
                    if (edges[k].t as u64) > edges[i].t as u64 + delta {
                        continue;
                    }
                    let mut nodes = vec![
                        edges[i].u, edges[i].v, edges[j].u, edges[j].v, edges[k].u, edges[k].v,
                    ];
                    nodes.sort_unstable();
                    nodes.dedup();
                    if nodes.len() > 3 {
                        continue;
                    }
                    // canonical labels by first appearance
                    let mut map: Vec<(u32, u8)> = Vec::new();
                    let get = |x: u32, map: &mut Vec<(u32, u8)>| -> u8 {
                        if let Some(&(_, l)) = map.iter().find(|&&(n, _)| n == x) {
                            l
                        } else {
                            let l = map.len() as u8;
                            map.push((x, l));
                            l
                        }
                    };
                    let _ = get(edges[i].u, &mut map);
                    let _ = get(edges[i].v, &mut map);
                    let c2u = get(edges[j].u, &mut map);
                    let c2v = get(edges[j].v, &mut map);
                    let c2 = edge_code_index(c2u, c2v);
                    let c3u = get(edges[k].u, &mut map);
                    let c3v = get(edges[k].v, &mut map);
                    let c3 = edge_code_index(c3u, c3v);
                    census.add(c2, c3, 1);
                }
            }
        }
        census
    }

    #[test]
    fn simple_triangle_sequence() {
        // edges 0->1 (t0), 1->2 (t1), 2->0 (t2): one cyclic triangle motif
        let g = TemporalGraph::from_edges(
            3,
            3,
            vec![
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(1, 2, 1),
                TemporalEdge::new(2, 0, 2),
            ],
        );
        let c = count_motifs(&g, 10);
        assert_eq!(c.total(), 1);
        // signature: (0->1)(1->2)(2->0) => c2=(1,2)=idx4, c3=(2,0)=idx3
        assert_eq!(c.counts[4 * 6 + 3], 1);
    }

    #[test]
    fn delta_window_excludes_spread_triples() {
        let g = TemporalGraph::from_edges(
            3,
            10,
            vec![
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(1, 2, 5),
                TemporalEdge::new(2, 0, 9),
            ],
        );
        assert_eq!(count_motifs(&g, 10).total(), 1);
        assert_eq!(count_motifs(&g, 8).total(), 0); // span 9 > 8
        assert_eq!(count_motifs(&g, 5).total(), 0);
    }

    #[test]
    fn two_node_repeat_motif() {
        // 0->1 three times: one motif (0->1)(0->1)(0->1) => c2=0, c3=0
        let g = TemporalGraph::from_edges(
            2,
            3,
            vec![
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(0, 1, 1),
                TemporalEdge::new(0, 1, 2),
            ],
        );
        let c = count_motifs(&g, 5);
        assert_eq!(c.total(), 1);
        assert_eq!(c.counts[0], 1);
    }

    #[test]
    fn four_node_triples_excluded() {
        let g = TemporalGraph::from_edges(
            4,
            3,
            vec![
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(1, 2, 1),
                TemporalEdge::new(2, 3, 2), // introduces 4th node in any triple
            ],
        );
        assert_eq!(count_motifs(&g, 10).total(), 0);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 8;
            let t_count = 6;
            let m = 30;
            let edges: Vec<TemporalEdge> = (0..m)
                .map(|_| {
                    let u = rng.gen_range(0..n as u32);
                    let mut v = rng.gen_range(0..n as u32);
                    while v == u {
                        v = rng.gen_range(0..n as u32);
                    }
                    TemporalEdge::new(u, v, rng.gen_range(0..t_count as u32))
                })
                .collect();
            let g = TemporalGraph::from_edges(n, t_count, edges);
            for delta in [0u64, 1, 2, 5] {
                let fast = count_motifs(&g, delta);
                let slow = brute_force(&g, delta);
                assert_eq!(fast, slow, "seed {seed} delta {delta}");
            }
        }
    }

    #[test]
    fn sampled_census_is_exact_when_anchors_cover() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = TemporalGraph::from_edges(
            4,
            4,
            vec![
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(1, 2, 1),
                TemporalEdge::new(2, 0, 2),
                TemporalEdge::new(0, 2, 3),
            ],
        );
        let exact = count_motifs(&g, 10);
        let sampled = count_motifs_sampled(&g, 10, 100, &mut rng);
        assert_eq!(exact, sampled);
    }

    #[test]
    fn sampled_census_estimates_total() {
        let mut rng = SmallRng::seed_from_u64(4);
        // bursty clique-ish graph with plenty of motifs
        let mut edges = Vec::new();
        for t in 0..30u32 {
            for (u, v) in [(0u32, 1u32), (1, 2), (2, 0), (0, 2)] {
                edges.push(TemporalEdge::new(u, v, t));
            }
        }
        let g = TemporalGraph::from_edges(3, 30, edges);
        let exact = count_motifs(&g, 3);
        let est = count_motifs_sampled(&g, 3, 40, &mut rng);
        let (a, b) = (exact.total() as f64, est.total() as f64);
        assert!((a - b).abs() / a < 0.5, "exact {a} est {b}");
    }

    #[test]
    fn distribution_normalises() {
        let g = TemporalGraph::from_edges(
            3,
            3,
            vec![
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(1, 0, 1),
                TemporalEdge::new(0, 1, 2),
            ],
        );
        let c = count_motifs(&g, 5);
        let d = c.distribution();
        let sum: f64 = d.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chunked_census_covers_all_chunks() {
        let mut edges = Vec::new();
        for t in 0..12u32 {
            edges.push(TemporalEdge::new(0, 1, t));
            edges.push(TemporalEdge::new(1, 2, t));
        }
        let g = TemporalGraph::from_edges(3, 12, edges);
        let per = census_per_chunk(&g, 2, 4);
        assert_eq!(per.len(), 4);
        assert!(per.iter().all(|c| c.total() > 0));
    }

    #[test]
    fn sampled_chunk_census_matches_exact_when_covering() {
        let mut edges = Vec::new();
        for t in 0..12u32 {
            edges.push(TemporalEdge::new(0, 1, t));
            edges.push(TemporalEdge::new(1, 2, t));
        }
        let g = TemporalGraph::from_edges(3, 12, edges);
        let exact = census_per_chunk(&g, 2, 3);
        let mut rng = SmallRng::seed_from_u64(8);
        let sampled = census_per_chunk_sampled(&g, 2, 3, 10_000, &mut rng);
        assert_eq!(exact, sampled);
    }

    #[test]
    fn class_names_are_distinct() {
        let mut names: Vec<String> = (0..N_MOTIFS).map(MotifCensus::class_name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), N_MOTIFS);
    }

    #[test]
    fn self_loops_ignored() {
        let g = TemporalGraph::from_edges(
            2,
            3,
            vec![
                TemporalEdge::new(0, 0, 0),
                TemporalEdge::new(0, 1, 1),
                TemporalEdge::new(1, 1, 2),
            ],
        );
        assert_eq!(count_motifs(&g, 10).total(), 0);
    }
}
