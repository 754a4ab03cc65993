//! k-radius temporal ego-graph sampling — Algorithm 1 of the paper.
//!
//! `NodeSampling` truncates a neighbor set to at most `th` nodes by
//! sampling with replacement (so dense hubs don't explode the ego-graph);
//! `k-EgoGraph` recursively expands the temporal neighborhood around a
//! center temporal node. With `th < 2` the ego-graph degenerates into a
//! temporal random walk (the TGAE-g variant).

use crate::config::SamplerConfig;
use crate::intern::SlotTable;
use rand::Rng;
use tg_graph::{NodeId, TemporalGraph, Time};

/// The temporal neighborhood `N(v^t)` of Def. 3 with `d_N = 1`: occurrences
/// `(u, t')` adjacent to `v` (either direction) with `|t - t'| <= t_n`,
/// deduplicated and sorted.
pub fn temporal_neighbor_occurrences(
    g: &TemporalGraph,
    v: NodeId,
    t: Time,
    t_n: Time,
) -> Vec<(NodeId, Time)> {
    let mut out = Vec::new();
    temporal_neighbor_occurrences_into(g, v, t, t_n, &mut out);
    out
}

/// [`temporal_neighbor_occurrences`] into a buffer the caller reuses
/// across temporal nodes (whatever it held is discarded).
pub fn temporal_neighbor_occurrences_into(
    g: &TemporalGraph,
    v: NodeId,
    t: Time,
    t_n: Time,
    out: &mut Vec<(NodeId, Time)>,
) {
    out.clear();
    out.extend(g.incident_within(v, t, t_n));
    out.sort_unstable();
    out.dedup();
}

/// Algorithm 1's `NodeSampling`: keep the whole set when it fits under the
/// threshold, otherwise draw `threshold` samples with replacement and
/// deduplicate (yielding at most `threshold` distinct nodes).
pub fn node_sampling<R: Rng + ?Sized, T: Copy + Ord>(
    nodeset: &[T],
    threshold: usize,
    rng: &mut R,
) -> Vec<T> {
    node_sampling_in(nodeset, threshold, rng, &mut Vec::new()).to_vec()
}

/// [`node_sampling`] without a copy: a set that fits under the threshold
/// is returned as it is (and `rng` is not touched); the draws of one that
/// does not are left in `draws`, a buffer the caller reuses.
pub(crate) fn node_sampling_in<'a, R: Rng + ?Sized, T: Copy + Ord>(
    nodeset: &'a [T],
    threshold: usize,
    rng: &mut R,
    draws: &'a mut Vec<T>,
) -> &'a [T] {
    if nodeset.len() <= threshold {
        return nodeset;
    }
    draws.clear();
    draws.extend((0..threshold).map(|_| nodeset[rng.gen_range(0..nodeset.len())]));
    draws.sort_unstable();
    draws.dedup();
    draws
}

/// A sampled k-radius temporal ego-graph: the sampling tree rooted at the
/// center, with per-node depth. Node 0 is always the center.
#[derive(Clone, Debug)]
pub struct EgoGraph {
    /// Temporal nodes, center first.
    pub nodes: Vec<(NodeId, Time)>,
    /// Depth (hop distance from the center along the sampling tree).
    pub depth: Vec<u8>,
    /// Sampling-tree edges `(parent_idx, child_idx)` into `nodes`.
    pub tree_edges: Vec<(u32, u32)>,
}

impl EgoGraph {
    /// Number of temporal nodes in the ego-graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the ego-graph has no nodes (never the case for sampled
    /// ego-graphs, which always contain their center).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The center temporal node.
    pub fn center(&self) -> (NodeId, Time) {
        self.nodes[0]
    }

    /// Maximum depth present.
    pub fn radius(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0) as usize
    }
}

/// Algorithm 1's `k-EgoGraph`: sample the ego-graph of `(v, t)` with radius
/// `cfg.k`, truncation `cfg.threshold`, and time window `cfg.time_window`.
/// Nodes reached by several tree paths are kept once (first depth wins).
/// The center must be a node of `g`.
pub fn sample_ego_graph<R: Rng + ?Sized>(
    g: &TemporalGraph,
    center: (NodeId, Time),
    cfg: &SamplerConfig,
    rng: &mut R,
) -> EgoGraph {
    assert!(
        (center.0 as usize) < g.n_nodes(),
        "center node {} out of range (< {})",
        center.0,
        g.n_nodes()
    );
    let mut nodes = Vec::new();
    let mut depth = vec![0u8];
    let mut tree_edges = Vec::new();
    let mut index = SlotTable::new(g.n_nodes());
    index.insert(center, &mut nodes);

    let mut frontier: Vec<u32> = vec![0];
    for d in 1..=cfg.k {
        let mut next_frontier = Vec::new();
        for &pi in &frontier {
            let (pv, pt) = nodes[pi as usize];
            let nbrs = temporal_neighbor_occurrences(g, pv, pt, cfg.time_window);
            for occ in node_sampling(&nbrs, cfg.threshold, rng) {
                let slot = index.find(occ, &nodes).unwrap_or_else(|| {
                    depth.push(d as u8);
                    next_frontier.push(nodes.len() as u32);
                    index.insert(occ, &mut nodes)
                });
                tree_edges.push((pi, slot));
            }
        }
        frontier = next_frontier;
        if frontier.is_empty() {
            break;
        }
    }
    EgoGraph {
        nodes,
        depth,
        tree_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tg_graph::TemporalEdge;

    fn star_graph(leaves: usize) -> TemporalGraph {
        let edges: Vec<TemporalEdge> = (1..=leaves)
            .map(|v| TemporalEdge::new(0, v as u32, 0))
            .collect();
        TemporalGraph::from_edges(leaves + 1, 1, edges)
    }

    #[test]
    fn neighbor_occurrences_window() {
        let g = TemporalGraph::from_edges(
            3,
            4,
            vec![
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(2, 0, 2),
                TemporalEdge::new(0, 1, 3),
            ],
        );
        assert_eq!(temporal_neighbor_occurrences(&g, 0, 0, 0), vec![(1, 0)]);
        assert_eq!(
            temporal_neighbor_occurrences(&g, 0, 1, 1),
            vec![(1, 0), (2, 2)]
        );
        assert_eq!(
            temporal_neighbor_occurrences(&g, 0, 2, 1),
            vec![(1, 3), (2, 2)]
        );
    }

    #[test]
    fn node_sampling_under_threshold_keeps_all() {
        let mut rng = SmallRng::seed_from_u64(0);
        let set = vec![1, 2, 3];
        assert_eq!(node_sampling(&set, 5, &mut rng), set);
        assert_eq!(node_sampling(&set, 3, &mut rng), set);
    }

    #[test]
    fn node_sampling_truncates_to_threshold() {
        let mut rng = SmallRng::seed_from_u64(1);
        let set: Vec<u32> = (0..100).collect();
        for _ in 0..10 {
            let picked = node_sampling(&set, 7, &mut rng);
            assert!(picked.len() <= 7);
            assert!(!picked.is_empty());
            assert!(picked.iter().all(|x| set.contains(x)));
        }
    }

    #[test]
    fn ego_graph_of_star_center() {
        let g = star_graph(5);
        let cfg = SamplerConfig {
            k: 1,
            threshold: 100,
            time_window: 0,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(2);
        let ego = sample_ego_graph(&g, (0, 0), &cfg, &mut rng);
        assert_eq!(ego.center(), (0, 0));
        assert_eq!(ego.len(), 6); // center + 5 leaves
        assert_eq!(ego.radius(), 1);
        assert_eq!(ego.tree_edges.len(), 5);
    }

    #[test]
    fn ego_graph_radius_two_reaches_leaves_from_leaf() {
        let g = star_graph(5);
        let cfg = SamplerConfig {
            k: 2,
            threshold: 100,
            time_window: 0,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(3);
        // center = leaf 1: depth 1 = hub, depth 2 = other leaves
        let ego = sample_ego_graph(&g, (1, 0), &cfg, &mut rng);
        assert_eq!(ego.len(), 6);
        assert_eq!(ego.radius(), 2);
        let hub_idx = ego.nodes.iter().position(|&(v, _)| v == 0).unwrap();
        assert_eq!(ego.depth[hub_idx], 1);
    }

    #[test]
    fn truncation_bounds_ego_size() {
        let g = star_graph(50);
        let cfg = SamplerConfig {
            k: 1,
            threshold: 5,
            time_window: 0,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(4);
        let ego = sample_ego_graph(&g, (0, 0), &cfg, &mut rng);
        assert!(ego.len() <= 6, "{}", ego.len());
    }

    #[test]
    fn random_walk_variant_is_a_chain() {
        // path graph: 0-1-2-3-4 all at t=0
        let edges: Vec<TemporalEdge> = (0..4).map(|i| TemporalEdge::new(i, i + 1, 0)).collect();
        let g = TemporalGraph::from_edges(5, 1, edges);
        let cfg = SamplerConfig {
            k: 3,
            threshold: 1,
            time_window: 0,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let ego = sample_ego_graph(&g, (0, 0), &cfg, &mut rng);
        // chain: every depth level has at most 1 new node
        for d in 1..=3u8 {
            assert!(
                ego.depth.iter().filter(|&&x| x == d).count() <= 1,
                "depth {d}"
            );
        }
    }

    #[test]
    fn isolated_center_yields_singleton() {
        let g = TemporalGraph::from_edges(3, 2, vec![TemporalEdge::new(0, 1, 0)]);
        let cfg = SamplerConfig::default();
        let mut rng = SmallRng::seed_from_u64(6);
        let ego = sample_ego_graph(&g, (2, 1), &cfg, &mut rng);
        assert_eq!(ego.len(), 1);
        assert_eq!(ego.tree_edges.len(), 0);
    }
}
