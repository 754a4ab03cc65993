//! The per-node steps of Algorithm 1 of the paper.
//!
//! [`temporal_neighbor_occurrences_into`] is a temporal node's neighborhood
//! (Def. 3); `NodeSampling` ([`node_sampling_in`]) truncates it to at most
//! `th` nodes by sampling with replacement, so dense hubs don't explode
//! the ego-graph. `k-EgoGraph`'s recursive expansion is
//! [`crate::ComputationGraph::build`], which runs it for a whole batch of
//! centers at once. With `th < 2` each ego-graph degenerates into a
//! temporal random walk (the TGAE-g variant).

use rand::Rng;
use tg_graph::{NodeId, TemporalGraph, Time};

/// The temporal neighborhood `N(v^t)` of Def. 3 with `d_N = 1`: occurrences
/// `(u, t')` adjacent to `v` (either direction) with `|t - t'| <= t_n`,
/// deduplicated and sorted, into `out`, a buffer the caller reuses across
/// temporal nodes (whatever it held is discarded).
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
///
/// A set that fits is returned as it is (and `rng` is not touched); the
/// draws of one that does not are left in `draws`, a buffer the caller
/// reuses.
pub fn node_sampling_in<'a, R: Rng + ?Sized, T: Copy + Ord>(
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tg_graph::TemporalEdge;

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
        let mut occ = vec![(9, 9)];
        temporal_neighbor_occurrences_into(&g, 0, 0, 0, &mut occ);
        assert_eq!(occ, vec![(1, 0)]);
        temporal_neighbor_occurrences_into(&g, 0, 1, 1, &mut occ);
        assert_eq!(occ, vec![(1, 0), (2, 2)]);
        temporal_neighbor_occurrences_into(&g, 0, 2, 1, &mut occ);
        assert_eq!(occ, vec![(1, 3), (2, 2)]);
    }

    #[test]
    fn node_sampling_under_threshold_keeps_all() {
        let mut rng = SmallRng::seed_from_u64(0);
        let set = vec![1, 2, 3];
        let mut draws = Vec::new();
        assert_eq!(node_sampling_in(&set, 5, &mut rng, &mut draws), set);
        assert_eq!(node_sampling_in(&set, 3, &mut rng, &mut draws), set);
    }

    #[test]
    fn node_sampling_truncates_to_threshold() {
        let mut rng = SmallRng::seed_from_u64(1);
        let set: Vec<u32> = (0..100).collect();
        let mut draws = Vec::new();
        for _ in 0..10 {
            let picked = node_sampling_in(&set, 7, &mut rng, &mut draws);
            assert!(picked.len() <= 7);
            assert!(!picked.is_empty());
            assert!(picked.iter().all(|x| set.contains(x)));
        }
    }
}
