//! Initial temporal-node sampling (paper §IV-B, Eq. 2).
//!
//! The sampling population is the set of occurring temporal nodes `(v, t)`
//! (node with at least one incident edge at `t`). The paper weights the
//! draw by temporal degree — `P(u^t) = deg(u^t) / Σ deg` — so training
//! prioritises the local structure of representative nodes; the TGAE-n
//! ablation switches to a uniform draw.

use rand::Rng;
use tg_graph::{NodeId, TemporalGraph, Time};

/// Pre-computed sampling population with cumulative weights for O(log n)
/// categorical draws.
pub struct InitialNodeSampler {
    population: Vec<(NodeId, Time)>,
    /// Cumulative degree weights (degree-weighted mode).
    cum_weights: Vec<f64>,
    degree_weighted: bool,
}

impl InitialNodeSampler {
    /// Build the sampler from a temporal graph: its
    /// [`TemporalGraph::temporal_nodes`], in `(v, t)` order, with the
    /// cumulative degree weights accumulated in that order.
    pub fn new(g: &TemporalGraph, degree_weighted: bool) -> Self {
        // Counted first so both vectors, held through training, are
        // allocated once at their exact size.
        let len = g.temporal_nodes().count();
        let mut population = Vec::with_capacity(len);
        let mut cum_weights = Vec::with_capacity(len);
        let mut acc = 0.0f64;
        for (v, t, d) in g.temporal_nodes() {
            population.push((v, t));
            acc += d as f64;
            cum_weights.push(acc);
        }
        InitialNodeSampler {
            population,
            cum_weights,
            degree_weighted,
        }
    }

    /// Number of occurring temporal nodes.
    pub fn population_size(&self) -> usize {
        self.population.len()
    }

    /// The full population (sorted by `(v, t)`).
    pub fn population(&self) -> &[(NodeId, Time)] {
        &self.population
    }

    /// Draw one temporal node.
    pub fn sample_one<R: Rng + ?Sized>(&self, rng: &mut R) -> (NodeId, Time) {
        assert!(!self.population.is_empty(), "empty sampling population");
        if self.degree_weighted {
            #[expect(
                clippy::expect_used,
                reason = "the assert above rejects an empty population"
            )]
            let total = *self.cum_weights.last().expect("non-empty");
            let u = rng.gen::<f64>() * total;
            let idx = self
                .cum_weights
                .partition_point(|&c| c < u)
                .min(self.population.len() - 1);
            self.population[idx]
        } else {
            self.population[rng.gen_range(0..self.population.len())]
        }
    }

    /// Draw `n_s` temporal nodes with replacement, then deduplicate —
    /// the per-epoch initial set `~V_s` (duplicates would be redundant
    /// slots in the merged computation graph).
    pub fn sample_batch<R: Rng + ?Sized>(&self, n_s: usize, rng: &mut R) -> Vec<(NodeId, Time)> {
        let mut batch: Vec<(NodeId, Time)> = (0..n_s).map(|_| self.sample_one(rng)).collect();
        batch.sort_unstable();
        batch.dedup();
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tg_graph::TemporalEdge;

    /// Hub graph: node 0 touches everything at t=0; plus one remote edge.
    fn hub_graph() -> TemporalGraph {
        let mut edges: Vec<TemporalEdge> = (1..=10).map(|v| TemporalEdge::new(0, v, 0)).collect();
        edges.push(TemporalEdge::new(11, 12, 1));
        TemporalGraph::from_edges(13, 2, edges)
    }

    #[test]
    fn population_counts_occurrences() {
        let s = InitialNodeSampler::new(&hub_graph(), true);
        // t=0: nodes 0..=10 occur (11); t=1: nodes 11,12 (2)
        assert_eq!(s.population_size(), 13);
    }

    #[test]
    fn degree_weighting_prefers_hub() {
        let g = hub_graph();
        let s = InitialNodeSampler::new(&g, true);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut hub_hits = 0;
        let n = 5000;
        for _ in 0..n {
            let (v, t) = s.sample_one(&mut rng);
            if v == 0 && t == 0 {
                hub_hits += 1;
            }
        }
        // hub has degree 10 of total degree 2*11=22 -> expect ~45%
        let frac = hub_hits as f64 / n as f64;
        assert!((0.35..0.55).contains(&frac), "hub fraction {frac}");
    }

    #[test]
    fn uniform_mode_is_flat() {
        let g = hub_graph();
        let s = InitialNodeSampler::new(&g, false);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut hub_hits = 0;
        let n = 5000;
        for _ in 0..n {
            let (v, t) = s.sample_one(&mut rng);
            if v == 0 && t == 0 {
                hub_hits += 1;
            }
        }
        let frac = hub_hits as f64 / n as f64;
        // 1 of 13 population entries ~ 7.7%
        assert!((0.04..0.12).contains(&frac), "hub fraction {frac}");
    }

    #[test]
    fn batch_dedups() {
        let g = hub_graph();
        let s = InitialNodeSampler::new(&g, true);
        let mut rng = SmallRng::seed_from_u64(2);
        let batch = s.sample_batch(200, &mut rng);
        assert!(batch.len() <= 13);
        let mut sorted = batch.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), batch.len());
    }

    #[test]
    fn batch_only_contains_occurring_nodes() {
        let g = hub_graph();
        let s = InitialNodeSampler::new(&g, true);
        let mut rng = SmallRng::seed_from_u64(3);
        for (v, t) in s.sample_batch(50, &mut rng) {
            assert!(
                g.temporal_degree(v, t) > 0,
                "({v},{t}) has no incident edges"
            );
        }
    }
}
