//! Initial temporal-node sampling (paper §IV-B, Eq. 2).
//!
//! The sampling population is the set of occurring temporal nodes `(v, t)`
//! (node with at least one incident edge at `t`). The paper weights the
//! draw by temporal degree — `P(u^t) = deg(u^t) / Σ deg` — so training
//! prioritises the local structure of representative nodes; the TGAE-n
//! ablation switches to a uniform draw.

use rand::Rng;
use tg_graph::source::{EdgeSource, InMemorySource};
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
    /// Build the sampler from a temporal graph. Equivalent to streaming
    /// the graph through [`InitialNodeSampler::from_source`] (the two
    /// constructions are regression-tested to produce bit-identical
    /// samplers).
    pub fn new(g: &TemporalGraph, degree_weighted: bool) -> Self {
        match Self::from_source(&mut InMemorySource::new(g), degree_weighted) {
            Ok(s) => s,
            Err(e) => match e {}, // Infallible
        }
    }

    /// Build the sampler by streaming per-timestamp chunks from any
    /// [`EdgeSource`] — the ingest-side twin of
    /// [`InitialNodeSampler::new`]. Because chunks arrive grouped by
    /// timestamp, temporal degrees accumulate in a dense per-node array
    /// whose touched entries are drained and zeroed as each timestamp
    /// closes, so the transient working set is one counter per node rather
    /// than `O(all temporal nodes)`; only the final population (which the
    /// sampler must hold anyway) grows with the graph. The array grows to
    /// the largest endpoint the stream carries, whatever the source
    /// declares.
    pub fn from_source<S: EdgeSource>(
        source: &mut S,
        degree_weighted: bool,
    ) -> Result<Self, S::Error> {
        let mut nodes: Vec<(NodeId, Time, usize)> = Vec::new();
        let mut degree: Vec<usize> = Vec::new();
        let mut touched: Vec<NodeId> = Vec::new();
        let mut close = |t: Time, degree: &mut [usize], touched: &mut Vec<NodeId>| {
            for v in touched.drain(..) {
                nodes.push((v, t, std::mem::take(&mut degree[v as usize])));
            }
        };
        let mut open_t: Time = 0;
        source.for_each_chunk(
            tg_graph::source::DEFAULT_CHUNK_EDGES,
            &mut |t, _c, edges| {
                if t != open_t {
                    close(open_t, &mut degree, &mut touched);
                    open_t = t;
                }
                for e in edges {
                    for v in [e.u, e.v] {
                        let i = v as usize;
                        if i >= degree.len() {
                            degree.resize(i + 1, 0);
                        }
                        if degree[i] == 0 {
                            touched.push(v);
                        }
                        degree[i] += 1;
                    }
                }
            },
        )?;
        close(open_t, &mut degree, &mut touched);
        // Same global order as `TemporalGraph::temporal_nodes` (sorted by
        // `(v, t)`), so the cumulative-weight accumulation below visits
        // entries in the identical sequence and the resulting sampler is
        // bit-identical to the in-memory construction.
        nodes.sort_unstable();
        let mut population = Vec::with_capacity(nodes.len());
        let mut cum_weights = Vec::with_capacity(nodes.len());
        let mut acc = 0.0f64;
        for (v, t, d) in nodes {
            population.push((v, t));
            acc += d as f64;
            cum_weights.push(acc);
        }
        Ok(InitialNodeSampler {
            population,
            cum_weights,
            degree_weighted,
        })
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
    fn from_source_is_bit_identical_to_new() {
        // The streamed (per-timestamp chunk) construction must reproduce
        // the in-memory one exactly: same population, and — because the
        // cumulative f64 weights accumulate in the same order — the same
        // draws from the same RNG stream.
        let g = hub_graph();
        for degree_weighted in [true, false] {
            let a = InitialNodeSampler::new(&g, degree_weighted);
            let b = InitialNodeSampler::from_source(&mut InMemorySource::new(&g), degree_weighted)
                .unwrap();
            assert_eq!(a.population(), b.population());
            let mut rng_a = SmallRng::seed_from_u64(11);
            let mut rng_b = SmallRng::seed_from_u64(11);
            assert_eq!(
                a.sample_batch(300, &mut rng_a),
                b.sample_batch(300, &mut rng_b)
            );
        }
    }

    #[test]
    fn from_source_counts_endpoints_past_the_declared_node_count() {
        struct UnderDeclared;
        impl EdgeSource for UnderDeclared {
            type Error = std::convert::Infallible;
            fn n_nodes(&self) -> usize {
                2
            }
            fn n_timestamps(&self) -> usize {
                2
            }
            fn n_edges(&self) -> u64 {
                2
            }
            fn for_each_chunk(
                &mut self,
                _max_chunk: usize,
                f: &mut dyn FnMut(Time, u32, &[TemporalEdge]),
            ) -> Result<(), Self::Error> {
                f(0, 0, &[TemporalEdge::new(0, 9, 0)]);
                f(1, 0, &[TemporalEdge::new(9, 9, 1)]);
                Ok(())
            }
        }
        let s = InitialNodeSampler::from_source(&mut UnderDeclared, true).unwrap();
        assert_eq!(s.population(), &[(0, 0), (9, 0), (9, 1)]);
        assert_eq!(s.cum_weights, vec![1.0, 2.0, 4.0]);
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
