//! Seeded synthetic temporal-graph generator.
//!
//! The paper evaluates on seven real networks (Table II) that cannot be
//! redistributed here. This module provides the substitute: a
//! configurable generator that produces temporal graphs
//! with the same observable character the evaluated methods are sensitive
//! to — heavy-tailed degrees (preferential attachment), community mixing,
//! temporal burstiness (edge re-firing within a recency window, which is
//! what creates δ-temporal motifs), and densification over time.
//!
//! Everything is driven by an explicit RNG, so a `(config, seed)` pair is a
//! reproducible dataset.

use rand::Rng;
use tg_graph::{TemporalEdge, TemporalGraph};

/// Configuration for [`generate`].
#[derive(Clone, Debug)]
pub struct SyntheticConfig {
    /// Number of nodes `n`.
    pub nodes: usize,
    /// Total temporal edges `m` across all timestamps.
    pub edges: usize,
    /// Number of timestamps `T`.
    pub timestamps: usize,
    /// Number of planted communities (>= 1).
    pub communities: usize,
    /// Probability an edge stays within its source's community.
    pub community_affinity: f64,
    /// Strength of preferential attachment: weight of a node is
    /// `degree + pa_smoothing`. Smaller smoothing => heavier tail.
    pub pa_smoothing: f64,
    /// Probability a new edge "re-fires" a recent edge (same pair, new
    /// timestamp) — produces bursts and temporal motifs.
    pub recency_repeat: f64,
    /// Size of the recent-edge pool used by `recency_repeat`.
    pub recency_window: usize,
    /// Exponent controlling per-timestamp edge volume: `m_t ∝ (t+1)^growth`.
    /// 0.0 gives a uniform profile; > 0 densifies over time.
    pub growth: f64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            nodes: 1000,
            edges: 5000,
            timestamps: 10,
            communities: 8,
            community_affinity: 0.8,
            pa_smoothing: 1.0,
            recency_repeat: 0.15,
            recency_window: 256,
            growth: 0.3,
        }
    }
}

impl SyntheticConfig {
    /// Scale node/edge counts by `f` (timestamps unchanged), clamping to
    /// sane minima. Used to run paper-scale presets at laptop scale.
    pub fn scaled(&self, f: f64) -> SyntheticConfig {
        let mut c = self.clone();
        c.nodes = ((self.nodes as f64 * f) as usize).max(16);
        c.edges = ((self.edges as f64 * f) as usize).max(32);
        c
    }
}

/// Deterministically generate a temporal graph from a config and RNG.
pub fn generate<R: Rng + ?Sized>(cfg: &SyntheticConfig, rng: &mut R) -> TemporalGraph {
    assert!(cfg.nodes >= 2, "need at least 2 nodes");
    assert!(cfg.timestamps >= 1);
    assert!(cfg.communities >= 1);
    let n = cfg.nodes;

    // Community assignment: round-robin gives near-equal sizes; node order
    // is already random under any downstream relabeling.
    let community: Vec<u32> = (0..n).map(|i| (i % cfg.communities) as u32).collect();
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); cfg.communities];
    for (i, &c) in community.iter().enumerate() {
        members[c as usize].push(i as u32);
    }

    // Per-timestamp edge budget: m_t ∝ (t+1)^growth, exactly m in total.
    let weights: Vec<f64> = (0..cfg.timestamps)
        .map(|t| ((t + 1) as f64).powf(cfg.growth))
        .collect();
    let wsum: f64 = weights.iter().sum();
    let mut budget: Vec<usize> = weights
        .iter()
        .map(|w| (w / wsum * cfg.edges as f64).floor() as usize)
        .collect();
    let mut assigned: usize = budget.iter().sum();
    let mut t_fix = 0usize;
    while assigned < cfg.edges {
        budget[t_fix % cfg.timestamps] += 1;
        assigned += 1;
        t_fix += 1;
    }

    let mut degree = vec![0f64; n];
    let mut recent: Vec<(u32, u32)> = Vec::with_capacity(cfg.recency_window);
    let mut edges = Vec::with_capacity(cfg.edges);

    // Weighted pick over all nodes by (degree + smoothing); O(n) per draw is
    // too slow for large m, so sample by rejection against the max weight.
    let mut max_w = cfg.pa_smoothing;
    let pick_global = |rng: &mut R, degree: &[f64], max_w: f64| -> u32 {
        loop {
            let i = rng.gen_range(0..n);
            let w = degree[i] + cfg.pa_smoothing;
            if rng.gen::<f64>() * max_w <= w {
                return i as u32;
            }
        }
    };

    for (t, &m_t) in budget.iter().enumerate() {
        for _ in 0..m_t {
            let (u, v) = if !recent.is_empty() && rng.gen::<f64>() < cfg.recency_repeat {
                // Re-fire a recent pair, occasionally reversed (reply edge):
                let &(a, b) = &recent[rng.gen_range(0..recent.len())];
                if rng.gen::<f64>() < 0.3 {
                    (b, a)
                } else {
                    (a, b)
                }
            } else {
                let u = pick_global(rng, &degree, max_w);
                // Retry target picks that self-loop so the per-timestamp edge
                // budget is met exactly; fall back to a uniform non-u node.
                let mut v = u;
                for attempt in 0..64 {
                    let cand = if attempt == 63 {
                        let mut c = rng.gen_range(0..n) as u32;
                        while c == u {
                            c = rng.gen_range(0..n) as u32;
                        }
                        c
                    } else if rng.gen::<f64>() < cfg.community_affinity {
                        // within-community preferential pick by rejection
                        let pool = &members[community[u as usize] as usize];
                        if pool.len() <= 1 {
                            pick_global(rng, &degree, max_w)
                        } else {
                            loop {
                                let cand = pool[rng.gen_range(0..pool.len())];
                                let w = degree[cand as usize] + cfg.pa_smoothing;
                                if rng.gen::<f64>() * max_w <= w {
                                    break cand;
                                }
                            }
                        }
                    } else {
                        pick_global(rng, &degree, max_w)
                    };
                    if cand != u {
                        v = cand;
                        break;
                    }
                }
                (u, v)
            };
            if u == v {
                continue; // unreachable in practice; kept as a guard
            }
            degree[u as usize] += 1.0;
            degree[v as usize] += 1.0;
            max_w = max_w.max(degree[u as usize] + cfg.pa_smoothing);
            max_w = max_w.max(degree[v as usize] + cfg.pa_smoothing);
            if recent.len() == cfg.recency_window && !recent.is_empty() {
                let slot = rng.gen_range(0..recent.len());
                recent[slot] = (u, v);
            } else {
                recent.push((u, v));
            }
            edges.push(TemporalEdge::new(u, v, t as u32));
        }
    }

    TemporalGraph::from_edges(n, cfg.timestamps, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn respects_sizes() {
        let cfg = SyntheticConfig {
            nodes: 200,
            edges: 1000,
            timestamps: 7,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generate(&cfg, &mut rng);
        assert_eq!(g.n_nodes(), 200);
        assert_eq!(g.n_timestamps(), 7);
        // self-loop drops leave us close to the budget
        assert_eq!(g.n_edges(), 1000);
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = SyntheticConfig::default();
        let g1 = generate(&cfg, &mut SmallRng::seed_from_u64(9));
        let g2 = generate(&cfg, &mut SmallRng::seed_from_u64(9));
        assert_eq!(g1.edges(), g2.edges());
        let g3 = generate(&cfg, &mut SmallRng::seed_from_u64(10));
        assert_ne!(g1.edges(), g3.edges());
    }

    #[test]
    fn growth_profile_densifies() {
        let cfg = SyntheticConfig {
            nodes: 300,
            edges: 3000,
            timestamps: 10,
            growth: 1.0,
            ..Default::default()
        };
        let g = generate(&cfg, &mut SmallRng::seed_from_u64(2));
        let counts = g.edge_counts_per_timestamp();
        assert!(
            counts[9] > counts[0] * 3,
            "late {} early {}",
            counts[9],
            counts[0]
        );
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let cfg = SyntheticConfig {
            nodes: 2000,
            edges: 10_000,
            timestamps: 5,
            pa_smoothing: 0.5,
            ..Default::default()
        };
        let g = generate(&cfg, &mut SmallRng::seed_from_u64(3));
        let mut deg = g.static_degrees();
        deg.sort_unstable_by(|a, b| b.cmp(a));
        let top1pct: usize = deg[..20].iter().sum();
        let total: usize = deg.iter().sum();
        // top 1% of nodes should hold far more than 1% of degree mass
        assert!(
            top1pct as f64 > 0.05 * total as f64,
            "top1% {} total {}",
            top1pct,
            total
        );
    }

    #[test]
    fn recency_creates_repeat_pairs() {
        let cfg = SyntheticConfig {
            nodes: 500,
            edges: 5000,
            timestamps: 10,
            recency_repeat: 0.5,
            ..Default::default()
        };
        let g = generate(&cfg, &mut SmallRng::seed_from_u64(4));
        let mut pairs: Vec<(u32, u32)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        let m = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        assert!(
            pairs.len() < m * 9 / 10,
            "expected >=10% repeats: {} of {}",
            pairs.len(),
            m
        );
    }

    #[test]
    fn scaled_clamps() {
        let cfg = SyntheticConfig::default().scaled(0.001);
        assert!(cfg.nodes >= 16 && cfg.edges >= 32);
    }

    #[test]
    fn no_self_loops() {
        let g = generate(&SyntheticConfig::default(), &mut SmallRng::seed_from_u64(5));
        assert!(g.edges().iter().all(|e| e.u != e.v));
    }
}
