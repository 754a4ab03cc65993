//! The per-node temporal adjacency against the per-timestamp neighbour code
//! it replaced, kept here as `PerTimestamp`: binary searches over each
//! timestamp's `(t, u, v)` edge slice and over a `(t, v, u)` permutation
//! of it. Then `ComputationGraph::build` against a build that interns
//! slots through a map, as it did before the slot table: the same levels,
//! layers and RNG state after the call. Last, `InitialNodeSampler::new`
//! against the Eq. 2 population counted by sorting every edge endpoint, as
//! `TemporalGraph::temporal_nodes` did before it walked the adjacency.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use tg_graph::{NodeId, TemporalEdge, TemporalGraph, Time};
use tg_sampling::{
    node_sampling_in, temporal_neighbor_occurrences_into, ComputationGraph, InitialNodeSampler,
    SamplerConfig,
};

/// The neighbour queries as they were answered before the adjacency.
struct PerTimestamp<'a> {
    g: &'a TemporalGraph,
    /// Indices into `g.edges()`, sorted by `(t, v, u)`.
    in_order: Vec<u32>,
    /// `in_order[time_offsets[t]..time_offsets[t + 1]]` is timestamp `t`.
    time_offsets: Vec<usize>,
}

impl<'a> PerTimestamp<'a> {
    fn new(g: &'a TemporalGraph) -> Self {
        let edges = g.edges();
        let mut in_order: Vec<u32> = (0..edges.len() as u32).collect();
        in_order.sort_unstable_by_key(|&i| {
            let e = edges[i as usize];
            (e.t, e.v, e.u)
        });
        let mut time_offsets = vec![0];
        for count in g.edge_counts_per_timestamp() {
            time_offsets.push(time_offsets[time_offsets.len() - 1] + count);
        }
        PerTimestamp {
            g,
            in_order,
            time_offsets,
        }
    }

    fn out_neighbors_at(&self, u: NodeId, t: Time) -> Vec<NodeId> {
        let slice = self.g.edges_at(t);
        let lo = slice.partition_point(|e| e.u < u);
        let hi = slice.partition_point(|e| e.u <= u);
        slice[lo..hi].iter().map(|e| e.v).collect()
    }

    fn in_neighbors_at(&self, v: NodeId, t: Time) -> Vec<NodeId> {
        let t = t as usize;
        assert!(t < self.g.n_timestamps());
        let edges = self.g.edges();
        let order = &self.in_order[self.time_offsets[t]..self.time_offsets[t + 1]];
        let lo = order.partition_point(|&i| edges[i as usize].v < v);
        let hi = order.partition_point(|&i| edges[i as usize].v <= v);
        order[lo..hi].iter().map(|&i| edges[i as usize].u).collect()
    }

    /// The window `|t - t'| <= t_n`, clipped to `0..T`.
    fn window(&self, t: Time, t_n: Time) -> std::ops::RangeInclusive<Time> {
        let lo = t.saturating_sub(t_n);
        let hi = (t as u64 + t_n as u64).min(self.g.n_timestamps() as u64 - 1) as Time;
        lo..=hi
    }

    fn temporal_neighbors(&self, u: NodeId, t: Time, t_n: Time) -> Vec<NodeId> {
        let mut out = Vec::new();
        for tt in self.window(t, t_n) {
            out.extend(self.out_neighbors_at(u, tt));
            out.extend(self.in_neighbors_at(u, tt));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn temporal_degree(&self, u: NodeId, t: Time) -> usize {
        self.out_neighbors_at(u, t).len() + self.in_neighbors_at(u, t).len()
    }

    fn occurrences(&self, v: NodeId, t: Time, t_n: Time) -> Vec<(NodeId, Time)> {
        let mut out = Vec::new();
        for tt in self.window(t, t_n) {
            out.extend(self.out_neighbors_at(v, tt).into_iter().map(|u| (u, tt)));
            out.extend(self.in_neighbors_at(v, tt).into_iter().map(|u| (u, tt)));
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// `ComputationGraph::build` with a map for the slot index: levels, then
/// per layer `(src, dst, self_idx)`.
type Reference = (Vec<Vec<(NodeId, Time)>>, Vec<[Vec<u32>; 3]>);

fn build_reference(
    g: &TemporalGraph,
    centers: &[(NodeId, Time)],
    cfg: &SamplerConfig,
    rng: &mut SmallRng,
) -> Reference {
    let oracle = PerTimestamp::new(g);
    let mut centers = centers.to_vec();
    centers.sort_unstable();
    centers.dedup();
    let mut levels = vec![centers];
    let mut layers = Vec::new();
    let mut draws = Vec::new();
    for i in 0..cfg.k {
        let mut src_level = Vec::new();
        let mut index = BTreeMap::new();
        let mut intern = |occ: (NodeId, Time), src_level: &mut Vec<(NodeId, Time)>| -> u32 {
            *index.entry(occ).or_insert_with(|| {
                src_level.push(occ);
                src_level.len() as u32 - 1
            })
        };
        let [mut src, mut dst, mut self_idx] = [Vec::new(), Vec::new(), Vec::new()];
        for (j, &(v, t)) in levels[i].iter().enumerate() {
            let self_slot = intern((v, t), &mut src_level);
            self_idx.push(self_slot);
            src.push(self_slot);
            dst.push(j as u32);
            let nbrs = oracle.occurrences(v, t, cfg.time_window);
            for &occ in node_sampling_in(&nbrs, cfg.threshold, rng, &mut draws) {
                src.push(intern(occ, &mut src_level));
                dst.push(j as u32);
            }
        }
        layers.push([src, dst, self_idx]);
        levels.push(src_level);
    }
    (levels, layers)
}

/// The occurring temporal nodes `(v, t, degree)` in `(v, t)` order, from a
/// sort of the `2E` edge endpoints.
fn sorted_census(g: &TemporalGraph) -> Vec<(NodeId, Time, usize)> {
    let mut ends: Vec<(NodeId, Time)> = g
        .edges()
        .iter()
        .flat_map(|e| [(e.u, e.t), (e.v, e.t)])
        .collect();
    ends.sort_unstable();
    let mut out: Vec<(NodeId, Time, usize)> = Vec::new();
    for (u, t) in ends {
        match out.last_mut() {
            Some(last) if (last.0, last.1) == (u, t) => last.2 += 1,
            _ => out.push((u, t, 1)),
        }
    }
    out
}

/// `InitialNodeSampler::sample_batch` over the sorted census: cumulative
/// degree weights accumulated in census order, or a uniform draw.
fn sample_batch_reference(
    census: &[(NodeId, Time, usize)],
    degree_weighted: bool,
    n_s: usize,
    rng: &mut SmallRng,
) -> Vec<(NodeId, Time)> {
    let cum: Vec<f64> = census
        .iter()
        .scan(0.0f64, |acc, &(_, _, d)| {
            *acc += d as f64;
            Some(*acc)
        })
        .collect();
    let mut batch: Vec<(NodeId, Time)> = (0..n_s)
        .map(|_| {
            let idx = if degree_weighted {
                let u = rng.gen::<f64>() * cum[cum.len() - 1];
                cum.partition_point(|&c| c < u).min(census.len() - 1)
            } else {
                rng.gen_range(0..census.len())
            };
            (census[idx].0, census[idx].1)
        })
        .collect();
    batch.sort_unstable();
    batch.dedup();
    batch
}

fn assert_census_matches(g: &TemporalGraph, seed: u64) {
    let census = sorted_census(g);
    assert_eq!(g.temporal_nodes().collect::<Vec<_>>(), census);
    for degree_weighted in [true, false] {
        let sampler = InitialNodeSampler::new(g, degree_weighted);
        let population: Vec<(NodeId, Time)> = census.iter().map(|&(v, t, _)| (v, t)).collect();
        assert_eq!(sampler.population(), population);
        if census.is_empty() {
            continue;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rng_ref = rng.clone();
        for n_s in [1, 7, 64] {
            assert_eq!(
                sampler.sample_batch(n_s, &mut rng),
                sample_batch_reference(&census, degree_weighted, n_s, &mut rng_ref),
                "degree_weighted={degree_weighted} n_s={n_s}"
            );
        }
        assert_eq!(rng.state(), rng_ref.state(), "RNG state after the draws");
    }
}

/// One raw edge: endpoints, timestamp, and a flavour selecting which
/// degenerate companion it brings.
type RawEdge = (u32, u32, u32, u32);

/// A multigraph with self-loops, repeated and reciprocal edges; sparse
/// inputs leave timestamps empty.
fn build(n: usize, t_count: usize, raw: &[RawEdge]) -> TemporalGraph {
    let (nn, tt) = (n as u32, t_count as u32);
    let mut edges = Vec::new();
    for &(u, v, t, flavour) in raw {
        let (u, v, t) = (u % nn, v % nn, t % tt);
        edges.push(TemporalEdge::new(u, v, t));
        match flavour % 4 {
            0 => edges.push(TemporalEdge::new(u, u, t)),
            1 => edges.push(TemporalEdge::new(u, v, t)),
            2 => edges.push(TemporalEdge::new(v, u, t)),
            _ => {}
        }
    }
    TemporalGraph::from_edges(n, t_count, edges)
}

fn arb_edges() -> impl Strategy<Value = Vec<RawEdge>> {
    collection::vec((0u32..12, 0u32..12, 0u32..10, 0u32..5), 0..40)
}

/// `t_N` of 0, 1, 3, and at or past the horizon.
fn windows(t_count: usize) -> [Time; 6] {
    let t = t_count as Time;
    [0, 1, 3, t, t + 2, Time::MAX]
}

fn assert_neighbours_match(g: &TemporalGraph) {
    let oracle = PerTimestamp::new(g);
    let mut occ = vec![(7, 7)]; // stale contents the call must discard
    for v in 0..g.n_nodes() as NodeId {
        for t in 0..g.n_timestamps() as Time {
            let at = format!("v={v} t={t}");
            assert_eq!(
                g.in_neighbors_at(v, t).collect::<Vec<_>>(),
                oracle.in_neighbors_at(v, t),
                "{at}"
            );
            assert_eq!(
                g.temporal_degree(v, t),
                oracle.temporal_degree(v, t),
                "{at}"
            );
            for t_n in windows(g.n_timestamps()) {
                assert_eq!(
                    g.temporal_neighbors(v, t, t_n),
                    oracle.temporal_neighbors(v, t, t_n),
                    "{at} t_n={t_n}"
                );
                temporal_neighbor_occurrences_into(g, v, t, t_n, &mut occ);
                assert_eq!(occ, oracle.occurrences(v, t, t_n), "{at} t_n={t_n}");
            }
        }
    }
}

fn assert_build_matches(
    g: &TemporalGraph,
    centers: &[(NodeId, Time)],
    cfg: &SamplerConfig,
    seed: u64,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rng_ref = rng.clone();
    let cg = ComputationGraph::build(g, centers, cfg, &mut rng);
    let (levels, layers) = build_reference(g, centers, cfg, &mut rng_ref);
    assert_eq!(cg.levels, levels);
    assert_eq!(cg.layers.len(), layers.len());
    for (i, (layer, [src, dst, self_idx])) in cg.layers.iter().zip(&layers).enumerate() {
        assert_eq!(*layer.src, *src, "layer {i} src");
        assert_eq!(*layer.dst, *dst, "layer {i} dst");
        assert_eq!(*layer.self_idx, *self_idx, "layer {i} self_idx");
        assert_eq!(layer.n_targets, levels[i].len());
        assert_eq!(layer.n_sources, levels[i + 1].len());
    }
    assert_eq!(rng.state(), rng_ref.state(), "RNG state after the call");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn adjacency_answers_like_the_per_timestamp_searches(
        n in 1usize..=12,
        t_count in 1usize..=10,
        raw in arb_edges(),
    ) {
        assert_neighbours_match(&build(n, t_count, &raw));
    }

    #[test]
    fn build_matches_the_map_interned_reference(
        n in 1usize..=12,
        t_count in 1usize..=10,
        raw in arb_edges(),
        raw_centers in collection::vec((0u32..12, 0u32..10), 1..12),
        k in 1usize..=3,
        threshold in 1usize..=6,
        window in 0u32..=4,
        seed in 0u64..1_000_000,
    ) {
        let g = build(n, t_count, &raw);
        let centers: Vec<(NodeId, Time)> = raw_centers
            .iter()
            .map(|&(v, t)| (v % n as u32, t % t_count as u32))
            .collect();
        let cfg = SamplerConfig { k, threshold, time_window: window, degree_weighted: true };
        assert_build_matches(&g, &centers, &cfg, seed);
    }

    /// Self-loops, repeated and reciprocal edges, empty timestamps and
    /// isolated nodes all come from `build` on sparse inputs.
    #[test]
    fn sampler_census_matches_the_endpoint_sort(
        n in 1usize..=12,
        t_count in 1usize..=10,
        raw in arb_edges(),
        seed in 0u64..1_000_000,
    ) {
        assert_census_matches(&build(n, t_count, &raw), seed);
    }
}

/// The same equalities on a Table II preset, with the default sampler and
/// degree-weighted batches of 64 centers: hubs, long chains, and many
/// timestamps per node.
#[test]
fn dblp_batches_match_the_references() {
    let preset = tg_datasets::by_name("DBLP").expect("known preset");
    let g = preset.generate_scaled(0.1, 7);
    assert_neighbours_match(&g);
    assert_census_matches(&g, 5);
    let cfg = SamplerConfig::default();
    let sampler = InitialNodeSampler::new(&g, cfg.degree_weighted);
    let mut rng = SmallRng::seed_from_u64(11);
    for seed in 0..8 {
        let centers = sampler.sample_batch(64, &mut rng);
        assert_build_matches(&g, &centers, &cfg, seed);
    }
}
