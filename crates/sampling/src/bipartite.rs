//! Merged k-bipartite computation graphs (paper §IV-C, Fig. 4).
//!
//! All per-epoch ego-graphs are merged into `k` bipartite layers:
//! `levels[0]` holds the (deduplicated) center slots `S_0`, `levels[i]`
//! holds the order-`i` neighbor slots `S_i`. Layer `i` carries the edges
//! from sources in `S_{i+1}` to targets in `S_i`; the TGAT encoder runs one
//! batched attention step per layer, from the deepest level inwards. This
//! is exactly the paper's GPU-friendly batching — it reduces training steps
//! from `O(nT)` to `O(nT / n_s)` — executed here with CPU-thread kernels.
//!
//! Per the paper, every target gets a self-loop ("we added self-loops to
//! all temporal nodes to pass messages to themselves"), which also
//! guarantees each attention segment is non-empty, and repeated temporal
//! nodes within a level are stored once (the truncation/dedup mechanism of
//! §IV-C).

use crate::config::SamplerConfig;
use crate::ego::{node_sampling_in, temporal_neighbor_occurrences_into};
use crate::intern::SlotTable;
use rand::Rng;
use std::rc::Rc;
use tg_graph::{NodeId, TemporalGraph, Time};

/// One bipartite message-passing layer: edges from level `i+1` (sources)
/// to level `i` (targets). The three index lists are reference-counted:
/// the tape ops of the encoder and the decoder that read them share the
/// one copy [`ComputationGraph::build`] made.
#[derive(Clone, Debug)]
pub struct BipartiteLayer {
    /// Per-edge source slot (index into `levels[i+1]`).
    pub src: Rc<Vec<u32>>,
    /// Per-edge target slot (index into `levels[i]`), non-decreasing;
    /// doubles as the segment id for the attention softmax.
    pub dst: Rc<Vec<u32>>,
    /// For each target slot, the source-level slot holding the *same*
    /// temporal node (its self-loop image) — used for the attention
    /// query term and for decode initialisation.
    pub self_idx: Rc<Vec<u32>>,
    /// Number of target slots (`levels[i].len()`).
    pub n_targets: usize,
    /// Number of source slots (`levels[i+1].len()`).
    pub n_sources: usize,
}

impl BipartiteLayer {
    /// Number of message edges (including self-loops).
    pub fn n_edges(&self) -> usize {
        self.src.len()
    }
}

/// The merged computation graph for one training batch.
#[derive(Clone, Debug)]
pub struct ComputationGraph {
    /// `levels[0]` = centers, ..., `levels[k]` = outermost neighbors.
    pub levels: Vec<Vec<(NodeId, Time)>>,
    /// `layers[i]`: messages `levels[i+1] -> levels[i]`; length `k`.
    pub layers: Vec<BipartiteLayer>,
}

impl ComputationGraph {
    /// Build from a batch of center temporal nodes, each a node of `g`.
    pub fn build<R: Rng + ?Sized>(
        g: &TemporalGraph,
        centers: &[(NodeId, Time)],
        cfg: &SamplerConfig,
        rng: &mut R,
    ) -> Self {
        assert!(
            !centers.is_empty(),
            "computation graph needs at least one center"
        );
        let mut centers_dedup = centers.to_vec();
        centers_dedup.sort_unstable();
        centers_dedup.dedup();
        let max_center = centers_dedup[centers_dedup.len() - 1].0;
        assert!(
            (max_center as usize) < g.n_nodes(),
            "center node {max_center} out of range (< {})",
            g.n_nodes()
        );

        let mut levels: Vec<Vec<(NodeId, Time)>> = vec![centers_dedup];
        let mut layers: Vec<BipartiteLayer> = Vec::with_capacity(cfg.k);

        // neighbour set and draws of the target at hand, reused across targets
        let (mut nbrs, mut draws) = (Vec::new(), Vec::new());
        let mut table = SlotTable::new(g.n_nodes());
        for i in 0..cfg.k {
            let targets = &levels[i];
            let mut src_level: Vec<(NodeId, Time)> = Vec::new();
            table.reset();
            let mut src = Vec::new();
            let mut dst = Vec::new();
            let mut self_idx = Vec::with_capacity(targets.len());
            for (j, &(v, t)) in targets.iter().enumerate() {
                // self-loop first
                let self_slot = table.intern((v, t), &mut src_level);
                self_idx.push(self_slot);
                src.push(self_slot);
                dst.push(j as u32);
                // sampled temporal neighbors
                temporal_neighbor_occurrences_into(g, v, t, cfg.time_window, &mut nbrs);
                for &occ in node_sampling_in(&nbrs, cfg.threshold, rng, &mut draws) {
                    let slot = table.intern(occ, &mut src_level);
                    src.push(slot);
                    dst.push(j as u32);
                }
            }
            layers.push(BipartiteLayer {
                src: Rc::new(src),
                dst: Rc::new(dst),
                self_idx: Rc::new(self_idx),
                n_targets: targets.len(),
                n_sources: src_level.len(),
            });
            levels.push(src_level);
        }

        ComputationGraph { levels, layers }
    }

    /// Ego radius `k` (number of layers).
    pub fn k(&self) -> usize {
        self.layers.len()
    }

    /// Center slots (level 0).
    pub fn centers(&self) -> &[(NodeId, Time)] {
        &self.levels[0]
    }

    /// Flatten all levels into one slot list, returning `(slots, offsets)`
    /// where level `i` occupies `offsets[i]..offsets[i+1]`. Used by the
    /// decoder, which emits one probability row per slot.
    pub fn all_slots(&self) -> (Vec<(NodeId, Time)>, Vec<usize>) {
        let mut slots = Vec::new();
        let mut offsets = Vec::with_capacity(self.levels.len() + 1);
        offsets.push(0);
        for level in &self.levels {
            slots.extend_from_slice(level);
            offsets.push(slots.len());
        }
        (slots, offsets)
    }

    /// Total number of slots across levels.
    pub fn n_slots(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Total number of message edges across layers.
    pub fn n_edges(&self) -> usize {
        self.layers.iter().map(|l| l.n_edges()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tg_graph::TemporalEdge;

    fn triangle_graph() -> TemporalGraph {
        TemporalGraph::from_edges(
            3,
            2,
            vec![
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(1, 2, 0),
                TemporalEdge::new(2, 0, 1),
            ],
        )
    }

    fn cfg(k: usize, th: usize) -> SamplerConfig {
        SamplerConfig {
            k,
            threshold: th,
            time_window: 1,
            degree_weighted: true,
        }
    }

    #[test]
    fn structure_invariants() {
        let g = triangle_graph();
        let mut rng = SmallRng::seed_from_u64(0);
        let centers = vec![(0u32, 0u32), (1, 0)];
        let cg = ComputationGraph::build(&g, &centers, &cfg(2, 10), &mut rng);
        assert_eq!(cg.k(), 2);
        assert_eq!(cg.levels.len(), 3);
        assert_eq!(cg.centers(), &centers[..]);
        for (i, layer) in cg.layers.iter().enumerate() {
            assert_eq!(layer.n_targets, cg.levels[i].len());
            assert_eq!(layer.n_sources, cg.levels[i + 1].len());
            assert_eq!(layer.src.len(), layer.dst.len());
            // every edge endpoint in range
            assert!(layer.src.iter().all(|&s| (s as usize) < layer.n_sources));
            assert!(layer.dst.iter().all(|&d| (d as usize) < layer.n_targets));
            // self_idx points at the same temporal node one level up
            for (j, &si) in layer.self_idx.iter().enumerate() {
                assert_eq!(cg.levels[i][j], cg.levels[i + 1][si as usize]);
            }
            // every target has at least its self-loop
            for j in 0..layer.n_targets as u32 {
                assert!(layer.dst.contains(&j), "target {j} without incoming edge");
            }
        }
    }

    #[test]
    fn duplicate_centers_are_merged() {
        let g = triangle_graph();
        let mut rng = SmallRng::seed_from_u64(1);
        let cg = ComputationGraph::build(&g, &[(0, 0), (0, 0), (1, 0)], &cfg(1, 10), &mut rng);
        assert_eq!(cg.centers().len(), 2);
    }

    #[test]
    fn levels_dedup_repeated_nodes() {
        // all centers share the same neighbors; level 1 must not contain dups
        let g = triangle_graph();
        let mut rng = SmallRng::seed_from_u64(2);
        let cg = ComputationGraph::build(&g, &[(0, 0), (1, 0), (2, 0)], &cfg(1, 10), &mut rng);
        let mut l1 = cg.levels[1].clone();
        let before = l1.len();
        l1.sort_unstable();
        l1.dedup();
        assert_eq!(before, l1.len(), "level 1 contains duplicate slots");
    }

    #[test]
    fn truncation_bounds_edges_per_target() {
        // star with 50 leaves; threshold th -> <= th + 1 incoming edges per
        // target. th = 1 is the TGAE-g random walk: the self-loop plus at
        // most one sampled neighbour.
        let edges: Vec<TemporalEdge> = (1..=50).map(|v| TemporalEdge::new(0, v, 0)).collect();
        let g = TemporalGraph::from_edges(51, 1, edges);
        for th in [4, 1] {
            let mut rng = SmallRng::seed_from_u64(3);
            let cg = ComputationGraph::build(&g, &[(0, 0)], &cfg(1, th), &mut rng);
            let layer = &cg.layers[0];
            assert!(
                layer.n_edges() <= th + 1,
                "th {th}: {} edges",
                layer.n_edges()
            );
        }
    }

    /// The merge of Fig. 4 against one computation graph per center: with
    /// truncation off nothing is drawn, so each level of the merged graph
    /// is, as a set, the union of that level over the single-center
    /// graphs, and shared temporal nodes are stored and messaged once.
    #[test]
    fn merging_ego_graphs_stores_shared_slots_once() {
        let g = tg_datasets::by_name("DBLP")
            .expect("known preset")
            .generate_scaled(0.1, 7);
        let cfg = SamplerConfig::default().no_truncation_variant();
        let mut rng = SmallRng::seed_from_u64(11);
        let centers = crate::InitialNodeSampler::new(&g, true).sample_batch(64, &mut rng);
        let state = rng.state();
        let merged = ComputationGraph::build(&g, &centers, &cfg, &mut rng);
        let singles: Vec<ComputationGraph> = merged
            .centers()
            .iter()
            .map(|&c| ComputationGraph::build(&g, &[c], &cfg, &mut rng))
            .collect();
        assert_eq!(rng.state(), state, "no truncation draws nothing");

        for (i, level) in merged.levels.iter().enumerate() {
            let mut union: Vec<(NodeId, Time)> = singles
                .iter()
                .flat_map(|s| s.levels[i].iter().copied())
                .collect();
            union.sort_unstable();
            union.dedup();
            let mut level = level.clone();
            level.sort_unstable();
            assert_eq!(level, union, "level {i}");
        }
        let slots: usize = singles.iter().map(ComputationGraph::n_slots).sum();
        let edges: usize = singles.iter().map(ComputationGraph::n_edges).sum();
        let (m_slots, m_edges) = (merged.n_slots(), merged.n_edges());
        assert!(m_slots < slots, "{m_slots} merged slots vs {slots} summed");
        assert!(m_edges < edges, "{m_edges} merged edges vs {edges} summed");
    }

    #[test]
    fn all_slots_flattening() {
        let g = triangle_graph();
        let mut rng = SmallRng::seed_from_u64(4);
        let cg = ComputationGraph::build(&g, &[(0, 0)], &cfg(2, 10), &mut rng);
        let (slots, offsets) = cg.all_slots();
        assert_eq!(slots.len(), cg.n_slots());
        assert_eq!(offsets.len(), cg.levels.len() + 1);
        assert_eq!(*offsets.last().unwrap(), slots.len());
        assert_eq!(&slots[..cg.levels[0].len()], cg.centers());
    }

    #[test]
    #[should_panic(expected = "center node 3 out of range")]
    fn center_outside_the_graph_is_rejected() {
        let mut rng = SmallRng::seed_from_u64(6);
        ComputationGraph::build(&triangle_graph(), &[(0, 0), (3, 0)], &cfg(1, 10), &mut rng);
    }

    #[test]
    fn isolated_center_still_has_self_loop() {
        let g = TemporalGraph::from_edges(3, 2, vec![TemporalEdge::new(0, 1, 0)]);
        let mut rng = SmallRng::seed_from_u64(5);
        let cg = ComputationGraph::build(&g, &[(2, 1)], &cfg(2, 10), &mut rng);
        for layer in &cg.layers {
            assert_eq!(layer.n_edges(), 1); // just the self-loop
        }
    }
}
