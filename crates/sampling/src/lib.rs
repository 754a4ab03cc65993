//! `tg-sampling`: the TGAE paper's ego-graph sampling stack (§IV-B/C).
//!
//! - [`initial::InitialNodeSampler`] — degree-weighted (Eq. 2) or uniform
//!   sampling of representative temporal nodes;
//! - [`ego`] — Algorithm 1's per-node steps: temporal neighborhoods
//!   (Def. 3) and `NodeSampling` truncation;
//! - [`bipartite::ComputationGraph`] — Algorithm 1's recursive
//!   `k-EgoGraph` expansion, run for a whole batch at once: the merged
//!   k-bipartite computation graphs of Fig. 4 that batch all per-epoch
//!   ego-graphs into `k` attention layers;
//! - [`config::SamplerConfig`] — shared knobs, including the ablation
//!   variants (random-walk `th<2`, no-truncation, uniform sampling).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

pub mod bipartite;
pub mod complexity;
pub mod config;
pub mod ego;
pub mod initial;
mod intern;

pub use bipartite::{BipartiteLayer, ComputationGraph};
pub use complexity::{
    predicted_space_scalars, predicted_steps_per_pass, predicted_steps_unmerged, slot_upper_bound,
};
pub use config::SamplerConfig;
pub use ego::{node_sampling_in, temporal_neighbor_occurrences_into};
pub use initial::InitialNodeSampler;
