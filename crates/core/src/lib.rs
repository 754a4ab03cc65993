#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]
//! `tgae`: the Temporal Graph Autoencoder of *"Efficient Learning-based
//! Graph Simulation for Temporal Graphs"* (ICDE 2025), reimplemented from
//! scratch in Rust.
//!
//! The model simulates a temporal graph — a series of snapshots — by
//! learning the generative distribution of sampled temporal ego-graphs:
//!
//! 1. **Initial node sampling** (Eq. 2): degree-weighted draws of
//!    representative temporal nodes (`tg_sampling::InitialNodeSampler`).
//! 2. **Ego-graph sampling** (Algorithm 1) merged into **k-bipartite
//!    computation graphs** (Fig. 4) for batched training.
//! 3. **TGAT encoding** ([`encoder`], Eqs. 3–5): stacked multi-head graph
//!    attention from the ego periphery to the center.
//! 4. **Variational ego-graph decoding** ([`decoder`], Algorithm 2):
//!    reparameterised latents seed an outward reconstruction emitting
//!    categorical edge rows.
//! 5. **Assembly & generation** ([`engine`], §IV-G): per-timestamp
//!    categorical edge sampling without replacement under the observed
//!    edge budget, as a sharded streaming pipeline (plan → execute →
//!    emit into an `EdgeSink`).
//!
//! Training minimises the approximate loss of Eq. 7 ([`trainer`]); the
//! ablation variants of §IV-F are selected via
//! [`config::TgaeVariant`].
//!
//! There is one way in. A [`Session`] owns **training**: a single master
//! seed ([`SeedPolicy`]), typed errors ([`TgxError`]), epoch
//! observation/cancellation ([`RunObserver`]), and bit-identical
//! checkpoint/resume. [`Session::into_shared`] (or [`SharedRun::new`] over
//! a loaded `model.json`) hands the trained run to a [`SharedRun`], which
//! owns everything after: [`SharedRun::simulate`],
//! [`SharedRun::simulate_seeded`] into any sink, and
//! [`SharedRun::evaluate`]. Both simulate calls are
//! [`generate_shard_with_sink`] over the whole horizon — the function
//! that also runs one [`ShardSpec`] of [`SharedRun::plan`].
//!
//! # Quickstart
//! ```
//! use tgae::{Session, TgaeConfig};
//! use tg_graph::{TemporalEdge, TemporalGraph};
//!
//! // a small ring evolving over 2 timestamps
//! let mut edges = Vec::new();
//! for t in 0..2 {
//!     for u in 0..6u32 {
//!         edges.push(TemporalEdge::new(u, (u + 1) % 6, t));
//!     }
//! }
//! let observed = TemporalGraph::from_edges(6, 2, edges);
//!
//! let mut cfg = TgaeConfig::tiny();
//! cfg.epochs = 5;
//! let mut session = Session::builder(&observed)
//!     .config(cfg)
//!     .seed(7)
//!     .build()
//!     .expect("valid graph + config");
//! let report = session.train().expect("training ran");
//! assert!(report.final_loss().is_finite());
//!
//! let run = session.into_shared();
//! let synthetic = run.simulate(0).expect("simulation ran");
//! assert_eq!(synthetic.n_edges(), observed.n_edges());
//!
//! let scores = run.evaluate(&synthetic).expect("same shape");
//! assert_eq!(scores.len(), 7);
//! ```

pub mod config;
pub mod decoder;
pub mod encoder;
pub mod engine;
pub mod errors;
pub mod features;
pub mod model;
pub mod persist;
pub mod session;
pub mod shared;
pub mod trainer;

pub use config::{TgaeConfig, TgaeVariant};
pub use engine::{
    generate_shard_with_sink, CostEstimate, ShardSpec, SimulationEngine, SimulationPlan,
};
pub use errors::TgxError;
pub use model::{BatchStats, Tgae};
pub use persist::{load, save, PersistError};
pub use session::{
    CheckpointPolicy, EpochEvent, RunObserver, SeedPolicy, Session, SessionBuilder, TrainControl,
};
pub use shared::SharedRun;
pub use trainer::{TrainCheckpoint, TrainReport};
