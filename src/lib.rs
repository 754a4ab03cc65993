//! `tgx` — facade for the TGAE temporal-graph-simulation workspace, a
//! from-scratch Rust reproduction of *"Efficient Learning-based Graph
//! Simulation for Temporal Graphs"* (Xiang, Xu, Cheng, Wang, Zhang —
//! ICDE 2025).
//!
//! This crate re-exports the whole stack so downstream users need a single
//! dependency:
//!
//! | Re-export | Crate | Contents |
//! |-----------|-------|----------|
//! | [`graph`] | `tg-graph` | temporal graph storage, snapshots, I/O, sinks/sources |
//! | [`store`] | `tg-store` | out-of-core columnar edge store (TGES) + streaming ingest |
//! | [`tensor`] | `tg-tensor` | CPU autodiff tensor library |
//! | [`sampling`] | `tg-sampling` | ego-graph sampling, bipartite batching |
//! | [`model`] | `tgae` | the TGAE model, `Session` + `SharedRun`, engine |
//! | [`metrics`] | `tg-metrics` | Table III stats, motif census, MMD |
//! | [`baselines`] | `tg-baselines` | the ten comparison generators |
//! | [`datasets`] | `tg-datasets` | synthetic Table II presets, grids |
//! | [`paper`] | this crate | the paper's tables and figures as functions, printed by `cargo run --release --example paper_tables -- <table>` |
//!
//! There is one way in: a [`Session`](tgae::Session) trains (a single
//! master seed, typed errors, epoch observation, checkpoint/resume) and
//! [`into_shared`](tgae::Session::into_shared) hands the result to a
//! [`SharedRun`](tgae::SharedRun), which simulates and evaluates. The
//! `tgx-cli` binary (workspace crate `crates/cli`) drives the same
//! pipeline from the command line over run directories (checkpointed
//! model, observed graph, generated edges).
//!
//! # Quickstart
//!
//! ```
//! use tgx::prelude::*;
//!
//! // 1. an observed temporal graph (here: a synthetic preset, scaled down)
//! let observed = tgx::datasets::presets::dblp().generate_scaled(0.05, 7);
//!
//! // 2. build a session: config + one master seed for the whole lifecycle
//! let mut cfg = TgaeConfig::tiny();
//! cfg.epochs = 5; // keep the doctest fast; use the default for real runs
//! let mut session = Session::builder(&observed)
//!     .config(cfg)
//!     .seed(7)
//!     .build()
//!     .expect("valid graph + config");
//!
//! // 3. train (typed errors; attach .observer(..) for progress/early stop)
//! let report = session.train().expect("training ran");
//! assert!(report.final_loss().is_finite());
//!
//! // 4. hand the trained run off and simulate run 0: a synthetic graph
//! //    with the same shape
//! let run = session.into_shared();
//! let synthetic = run.simulate(0).expect("simulation ran");
//! assert_eq!(synthetic.n_edges(), observed.n_edges());
//!
//! // 5. score the simulation (Eq. 10)
//! let scores = run.evaluate(&synthetic).expect("same shape");
//! assert_eq!(scores.len(), 7);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

pub mod paper;

pub use tg_baselines as baselines;
pub use tg_datasets as datasets;
pub use tg_graph as graph;
pub use tg_metrics as metrics;
pub use tg_sampling as sampling;
pub use tg_store as store;
pub use tg_tensor as tensor;
pub use tgae as model;

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use tg_baselines::TemporalGraphGenerator;
    pub use tg_datasets::{Preset, SyntheticConfig};
    pub use tg_graph::{
        EdgeSink, EdgeSource, GraphSink, InMemorySource, Snapshot, TemporalEdge, TemporalGraph,
    };
    pub use tg_metrics::{
        evaluate, evaluate_against, CumulativeStats, GraphStats, MetricKind, StatsSeries, StatsSink,
    };
    pub use tg_sampling::SamplerConfig;
    pub use tg_store::{StoreReader, StoreSource, StoreWriter};
    pub use tgae::{
        generate_shard_with_sink, CheckpointPolicy, EpochEvent, RunObserver, SeedPolicy, Session,
        SessionBuilder, ShardSpec, SharedRun, SimulationEngine, SimulationPlan, Tgae, TgaeConfig,
        TgaeVariant, TgxError, TrainControl, TrainReport,
    };
}
