//! One immutable trained run: the owner of everything after training.
//!
//! A [`Session`](crate::session::Session) mutates its model while it
//! trains; once training is done nothing needs `&mut` any more. A
//! [`SharedRun`] is what [`Session::into_shared`](crate::session::Session::into_shared)
//! (or [`SharedRun::new`] over a loaded `model.json`) hands back: the
//! trained model and the observed graph behind `Arc`s plus the seed
//! policy, every method `&self`, the whole struct `Clone` (two `Arc`
//! bumps) + `Send` + `Sync`. One caller simulates and scores with it; a
//! resident server shares it across requests without cloning parameters
//! or serialising behind a lock. Any number of threads can call
//! [`SharedRun::simulate_seeded`] concurrently against **one** parameter
//! set — generation is read-only over the model
//! (`decode_rows_for_generation` takes `&self`), and each call's RNG
//! streams derive purely from its own master seed, so concurrent outputs
//! are bit-identical to sequential ones.
//!
//! ```
//! use tgae::{Session, TgaeConfig};
//! use tg_graph::sink::GraphSink;
//! use tg_graph::{TemporalEdge, TemporalGraph};
//!
//! let mut edges = Vec::new();
//! for t in 0..2 {
//!     for u in 0..6u32 {
//!         edges.push(TemporalEdge::new(u, (u + 1) % 6, t));
//!     }
//! }
//! let observed = TemporalGraph::from_edges(6, 2, edges);
//! let mut cfg = TgaeConfig::tiny();
//! cfg.epochs = 3;
//! let mut session = Session::builder(&observed).config(cfg).seed(7).build().unwrap();
//! session.train().unwrap();
//!
//! let run = session.into_shared(); // Arc-held, Clone, Send + Sync
//! let handles: Vec<_> = (0..4u64)
//!     .map(|seed| {
//!         let run = run.clone(); // two Arc bumps, no parameter copy
//!         std::thread::spawn(move || {
//!             let shape = (run.observed().n_nodes(), run.observed().n_timestamps());
//!             run.simulate_seeded(seed, GraphSink::new(shape.0, shape.1)).unwrap()
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     assert_eq!(h.join().unwrap().n_edges(), run.observed().n_edges());
//! }
//! ```

use crate::engine::{generate_shard_with_sink, CostEstimate, ShardSpec, SimulationPlan};
use crate::errors::TgxError;
use crate::model::Tgae;
use crate::session::SeedPolicy;
use crate::trainer::validate_shapes;
use std::sync::{Arc, OnceLock};
use tg_graph::sink::{EdgeSink, GraphSink};
use tg_graph::{TemporalGraph, Time};
use tg_metrics::{CumulativeStats, GraphStats, MetricScore};

/// An immutable trained run — model + observed graph behind `Arc`s — that
/// any number of threads can simulate and evaluate concurrently.
///
/// Construct with [`SharedRun::new`] / [`SharedRun::from_arcs`] (typed
/// shape validation) or convert a finished session with
/// [`Session::into_shared`](crate::session::Session::into_shared).
#[derive(Clone)]
pub struct SharedRun {
    model: Arc<Tgae>,
    observed: Arc<TemporalGraph>,
    policy: SeedPolicy,
    /// The Table III series of the observed graph's accumulated
    /// snapshots, walked by the first [`SharedRun::observed_series`] of
    /// any clone and shared by all of them.
    observed_series: Arc<OnceLock<Vec<GraphStats>>>,
}

impl std::fmt::Debug for SharedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedRun")
            .field("n_nodes", &self.observed.n_nodes())
            .field("n_timestamps", &self.observed.n_timestamps())
            .field("master_seed", &self.policy.master())
            .field("model_refs", &Arc::strong_count(&self.model))
            .finish_non_exhaustive()
    }
}

impl SharedRun {
    /// Wrap an owned model + observed graph — how a saved `model.json`
    /// goes straight to simulation. Node counts must match, timestamp
    /// counts must match, and the graph must have something to simulate.
    pub fn new(model: Tgae, observed: TemporalGraph) -> Result<Self, TgxError> {
        Self::from_arcs(Arc::new(model), Arc::new(observed))
    }

    /// [`SharedRun::new`] over already-shared parts (no copies; the run
    /// keeps the given `Arc`s, so callers can hold aliases and assert
    /// pointer identity).
    pub fn from_arcs(model: Arc<Tgae>, observed: Arc<TemporalGraph>) -> Result<Self, TgxError> {
        if observed.n_timestamps() == 0 || observed.n_edges() == 0 || observed.n_nodes() < 2 {
            return Err(TgxError::EmptyGraph);
        }
        validate_shapes(&model, &observed)?;
        if model.n_timestamps != observed.n_timestamps() {
            return Err(TgxError::TimestampMismatch {
                model: model.n_timestamps,
                graph: observed.n_timestamps(),
            });
        }
        let policy = SeedPolicy::new(model.cfg.seed);
        Ok(Self::assemble(model, observed, policy))
    }

    /// Already-validated assembly path for [`Session::into_shared`]
    /// (the session builder proved the shapes at build time).
    pub(crate) fn assemble(
        model: Arc<Tgae>,
        observed: Arc<TemporalGraph>,
        policy: SeedPolicy,
    ) -> Self {
        SharedRun {
            model,
            observed,
            policy,
            observed_series: Arc::default(),
        }
    }

    /// Replace the seed policy master (e.g. with the master seed recorded
    /// in a run manifest, which is authoritative over the model config's
    /// copy).
    pub fn with_master(mut self, master: u64) -> Self {
        self.policy = SeedPolicy::new(master);
        self
    }

    /// The trained model.
    pub fn model(&self) -> &Tgae {
        &self.model
    }

    /// The observed graph the run mirrors.
    pub fn observed(&self) -> &TemporalGraph {
        &self.observed
    }

    /// The Table III statistics of every accumulated snapshot of the
    /// observed graph — Eq. 10's real side — walked once, by the first
    /// call on this run or any clone of it, and kept with the run.
    pub fn observed_series(&self) -> &[GraphStats] {
        self.observed_series
            .get_or_init(|| CumulativeStats::new(&self.observed).collect())
    }

    /// An alias of the shared model `Arc` (pointer-identity checks; the
    /// concurrency tests use this to prove no request cloned the params).
    pub fn model_arc(&self) -> Arc<Tgae> {
        Arc::clone(&self.model)
    }

    /// An alias of the shared observed-graph `Arc`.
    pub fn observed_arc(&self) -> Arc<TemporalGraph> {
        Arc::clone(&self.observed)
    }

    /// The seed policy per-run streams derive from.
    pub fn seed_policy(&self) -> SeedPolicy {
        self.policy
    }

    /// The deterministic shard manifest a run with `master` would execute.
    pub fn plan(&self, master: u64) -> SimulationPlan {
        SimulationPlan::new(&self.observed, self.model.cfg.batch_centers, master)
    }

    /// Workload estimate of one full simulation of this run — what a
    /// server's admission control prices a request at. Master-seed
    /// independent (seeds never change budgets or chunking).
    pub fn cost_estimate(&self) -> CostEstimate {
        self.plan(0).cost_estimate()
    }

    /// Simulate synthetic graph number `run` of this trained run: runs
    /// `0, 1, 2, …` are independent, and each is a pure function of the
    /// seed policy and `run`.
    pub fn simulate(&self, run: u64) -> Result<TemporalGraph, TgxError> {
        let sink = GraphSink::new(self.observed.n_nodes(), self.observed.n_timestamps());
        self.simulate_seeded(self.policy.simulation_master(run), sink)
    }

    /// Simulate one synthetic stream under an explicit engine master
    /// seed into any [`EdgeSink`] (in-memory graph, streaming writer,
    /// statistics-only). `&self`: any number of threads may call this
    /// concurrently on clones of the same run. It is
    /// [`generate_shard_with_sink`] over the whole horizon `[0, T)`, so
    /// the shards of [`SharedRun::plan`]`(master)` concatenate to exactly
    /// this stream.
    pub fn simulate_seeded<S: EdgeSink>(
        &self,
        master: u64,
        sink: S,
    ) -> Result<S::Output, TgxError> {
        let whole = ShardSpec {
            master_seed: master,
            t_begin: 0,
            t_end: self.observed.n_timestamps() as Time,
            shard: 0,
            n_shards: 1,
        };
        Ok(generate_shard_with_sink(
            &self.model,
            &self.observed,
            &whole,
            sink,
        ))
    }

    /// Score a synthetic graph against the observed one across the seven
    /// Table III statistics (Eq. 10), the observed side from
    /// [`SharedRun::observed_series`]. The shape requirements
    /// `tg_metrics::evaluate` asserts come back as typed errors: the node
    /// sets must match and `synthetic` must cover the observed horizon.
    pub fn evaluate(&self, synthetic: &TemporalGraph) -> Result<Vec<MetricScore>, TgxError> {
        let observed = self.observed();
        if synthetic.n_nodes() != observed.n_nodes() {
            return Err(TgxError::NodeCountMismatch {
                model: observed.n_nodes(),
                graph: synthetic.n_nodes(),
            });
        }
        if synthetic.n_timestamps() < observed.n_timestamps() {
            return Err(TgxError::TimestampMismatch {
                model: observed.n_timestamps(),
                graph: synthetic.n_timestamps(),
            });
        }
        Ok(tg_metrics::evaluate_graph_against(
            self.observed_series(),
            synthetic,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TgaeConfig;
    use tg_graph::TemporalEdge;

    fn ring(n: u32, t_count: u32) -> TemporalGraph {
        let mut edges = Vec::new();
        for t in 0..t_count {
            for u in 0..n {
                edges.push(TemporalEdge::new(u, (u + 1) % n, t));
            }
        }
        TemporalGraph::from_edges(n as usize, t_count as usize, edges)
    }

    #[test]
    fn validation_mirrors_the_session_builder() {
        let g = ring(6, 2);
        let wrong_nodes = Tgae::new(9, 2, TgaeConfig::tiny());
        assert!(matches!(
            SharedRun::new(wrong_nodes, g.clone()).unwrap_err(),
            TgxError::NodeCountMismatch { model: 9, graph: 6 }
        ));
        let wrong_t = Tgae::new(6, 4, TgaeConfig::tiny());
        assert!(matches!(
            SharedRun::new(wrong_t, g.clone()).unwrap_err(),
            TgxError::TimestampMismatch { .. }
        ));
        let empty = TemporalGraph::from_edges(4, 2, Vec::new());
        assert!(matches!(
            SharedRun::new(Tgae::new(4, 2, TgaeConfig::tiny()), empty).unwrap_err(),
            TgxError::EmptyGraph
        ));
        assert!(SharedRun::new(Tgae::new(6, 2, TgaeConfig::tiny()), g).is_ok());
    }

    #[test]
    fn numbered_runs_differ_but_are_reproducible_from_the_policy() {
        let g = ring(8, 3);
        let run = SharedRun::new(Tgae::new(8, 3, TgaeConfig::tiny()), g.clone()).unwrap();
        assert_ne!(
            run.simulate(0).unwrap().edges(),
            run.simulate(1).unwrap().edges()
        );
        for k in [0u64, 1, 5] {
            let master = run.seed_policy().simulation_master(k);
            let seeded = run
                .simulate_seeded(master, GraphSink::new(g.n_nodes(), g.n_timestamps()))
                .unwrap();
            assert_eq!(run.simulate(k).unwrap().edges(), seeded.edges(), "run {k}");
        }
    }

    #[test]
    fn evaluate_rejects_mismatched_synthetic() {
        let run = SharedRun::new(Tgae::new(6, 3, TgaeConfig::tiny()), ring(6, 3)).unwrap();
        assert!(matches!(
            run.evaluate(&ring(6, 2)).unwrap_err(),
            TgxError::TimestampMismatch { model: 3, graph: 2 }
        ));
        assert!(matches!(
            run.evaluate(&ring(8, 3)).unwrap_err(),
            TgxError::NodeCountMismatch { .. }
        ));
    }

    #[test]
    fn evaluate_walks_the_observed_graph_once_for_every_clone() {
        let g = ring(6, 3);
        let run = SharedRun::new(Tgae::new(6, 3, TgaeConfig::tiny()), g.clone()).unwrap();
        let clone = run.clone();
        let synthetic = run.simulate(0).unwrap();
        let want = format!("{:?}", tg_metrics::evaluate(&g, &synthetic));
        assert_eq!(format!("{:?}", clone.evaluate(&synthetic).unwrap()), want);
        assert_eq!(format!("{:?}", run.evaluate(&synthetic).unwrap()), want);
        assert!(std::ptr::eq(run.observed_series(), clone.observed_series()));
        assert_eq!(run.observed_series().len(), g.n_timestamps());
    }

    #[test]
    fn clones_alias_the_same_model() {
        let g = ring(6, 2);
        let run = SharedRun::new(Tgae::new(6, 2, TgaeConfig::tiny()), g).unwrap();
        let clone = run.clone();
        assert!(Arc::ptr_eq(&run.model_arc(), &clone.model_arc()));
        assert!(Arc::ptr_eq(&run.observed_arc(), &clone.observed_arc()));
        assert_eq!(run.seed_policy(), clone.seed_policy());
    }

    #[test]
    fn with_master_rebases_the_policy() {
        let g = ring(6, 2);
        let run = SharedRun::new(Tgae::new(6, 2, TgaeConfig::tiny()), g)
            .unwrap()
            .with_master(99);
        assert_eq!(run.seed_policy().master(), 99);
    }

    #[test]
    fn cost_estimate_matches_the_plan() {
        let g = ring(8, 3);
        let run = SharedRun::new(Tgae::new(8, 3, TgaeConfig::tiny()), g).unwrap();
        let est = run.cost_estimate();
        assert_eq!(est, run.plan(42).cost_estimate());
        assert_eq!(est.edges as usize, run.observed().n_edges());
    }
}
