//! The `Session` API: one owned object for the **training** lifecycle.
//!
//! The paper's pitch is an *efficient end-to-end pipeline*: train a TGAE
//! once on an observed temporal graph, then cheaply generate (and score)
//! many synthetic graphs. A [`Session`] owns the first half — build,
//! train, checkpoint, resume — and hands the trained run to a
//! [`SharedRun`](crate::shared::SharedRun), which owns everything after:
//!
//! ```text
//! Session::builder(&observed)          SeedPolicy (one master u64)
//!     .config(cfg)                     RunObserver (epoch hook: progress,
//!     .seed(7)                                      early stop, cancel)
//!     .observer(obs)                   CheckpointPolicy (every N epochs)
//!     .checkpoint(path, 5)
//!     .build()?                        -> typed TgxError, never a panic
//!        |
//!     train() ----------- checkpoints ----> ckpt.json
//!        |                                     |
//!        |   (crash / ctrl-C)   resume_from(ckpt.json)  [bit-identical]
//!        v
//!     save_model(path) / into_shared()
//!        |
//!     SharedRun::simulate(run) / simulate_seeded(master, sink)
//!        |                     / generate_shard_with_sink(.., spec, sink)
//!     SharedRun::evaluate(&synthetic)  -> Eq. 10 metric scores
//! ```
//!
//! # Determinism contract
//!
//! A session is driven by a single [`SeedPolicy`] master seed; internals
//! derive SplitMix64 sub-streams exactly as the simulation engine does
//! for its work units:
//!
//! - [`Session::train`] is a pure function of the config and the observed
//!   graph (parameter init from `seed`, the training stream from
//!   `seed ^ 0x5eed_1234`); observers never touch either;
//! - [`Session::resume_from`] a mid-run checkpoint and training to the end
//!   reproduces an uninterrupted run bit-for-bit (the checkpoint carries
//!   the model, the Adam moments, and the raw RNG state);
//! - a graph assembled from an [`EdgeSource`](tg_graph::source::EdgeSource)
//!   (`tg-store`'s `StoreSource::load_graph`, or
//!   [`read_graph`](tg_graph::source::read_graph) over any source) trains
//!   bit-identically to the graph it was written from: ingest changes
//!   where the bytes come from, never what the model sees;
//! - [`Session::into_shared`] carries the policy over, so simulation run
//!   `k` of the shared run uses [`SeedPolicy::simulation_master`]`(k)` and
//!   is bit-identical at any thread count and across any shard partition.

use crate::engine::mix_seed;
use crate::errors::TgxError;
use crate::model::Tgae;
use crate::persist::{self, PersistError};
use crate::trainer::{
    train_loop, LoopHooks, ResumeState, TrainCheckpoint, TrainReport, CHECKPOINT_VERSION,
};
use crate::TgaeConfig;
use rand::rngs::SmallRng;
use std::path::{Path, PathBuf};
use std::time::Duration;
use tg_graph::TemporalGraph;

/// Stream tag mixed into the master seed to derive per-run simulation
/// seeds (so `simulate(0)`, `simulate(1)`, … get decorrelated streams
/// that are still pure functions of the master).
const SIM_STREAM: u64 = 0x51AB_CAFE;

/// The session's single source of randomness: one master `u64`.
///
/// Internals derive independent SplitMix64 sub-streams from the master —
/// parameter init and the training stream use it as `cfg.seed`, and
/// [`SharedRun::simulate`](crate::shared::SharedRun::simulate)`(run)` gets
/// [`SeedPolicy::simulation_master`]`(run)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedPolicy {
    master: u64,
}

impl SeedPolicy {
    /// Policy deriving every stream from `master`.
    pub fn new(master: u64) -> Self {
        SeedPolicy { master }
    }

    /// The master seed.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// The engine master seed of simulation run `run`. Pure: the same
    /// policy and run index always give the same seed, and so the same
    /// plan.
    pub fn simulation_master(&self, run: u64) -> u64 {
        mix_seed(self.master, SIM_STREAM, run)
    }
}

/// What the training loop should do after an observed epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainControl {
    /// Keep training.
    Continue,
    /// Stop after this epoch (graceful early stop / cancellation); the
    /// report's [`TrainReport::early_stopped`] flag is set when epochs
    /// remained.
    Stop,
}

/// Everything an observer sees at the end of one epoch.
#[derive(Clone, Copy, Debug)]
pub struct EpochEvent {
    /// 0-based index of the epoch that just finished.
    pub epoch: usize,
    /// Total epochs the run is configured for.
    pub n_epochs: usize,
    /// Loss after this epoch's step.
    pub loss: f32,
    /// Wall-clock time this epoch took.
    pub wall: Duration,
}

/// Epoch-end hook: progress bars, metric logging, early stopping, and
/// cooperative cancellation (return [`TrainControl::Stop`]).
///
/// Observers only *observe* — the training RNG stream never sees them, so
/// attaching or detaching an observer cannot change the trained
/// parameters of the epochs that do run.
///
/// Any `FnMut(&EpochEvent) -> TrainControl` closure is an observer:
///
/// ```
/// use tgae::{EpochEvent, TrainControl};
/// let mut best = f32::INFINITY;
/// let _early_stop = move |ev: &EpochEvent| {
///     if ev.loss < best {
///         best = ev.loss;
///     }
///     if ev.loss > best * 2.0 {
///         TrainControl::Stop // diverged
///     } else {
///         TrainControl::Continue
///     }
/// };
/// ```
pub trait RunObserver {
    /// Called after every completed epoch, in order.
    fn on_epoch_end(&mut self, event: &EpochEvent) -> TrainControl;
}

impl<F: FnMut(&EpochEvent) -> TrainControl> RunObserver for F {
    fn on_epoch_end(&mut self, event: &EpochEvent) -> TrainControl {
        self(event)
    }
}

/// Periodic checkpointing: write a full [`TrainCheckpoint`] to `path`
/// every `every_epochs` epochs, retaining a rotation of the `keep` most
/// recent checkpoints (`path` is the newest, `path.1` the one before,
/// …). Writes are atomic (tmp + rename), and the rotation happens
/// *before* each write, so even a crash mid-checkpoint leaves the
/// previous generation intact at `path.1` for
/// [`Session::resume_from`] to fall back to.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// File the newest checkpoint JSON lives at.
    pub path: PathBuf,
    /// Cadence in epochs (a checkpoint lands after epochs `every`,
    /// `2*every`, …).
    pub every_epochs: usize,
    /// Checkpoints retained, `>= 1`. With `keep == 1` there is no
    /// rotation — `path` is atomically replaced each time.
    pub keep: usize,
}

/// Rotation slot `i` of a checkpoint path: slot 0 is `path` itself,
/// slot `i > 0` is `path.i` (`ckpt.json`, `ckpt.json.1`, …).
pub(crate) fn rotation_slot(path: &Path, i: usize) -> PathBuf {
    if i == 0 {
        return path.to_path_buf();
    }
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| std::ffi::OsString::from("checkpoint"));
    name.push(format!(".{i}"));
    path.with_file_name(name)
}

/// The checkpoint files of the rotation at `path`, newest first: `path`
/// itself, then `path.1`, `path.2`, … up to the first one missing.
fn checkpoint_rotation(path: &Path) -> impl Iterator<Item = PathBuf> + '_ {
    (0..)
        .map(|i| rotation_slot(path, i))
        .enumerate()
        .take_while(|(i, candidate)| *i == 0 || candidate.exists())
        .map(|(_, candidate)| candidate)
}

/// Read one checkpoint file and refuse it if it is not one this build can
/// resume from: another format version, a model whose shape fields are not
/// its tables' ([`persist::check_shape`]), or an inconsistent history.
fn read_checkpoint(path: &Path) -> Result<TrainCheckpoint, TgxError> {
    let ckpt: TrainCheckpoint = persist::load_json(path)?;
    if ckpt.version != CHECKPOINT_VERSION {
        return Err(TgxError::CheckpointMismatch(format!(
            "checkpoint format v{} (this build reads v{CHECKPOINT_VERSION})",
            ckpt.version
        )));
    }
    persist::check_shape(&ckpt.model)?;
    if ckpt.losses.len() != ckpt.epoch_wall_nanos.len() {
        return Err(TgxError::CheckpointMismatch(format!(
            "inconsistent history: {} losses vs {} epoch walls",
            ckpt.losses.len(),
            ckpt.epoch_wall_nanos.len()
        )));
    }
    Ok(ckpt)
}

/// The newest checkpoint of the rotation at `path` (`path`, then the
/// siblings `path.1`, `path.2`, … left by [`CheckpointPolicy`]'s `keep`)
/// that reads and that `accept` takes. A crash can tear at most the
/// newest write, so an older generation is a valid fallback. When no
/// candidate qualifies, the error is the primary path's own if it has no
/// siblings, else every candidate's diagnosis.
pub fn newest_checkpoint(
    path: &Path,
    mut accept: impl FnMut(&TrainCheckpoint) -> Result<(), TgxError>,
) -> Result<TrainCheckpoint, TgxError> {
    let mut failures: Vec<(PathBuf, TgxError)> = Vec::new();
    for candidate in checkpoint_rotation(path) {
        match read_checkpoint(&candidate).and_then(|c| accept(&c).map(|()| c)) {
            Ok(ckpt) => return Ok(ckpt),
            Err(e) => failures.push((candidate, e)),
        }
    }
    let failures = match <[_; 1]>::try_from(failures) {
        Ok([(_, only)]) => return Err(only),
        Err(failures) => failures,
    };
    let diagnoses: Vec<String> = failures
        .iter()
        .map(|(p, e)| format!("{}: {e}", p.display()))
        .collect();
    Err(TgxError::CheckpointMismatch(format!(
        "no usable checkpoint in the rotation at {}: [{}]",
        path.display(),
        diagnoses.join("; ")
    )))
}

/// Builder for a [`Session`]; see the [module docs](crate::session) for
/// the lifecycle picture.
pub struct SessionBuilder<'a> {
    observed: &'a TemporalGraph,
    cfg: TgaeConfig,
    seed: Option<u64>,
    observer: Option<Box<dyn RunObserver + 'a>>,
    checkpoint: Option<CheckpointPolicy>,
}

impl<'a> SessionBuilder<'a> {
    /// Use this model/training configuration (default:
    /// [`TgaeConfig::default`]).
    pub fn config(mut self, cfg: TgaeConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Set the [`SeedPolicy`] master seed. Overrides `cfg.seed`, so
    /// parameter init, the training stream, and all simulation streams
    /// derive from this one value.
    pub fn seed(mut self, master: u64) -> Self {
        self.seed = Some(master);
        self
    }

    /// Equivalent to [`SessionBuilder::seed`] with `policy.master()`.
    pub fn seed_policy(self, policy: SeedPolicy) -> Self {
        self.seed(policy.master())
    }

    /// Attach an epoch-end [`RunObserver`] (closure or trait object).
    pub fn observer(mut self, observer: impl RunObserver + 'a) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Write a [`TrainCheckpoint`] to `path` every `every_epochs` epochs
    /// during [`Session::train`] / [`Session::resume_from`], keeping
    /// only the newest one.
    pub fn checkpoint(self, path: impl Into<PathBuf>, every_epochs: usize) -> Self {
        self.checkpoint_rotating(path, every_epochs, 1)
    }

    /// [`SessionBuilder::checkpoint`] retaining the `keep` newest
    /// checkpoints in a rotation (`path`, `path.1`, …) so a checkpoint
    /// torn by a crash still leaves an older valid generation for
    /// [`Session::resume_from`] to fall back to.
    pub fn checkpoint_rotating(
        mut self,
        path: impl Into<PathBuf>,
        every_epochs: usize,
        keep: usize,
    ) -> Self {
        self.checkpoint = Some(CheckpointPolicy {
            path: path.into(),
            every_epochs,
            keep,
        });
        self
    }

    /// Validate everything and construct the [`Session`].
    ///
    /// Returns a typed [`TgxError`] — never panics — for: an empty or
    /// zero-timestamp observed graph or out-of-range config fields.
    pub fn build(self) -> Result<Session<'a>, TgxError> {
        let SessionBuilder {
            observed,
            mut cfg,
            seed,
            observer,
            checkpoint,
        } = self;
        if observed.n_timestamps() == 0 || observed.n_edges() == 0 || observed.n_nodes() < 2 {
            return Err(TgxError::EmptyGraph);
        }
        if let Some(cp) = &checkpoint {
            if cp.every_epochs == 0 {
                return Err(TgxError::InvalidConfig(
                    "checkpoint cadence must be > 0 epochs".into(),
                ));
            }
            if cp.keep == 0 {
                return Err(TgxError::InvalidConfig(
                    "checkpoint rotation must keep >= 1 checkpoints".into(),
                ));
            }
        }
        if let Some(master) = seed {
            cfg.seed = master;
        }
        cfg.validate()?;
        let model = Tgae::new(observed.n_nodes(), observed.n_timestamps(), cfg);
        let policy = SeedPolicy::new(model.cfg.seed);
        Ok(Session {
            observed,
            model,
            policy,
            observer,
            checkpoint,
            trained_epochs: 0,
        })
    }
}

/// One training run over a fixed observed graph.
///
/// Construct with [`Session::builder`]; see the
/// [module docs](crate::session) for the lifecycle and the determinism
/// contract.
pub struct Session<'a> {
    observed: &'a TemporalGraph,
    model: Tgae,
    policy: SeedPolicy,
    observer: Option<Box<dyn RunObserver + 'a>>,
    checkpoint: Option<CheckpointPolicy>,
    trained_epochs: usize,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("n_nodes", &self.observed.n_nodes())
            .field("n_timestamps", &self.observed.n_timestamps())
            .field("master_seed", &self.policy.master())
            .field("trained_epochs", &self.trained_epochs)
            .field("has_observer", &self.observer.is_some())
            .field("checkpoint", &self.checkpoint)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for SessionBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("n_nodes", &self.observed.n_nodes())
            .field("n_timestamps", &self.observed.n_timestamps())
            .field("seed", &self.seed)
            .field("has_observer", &self.observer.is_some())
            .field("checkpoint", &self.checkpoint)
            .finish_non_exhaustive()
    }
}

impl<'a> Session<'a> {
    /// Start building a session over a borrowed, already-materialised
    /// `observed` graph.
    pub fn builder(observed: &TemporalGraph) -> SessionBuilder<'_> {
        SessionBuilder {
            observed,
            cfg: TgaeConfig::default(),
            seed: None,
            observer: None,
            checkpoint: None,
        }
    }

    /// The observed graph this session trains on and mirrors.
    pub fn observed(&self) -> &TemporalGraph {
        self.observed
    }

    /// The model (trained in place by [`Session::train`]).
    pub fn model(&self) -> &Tgae {
        &self.model
    }

    /// Consume the session into a [`SharedRun`](crate::shared::SharedRun): the trained model and
    /// the observed graph move behind `Arc`s so any number of threads can
    /// simulate/evaluate the run concurrently without cloning parameters
    /// (the borrowed observed graph is cloned once here — the shared run
    /// must be `'static` to cross threads). The seed policy carries over.
    pub fn into_shared(self) -> crate::shared::SharedRun {
        crate::shared::SharedRun::assemble(
            std::sync::Arc::new(self.model),
            std::sync::Arc::new(self.observed.clone()),
            self.policy,
        )
    }

    /// The seed policy every stream derives from.
    pub fn seed_policy(&self) -> SeedPolicy {
        self.policy
    }

    /// Epochs run so far across [`Session::train`] /
    /// [`Session::resume_from`] calls.
    pub fn trained_epochs(&self) -> usize {
        self.trained_epochs
    }

    /// Run the configured number of training epochs from the model's
    /// current parameters, driving the observer and writing periodic
    /// checkpoints as configured.
    pub fn train(&mut self) -> Result<TrainReport, TgxError> {
        let hooks = LoopHooks {
            observer: self.observer.as_deref_mut(),
            checkpoint: self.checkpoint.as_ref(),
            resume: None,
        };
        let report = train_loop(&mut self.model, self.observed, hooks)?;
        self.trained_epochs = report.epochs_run();
        Ok(report)
    }

    /// Refuse a checkpoint of another run: one whose model is shaped for
    /// another graph or whose config is not this session's.
    fn check_checkpoint(&self, ckpt: &TrainCheckpoint) -> Result<(), TgxError> {
        if ckpt.model.n_nodes != self.observed.n_nodes()
            || ckpt.model.n_timestamps != self.observed.n_timestamps()
        {
            return Err(TgxError::CheckpointMismatch(format!(
                "checkpointed model is shaped {}x{} but the observed graph is {}x{}",
                ckpt.model.n_nodes,
                ckpt.model.n_timestamps,
                self.observed.n_nodes(),
                self.observed.n_timestamps()
            )));
        }
        let ckpt_cfg = serde_json::to_string(&ckpt.model.cfg).map_err(PersistError::Codec)?;
        let own_cfg = serde_json::to_string(&self.model.cfg).map_err(PersistError::Codec)?;
        if ckpt_cfg != own_cfg {
            return Err(TgxError::CheckpointMismatch(
                "checkpointed config differs from this session's config".into(),
            ));
        }
        Ok(())
    }

    /// Restore a mid-run [`TrainCheckpoint`] from `path` and train the
    /// remaining epochs (observer + further checkpoints included).
    ///
    /// The checkpoint carries the model, the Adam moments, and the raw
    /// training-RNG state, so the completed run is **bit-identical** to
    /// one that never stopped. Returns the *full-run* report (restored
    /// history + new epochs).
    ///
    /// The checkpoint is the newest of the rotation at `path` that this
    /// session can resume from ([`newest_checkpoint`]). Resuming from an
    /// older generation is still bit-identical — it just re-runs more
    /// epochs.
    pub fn resume_from(&mut self, path: impl AsRef<Path>) -> Result<TrainReport, TgxError> {
        let ckpt = newest_checkpoint(path.as_ref(), |c| self.check_checkpoint(c))?;
        self.train_from(ckpt)
    }

    /// [`Session::resume_from`] a checkpoint already read, e.g. by
    /// [`newest_checkpoint`].
    pub fn resume(&mut self, ckpt: TrainCheckpoint) -> Result<TrainReport, TgxError> {
        self.check_checkpoint(&ckpt)?;
        self.train_from(ckpt)
    }

    /// Train the remaining epochs of an accepted checkpoint.
    fn train_from(&mut self, ckpt: TrainCheckpoint) -> Result<TrainReport, TgxError> {
        self.model = ckpt.model;
        let resume = ResumeState {
            opt: ckpt.opt,
            rng: SmallRng::from_state(ckpt.rng_state),
            losses: ckpt.losses,
            epoch_walls: ckpt
                .epoch_wall_nanos
                .iter()
                .map(|&n| Duration::from_nanos(n))
                .collect(),
            slot_acc: ckpt.slot_acc,
        };
        let hooks = LoopHooks {
            observer: self.observer.as_deref_mut(),
            checkpoint: self.checkpoint.as_ref(),
            resume: Some(resume),
        };
        let report = train_loop(&mut self.model, self.observed, hooks)?;
        self.trained_epochs = report.epochs_run();
        Ok(report)
    }

    /// Save the current model (not the training state — use the
    /// checkpoint policy for that) as a standalone artifact loadable by
    /// [`crate::persist::load`] and
    /// [`SharedRun::new`](crate::shared::SharedRun::new).
    pub fn save_model(&self, path: impl AsRef<Path>) -> Result<(), TgxError> {
        persist::save(&self.model, path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn tiny_cfg(epochs: usize) -> TgaeConfig {
        let mut cfg = TgaeConfig::tiny();
        cfg.epochs = epochs;
        cfg
    }

    #[test]
    fn seed_policy_streams_are_deterministic_and_distinct() {
        let p = SeedPolicy::new(7);
        assert_eq!(p.master(), 7);
        assert_eq!(
            p.simulation_master(0),
            SeedPolicy::new(7).simulation_master(0)
        );
        assert_ne!(p.simulation_master(0), p.simulation_master(1));
        assert_ne!(
            p.simulation_master(0),
            SeedPolicy::new(8).simulation_master(0)
        );
    }

    #[test]
    fn build_train_simulate_evaluate_round_trip() {
        let g = ring(8, 3);
        let mut session = Session::builder(&g)
            .config(tiny_cfg(5))
            .seed(11)
            .build()
            .expect("valid session");
        let report = session.train().expect("train");
        assert_eq!(report.epochs_run(), 5);
        assert_eq!(session.trained_epochs(), 5);
        let run = session.into_shared();
        assert_eq!(run.seed_policy(), SeedPolicy::new(11));
        let synthetic = run.simulate(0).expect("simulate");
        assert_eq!(synthetic.n_edges(), g.n_edges());
        let scores = run.evaluate(&synthetic).expect("evaluate");
        assert_eq!(scores.len(), 7);
    }

    #[test]
    fn empty_graph_is_a_typed_error() {
        let g = TemporalGraph::from_edges(4, 2, Vec::new());
        let err = Session::builder(&g)
            .config(tiny_cfg(3))
            .build()
            .unwrap_err();
        assert!(matches!(err, TgxError::EmptyGraph));
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let g = ring(6, 2);
        let err = Session::builder(&g)
            .config(tiny_cfg(0))
            .build()
            .unwrap_err();
        assert!(matches!(err, TgxError::InvalidConfig(_)));
        let mut bad = tiny_cfg(3);
        bad.lr = f32::NAN;
        let err = Session::builder(&g).config(bad).build().unwrap_err();
        assert!(matches!(err, TgxError::InvalidConfig(_)));
        let err = Session::builder(&g)
            .config(tiny_cfg(3))
            .checkpoint("/tmp/nope.json", 0)
            .build()
            .unwrap_err();
        assert!(matches!(err, TgxError::InvalidConfig(_)));
    }
}
