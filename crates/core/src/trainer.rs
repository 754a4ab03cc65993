//! Mini-batch training loop (paper §IV-E).
//!
//! Each step samples `n_s` initial temporal nodes (Eq. 2 or uniform,
//! depending on the variant), merges their ego-graphs into k-bipartite
//! computation graphs, and minimises the approximate loss of Eq. 7 with
//! Adam under global-norm gradient clipping.
//!
//! The loop itself lives in `train_loop` (crate-private), driven by
//! [`Session::train`](crate::session::Session::train) and
//! [`Session::resume_from`](crate::session::Session::resume_from): typed
//! errors, [`RunObserver`] epoch hooks (progress, early stopping),
//! periodic checkpoints, and bit-identical resume-from-checkpoint (the
//! loop's RNG stream, optimizer moments, and loss history are all part of
//! [`TrainCheckpoint`]).

use crate::config::TgaeConfig;
use crate::errors::TgxError;
use crate::model::Tgae;
use crate::session::{CheckpointPolicy, EpochEvent, RunObserver, TrainControl};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};
use tg_graph::TemporalGraph;
use tg_sampling::InitialNodeSampler;
use tg_tensor::prelude::*;

/// XOR-folded into the master seed to derive the training RNG stream
/// (kept from the seed implementation so trained parameters stay
/// bit-identical across the free-function → session migration).
pub(crate) const TRAIN_STREAM: u64 = 0x5eed_1234;

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Loss after each optimisation step actually run (on an
    /// early-stopped or resumed run this is the *full* history, including
    /// epochs restored from the checkpoint).
    pub losses: Vec<f32>,
    /// Wall-clock time of each epoch, aligned with [`TrainReport::losses`].
    pub epoch_walls: Vec<Duration>,
    /// Total wall-clock training time (including the checkpointed portion
    /// of a resumed run).
    pub wall: Duration,
    /// Trainable scalar count.
    pub n_params: usize,
    /// Mean slots per batch (space diagnostics for Fig. 6).
    pub mean_batch_slots: f64,
    /// Epochs the configuration asked for (`cfg.epochs`).
    pub epochs_configured: usize,
    /// Whether a [`RunObserver`] stopped the run before
    /// [`TrainReport::epochs_configured`] epochs completed.
    pub early_stopped: bool,
}

impl TrainReport {
    /// Final (last-step) loss.
    #[expect(
        clippy::expect_used,
        reason = "a report exists only after at least one step ran"
    )]
    pub fn final_loss(&self) -> f32 {
        *self.losses.last().expect("at least one step")
    }

    /// Mean loss over the last quarter of training (noise-robust).
    pub fn tail_loss(&self) -> f32 {
        let n = self.losses.len();
        let tail = &self.losses[n - (n / 4).max(1)..];
        tail.iter().sum::<f32>() / tail.len() as f32
    }

    /// Epochs actually run — `< epochs_configured` when early-stopped.
    pub fn epochs_run(&self) -> usize {
        self.losses.len()
    }

    /// Mean wall-clock time per epoch actually run.
    pub fn mean_epoch_wall(&self) -> Duration {
        if self.epoch_walls.is_empty() {
            return Duration::ZERO;
        }
        self.epoch_walls.iter().sum::<Duration>() / self.epoch_walls.len() as u32
    }
}

/// Everything the training loop needs to continue a run exactly where a
/// checkpoint left off: model parameters, Adam moments, the raw RNG
/// stream state, and the already-run history. Serialised as one JSON
/// document by [`Session`](crate::session::Session)'s periodic
/// checkpointing; restoring it and running the remaining epochs is
/// bit-identical to never having stopped.
#[derive(Clone, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Checkpoint format version (bumped on incompatible layout changes).
    pub version: u32,
    /// The model mid-training (config + all parameters).
    pub model: Tgae,
    /// Adam state: step count and first/second moments.
    pub opt: Adam,
    /// Raw xoshiro256++ state of the training RNG stream.
    pub rng_state: [u64; 4],
    /// Loss after each epoch run so far (`len()` = next epoch index).
    pub losses: Vec<f32>,
    /// Wall-clock nanoseconds of each epoch run so far.
    pub epoch_wall_nanos: Vec<u64>,
    /// Accumulated batch-slot count (diagnostics carried into the final
    /// report's `mean_batch_slots`).
    pub slot_acc: u64,
}

/// Current [`TrainCheckpoint::version`].
pub(crate) const CHECKPOINT_VERSION: u32 = 2;

/// Mid-run state threaded back into [`train_loop`] when resuming.
pub(crate) struct ResumeState {
    pub opt: Adam,
    pub rng: SmallRng,
    pub losses: Vec<f32>,
    pub epoch_walls: Vec<Duration>,
    pub slot_acc: u64,
}

/// Hooks and prior state for one [`train_loop`] drive. `'h` is the
/// borrow of the driving session, `'o` the observer's own lifetime
/// (captured environment of a closure observer).
pub(crate) struct LoopHooks<'h, 'o> {
    pub observer: Option<&'h mut (dyn RunObserver + 'o)>,
    pub checkpoint: Option<&'h CheckpointPolicy>,
    pub resume: Option<ResumeState>,
}

#[cfg(test)]
impl LoopHooks<'_, '_> {
    /// No observer, no checkpoints, fresh run.
    pub fn none() -> Self {
        LoopHooks {
            observer: None,
            checkpoint: None,
            resume: None,
        }
    }
}

/// Validate that `g` matches the shape `model` was built for.
pub(crate) fn validate_shapes(model: &Tgae, g: &TemporalGraph) -> Result<(), TgxError> {
    if g.n_nodes() != model.n_nodes {
        return Err(TgxError::NodeCountMismatch {
            model: model.n_nodes,
            graph: g.n_nodes(),
        });
    }
    if g.n_timestamps() > model.n_timestamps {
        return Err(TgxError::TimestampMismatch {
            model: model.n_timestamps,
            graph: g.n_timestamps(),
        });
    }
    Ok(())
}

/// The mini-batch training loop behind
/// [`Session::train`](crate::session::Session::train) and
/// [`Session::resume_from`](crate::session::Session::resume_from). For
/// identical inputs (same config, same graph, no resume) the parameter
/// trajectory is bit-identical to the seed implementation: the RNG stream,
/// sampling order, and update order are unchanged — hooks only observe.
pub(crate) fn train_loop(
    model: &mut Tgae,
    g: &TemporalGraph,
    hooks: LoopHooks<'_, '_>,
) -> Result<TrainReport, TgxError> {
    let cfg: TgaeConfig = model.cfg.clone();
    validate_shapes(model, g)?;
    if g.n_timestamps() == 0 || g.n_edges() == 0 {
        return Err(TgxError::EmptyGraph);
    }
    if cfg.epochs == 0 {
        return Err(TgxError::InvalidConfig("epochs must be > 0".into()));
    }
    let sampler = InitialNodeSampler::new(g, cfg.sampler.degree_weighted);
    if sampler.population_size() == 0 {
        return Err(TgxError::EmptyGraph);
    }

    let LoopHooks {
        mut observer,
        checkpoint,
        resume,
    } = hooks;
    let (mut opt, mut rng, mut losses, mut epoch_walls, mut slot_acc) = match resume {
        Some(r) => (r.opt, r.rng, r.losses, r.epoch_walls, r.slot_acc),
        None => (
            Adam::new(cfg.lr),
            SmallRng::seed_from_u64(cfg.seed ^ TRAIN_STREAM),
            Vec::with_capacity(cfg.epochs),
            Vec::with_capacity(cfg.epochs),
            0u64,
        ),
    };
    let start_epoch = losses.len();
    if start_epoch > cfg.epochs {
        return Err(TgxError::CheckpointMismatch(format!(
            "checkpoint has already run {start_epoch} epochs but the config asks for {}",
            cfg.epochs
        )));
    }
    let prior_wall: Duration = epoch_walls.iter().sum();
    #[expect(
        clippy::disallowed_methods,
        reason = "observer wall clock only (epoch reporting and checkpoint metadata), never seeded state"
    )]
    let run_start = Instant::now();
    let mut early_stopped = false;

    // One tape for the whole run: `forward_batch_into` clears it each
    // step, which frees the last step's node buffers.
    let mut tape = Tape::new();
    for epoch in start_epoch..cfg.epochs {
        let _span = tg_obs::trace::span("train.epoch");
        #[expect(
            clippy::disallowed_methods,
            reason = "per-epoch timing for the observer, never seeded state"
        )]
        let t0 = Instant::now();
        let centers = sampler.sample_batch(cfg.batch_centers, &mut rng);
        let (loss, stats) = model.forward_batch_into(&mut tape, g, &centers, &mut rng);
        let loss_val = tape.value(loss).item();
        let mut grads = tape.backward(loss);
        clip_global_norm(&mut grads, cfg.grad_clip);
        opt.step(&mut model.store, &grads);
        losses.push(loss_val);
        slot_acc += stats.n_slots as u64;
        let wall = t0.elapsed();
        epoch_walls.push(wall);
        debug_assert!(!model.store.any_non_finite(), "parameters went non-finite");

        if let Some(cp) = checkpoint {
            if (epoch + 1).is_multiple_of(cp.every_epochs) {
                tg_faults::fail_point!(TRAIN_CHECKPOINT_WRITE, cp.path.display().to_string());
                let ckpt = TrainCheckpoint {
                    version: CHECKPOINT_VERSION,
                    model: model.clone(),
                    opt: opt.clone(),
                    rng_state: rng.state(),
                    losses: losses.clone(),
                    epoch_wall_nanos: epoch_walls.iter().map(|w| w.as_nanos() as u64).collect(),
                    slot_acc,
                };
                // age the rotation before writing: path -> path.1 -> …
                // so a crash inside save_json can cost at most the
                // not-yet-written newest generation
                for i in (1..cp.keep).rev() {
                    let from = crate::session::rotation_slot(&cp.path, i - 1);
                    let to = crate::session::rotation_slot(&cp.path, i);
                    match std::fs::rename(&from, &to) {
                        Ok(()) => {}
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                        Err(e) => return Err(crate::persist::PersistError::Io(e).into()),
                    }
                }
                crate::persist::save_json(&ckpt, &cp.path)?;
            }
        }
        if let Some(obs) = observer.as_deref_mut() {
            let event = EpochEvent {
                epoch,
                n_epochs: cfg.epochs,
                loss: loss_val,
                wall,
            };
            if matches!(obs.on_epoch_end(&event), TrainControl::Stop) {
                early_stopped = epoch + 1 < cfg.epochs;
                break;
            }
        }
    }
    if losses.is_empty() {
        // start_epoch == cfg.epochs can't happen (checked above) with an
        // empty history, so this is unreachable in practice; keep a typed
        // error rather than an expect-panic all the same.
        return Err(TgxError::Cancelled);
    }
    Ok(TrainReport {
        mean_batch_slots: slot_acc as f64 / losses.len() as f64,
        epochs_configured: cfg.epochs,
        early_stopped,
        losses,
        epoch_walls,
        wall: prior_wall + run_start.elapsed(),
        n_params: model.n_parameters(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TgaeConfig;
    use tg_graph::TemporalEdge;

    fn fit_for_test(model: &mut Tgae, g: &TemporalGraph) -> TrainReport {
        train_loop(model, g, LoopHooks::none()).expect("training failed")
    }

    fn community_graph() -> TemporalGraph {
        // two dense communities: {0..4} and {5..9}, repeated over 4 steps
        let mut edges = Vec::new();
        for t in 0..4u32 {
            for u in 0..5u32 {
                for v in 0..5u32 {
                    if u != v && (u + v + t) % 3 == 0 {
                        edges.push(TemporalEdge::new(u, v, t));
                        edges.push(TemporalEdge::new(u + 5, v + 5, t));
                    }
                }
            }
        }
        TemporalGraph::from_edges(10, 4, edges)
    }

    #[test]
    fn training_reduces_loss() {
        let g = community_graph();
        let mut cfg = TgaeConfig::tiny();
        cfg.epochs = 40;
        cfg.lr = 2e-2;
        let mut model = Tgae::new(g.n_nodes(), g.n_timestamps(), cfg);
        let report = fit_for_test(&mut model, &g);
        assert_eq!(report.losses.len(), 40);
        let head: f32 = report.losses[..5].iter().sum::<f32>() / 5.0;
        let tail = report.tail_loss();
        assert!(
            tail < head * 0.95,
            "loss did not decrease: head {head} tail {tail}"
        );
        assert!(report.losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn trained_model_prefers_community_neighbors() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let g = community_graph();
        let mut cfg = TgaeConfig::tiny();
        cfg.epochs = 120;
        cfg.lr = 2e-2;
        let mut model = Tgae::new(g.n_nodes(), g.n_timestamps(), cfg);
        fit_for_test(&mut model, &g);
        // node 0 (community A) should put more mass on 1..5 than on 5..10
        let mut rng = SmallRng::seed_from_u64(99);
        let (probs, cands) = model.decode_rows_for_generation(&g, &[(0, 0)], &mut rng);
        let mut mass_a = 0.0f32;
        let mut mass_b = 0.0f32;
        for (col, &v) in cands.iter().enumerate() {
            if (1..5).contains(&v) {
                mass_a += probs.get(0, col);
            } else if v >= 5 {
                mass_b += probs.get(0, col);
            }
        }
        assert!(mass_a > mass_b, "community mass A {mass_a} <= B {mass_b}");
    }

    #[test]
    fn report_accessors() {
        let g = community_graph();
        let mut cfg = TgaeConfig::tiny();
        cfg.epochs = 4;
        let mut model = Tgae::new(g.n_nodes(), g.n_timestamps(), cfg);
        let report = fit_for_test(&mut model, &g);
        assert!(report.final_loss().is_finite());
        assert!(report.tail_loss().is_finite());
        assert!(report.n_params > 0);
        assert!(report.mean_batch_slots > 0.0);
        assert!(report.wall.as_nanos() > 0);
        // PR-4 accessors: per-epoch history and actual-vs-configured count
        assert_eq!(report.epochs_run(), 4);
        assert_eq!(report.epochs_configured, 4);
        assert!(!report.early_stopped);
        assert_eq!(report.losses.len(), report.epoch_walls.len());
        assert!(report.mean_epoch_wall() <= report.wall);
        let summed: Duration = report.epoch_walls.iter().sum();
        assert!(summed <= report.wall);
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let g = community_graph();
        let mut model = Tgae::new(g.n_nodes() + 2, g.n_timestamps(), TgaeConfig::tiny());
        let err = train_loop(&mut model, &g, LoopHooks::none()).unwrap_err();
        assert!(matches!(
            err,
            TgxError::NodeCountMismatch {
                model: 12,
                graph: 10
            }
        ));
    }
}
