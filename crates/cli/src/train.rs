//! `tgx-cli train`: fit a TGAE on an observed graph and persist a run
//! directory that `simulate`, `eval` and `serve` load.
//!
//! ```text
//! tgx-cli train --run-dir DIR (--preset NAME [--scale F] [--data-seed S]
//!                              | --edges FILE [--buckets T]
//!                              | --store FILE)
//!               [--epochs N] [--batch-centers N] [--seed S] [--full]
//!               [--checkpoint-every N] [--checkpoint-keep K] [--resume]
//!               [--telemetry] [--quiet]
//! ```
//!
//! Training runs through the `Session` API: a progress observer prints
//! epoch-end lines, `--checkpoint-every N` writes resumable, atomically
//! replaced checkpoints in a rotation of `--checkpoint-keep K`
//! generations (`train_ckpt.json`, `.1`, …; default 2, so a checkpoint
//! torn by a crash mid-write still leaves the previous generation for
//! `--resume` to fall back to), and `--resume` continues a previously
//! interrupted run **bit-identically** (same final parameters as an
//! uninterrupted run).
//!
//! `--store FILE` reads the observed graph from a TGES edge store
//! (written by `tgx-cli ingest`) through the streaming `EdgeSource`
//! ingest path — bounded-memory assembly instead of text re-parsing —
//! and records the store path in the run manifest. Training from the
//! store is **bit-identical** to training from the equivalent
//! `--edges`/`--preset` input (asserted by the CI smoke pipeline).

use crate::args::Args;
use crate::errors::CliError;
use crate::input::Input;
use crate::rundir::{RunDir, RunManifest, RUN_VERSION};
use tg_graph::io::save_edge_list_atomic;
use tgae::{EpochEvent, RunObserver, Session, TgaeConfig, TrainControl, TrainReport};

fn progress_observer(quiet: bool, n_epochs: usize) -> impl FnMut(&EpochEvent) -> TrainControl {
    // print ~10 lines per run regardless of epoch count
    let stride = (n_epochs / 10).max(1);
    move |ev: &EpochEvent| {
        if !quiet && ((ev.epoch + 1).is_multiple_of(stride) || ev.epoch + 1 == ev.n_epochs) {
            eprintln!(
                "  epoch {:>4}/{}: loss {:.4} ({:.1} ms)",
                ev.epoch + 1,
                ev.n_epochs,
                ev.loss,
                ev.wall.as_secs_f64() * 1e3
            );
        }
        TrainControl::Continue
    }
}

/// Run the subcommand. The whole command line is read and checked, and
/// the training configuration validated, before anything under
/// `--run-dir` is created or rewritten: a refused `train` leaves an
/// earlier run as it was.
pub fn run(args: &Args) -> Result<(), CliError> {
    let root: String = args.require("run-dir")?;
    let quiet = args.flag("quiet");
    let resume = args.flag("resume");
    let telemetry = args.flag("telemetry");
    let checkpoint_every: usize = args.get_parsed("checkpoint-every", 0)?;
    let checkpoint_keep: usize = args.get_parsed("checkpoint-keep", 2)?;
    if checkpoint_keep == 0 {
        let msg = "--checkpoint-keep: must keep at least 1 generation";
        return Err(CliError::Usage(msg.into()));
    }
    let (run_dir, ckpt, observed, manifest) = if resume {
        // Resuming: the run dir is authoritative — graph, config, and
        // seed all come from the manifest (written before training
        // started), so the session's checkpoint-config equality check
        // passes without re-passing any training flags.
        args.reject_unused()?;
        let run_dir = RunDir::open(root);
        let (manifest, ckpt, observed) = run_dir.load_resumable()?;
        (run_dir, Some(ckpt), observed, manifest)
    } else {
        let input = Input::read(args, true)?;
        let mut config = if args.flag("full") {
            TgaeConfig::default()
        } else {
            TgaeConfig::tiny()
        };
        config.seed = args.get_parsed("seed", 42)?;
        config.epochs = args.get_parsed("epochs", config.epochs)?;
        config.batch_centers = args.get_parsed("batch-centers", config.batch_centers)?;
        config
            .validate()
            .map_err(|e| CliError::Usage(e.to_string()))?;
        args.reject_unused()?;
        let (observed, source) = input.load()?;
        let store = match input {
            Input::Store(path) => Some(path),
            _ => None,
        };
        let manifest = RunManifest {
            version: RUN_VERSION,
            n_nodes: observed.n_nodes(),
            n_timestamps: observed.n_timestamps(),
            n_edges: observed.n_edges(),
            seed: config.seed,
            config,
            source,
            store,
        };
        // Persist the manifest + observed graph *before* training: an
        // interrupted run then has everything `--resume` needs on disk
        // (the session writes the resumable train_ckpt.json itself).
        let run_dir = RunDir::create(root)?;
        save_edge_list_atomic(&observed, run_dir.observed_path())
            .map_err(|e| format!("write observed.edges: {e}"))?;
        run_dir.save_manifest(&manifest)?;
        (run_dir, None, observed, manifest)
    };
    if !quiet {
        eprintln!(
            "observed: {} nodes, {} timestamps, {} edges ({})",
            observed.n_nodes(),
            observed.n_timestamps(),
            observed.n_edges(),
            manifest.source
        );
    }

    // --telemetry: append per-epoch loss/wall/heap to telemetry.jsonl,
    // composed with the progress printer (the session takes one
    // observer). The observer only *reads* the epoch events, so the
    // parameter trajectory — and therefore model.json — is bit-identical
    // with the flag on or off (asserted by the CLI trace test).
    let mut obs = if telemetry {
        Some(
            crate::obs::ObsObserver::with_file(&run_dir.telemetry_path())
                .map_err(|e| format!("create telemetry.jsonl: {e}"))?,
        )
    } else {
        None
    };
    let mut progress = progress_observer(quiet, manifest.config.epochs);
    let observer = move |ev: &EpochEvent| {
        if let Some(o) = obs.as_mut() {
            o.on_epoch_end(ev);
        }
        progress(ev)
    };
    let mut builder = Session::builder(&observed)
        .config(manifest.config)
        .seed(manifest.seed)
        .observer(observer);
    if checkpoint_every > 0 || resume {
        builder = builder.checkpoint_rotating(
            run_dir.train_checkpoint_path(),
            checkpoint_every.max(1),
            checkpoint_keep,
        );
    }
    let mut session = builder.build().map_err(|e| e.to_string())?;

    let report: TrainReport = match ckpt {
        Some(ckpt) => session.resume(ckpt),
        None => session.train(),
    }
    .map_err(|e| e.to_string())?;
    if !quiet {
        eprintln!(
            "trained {} epochs in {:.2?}: loss {:.4} -> {:.4} ({} params)",
            report.epochs_run(),
            report.wall,
            report.losses[0],
            report.final_loss(),
            report.n_params
        );
    }

    session
        .save_model(run_dir.model_path())
        .map_err(|e| e.to_string())?;
    if !quiet {
        eprintln!("run directory ready: {}", run_dir.root().display());
    }
    println!("{}", run_dir.root().display());
    Ok(())
}
