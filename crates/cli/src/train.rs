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
use crate::rundir::{RunDir, RunManifest, RUN_VERSION};
use tg_graph::io::save_edge_list_atomic;
use tg_graph::TemporalGraph;
use tg_store::StoreSource;
use tgae::{EpochEvent, RunObserver, Session, TgaeConfig, TrainControl, TrainReport};

/// The resolved observed graph plus its provenance.
struct ObservedInput {
    graph: TemporalGraph,
    /// Human-readable provenance for the manifest.
    source: String,
    /// TGES store path, when the graph came from `--store`.
    store: Option<String>,
}

/// Resolve the observed graph from `--preset`/`--edges`/`--store`.
fn load_observed(args: &Args) -> Result<ObservedInput, CliError> {
    match (args.get("preset"), args.get("edges"), args.get("store")) {
        (Some(name), None, None) => {
            let (graph, source) = crate::input::load_preset(args, name)?;
            Ok(ObservedInput {
                graph,
                source,
                store: None,
            })
        }
        (None, Some(path), None) => {
            let (graph, source) = crate::input::load_text_edges(args, path)?;
            Ok(ObservedInput {
                graph,
                source,
                store: None,
            })
        }
        (None, None, Some(path)) => {
            let path = path.to_string();
            let mut src = StoreSource::open(&path).map_err(|e| format!("open {path}: {e}"))?;
            let g = src
                .load_graph()
                .map_err(|e| format!("stream {path}: {e}"))?;
            Ok(ObservedInput {
                graph: g,
                source: format!("store:{path}"),
                store: Some(path),
            })
        }
        (None, None, None) => {
            Err("need an observed graph: --preset NAME, --edges FILE, or --store FILE".into())
        }
        _ => Err("give exactly one of --preset, --edges, or --store".into()),
    }
}

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

/// Run the subcommand.
pub fn run(args: &Args) -> Result<(), CliError> {
    let run_dir = RunDir::create(args.require::<String>("run-dir")?)?;
    let quiet = args.flag("quiet");
    let resume = args.flag("resume");
    let telemetry = args.flag("telemetry");
    let checkpoint_every: usize = args.get_parsed("checkpoint-every", 0)?;
    let checkpoint_keep: usize = args.get_parsed("checkpoint-keep", 2)?;
    if checkpoint_keep == 0 {
        return Err("--checkpoint-keep: must keep at least 1 generation".into());
    }

    let (ckpt, observed, source, store, seed, cfg) = if resume {
        // Resuming: the run dir is authoritative — graph, config, and
        // seed all come from the manifest (written before training
        // started), so the session's checkpoint-config equality check
        // passes without re-passing any training flags.
        let (manifest, ckpt, observed) = run_dir.load_resumable()?;
        (
            Some(ckpt),
            observed,
            manifest.source,
            manifest.store,
            manifest.seed,
            manifest.config,
        )
    } else {
        let input = load_observed(args)?;
        let seed: u64 = args.get_parsed("seed", 42)?;
        let mut cfg = if args.flag("full") {
            TgaeConfig::default()
        } else {
            TgaeConfig::tiny()
        };
        cfg.seed = seed;
        cfg.epochs = args.get_parsed("epochs", cfg.epochs)?;
        cfg.batch_centers = args.get_parsed("batch-centers", cfg.batch_centers)?;
        (None, input.graph, input.source, input.store, seed, cfg)
    };
    args.reject_unused()?;
    let epochs = cfg.epochs;

    if !quiet {
        eprintln!(
            "observed: {} nodes, {} timestamps, {} edges ({source})",
            observed.n_nodes(),
            observed.n_timestamps(),
            observed.n_edges()
        );
    }

    // Persist the manifest + observed graph *before* training: an
    // interrupted run then has everything `--resume` needs on disk
    // (the resumable train_ckpt.json is written by the session itself).
    if !resume {
        save_edge_list_atomic(&observed, run_dir.observed_path())
            .map_err(|e| format!("write observed.edges: {e}"))?;
        run_dir.save_manifest(&RunManifest {
            version: RUN_VERSION,
            n_nodes: observed.n_nodes(),
            n_timestamps: observed.n_timestamps(),
            n_edges: observed.n_edges(),
            seed,
            config: cfg.clone(),
            source,
            store,
        })?;
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
    let mut progress = progress_observer(quiet, epochs);
    let observer = move |ev: &EpochEvent| {
        if let Some(o) = obs.as_mut() {
            o.on_epoch_end(ev);
        }
        progress(ev)
    };
    let mut builder = Session::builder(&observed)
        .config(cfg)
        .seed(seed)
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
