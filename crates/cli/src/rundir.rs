//! The on-disk layout shared by every `tgx-cli` subcommand: a **run
//! directory** holding a trained run and what was generated from it.
//!
//! ```text
//! <run-dir>/
//!   run.json              RunManifest: graph shape, master seed, provenance
//!   observed.edges        the observed graph (dense `u v t` lines)
//!   model.json            trained model checkpoint (tgae::persist format)
//!   train_ckpt.json       mid-training checkpoint (when --checkpoint-every)
//!   simulated.edges       the last `simulate` output
//!   simulated.stats.json  its statistics (simulate --stats)
//!   trace.jsonl           its spans (simulate --trace), and trace.json
//!   telemetry.jsonl       per-epoch records (train --telemetry)
//! ```
//!
//! The manifest is deliberately tiny: `simulate` re-derives everything
//! else (the simulation plan, unit seeds, budgets) deterministically from
//! the observed graph and the master seed.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use tg_graph::io::load_edge_list_exact;
use tg_graph::TemporalGraph;
use tgae::{SharedRun, Tgae, TgxError, TrainCheckpoint};

/// Provenance + shape record for one run directory.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunManifest {
    /// Layout version (bumped on incompatible changes).
    pub version: u32,
    /// Nodes in the observed graph.
    pub n_nodes: usize,
    /// Timestamps in the observed graph.
    pub n_timestamps: usize,
    /// Temporal edges in the observed graph.
    pub n_edges: usize,
    /// The session master seed (seed policy) the run was trained under.
    pub seed: u64,
    /// The full model/training configuration — authoritative on
    /// `train --resume`, so an interrupted `--full`/`--batch-centers`
    /// run resumes with exactly the config it was started with (the
    /// session's checkpoint-config equality check would refuse anything
    /// else).
    pub config: tgae::TgaeConfig,
    /// Human-readable provenance (preset name / input file).
    pub source: String,
    /// Path of the TGES edge store the observed graph was streamed from
    /// (`train --store`); `None` for preset/text inputs. Recorded so a
    /// run is traceable back to its canonical on-disk input even after
    /// `observed.edges` is regenerated.
    pub store: Option<String>,
}

/// Current [`RunManifest::version`].
pub const RUN_VERSION: u32 = 1;

/// Typed paths inside one run directory.
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    /// Wrap (and `mkdir -p`) a run directory.
    pub fn create(root: impl Into<PathBuf>) -> Result<Self, String> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create run dir {}: {e}", root.display()))?;
        Ok(RunDir { root })
    }

    /// Wrap an existing run directory (no filesystem access yet).
    pub fn open(root: impl Into<PathBuf>) -> Self {
        RunDir { root: root.into() }
    }

    /// The directory itself.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// `run.json`.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("run.json")
    }

    /// `observed.edges`.
    pub fn observed_path(&self) -> PathBuf {
        self.root.join("observed.edges")
    }

    /// `model.json`.
    pub fn model_path(&self) -> PathBuf {
        self.root.join("model.json")
    }

    /// `train_ckpt.json`.
    pub fn train_checkpoint_path(&self) -> PathBuf {
        self.root.join("train_ckpt.json")
    }

    /// `simulated.edges` — the generated edge list.
    pub fn simulated_path(&self) -> PathBuf {
        self.root.join("simulated.edges")
    }

    /// `simulated.stats.json` — its statistics.
    pub fn simulated_stats_path(&self) -> PathBuf {
        self.root.join("simulated.stats.json")
    }

    /// `trace.jsonl` — the span records of a `simulate --trace` run.
    pub fn trace_spans_path(&self) -> PathBuf {
        self.root.join("trace.jsonl")
    }

    /// `trace.json` — the Chrome `trace_event` view of a
    /// `simulate --trace` run.
    pub fn trace_json_path(&self) -> PathBuf {
        self.root.join("trace.json")
    }

    /// `telemetry.jsonl` — per-epoch loss/wall/heap records of a
    /// `train --telemetry` run.
    pub fn telemetry_path(&self) -> PathBuf {
        self.root.join("telemetry.jsonl")
    }

    /// Write the manifest (atomically: a crash mid-write must not leave
    /// a torn run.json, or the whole run dir becomes unreadable).
    pub fn save_manifest(&self, m: &RunManifest) -> Result<(), String> {
        let json = serde_json::to_string_pretty(m).map_err(|e| e.to_string())?;
        tg_graph::io::atomic_write_bytes(self.manifest_path(), json.as_bytes())
            .map_err(|e| format!("write {}: {e}", self.manifest_path().display()))
    }

    /// Read the manifest.
    pub fn load_manifest(&self) -> Result<RunManifest, String> {
        let text = std::fs::read_to_string(self.manifest_path()).map_err(|e| {
            format!(
                "{} is not a run directory (missing run.json): {e}",
                self.root.display()
            )
        })?;
        let m: RunManifest = serde_json::from_str(&text)
            .map_err(|e| format!("corrupt run.json in {}: {e}", self.root.display()))?;
        if m.version != RUN_VERSION {
            return Err(format!(
                "run.json is layout v{} (this build reads v{RUN_VERSION})",
                m.version
            ));
        }
        Ok(m)
    }

    /// Load the observed graph exactly as written (no id compaction).
    pub fn load_observed(&self, m: &RunManifest) -> Result<TemporalGraph, String> {
        load_edge_list_exact(self.observed_path(), m.n_nodes, m.n_timestamps)
            .map_err(|e| format!("load {}: {e}", self.observed_path().display()))
    }

    /// Load manifest + trained model + observed graph as one validated
    /// [`SharedRun`] — the one way `simulate`, `eval`, and `serve` open a run
    /// directory. The model is loaded first and the manifest's shape must
    /// be the model's before `observed.edges` is opened, so a run.json
    /// that lies about its shape cannot size an allocation. The
    /// manifest's master seed is authoritative over the model config's
    /// copy.
    pub fn load_run(&self) -> Result<SharedRun, String> {
        let model = tgae::persist::load(self.model_path())
            .map_err(|e| format!("load {}: {e}", self.model_path().display()))?;
        let manifest = self.load_manifest()?;
        self.check_model_shape(&manifest, &model)?;
        let observed = self.load_observed(&manifest)?;
        let run = SharedRun::new(model, observed).map_err(|e| e.to_string())?;
        Ok(run.with_master(manifest.seed))
    }

    /// Load the manifest, the checkpoint to resume from and the observed
    /// graph. The checkpoint is the newest of the `train_ckpt.json`
    /// rotation whose model has the manifest's shape, found before
    /// `observed.edges` is opened: as in [`RunDir::load_run`], a manifest
    /// that lies about its shape must not size the graph's allocation.
    pub fn load_resumable(&self) -> Result<(RunManifest, TrainCheckpoint, TemporalGraph), String> {
        let manifest = self.load_manifest()?;
        let ckpt = tgae::session::newest_checkpoint(&self.train_checkpoint_path(), |c| {
            self.check_model_shape(&manifest, &c.model)
                .map_err(TgxError::CheckpointMismatch)
        })
        .map_err(|e| e.to_string())?;
        let observed = self.load_observed(&manifest)?;
        Ok((manifest, ckpt, observed))
    }

    /// Refuse a manifest whose shape is not the one `model` was trained
    /// for: a run.json that lies about its shape must not size the
    /// observed graph's allocation.
    fn check_model_shape(&self, manifest: &RunManifest, model: &Tgae) -> Result<(), String> {
        if (manifest.n_nodes, manifest.n_timestamps) != (model.n_nodes, model.n_timestamps) {
            return Err(format!(
                "{} declares {} nodes x {} timestamps, but the model was trained for {} nodes x {} timestamps",
                self.manifest_path().display(),
                manifest.n_nodes,
                manifest.n_timestamps,
                model.n_nodes,
                model.n_timestamps
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run directory over a 4-node, 3-timestamp ring whose run.json
    /// declares `shape`.
    fn run_dir(tag: &str, shape: (usize, usize)) -> RunDir {
        let dir = RunDir::create(
            std::env::temp_dir().join(format!("tgx_rundir_{tag}_{}", std::process::id())),
        )
        .unwrap();
        let cfg = tgae::TgaeConfig::tiny();
        tgae::persist::save(&tgae::Tgae::new(4, 3, cfg.clone()), dir.model_path()).unwrap();
        let ring: String = (0..3u32)
            .flat_map(|t| (0..4u32).map(move |u| format!("{u} {} {t}\n", (u + 1) % 4)))
            .collect();
        std::fs::write(dir.observed_path(), ring).unwrap();
        dir.save_manifest(&RunManifest {
            version: RUN_VERSION,
            n_nodes: shape.0,
            n_timestamps: shape.1,
            n_edges: 12,
            seed: 5,
            config: cfg,
            source: "ring".into(),
            store: None,
        })
        .unwrap();
        dir
    }

    #[test]
    fn load_run_refuses_a_manifest_shape_the_model_does_not_have() {
        // a run.json claiming 2^40 timestamps used to size the observed
        // graph's allocation and abort the process
        for (tag, shape) in [("t", (4, 1 << 40)), ("n", (1 << 40, 3))] {
            let dir = run_dir(tag, shape);
            let Err(err) = dir.load_run() else {
                panic!("a run.json declaring {shape:?} loaded")
            };
            assert!(
                err.contains("but the model was trained for 4 nodes x 3 timestamps"),
                "{err}"
            );
            std::fs::remove_dir_all(dir.root()).ok();
        }
        let dir = run_dir("ok", (4, 3));
        assert!(dir.load_run().is_ok());
        std::fs::remove_dir_all(dir.root()).ok();
    }
}
