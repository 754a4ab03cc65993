//! ISSUE-6 crash-safety tests for the checkpoint rotation:
//!
//! - **rotation bookkeeping** — `checkpoint_rotating(path, every, keep)`
//!   retains exactly the `keep` newest generations at `path`, `path.1`, …;
//! - **fallback resume** — when the newest checkpoint is corrupt (the only
//!   one a crash can tear, since writes are atomic and rotation happens
//!   first), `resume_from` falls back to the older generation and the
//!   completed run is still bit-identical to an uninterrupted one;
//! - **torn-write regression** — with the `persist.atomic.partial` fault
//!   point armed, a checkpoint write fails mid-file yet the previous
//!   generation at `path` survives untouched (the pre-fix code truncated
//!   `path` in place, so a torn write destroyed it).

use tg_faults::registry::PERSIST_ATOMIC_PARTIAL;
use tg_graph::{TemporalEdge, TemporalGraph};
use tgae::{Session, Tgae, TgaeConfig, TgxError};

fn ring_graph(n: u32, t_count: u32) -> TemporalGraph {
    let mut edges = Vec::new();
    for t in 0..t_count {
        for u in 0..n {
            edges.push(TemporalEdge::new(u, (u + 1) % n, t));
        }
    }
    TemporalGraph::from_edges(n as usize, t_count as usize, edges)
}

fn tiny_cfg(epochs: usize, seed: u64) -> TgaeConfig {
    let mut cfg = TgaeConfig::tiny();
    cfg.epochs = epochs;
    cfg.seed = seed;
    cfg
}

fn params_of(model: &Tgae) -> String {
    serde_json::to_string(&model.store).expect("serialise params")
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tgae_rotation_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn slot(path: &std::path::Path, i: usize) -> std::path::PathBuf {
    if i == 0 {
        path.to_path_buf()
    } else {
        let mut name = path.file_name().unwrap().to_os_string();
        name.push(format!(".{i}"));
        path.with_file_name(name)
    }
}

#[test]
fn rotation_retains_exactly_keep_generations() {
    let g = ring_graph(8, 2);
    let dir = tmp_dir("keepk");
    let path = dir.join("ckpt.json");
    let mut s = Session::builder(&g)
        .config(tiny_cfg(6, 5))
        .checkpoint_rotating(&path, 1, 3)
        .build()
        .unwrap();
    s.train().unwrap();
    // 6 checkpoint writes, keep 3: slots 0..=2 populated, never a slot 3
    for i in 0..3 {
        assert!(slot(&path, i).exists(), "missing rotation slot {i}");
    }
    assert!(!slot(&path, 3).exists(), "rotation leaked past keep");
    // every retained generation is a complete JSON checkpoint
    for i in 0..3 {
        let text = std::fs::read_to_string(slot(&path, i)).unwrap();
        assert!(text.contains("losses"), "slot {i} is not a checkpoint");
        assert!(text.ends_with('}'), "slot {i} is torn");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_keep_is_rejected_at_build() {
    let g = ring_graph(6, 2);
    let err = Session::builder(&g)
        .config(tiny_cfg(4, 2))
        .checkpoint_rotating("/tmp/never.json", 2, 0)
        .build()
        .unwrap_err();
    assert!(matches!(err, TgxError::InvalidConfig(_)), "{err}");
}

#[test]
fn resume_falls_back_to_older_generation_when_newest_is_torn() {
    let g = ring_graph(10, 3);
    let dir = tmp_dir("fallback");
    let path = dir.join("ckpt.json");
    let cfg = tiny_cfg(8, 11);

    // the reference: one uninterrupted run
    let mut clean = Session::builder(&g).config(cfg.clone()).build().unwrap();
    let clean_report = clean.train().unwrap();

    // a checkpointed run (every 2 epochs, keep 2) that "crashes" after
    // its newest checkpoint gets torn
    let mut first = Session::builder(&g)
        .config(cfg.clone())
        .checkpoint_rotating(&path, 2, 2)
        .build()
        .unwrap();
    first.train().unwrap();
    assert!(slot(&path, 0).exists() && slot(&path, 1).exists());
    std::fs::write(&path, b"{\"version\":1,\"torn mid-wri").unwrap();

    // fresh session: resume must skip the damaged slot 0, restore slot 1
    // (epoch 6), re-run the remaining epochs, and land bit-identical
    let mut resumed = Session::builder(&g).config(cfg).build().unwrap();
    let report = resumed.resume_from(&path).unwrap();
    assert_eq!(report.losses, clean_report.losses);
    assert_eq!(params_of(resumed.model()), params_of(clean.model()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_with_every_generation_damaged_reports_all_candidates() {
    let g = ring_graph(6, 2);
    let dir = tmp_dir("alldead");
    let path = dir.join("ckpt.json");
    std::fs::write(&path, b"garbage one").unwrap();
    std::fs::write(slot(&path, 1), b"garbage two").unwrap();
    let mut s = Session::builder(&g).config(tiny_cfg(4, 2)).build().unwrap();
    let err = s.resume_from(&path).unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, TgxError::CheckpointMismatch(_)), "{msg}");
    assert!(
        msg.contains("ckpt.json") && msg.contains("ckpt.json.1"),
        "{msg}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_checkpoint_write_leaves_previous_generation_intact() {
    // regression for the truncate-and-overwrite-in-place checkpoint bug:
    // needs the fault machinery compiled in (`--features tg-faults/enabled`,
    // which the workspace test run enables); a no-op otherwise.
    if !tg_faults::is_compiled() {
        return;
    }
    let g = ring_graph(8, 2);
    let dir = tmp_dir("torn");
    let path = dir.join("ckpt.json");
    let cfg = tiny_cfg(6, 7);

    // first run: land a valid mid-run checkpoint at `path` (after epoch
    // index 2), then stop early — simulating a run interrupted mid-way
    let mut s = Session::builder(&g)
        .config(cfg.clone())
        .checkpoint_rotating(&path, 3, 1)
        .observer(|e: &tgae::EpochEvent| {
            if e.epoch >= 2 {
                tgae::TrainControl::Stop
            } else {
                tgae::TrainControl::Continue
            }
        })
        .build()
        .unwrap();
    s.train().unwrap();
    let good_bytes = std::fs::read(&path).unwrap();

    // second run: every checkpoint write this thread makes fails mid-file
    let _armed = tg_faults::arm(&PERSIST_ATOMIC_PARTIAL, "err").unwrap();
    let mut crashing = Session::builder(&g)
        .config(cfg)
        .checkpoint_rotating(&path, 3, 1)
        .build()
        .unwrap();
    let err = crashing.resume_from(&path).unwrap_err();
    assert!(matches!(err, TgxError::Checkpoint(_)), "{err}");

    // the torn write must not have harmed the committed checkpoint
    assert_eq!(std::fs::read(&path).unwrap(), good_bytes);
    std::fs::remove_dir_all(&dir).ok();
}
