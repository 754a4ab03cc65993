//! Shared helpers for the `tgx-cli` process-level test suites
//! (`supervision.rs`, `simulate.rs`, `trace.rs`, `serve_faults.rs`):
//! spawning the built binary, per-test temp directories, and the
//! standard small trained run every scenario starts from. Each test
//! binary compiles its own copy (`mod common;`).

use std::path::{Path, PathBuf};
use std::process::Command;

/// A `Command` for the freshly built `tgx-cli` binary.
pub fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tgx-cli"))
}

/// A fresh per-test temp directory, namespaced by suite tag and pid so
/// parallel test binaries never collide.
pub fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tgx_cli_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A small dense ring (24 nodes × 3 timestamps): fast to train in debug
/// mode, every node and timestamp occupied.
pub fn write_ring_edges(path: &Path) {
    let mut text = String::new();
    for t in 0..3u32 {
        for u in 0..24u32 {
            text.push_str(&format!("{u} {} {t}\n", (u + 1) % 24));
        }
    }
    std::fs::write(path, text).unwrap();
}

/// Train the standard 2-epoch seed-5 run over `edges` into
/// `<dir>/<run>`, returning the run directory.
pub fn train_run(dir: &Path, run: &str, edges: &Path) -> PathBuf {
    let run_dir = dir.join(run);
    let status = cli()
        .args(["train", "--run-dir"])
        .arg(&run_dir)
        .arg("--edges")
        .arg(edges)
        .args(["--epochs", "2", "--seed", "5", "--quiet"])
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run tgx-cli train");
    assert!(status.success(), "train failed");
    run_dir
}
