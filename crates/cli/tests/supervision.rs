//! Process-level tests of the CLI's failure handling:
//!
//! - a `simulate` whose commit fails leaves the earlier
//!   `simulated.edges` and no tmp file behind;
//! - `ingest --salvage` rebuilds a clean, fully verifiable store from a
//!   bit-flipped one (exit 0; `--verify` checks it) and exits 3 on a
//!   file that is not a store;
//! - usage errors exit 2 (the flags of the retired multi-process driver
//!   included, and a `--preset` `--scale` that is not finite and
//!   positive) before the subcommand writes anything, and an `eval`
//!   shape without timestamps is a typed error (exit 1), not a panic;
//! - `train --resume` under a run.json whose shape is not its
//!   checkpoint's is a typed error (exit 1), not an allocation abort.

mod common;

use common::{cli, tmp, train_run, write_ring_edges};
use std::path::{Path, PathBuf};

#[test]
fn a_failed_merge_commit_keeps_the_earlier_simulated_edges() {
    if !tg_faults::is_compiled() {
        return;
    }
    let dir = tmp("sup_merge_commit");
    let edges = dir.join("ring.edges");
    write_ring_edges(&edges);
    let run_dir = train_run(&dir, "run", &edges);
    let simulated = run_dir.join("simulated.edges");
    std::fs::write(&simulated, "0 1 0\n").unwrap();

    let out = cli()
        .args(["simulate", "--run-dir"])
        .arg(&run_dir)
        .arg("--quiet")
        .env(
            "TG_FAULTS",
            "persist.atomic.unrenamed=err,arg=simulated.edges",
        )
        .output()
        .expect("run tgx-cli simulate");
    assert!(
        !out.status.success(),
        "the failed commit must fail the run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read_to_string(&simulated).unwrap(), "0 1 0\n");
    assert!(!run_dir.join("simulated.edges.tmp").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_2() {
    let out = cli().arg("frobnicate").output().expect("run tgx-cli");
    assert_eq!(out.status.code(), Some(2), "unknown subcommand must exit 2");

    // the retired multi-process driver's flags are unknown options now,
    // refused before the run directory is opened
    for removed in [
        &["--shards", "2"][..],
        &["--shard-index", "0"],
        &["--in-process"],
        &["--retries", "1"],
        &["--shard-timeout", "5"],
        &["--backoff-base-ms", "10"],
        &["--degrade", "partial"],
        &["--keep-shards"],
        &["--verify"],
    ] {
        let out = cli()
            .args(["simulate", "--run-dir", "/nonexistent"])
            .args(removed)
            .output()
            .expect("run tgx-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{removed:?}: {stderr}");
        assert!(stderr.contains(removed[0]), "{removed:?}: {stderr}");
    }
    let out = cli()
        .args(["merge", "--out", "x"])
        .output()
        .expect("run tgx-cli");
    assert_eq!(out.status.code(), Some(2), "`merge` is no subcommand");

    let out = cli()
        .args(["ingest", "--verify"])
        .output()
        .expect("run tgx-cli");
    assert_eq!(out.status.code(), Some(2), "missing --out must exit 2");

    // a preset scale the generator would clamp to its smallest graph
    let dir = tmp("sup_bad_scale");
    for bad in ["-1", "0", "nan", "inf"] {
        for cmd in [
            &["train", "--run-dir", "run"][..],
            &["ingest", "--out", "dblp.tges"],
        ] {
            let out = cli()
                .current_dir(&dir)
                .args(cmd)
                .args(["--preset", "dblp", "--scale", bad, "--quiet"])
                .output()
                .expect("run tgx-cli");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let what = format!("{cmd:?} --scale {bad}: {stderr}");
            assert_eq!(out.status.code(), Some(2), "{what}");
            assert!(stderr.contains("--scale"), "{what}");
        }
    }
    assert!(!dir.join("dblp.tges").exists());
    assert!(
        !dir.join("run").exists(),
        "a refused train created its run dir"
    );
    std::fs::remove_dir_all(&dir).ok();

    // A command line is checked whole before the subcommand acts: each
    // row is refused, names what it refuses, and writes nothing — no
    // `r` or `o.tges` appears, and the trained run `good` keeps its
    // files byte for byte.
    let dir = tmp("sup_refusals");
    let edges = dir.join("ring.edges");
    write_ring_edges(&edges);
    let good = train_run(&dir, "good", &edges);
    std::fs::write(good.join("simulated.edges"), "0 1 0\n").unwrap();
    let kept = [
        "run.json",
        "observed.edges",
        "model.json",
        "simulated.edges",
    ];
    let read_kept = || kept.map(|f| std::fs::read(good.join(f)).unwrap());
    let before = read_kept();
    // (command line, exit code, or `None` for any failure, and what
    // stderr names)
    let cases: &[(&[&str], Option<i32>, &str)] = &[
        (
            &["train", "--run-dir", "r", "--preset", "dblp", "--bogus"],
            Some(2),
            "--bogus",
        ),
        (
            &["train", "--run-dir", "r", "--preset", "dblp", "--seed", "x"],
            Some(2),
            "--seed",
        ),
        (&["train", "--run-dir", "r"], Some(2), "exactly one"),
        (
            &[
                "train",
                "--run-dir",
                "r",
                "--preset",
                "dblp",
                "--edges",
                "ring.edges",
            ],
            Some(2),
            "exactly one",
        ),
        (
            &[
                "train",
                "--run-dir",
                "good",
                "--preset",
                "msg",
                "--epochs",
                "0",
            ],
            Some(2),
            "epochs",
        ),
        (
            &["train", "--run-dir", "r", "--resume"],
            None,
            "not a run directory",
        ),
        (
            &[
                "train",
                "--run-dir",
                "r",
                "--preset",
                "dblp",
                "--n-timestamps",
                "0",
            ],
            Some(2),
            "--n-timestamps",
        ),
        (
            &[
                "ingest",
                "--out",
                "o.tges",
                "--preset",
                "dblp",
                "--data-seed",
                "x",
            ],
            Some(2),
            "--data-seed",
        ),
        (
            &["eval", "--run-dir", "good", "--bogus"],
            Some(2),
            "--bogus",
        ),
        // refused before the (missing) run would be loaded
        (&["eval", "--run-dir", "r", "--bogus"], Some(2), "--bogus"),
        (
            &[
                "eval",
                "--observed",
                "a",
                "--generated",
                "b",
                "--n-nodes",
                "x",
                "--n-timestamps",
                "2",
            ],
            Some(2),
            "--n-nodes",
        ),
        (
            &["simulate", "--run-dir", "good", "stray.edges"],
            Some(2),
            "stray.edges",
        ),
        // refused before the (refused) connection
        (
            &["client", "status", "--addr", "127.0.0.1:1", "--bogus"],
            Some(2),
            "--bogus",
        ),
        // only `client simulate` reads `--quiet`
        (
            &["client", "ping", "--addr", "127.0.0.1:1", "--quiet"],
            Some(2),
            "--quiet",
        ),
    ];
    for (argv, exit, names) in cases {
        let out = cli()
            .current_dir(&dir)
            .args(*argv)
            .output()
            .expect("run tgx-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("{argv:?}: {stderr}");
        match exit {
            Some(code) => assert_eq!(out.status.code(), Some(*code), "{what}"),
            None => assert!(matches!(out.status.code(), Some(c) if c != 0), "{what}"),
        }
        assert!(stderr.contains(names), "{what}");
        assert!(!dir.join("r").exists(), "{what}");
        assert!(!dir.join("o.tges").exists(), "{what}");
        assert!(read_kept() == before, "{what}: `good` changed");
    }
    let out = cli()
        .args(["simulate", "--run-dir"])
        .arg(&good)
        .arg("--quiet")
        .output()
        .expect("run tgx-cli simulate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eval_of_a_shape_without_timestamps_is_a_typed_error() {
    // an empty edge list under `--n-timestamps 0` used to reach
    // `TemporalGraph::from_edges`, which panics (exit 101)
    let dir = tmp("sup_no_timestamps");
    let empty = dir.join("e");
    std::fs::write(&empty, "").unwrap();
    let out = cli()
        .args(["eval", "--observed"])
        .arg(&empty)
        .arg("--generated")
        .arg(&empty)
        .args(["--n-nodes", "3", "--n-timestamps", "0"])
        .output()
        .expect("run tgx-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("3 nodes x 0 timestamps"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_under_a_manifest_that_lies_about_its_shape_is_a_typed_error() {
    // 2^40 timestamps in run.json used to size the observed graph's
    // allocation on `train --resume` and abort the process (exit 134)
    let dir = tmp("sup_resume_lying_shape");
    let edges = dir.join("ring.edges");
    write_ring_edges(&edges);
    let run_dir = dir.join("run");
    let train = |extra: &[&str]| {
        cli()
            .args(["train", "--run-dir"])
            .arg(&run_dir)
            .args(extra)
            .args(["--quiet"])
            .stdout(std::process::Stdio::null())
            .output()
            .expect("run tgx-cli train")
    };
    let edges = edges.to_str().unwrap();
    let first = train(&["--edges", edges, "--epochs", "2", "--checkpoint-every", "1"]);
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let manifest = run_dir.join("run.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    assert!(text.contains("\"n_timestamps\": 3"), "{text}");
    std::fs::write(
        &manifest,
        text.replace("\"n_timestamps\": 3", "\"n_timestamps\": 1099511627776"),
    )
    .unwrap();

    let out = train(&["--resume"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("declares 24 nodes x 1099511627776 timestamps, but the model was trained for 24 nodes x 3 timestamps"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A ring store ingested in 16-edge blocks, copied to `damaged.tgs` with
/// one payload byte near the end flipped: one block dies, the rest must be
/// recovered. Returns the damaged copy.
fn bitflipped_store(dir: &Path) -> PathBuf {
    let edges = dir.join("ring.edges");
    write_ring_edges(&edges);
    let store = dir.join("obs.tgs");
    let status = cli()
        .args(["ingest", "--out"])
        .arg(&store)
        .arg("--edges")
        .arg(&edges)
        .args(["--block-edges", "16", "--verify", "--quiet"])
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run tgx-cli ingest");
    assert!(status.success(), "ingest failed");
    let mut bytes = std::fs::read(&store).unwrap();
    let n = bytes.len();
    bytes[n - 10] ^= 0x40;
    let damaged = dir.join("damaged.tgs");
    std::fs::write(&damaged, &bytes).unwrap();
    damaged
}

#[test]
fn salvage_rebuilds_a_verifiable_store_from_a_bitflipped_one() {
    let dir = tmp("sup_salvage");
    let damaged = bitflipped_store(&dir);
    let clean = dir.join("clean.tgs");
    let out = cli()
        .args(["ingest", "--salvage"])
        .arg(&damaged)
        .arg("--out")
        .arg(&clean)
        .output()
        .expect("run tgx-cli ingest --salvage");
    assert!(
        out.status.success(),
        "salvage failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("edges recovered"), "{stderr}");
    assert!(stderr.contains("lost"), "{stderr}");

    // the rebuilt store passes the full-scan integrity check and holds
    // strictly fewer edges than the original (one block was lost)
    let mut reader = tg_store::StoreReader::open(&clean).expect("open salvaged store");
    reader.verify_payload().expect("salvaged store verifies");
    let recovered = reader.header().n_edges;
    assert!(recovered < 72, "expected lost edges, got {recovered}");
    assert!(
        recovered >= 72 - 16,
        "lost more than one block: {recovered}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn salvage_with_verify_checks_the_salvaged_store() {
    let dir = tmp("sup_salvage_verify");
    let damaged = bitflipped_store(&dir);
    let clean = dir.join("clean.tgs");
    let out = cli()
        .args(["ingest", "--salvage"])
        .arg(&damaged)
        .arg("--out")
        .arg(&clean)
        .arg("--verify")
        .output()
        .expect("run tgx-cli ingest --salvage --verify");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("edges recovered"), "{stderr}");
    assert!(stderr.contains("verified: payload checksum ok"), "{stderr}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        clean.to_string_lossy()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn salvage_of_a_non_store_exits_3() {
    let dir = tmp("sup_salvage3");
    let garbage = dir.join("garbage.bin");
    std::fs::write(&garbage, vec![0x5a; 200]).unwrap();
    let out = cli()
        .args(["ingest", "--salvage"])
        .arg(&garbage)
        .arg("--out")
        .arg(dir.join("never.tgs"))
        .output()
        .expect("run tgx-cli ingest --salvage");
    assert_eq!(
        out.status.code(),
        Some(3),
        "unreadable store must exit 3: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !dir.join("never.tgs").exists(),
        "no output may be produced for an unreadable input"
    );
    std::fs::remove_dir_all(&dir).ok();
}
