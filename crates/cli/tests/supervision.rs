//! Process-level tests of the ISSUE-6 failure-domain hardening:
//!
//! - a **hung** worker (injected `worker.entry=sleep`) is killed at
//!   `--shard-timeout`, retried, and the run still verifies;
//! - a **persistently failing** shard under `--degrade partial` yields a
//!   merge of the completed shards, a machine-readable
//!   `partial_manifest.json`, and exit code 5 — and the partial merge is
//!   byte-identical to the healthy run's output for those shards;
//! - a merge whose commit fails leaves the earlier `simulated.edges` and
//!   no tmp file behind;
//! - `ingest --salvage` rebuilds a clean, fully verifiable store from a
//!   bit-flipped one (exit 0) and exits 3 on a file that is not a store;
//! - usage errors exit 2, and an `eval` shape without timestamps is a
//!   typed error (exit 1), not a panic.

mod common;

use common::{cli, compact, tmp, train_run, write_ring_edges};

#[test]
fn hung_worker_is_killed_at_timeout_and_retried() {
    if !tg_faults::is_compiled() {
        return; // injection needs the default `faults` feature
    }
    let dir = tmp("sup_hang");
    let edges = dir.join("ring.edges");
    write_ring_edges(&edges);
    let run_dir = train_run(&dir, "run", &edges);

    // shard 0's first attempt sleeps 60 s — far past the 2.5 s budget —
    // so the supervisor must SIGKILL it; the cross-process fault ledger
    // limits the hang to that one attempt, and the retry completes.
    let out = cli()
        .args(["simulate", "--run-dir"])
        .arg(&run_dir)
        .args(["--shards", "2", "--retries", "1", "--verify", "--quiet"])
        .args(["--shard-timeout", "2.5", "--backoff-base-ms", "10"])
        .env("TG_FAULTS", "worker.entry=sleep:60000,arg=shard:0,max=1")
        .env("TG_FAULTS_STATE", dir.join("faults.state"))
        .output()
        .expect("run tgx-cli simulate");
    assert!(
        out.status.success(),
        "simulate after a hung worker failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = std::fs::read_to_string(run_dir.join("retry_log.json")).expect("retry_log.json");
    let c = compact(&log);
    assert!(c.contains("\"timed_out\":true"), "{log}");
    assert!(c.contains("\"signal\":9"), "{log}");
    assert!(c.contains("\"completed\":true"), "{log}");
    assert!(c.contains("\"backoff_ms\""), "{log}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degrade_partial_merges_completed_shards_and_exits_5() {
    if !tg_faults::is_compiled() {
        return;
    }
    let dir = tmp("sup_partial");
    let edges = dir.join("ring.edges");
    write_ring_edges(&edges);

    // Healthy reference run with the same training seed: its shard files
    // are what the degraded run's partial merge must reproduce exactly.
    let ref_dir = train_run(&dir, "ref", &edges);
    let status = cli()
        .args(["simulate", "--run-dir"])
        .arg(&ref_dir)
        .args(["--shards", "2", "--keep-shards", "--quiet"])
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run reference simulate");
    assert!(status.success(), "reference simulate failed");
    let shard0 = std::fs::read(ref_dir.join("shard_0.edges")).expect("reference shard 0");

    // Degraded run: shard 1 fails every attempt.
    let run_dir = train_run(&dir, "run", &edges);
    let out = cli()
        .args(["simulate", "--run-dir"])
        .arg(&run_dir)
        .args(["--shards", "2", "--retries", "1", "--quiet"])
        .args(["--degrade", "partial", "--backoff-base-ms", "10"])
        .env("TG_FAULTS", "worker.entry=err,arg=shard:1")
        .output()
        .expect("run tgx-cli simulate");
    assert_eq!(
        out.status.code(),
        Some(5),
        "degraded completion must exit 5: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest = std::fs::read_to_string(run_dir.join("partial_manifest.json"))
        .expect("partial_manifest.json");
    let c = compact(&manifest);
    assert!(c.contains("\"n_shards\":2"), "{manifest}");
    assert!(c.contains("\"completed\":[0]"), "{manifest}");
    assert!(c.contains("\"missing\":[1]"), "{manifest}");
    // the partial merge is exactly the completed shard's bytes
    let merged = std::fs::read(run_dir.join("simulated.edges")).expect("simulated.edges");
    assert_eq!(merged, shard0, "partial merge differs from shard 0 output");
    std::fs::remove_dir_all(&dir).ok();
}

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
        .args(["--in-process", "--quiet"])
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

    let out = cli()
        .args([
            "simulate",
            "--run-dir",
            "/nonexistent",
            "--degrade",
            "sideways",
        ])
        .output()
        .expect("run tgx-cli");
    assert_eq!(
        out.status.code(),
        Some(2),
        "bad --degrade value must exit 2"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--degrade"),
        "stderr should name the offending option"
    );

    let out = cli()
        .args(["ingest", "--verify"])
        .output()
        .expect("run tgx-cli");
    assert_eq!(out.status.code(), Some(2), "missing --out must exit 2");
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
fn salvage_rebuilds_a_verifiable_store_from_a_bitflipped_one() {
    let dir = tmp("sup_salvage");
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

    // flip one payload byte near the end of the file: one block dies,
    // the rest must be recovered
    let mut bytes = std::fs::read(&store).unwrap();
    let n = bytes.len();
    bytes[n - 10] ^= 0x40;
    let damaged = dir.join("damaged.tgs");
    std::fs::write(&damaged, &bytes).unwrap();

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
