//! Process-level tests of the observability surface:
//!
//! - `simulate --trace` renders its spans, the engine's included, as a
//!   Chrome `trace.json`;
//! - **bit-identity**: the seeded pipeline's outputs are byte-identical
//!   with telemetry on and off — `simulate --trace` vs plain for
//!   `simulated.edges`, `train --telemetry` vs plain for `model.json`.
//!   Observability must observe, never perturb;
//! - a trace flush that fails (`obs.flush`) costs the trace, never the
//!   run's edges or its exit status.

mod common;

use common::{cli, tmp, train_run, write_ring_edges};
use std::path::Path;
use std::process::Stdio;

/// Run `tgx-cli simulate` over `run_dir` and return `simulated.edges`.
fn simulate_bytes(run_dir: &Path, master: u64, extra: &[&str]) -> Vec<u8> {
    let status = cli()
        .args(["simulate", "--run-dir"])
        .arg(run_dir)
        .args(["--master", &master.to_string(), "--quiet"])
        .args(extra)
        .stdout(Stdio::null())
        .status()
        .expect("run tgx-cli simulate");
    assert!(status.success(), "simulate {extra:?} failed");
    std::fs::read(run_dir.join("simulated.edges")).expect("simulated.edges")
}

#[test]
fn traced_run_renders_engine_spans() {
    let dir = tmp("trace_render");
    let edges = dir.join("ring.edges");
    write_ring_edges(&edges);
    let run_dir = train_run(&dir, "traced", &edges);

    simulate_bytes(&run_dir, 99, &["--trace"]);

    assert!(run_dir.join("trace.jsonl").exists(), "no span file");
    let trace = std::fs::read_to_string(run_dir.join("trace.json")).expect("trace.json");
    assert!(trace.contains("{\"name\":\"simulate\"}"), "process label");
    for span in [
        "\"simulate\"",
        "\"engine.generate_shard\"",
        "\"engine.execute\"",
        "\"engine.unit\"",
    ] {
        assert!(trace.contains(span), "span {span} missing from trace.json");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tracing_does_not_perturb_simulation() {
    let dir = tmp("trace_identity");
    let edges = dir.join("ring.edges");
    write_ring_edges(&edges);
    let run_dir = train_run(&dir, "ident", &edges);

    let plain = simulate_bytes(&run_dir, 123, &[]);
    let traced = simulate_bytes(&run_dir, 123, &["--trace"]);
    assert!(!plain.is_empty());
    assert_eq!(
        plain, traced,
        "simulated.edges diverged between --trace and plain runs"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failed_trace_flush_costs_only_the_trace() {
    if !tg_faults::is_compiled() {
        return; // injection needs the default `faults` feature
    }
    let dir = tmp("trace_flush_fault");
    let edges = dir.join("ring.edges");
    write_ring_edges(&edges);
    let run_dir = train_run(&dir, "flush", &edges);

    let plain = simulate_bytes(&run_dir, 7, &[]);
    let out = cli()
        .args(["simulate", "--run-dir"])
        .arg(&run_dir)
        .args(["--master", "7", "--trace", "--quiet"])
        .env("TG_FAULTS", "obs.flush=err")
        .output()
        .expect("run tgx-cli simulate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("trace flush skipped"), "{stderr}");
    let traced = std::fs::read(run_dir.join("simulated.edges")).unwrap();
    assert_eq!(plain, traced, "a failed flush changed the edges");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_does_not_perturb_training() {
    let dir = tmp("telemetry_identity");
    let edges = dir.join("ring.edges");
    write_ring_edges(&edges);

    let train = |name: &str, extra: &[&str]| -> Vec<u8> {
        let run_dir = dir.join(name);
        let status = cli()
            .args(["train", "--run-dir"])
            .arg(&run_dir)
            .arg("--edges")
            .arg(&edges)
            .args(["--epochs", "3", "--seed", "11", "--quiet"])
            .args(extra)
            .stdout(Stdio::null())
            .status()
            .expect("run tgx-cli train");
        assert!(status.success(), "train {extra:?} failed");
        std::fs::read(run_dir.join("model.json")).expect("model.json")
    };

    let plain = train("plain", &[]);
    let telemetered = train("telemetered", &["--telemetry"]);
    assert_eq!(
        plain, telemetered,
        "model.json diverged between --telemetry and plain runs"
    );

    // The flag's observable side effect: one record per epoch, each with
    // the loss and a heap reading from the CLI's tracking allocator.
    let telemetry =
        std::fs::read_to_string(dir.join("telemetered").join("telemetry.jsonl")).unwrap();
    let lines: Vec<&str> = telemetry.lines().collect();
    assert_eq!(lines.len(), 3, "one telemetry record per epoch");
    assert!(lines[0].starts_with("{\"epoch\":0,"));
    assert!(
        !telemetry.contains("\"heap_peak_bytes\":0"),
        "heap telemetry must be live under the CLI's tracking allocator"
    );
    assert!(
        !dir.join("plain").join("telemetry.jsonl").exists(),
        "no telemetry file without the flag"
    );

    std::fs::remove_dir_all(&dir).ok();
}
