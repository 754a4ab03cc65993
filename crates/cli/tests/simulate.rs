//! `tgx-cli simulate` is one in-process call: its `simulated.edges` is
//! `SharedRun::simulate_seeded` into a `StreamingWriterSink` for the same
//! run directory and master seed, and its `--stats` file is the series a
//! `StatsSink` folds from that same stream.

mod common;

use common::{cli, tmp, train_run, write_ring_edges};
use std::path::Path;
use tg_graph::io::{load_edge_list_exact, StreamingWriterSink};
use tg_metrics::{StatsSeries, StatsSink};
use tgae::SharedRun;

/// The run directory's model and observed graph, loaded through the
/// library rather than the CLI.
fn shared_run(run_dir: &Path) -> SharedRun {
    let model = tgae::persist::load(run_dir.join("model.json")).expect("model.json");
    let observed = load_edge_list_exact(
        run_dir.join("observed.edges"),
        model.n_nodes,
        model.n_timestamps,
    )
    .expect("observed.edges");
    SharedRun::new(model, observed).expect("a valid run")
}

#[test]
fn simulate_writes_what_shared_run_streams() {
    let dir = tmp("simulate_parity");
    let edges = dir.join("ring.edges");
    write_ring_edges(&edges);
    let run_dir = train_run(&dir, "run", &edges);
    let run = shared_run(&run_dir);

    for master in [0u64, 41] {
        let out = cli()
            .args(["simulate", "--run-dir"])
            .arg(&run_dir)
            .args(["--master", &master.to_string(), "--stats", "--quiet"])
            .output()
            .expect("run tgx-cli simulate");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );

        let mut expected = Vec::new();
        run.simulate_seeded(master, StreamingWriterSink::new(&mut expected))
            .unwrap()
            .unwrap();
        let written = std::fs::read(run_dir.join("simulated.edges")).unwrap();
        assert!(!written.is_empty());
        assert_eq!(written, expected, "master {master}");

        let observed = run.observed();
        let sink = StatsSink::new(observed.n_nodes(), observed.n_timestamps());
        let expected: StatsSeries = run.simulate_seeded(master, sink).unwrap();
        let text = std::fs::read_to_string(run_dir.join("simulated.stats.json")).unwrap();
        let written: StatsSeries = serde_json::from_str(&text).unwrap();
        assert_eq!(written, expected, "master {master}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
