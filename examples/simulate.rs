//! The sharded-parity check: train a tiny preset through a `Session`,
//! hand off to its `SharedRun`, generate the synthetic graph as K
//! independent shards streamed to edge-list files, concatenate the shard
//! files, and verify the result is **bit-identical** to one whole-run
//! stream — plus a statistics pass over that stream, checked against the
//! graph walk over the concatenated shards.
//!
//! This is both the quickstart for the engine API and CI's smoke test of
//! sharded-generation determinism (it exits non-zero on any mismatch).
//! Shards are an in-process partition of the plan; `tgx-cli simulate`
//! runs the whole plan in one call:
//!
//! ```text
//! tgx-cli train    --run-dir /tmp/run --preset dblp --scale 0.04
//! tgx-cli simulate --run-dir /tmp/run
//! ```
//!
//! Usage: `cargo run --release --example simulate [n_shards]`

use tgx::graph::io::{read_edge_list_exact, StreamingWriterSink};
use tgx::prelude::*;

fn main() {
    let n_shards: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("n_shards must be an integer"))
        .unwrap_or(2);

    // 1. A small observed graph: the DBLP preset scaled down.
    let observed = tgx::datasets::presets::dblp().generate_scaled(0.04, 7);
    println!(
        "observed: {} nodes, {} timestamps, {} edges",
        observed.n_nodes(),
        observed.n_timestamps(),
        observed.n_edges()
    );

    // 2. Train a tiny model through a session (one master seed).
    let mut cfg = TgaeConfig::tiny();
    cfg.epochs = 8;
    let mut session = Session::builder(&observed)
        .config(cfg)
        .seed(20250730)
        .build()
        .expect("valid session");
    let report = session.train().expect("train");
    println!("trained: final loss {:.4}", report.final_loss());

    // 3. Single-process reference: simulation run 0 of the seed policy.
    let run = session.into_shared();
    let reference = run.simulate(0).expect("reference run");

    // 4. Sharded + streamed: split the same run into K timestamp-range
    //    shards, stream each shard to its own edge-list file, then
    //    concatenate the files in shard order.
    let plan = run.plan(run.seed_policy().simulation_master(0));
    let specs = plan.shards(n_shards);
    println!(
        "plan: {} work units, {} edges budgeted, {} shards",
        plan.units().len(),
        plan.n_edges(),
        n_shards
    );
    let dir = std::env::temp_dir().join(format!("tgae_simulate_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mut shard_paths = Vec::new();
    for spec in &specs {
        let path = dir.join(format!("shard_{}.edges", spec.shard));
        let sink = StreamingWriterSink::create(&path).expect("create shard file");
        let n = generate_shard_with_sink(run.model(), &observed, spec, sink).expect("stream shard");
        println!(
            "  shard {}: t in [{}, {}), {} edges -> {}",
            spec.shard,
            spec.t_begin,
            spec.t_end,
            n,
            path.display()
        );
        shard_paths.push(path);
    }
    let mut concatenated = Vec::new();
    for path in &shard_paths {
        concatenated.extend(std::fs::read(path).expect("read shard file"));
    }

    // 5. Verify: the concatenated shards load back to exactly the
    //    reference graph.
    let (n, t) = (observed.n_nodes(), observed.n_timestamps());
    let merged = read_edge_list_exact(&concatenated[..], n, t).expect("parse shard files");
    assert_eq!(
        merged.edges(),
        reference.edges(),
        "sharded+streamed output differs from single-process run"
    );
    println!(
        "verified: merged {}-shard streamed output == single-process run ({} edges)",
        n_shards,
        reference.n_edges()
    );

    // 6. Statistics pass: the whole-run stream folded into a StatsSink
    //    (no edges stored) equals the graph walk over the merged shards.
    let sink = StatsSink::new(observed.n_nodes(), observed.n_timestamps());
    let series = run
        .simulate_seeded(plan.master_seed(), sink)
        .expect("statistics run");
    let walked: Vec<GraphStats> = CumulativeStats::new(&merged).collect();
    assert_eq!(
        series.stats, walked,
        "streamed statistics differ from the walk over the merged shards"
    );
    let volume: Vec<usize> = series.volume.iter().map(|&c| c as usize).collect();
    assert_eq!(volume, observed.edge_counts_per_timestamp());
    let last = walked.last().expect("at least one timestamp");
    println!(
        "verified: streamed statistics match ({} edges, final mean degree {:.2}, {} triangles)",
        series.n_edges(),
        last.mean_degree,
        last.triangle_count
    );

    std::fs::remove_dir_all(&dir).ok();
    println!("ok");
}
