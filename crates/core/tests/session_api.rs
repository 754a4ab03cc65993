//! Acceptance tests for the `Session` API:
//!
//! - **resume-equals-straight-run** — training with a mid-run checkpoint,
//!   then resuming from it in a *fresh* session, yields bit-identical
//!   parameters, losses, and generated edges;
//! - **typed error paths** — shape/config mismatches and corrupt
//!   checkpoints come back as `TgxError`, never a panic;
//! - **observer semantics** — epoch events arrive in order,
//!   cancellation stops mid-train, and attaching an observer does not
//!   change the trained parameters.

use tg_graph::sink::GraphSink;
use tg_graph::source::{read_graph, InMemorySource, DEFAULT_CHUNK_EDGES};
use tg_graph::{TemporalEdge, TemporalGraph};
use tg_metrics::{CumulativeStats, GraphStats, StatsSink};
use tgae::{
    generate_shard_with_sink, EpochEvent, Session, Tgae, TgaeConfig, TgxError, TrainControl,
};

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
    let dir = std::env::temp_dir().join(format!("tgae_session_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn resume_from_checkpoint_equals_straight_run() {
    let g = ring_graph(8, 3);
    let dir = tmp_dir("resume");
    let ckpt = dir.join("ckpt.json");
    let total_epochs = 9usize;
    let stop_after = 4usize;

    // Straight run, no interruption.
    let mut straight = Session::builder(&g)
        .config(tiny_cfg(total_epochs, 17))
        .build()
        .expect("session");
    let straight_report = straight.train().expect("train");

    // Interrupted run: checkpoint every 2 epochs, observer cancels after
    // epoch index 3 (i.e. 4 epochs run, last checkpoint at epoch 4).
    let mut interrupted = Session::builder(&g)
        .config(tiny_cfg(total_epochs, 17))
        .checkpoint(&ckpt, 2)
        .observer(move |ev: &EpochEvent| {
            if ev.epoch + 1 >= stop_after {
                TrainControl::Stop
            } else {
                TrainControl::Continue
            }
        })
        .build()
        .expect("session");
    let partial = interrupted.train().expect("train");
    assert!(partial.early_stopped);
    assert_eq!(partial.epochs_run(), stop_after);
    assert_eq!(partial.epochs_configured, total_epochs);
    assert!(ckpt.exists(), "cadence checkpoint written");

    // Resume in a *fresh* session (fresh process stand-in).
    let mut resumed = Session::builder(&g)
        .config(tiny_cfg(total_epochs, 17))
        .build()
        .expect("session");
    let full_report = resumed.resume_from(&ckpt).expect("resume");
    assert!(!full_report.early_stopped);
    assert_eq!(full_report.epochs_run(), total_epochs);
    // The resumed run must be bit-identical to the straight run: losses
    // (restored prefix from the checkpoint epoch + recomputed tail)...
    assert_eq!(full_report.losses, straight_report.losses);
    // ...parameters...
    assert_eq!(params_of(resumed.model()), params_of(straight.model()));
    // ...and generated output.
    let a = straight.into_shared().simulate(5).unwrap();
    let b = resumed.into_shared().simulate(5).unwrap();
    assert_eq!(a.edges(), b.edges());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn source_built_session_is_bit_identical_to_borrowed_graph() {
    // The EdgeSource ingest path, as `tgx-cli train` runs it: a session
    // over a graph streamed chunk-by-chunk out of a source (`read_graph`)
    // must train to the same losses and parameters — and generate the
    // same edges — as a session over the graph the source was made from.
    // (The same invariant for the on-disk StoreSource lives in
    // crates/store/tests, which owns the tg-store dev-dependency.)
    let g = ring_graph(10, 4);
    let cfg = tiny_cfg(6, 17);
    let master = 424242u64;

    let mut borrowed = Session::builder(&g)
        .config(cfg.clone())
        .seed(17)
        .build()
        .expect("borrowed session");
    let report_a = borrowed.train().expect("train borrowed");

    let assembled = read_graph(&mut InMemorySource::new(&g), DEFAULT_CHUNK_EDGES).expect("ingest");
    let mut streamed = Session::builder(&assembled)
        .config(cfg)
        .seed(17)
        .build()
        .expect("streamed session");
    assert_eq!(streamed.observed().edges(), g.edges());
    let report_b = streamed.train().expect("train streamed");

    assert_eq!(report_a.losses, report_b.losses, "loss history diverged");
    assert_eq!(
        params_of(borrowed.model()),
        params_of(streamed.model()),
        "trained parameters diverged"
    );
    let sink = || GraphSink::new(g.n_nodes(), g.n_timestamps());
    let edges_a = borrowed.into_shared().simulate_seeded(master, sink());
    let edges_b = streamed.into_shared().simulate_seeded(master, sink());
    assert_eq!(
        edges_a.expect("simulate borrowed").edges(),
        edges_b.expect("simulate streamed").edges(),
        "generated edges diverged"
    );
}

#[test]
fn observer_does_not_perturb_training() {
    let g = ring_graph(8, 2);
    let mut plain = Session::builder(&g)
        .config(tiny_cfg(5, 23))
        .build()
        .unwrap();
    plain.train().unwrap();

    let mut events: Vec<(usize, f32)> = Vec::new();
    let mut observed_session = Session::builder(&g)
        .config(tiny_cfg(5, 23))
        .observer(|ev: &EpochEvent| {
            events.push((ev.epoch, ev.loss));
            TrainControl::Continue
        })
        .build()
        .unwrap();
    let report = observed_session.train().unwrap();
    let observed_params = params_of(observed_session.model());
    drop(observed_session);

    assert_eq!(params_of(plain.model()), observed_params);
    // events arrive once per epoch, in order, with the reported losses
    assert_eq!(events.len(), 5);
    assert!(events.windows(2).all(|w| w[0].0 + 1 == w[1].0));
    let event_losses: Vec<f32> = events.iter().map(|&(_, l)| l).collect();
    assert_eq!(event_losses, report.losses);
}

#[test]
fn observer_cancellation_stops_mid_train() {
    let g = ring_graph(8, 2);
    let mut calls = 0usize;
    let mut s = Session::builder(&g)
        .config(tiny_cfg(50, 1))
        .observer(|ev: &EpochEvent| {
            calls += 1;
            assert_eq!(ev.n_epochs, 50);
            if ev.epoch == 2 {
                TrainControl::Stop
            } else {
                TrainControl::Continue
            }
        })
        .build()
        .unwrap();
    let report = s.train().unwrap();
    assert!(report.early_stopped);
    assert_eq!(report.epochs_run(), 3);
    assert_eq!(report.epochs_configured, 50);
    assert_eq!(s.trained_epochs(), 3);
    drop(s);
    assert_eq!(calls, 3, "observer not called after cancellation");
}

#[test]
fn corrupt_checkpoint_is_a_typed_error_not_a_panic() {
    let g = ring_graph(6, 2);
    let dir = tmp_dir("corrupt");
    let path = dir.join("bad.json");
    std::fs::write(&path, b"{this is not json").unwrap();
    let mut s = Session::builder(&g).config(tiny_cfg(4, 2)).build().unwrap();
    let err = s.resume_from(&path).unwrap_err();
    assert!(matches!(err, TgxError::Checkpoint(_)), "{err}");
    // missing file: also typed
    let err = s.resume_from(dir.join("nope.json")).unwrap_err();
    assert!(matches!(err, TgxError::Checkpoint(_)), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn foreign_checkpoint_is_rejected_with_mismatch() {
    let g = ring_graph(6, 2);
    let other = ring_graph(9, 2);
    let dir = tmp_dir("foreign");
    let ckpt = dir.join("other.json");
    // checkpoint written against a 9-node graph...
    let mut other_session = Session::builder(&other)
        .config(tiny_cfg(4, 2))
        .checkpoint(&ckpt, 2)
        .build()
        .unwrap();
    other_session.train().unwrap();
    // ...must be refused by a 6-node session
    let mut s = Session::builder(&g).config(tiny_cfg(4, 2)).build().unwrap();
    let err = s.resume_from(&ckpt).unwrap_err();
    assert!(matches!(err, TgxError::CheckpointMismatch(_)), "{err}");

    // same shape but different config: also refused
    let g2 = ring_graph(9, 2);
    let mut diff_cfg = Session::builder(&g2)
        .config(tiny_cfg(4, 999))
        .build()
        .unwrap();
    let err = diff_cfg.resume_from(&ckpt).unwrap_err();
    assert!(matches!(err, TgxError::CheckpointMismatch(_)), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// One parameter's `value` as checkpoint format v1 (PR 19 and earlier)
/// wrote it: the matrix wrapped in the tag of its storage precision.
const V1_F32_VALUE: &str = r#"{"F32":{"rows":1,"cols":2,"data":[0.5,-2.0]}}"#;
const V1_BF16_VALUE: &str = r#"{"Bf16":{"rows":1,"cols":2,"bits":[16128,49152]}}"#;

/// `json` (a `model.json` or a training checkpoint) with the `value` of
/// its first parameter replaced.
fn with_first_value(json: &str, value: &str) -> String {
    let start = json.find(r#""value":{"#).expect("a parameter entry") + r#""value":"#.len();
    let end = start + json[start..].find('}').expect("the matrix closes") + 1;
    format!("{}{value}{}", &json[..start], &json[end..])
}

#[test]
fn model_json_in_the_v1_layout_is_a_codec_error() {
    let dir = tmp_dir("v1_model");
    let path = dir.join("model.json");
    tgae::save(&Tgae::new(6, 2, tiny_cfg(1, 0)), &path).unwrap();
    let current = std::fs::read_to_string(&path).unwrap();
    for v1_value in [V1_F32_VALUE, V1_BF16_VALUE] {
        std::fs::write(&path, with_first_value(&current, v1_value)).unwrap();
        let Err(err) = tgae::load(&path) else {
            panic!("loaded a v1 entry: {v1_value}")
        };
        assert!(matches!(err, tgae::PersistError::Codec(_)), "{err}");
        assert!(err.to_string().contains("missing field `rows`"), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v1_checkpoint_is_a_typed_error() {
    let g = ring_graph(6, 2);
    let dir = tmp_dir("v1_ckpt");
    let path = dir.join("ckpt.json");
    let mut s = Session::builder(&g)
        .config(tiny_cfg(2, 2))
        .checkpoint(&path, 1)
        .build()
        .unwrap();
    s.train().unwrap();
    let current = std::fs::read_to_string(&path).unwrap();
    assert!(
        current.starts_with(r#"{"version":2,"#),
        "{}",
        &current[..40]
    );
    let stamped_v1 = current.replacen(r#""version":2"#, r#""version":1"#, 1);

    // as v1 wrote it, parameters and all: the decode fails first
    std::fs::write(&path, with_first_value(&stamped_v1, V1_F32_VALUE)).unwrap();
    let err = s.resume_from(&path).unwrap_err();
    assert!(
        matches!(err, TgxError::Checkpoint(tgae::PersistError::Codec(_))),
        "{err}"
    );
    // a file that decodes is still refused on its version stamp
    std::fs::write(&path, stamped_v1).unwrap();
    let err = s.resume_from(&path).unwrap_err();
    assert!(matches!(err, TgxError::CheckpointMismatch(_)), "{err}");
    assert!(err.to_string().contains("format v1"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `json` with the first element of its first parameter's matrix
/// replaced by the literal `datum`.
fn with_first_datum(json: &str, datum: &str) -> String {
    let start = json.find(r#""data":["#).expect("a matrix") + r#""data":["#.len();
    let end = start + json[start..].find([',', ']']).expect("the element ends");
    format!("{}{datum}{}", &json[..start], &json[end..])
}

/// A parameter that reads `1e999` decodes (to `+inf`) and is refused by
/// name, by `tgae::load` and by a resume from a training checkpoint,
/// instead of loading a model that scores NaN.
#[test]
fn a_non_finite_parameter_is_a_typed_error() {
    let dir = tmp_dir("non_finite");
    let path = dir.join("model.json");
    tgae::save(&Tgae::new(6, 2, tiny_cfg(1, 0)), &path).unwrap();
    let current = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, with_first_datum(&current, "1e999")).unwrap();
    let Err(err) = tgae::load(&path) else {
        panic!("loaded a model with an infinite parameter")
    };
    assert!(matches!(err, tgae::PersistError::NonFinite(_)), "{err}");
    assert!(err.to_string().contains("NaN or an infinity"), "{err}");

    let g = ring_graph(6, 2);
    let ckpt = dir.join("ckpt.json");
    let mut s = Session::builder(&g)
        .config(tiny_cfg(2, 2))
        .checkpoint(&ckpt, 1)
        .build()
        .unwrap();
    s.train().unwrap();
    let current = std::fs::read_to_string(&ckpt).unwrap();
    std::fs::write(&ckpt, with_first_datum(&current, "-1e999")).unwrap();
    let err = s.resume_from(&ckpt).unwrap_err();
    assert!(
        matches!(err, TgxError::Checkpoint(tgae::PersistError::NonFinite(_))),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edgeless_graph_is_a_typed_error() {
    // `TemporalGraph::from_edges` statically refuses zero timestamps, so
    // the reachable "nothing to simulate" inputs are an edgeless horizon
    // or a sub-2-node graph; both must come back as EmptyGraph, not a
    // panic from deep inside the sampler.
    let g = TemporalGraph::from_edges(4, 3, Vec::new());
    let err = Session::builder(&g)
        .config(tiny_cfg(3, 0))
        .build()
        .unwrap_err();
    assert!(matches!(err, TgxError::EmptyGraph));

    let one_node = TemporalGraph::from_edges(1, 2, Vec::new());
    let err = Session::builder(&one_node)
        .config(tiny_cfg(3, 0))
        .build()
        .unwrap_err();
    assert!(matches!(err, TgxError::EmptyGraph));
}

#[test]
fn stats_sink_and_merge_through_the_shards_of_a_run() {
    let g = ring_graph(8, 4);
    let mut cfg = tiny_cfg(4, 9);
    cfg.batch_centers = 4;
    let mut s = Session::builder(&g).config(cfg).build().unwrap();
    s.train().unwrap();
    let run = s.into_shared();
    // the shards' GraphSink outputs, concatenated, walked into a series
    let master = run.seed_policy().simulation_master(0);
    let mut edges = Vec::new();
    for spec in run.plan(master).shards(3) {
        let sink = GraphSink::new(g.n_nodes(), g.n_timestamps());
        let shard = generate_shard_with_sink(run.model(), &g, &spec, sink);
        edges.extend_from_slice(shard.edges());
    }
    let merged = TemporalGraph::from_edges(g.n_nodes(), g.n_timestamps(), edges);
    let walked: Vec<GraphStats> = CumulativeStats::new(&merged).collect();
    // equal the whole run streamed into the statistics sink
    let sink = StatsSink::new(g.n_nodes(), g.n_timestamps());
    let series = run.simulate_seeded(master, sink).unwrap();
    assert_eq!(series.stats, walked);
    assert_eq!(series.n_edges(), g.n_edges() as u64);
}
