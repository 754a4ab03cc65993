//! Failure-injection and pathological-input tests: the library must stay
//! finite, error *typedly* (no panics on user input), and stay
//! protocol-compliant on degenerate graphs and hostile hyper-parameters.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tgx::prelude::*;

fn cfg(epochs: usize) -> TgaeConfig {
    let mut c = TgaeConfig::tiny();
    c.epochs = epochs;
    c
}

fn trained_run(g: &TemporalGraph, c: TgaeConfig, seed: u64) -> SharedRun {
    let mut s = Session::builder(g)
        .config(c)
        .seed(seed)
        .build()
        .expect("valid session");
    s.train().expect("train");
    s.into_shared()
}

/// One repeated pair, one timestamp: the smallest possible corpus.
#[test]
fn trains_on_single_pair_graph() {
    let edges = vec![
        TemporalEdge::new(0, 1, 0),
        TemporalEdge::new(0, 1, 0),
        TemporalEdge::new(0, 1, 0),
    ];
    let g = TemporalGraph::from_edges(2, 1, edges);
    let out = trained_run(&g, cfg(10), 1).simulate(0).expect("simulate");
    assert_eq!(out.n_edges(), 3);
    // only possible non-self target is node 1
    assert!(out.edges().iter().all(|e| e.u == 0 && e.v == 1));
}

/// A graph with long stretches of empty timestamps.
#[test]
fn handles_sparse_time_axis() {
    let edges = vec![TemporalEdge::new(0, 1, 0), TemporalEdge::new(1, 2, 9)];
    let g = TemporalGraph::from_edges(3, 10, edges);
    let out = trained_run(&g, cfg(6), 2).simulate(0).expect("simulate");
    assert_eq!(
        out.edge_counts_per_timestamp(),
        g.edge_counts_per_timestamp()
    );
}

/// Hostile learning rate: clipping must keep parameters finite.
#[test]
fn survives_huge_learning_rate() {
    let edges: Vec<TemporalEdge> = (0..30)
        .map(|i| TemporalEdge::new(i % 6, (i + 1) % 6, i % 3))
        .collect();
    let g = TemporalGraph::from_edges(6, 3, edges);
    let mut c = cfg(15);
    c.lr = 1.0; // absurd
    c.grad_clip = 1.0;
    let mut session = Session::builder(&g).config(c).build().expect("session");
    let report = session.train().expect("train");
    assert!(report.losses.iter().all(|l| l.is_finite()), "loss diverged");
    assert!(
        !session.model().store.any_non_finite(),
        "parameters went NaN/Inf"
    );
}

/// Budget larger than the candidate pool: generation must clamp, not hang.
#[test]
fn generation_clamps_when_budget_exceeds_targets() {
    // node 0 fires 10 edges at t=0 but only 2 possible distinct targets
    let mut edges = Vec::new();
    for _ in 0..5 {
        edges.push(TemporalEdge::new(0, 1, 0));
        edges.push(TemporalEdge::new(0, 2, 0));
    }
    let g = TemporalGraph::from_edges(3, 1, edges);
    let out = trained_run(&g, cfg(5), 3).simulate(0).expect("simulate");
    assert_eq!(out.n_edges(), 10, "multiplicity fill must hit the budget");
    assert!(out
        .edges()
        .iter()
        .all(|e| e.u == 0 && (e.v == 1 || e.v == 2)));
}

/// Bad inputs to the session surface as typed errors, not panics.
#[test]
fn session_surfaces_typed_errors() {
    let g = TemporalGraph::from_edges(5, 2, Vec::new());
    match Session::builder(&g).config(cfg(3)).build() {
        Err(TgxError::EmptyGraph) => {}
        other => panic!("expected EmptyGraph, got {other:?}"),
    }
    let ok = TemporalGraph::from_edges(5, 2, vec![TemporalEdge::new(0, 1, 0)]);
    let mut bad = cfg(3);
    bad.epochs = 0;
    match Session::builder(&ok).config(bad).build() {
        Err(TgxError::InvalidConfig(_)) => {}
        other => panic!("expected InvalidConfig, got {other:?}"),
    };
}

/// Metrics on a graph with zero edges must not divide by zero.
#[test]
fn metrics_on_empty_snapshot() {
    let g = TemporalGraph::from_edges(5, 2, vec![TemporalEdge::new(0, 1, 1)]);
    // t=0 accumulated snapshot has no edges at all
    let s = Snapshot::accumulated(&g, 0, true);
    let stats = GraphStats::compute(&s);
    assert_eq!(stats.mean_degree, 0.0);
    assert_eq!(stats.triangle_count, 0.0);
    assert_eq!(stats.n_components, 5.0);
    assert!(stats.ple.is_finite() || stats.ple == 1.0);
}

/// Evaluating two identical degenerate graphs scores zero, not NaN.
#[test]
fn evaluation_of_degenerate_graphs_is_zero() {
    let g = TemporalGraph::from_edges(4, 3, vec![TemporalEdge::new(0, 1, 2)]);
    for s in evaluate(&g, &g) {
        assert_eq!(s.avg, 0.0, "{}", s.kind.name());
    }
}

/// The motif census of a motif-free graph is empty, and MMD against it is
/// still well-defined.
#[test]
fn motif_free_graphs_are_handled() {
    use tgx::metrics::{count_motifs, mmd2_single};
    let g = TemporalGraph::from_edges(4, 2, vec![TemporalEdge::new(0, 1, 0)]);
    let census = count_motifs(&g, 10);
    assert_eq!(census.total(), 0);
    let d = census.distribution();
    let m = mmd2_single(&d, &d, 1.0);
    assert!(m.abs() < 1e-12);
}

/// Baselines must not hang on a graph whose proposals can starve (an
/// isolated pair with budgets at every timestamp).
#[test]
fn baselines_terminate_on_starved_proposals() {
    use tgx::baselines::{TagGenConfig, TagGenGenerator, TemporalGraphGenerator};
    let mut edges = Vec::new();
    for t in 0..5u32 {
        edges.push(TemporalEdge::new(0, 1, t));
    }
    let g = TemporalGraph::from_edges(10, 5, edges);
    let mut rng = SmallRng::seed_from_u64(4);
    let out = TagGenGenerator::new(TagGenConfig {
        walks_per_round: 16,
        ..Default::default()
    })
    .fit_generate(&g, &mut rng);
    assert_eq!(out.n_edges(), g.n_edges());
}
