//! End-to-end integration: dataset generation -> TGAE training ->
//! simulation -> evaluation, across crates, driven through `Session` and
//! `SharedRun`.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tgx::prelude::*;

fn small_observed(seed: u64) -> TemporalGraph {
    let cfg = SyntheticConfig {
        nodes: 120,
        edges: 900,
        timestamps: 8,
        ..Default::default()
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    tgx::datasets::generate(&cfg, &mut rng)
}

fn quick_cfg(epochs: usize) -> TgaeConfig {
    let mut cfg = TgaeConfig::tiny();
    cfg.epochs = epochs;
    cfg
}

#[test]
fn full_pipeline_produces_scored_simulation() {
    let observed = small_observed(1);
    let mut session = Session::builder(&observed)
        .config(quick_cfg(20))
        .seed(2)
        .build()
        .expect("valid session");
    let report = session.train().expect("train");
    assert!(report.final_loss().is_finite());
    let run = session.into_shared();
    let synthetic = run.simulate(0).expect("simulate");
    assert_eq!(synthetic.n_nodes(), observed.n_nodes());
    assert_eq!(synthetic.n_timestamps(), observed.n_timestamps());
    assert_eq!(
        synthetic.edge_counts_per_timestamp(),
        observed.edge_counts_per_timestamp(),
        "per-timestamp budgets must be preserved"
    );
    let scores = run.evaluate(&synthetic).expect("evaluate");
    assert_eq!(scores.len(), 7);
    for s in &scores {
        assert!(s.avg.is_finite() && s.med.is_finite(), "{}", s.kind.name());
        assert!(s.avg >= 0.0 && s.med >= 0.0);
    }
}

#[test]
fn generation_is_deterministic_for_fixed_seeds() {
    let observed = small_observed(3);
    let mut session = Session::builder(&observed)
        .config(quick_cfg(10))
        .build()
        .expect("session");
    session.train().expect("train");
    let run = session.into_shared();
    let gen = |master: u64| {
        run.simulate_seeded(
            master,
            GraphSink::new(observed.n_nodes(), observed.n_timestamps()),
        )
        .expect("simulate")
    };
    let a = gen(42);
    let b = gen(42);
    assert_eq!(a.edges(), b.edges(), "same master must reproduce the graph");
    let c = gen(43);
    assert_ne!(a.edges(), c.edges(), "different masters should differ");
}

#[test]
fn training_is_deterministic_for_fixed_master_seed() {
    let observed = small_observed(4);
    let run = || {
        let mut session = Session::builder(&observed)
            .config(quick_cfg(8))
            .seed(4)
            .build()
            .expect("session");
        session.train().expect("train").losses
    };
    assert_eq!(run(), run(), "training must be reproducible from the seed");
}

#[test]
fn all_variants_train_and_generate() {
    let observed = small_observed(5);
    for variant in TgaeVariant::ALL {
        let mut cfg = quick_cfg(6).with_variant(variant);
        // keep the unbounded variant cheap
        if variant == TgaeVariant::NoTruncation {
            cfg.batch_centers = 8;
        }
        let mut session = Session::builder(&observed)
            .config(cfg)
            .seed(6)
            .build()
            .expect("session");
        let report = session.train().expect("train");
        assert!(report.final_loss().is_finite(), "{} loss", variant.name());
        let synthetic = session.into_shared().simulate(0).expect("simulate");
        assert_eq!(
            synthetic.n_edges(),
            observed.n_edges(),
            "{} budget",
            variant.name()
        );
    }
}

#[test]
fn sparse_candidate_mode_trains_and_generates() {
    let observed = small_observed(7);
    let mut cfg = quick_cfg(10);
    cfg.dense_cutoff = 0; // force sampled-softmax path even on a small graph
    cfg.n_negatives = 32;
    let mut session = Session::builder(&observed)
        .config(cfg)
        .seed(8)
        .build()
        .expect("session");
    let report = session.train().expect("train");
    assert!(report.final_loss().is_finite());
    let synthetic = session.into_shared().simulate(0).expect("simulate");
    assert_eq!(synthetic.n_nodes(), observed.n_nodes());
    assert!(synthetic.n_edges() > 0);
}

#[test]
fn model_serializes_and_roundtrips() {
    let observed = small_observed(9);
    let mut session = Session::builder(&observed)
        .config(quick_cfg(5))
        .build()
        .expect("session");
    session.train().expect("train");
    let json = serde_json::to_string(session.model()).expect("serialize model");
    let restored: Tgae = serde_json::from_str(&json).expect("deserialize model");
    // a run adopting the restored model generates identically
    let restored_run = SharedRun::new(restored, observed.clone()).expect("adopted run");
    let a = session.into_shared().simulate(10).expect("simulate");
    let b = restored_run.simulate(10).expect("simulate");
    assert_eq!(a.edges(), b.edges());
}

#[test]
fn trained_beats_untrained_on_reconstruction() {
    // integration-level quality check: training must make generated edges
    // overlap the observed pair set more than an untrained model does.
    let observed = small_observed(11);
    let truth: std::collections::HashSet<(u32, u32)> =
        observed.edges().iter().map(|e| (e.u, e.v)).collect();
    let hit_rate = |session: Session<'_>| {
        let g = session
            .into_shared()
            .simulate_seeded(
                12,
                GraphSink::new(observed.n_nodes(), observed.n_timestamps()),
            )
            .expect("simulate");
        g.edges()
            .iter()
            .filter(|e| truth.contains(&(e.u, e.v)))
            .count() as f64
            / g.n_edges().max(1) as f64
    };
    let untrained = Session::builder(&observed)
        .config(quick_cfg(40))
        .build()
        .expect("session");
    let untrained_rate = hit_rate(untrained);
    let mut trained = Session::builder(&observed)
        .config(quick_cfg(40))
        .build()
        .expect("session");
    trained.train().expect("train");
    let trained_rate = hit_rate(trained);
    assert!(
        trained_rate > untrained_rate,
        "trained {trained_rate:.3} <= untrained {untrained_rate:.3}"
    );
}
