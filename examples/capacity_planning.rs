//! Capacity-planning scenario: how far does each generator scale?
//!
//! Before adopting a graph simulator, an infrastructure team wants the
//! time/size curve on *their* hardware. This example sweeps the paper's
//! Fig. 6 node axis at reduced size and prints wall-clock time per method,
//! demonstrating the `tg_datasets::grid` API and the uniform generator
//! interface.
//!
//! Run with: `cargo run --release --example capacity_planning`

#![allow(clippy::field_reassign_with_default)] // config-building style

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;
use tgx::baselines::{
    BaGenerator, ErGenerator, TagGenConfig, TagGenGenerator, TemporalGraphGenerator,
};
use tgx::datasets::GridPoint;
use tgx::prelude::*;

/// TGAE behind the common generator interface, driven by a `Session`.
/// The harness hands us an RNG; one `u64` drawn from it seeds the whole
/// session (train stream + simulation stream), so the run stays
/// reproducible under the uniform interface.
struct TgaeMethod(TgaeConfig);

impl TemporalGraphGenerator for TgaeMethod {
    fn name(&self) -> &'static str {
        "TGAE"
    }

    fn fit_generate(
        &mut self,
        observed: &TemporalGraph,
        rng: &mut dyn rand::RngCore,
    ) -> TemporalGraph {
        let mut cfg = self.0.clone();
        cfg.seed = rng.next_u64();
        let mut session = Session::builder(observed)
            .config(cfg)
            .build()
            .expect("valid session");
        session.train().expect("train");
        session.into_shared().simulate(0).expect("simulate")
    }
}

fn main() {
    let points: Vec<GridPoint> = (1..=3)
        .map(|k| GridPoint {
            nodes: k * 300,
            timestamps: 8,
            density: 0.01,
        })
        .collect();

    println!(
        "{:<14} {:>8} {:>8} | {:>9} {:>9} {:>9} {:>9}",
        "point", "nodes", "edges", "TGAE", "TagGen", "E-R", "B-A"
    );
    for p in &points {
        let g = p.generate(3);
        let mut cells = Vec::new();
        let mut methods: Vec<Box<dyn TemporalGraphGenerator>> = vec![
            Box::new(TgaeMethod({
                let mut c = TgaeConfig::default();
                c.epochs = 30;
                c
            })),
            Box::new(TagGenGenerator::new(TagGenConfig::default())),
            Box::new(ErGenerator),
            Box::new(BaGenerator),
        ];
        for m in methods.iter_mut() {
            let mut rng = SmallRng::seed_from_u64(11);
            #[expect(
                clippy::disallowed_methods,
                reason = "the example reports how long each method takes; the reading is only printed"
            )]
            let t0 = Instant::now();
            let out = m.fit_generate(&g, &mut rng);
            let dt = t0.elapsed();
            assert_eq!(out.n_edges(), g.n_edges());
            cells.push(format!("{:>8.2}s", dt.as_secs_f64()));
        }
        println!(
            "{:<14} {:>8} {:>8} | {} {} {} {}",
            p.label(),
            g.n_nodes(),
            g.n_edges(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }
    println!("\nsimple models are near-instant; learned models pay training time —");
    println!(
        "the full sweep (Fig. 6 reproduction) is `cargo run --release --example paper_tables -- fig6`"
    );
}
