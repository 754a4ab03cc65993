//! Quickstart: train TGAE on a small temporal graph through a `Session`,
//! hand off to its `SharedRun`, and verify the simulation preserves the
//! Table III statistics.
//!
//! Run with: `cargo run --release --example quickstart`

#![allow(clippy::field_reassign_with_default)] // config-building style

use tgx::prelude::*;

fn main() {
    // 1. An observed temporal graph: the DBLP-like preset at 20% scale.
    let observed = tgx::datasets::presets::dblp().generate_scaled(0.2, 42);
    println!(
        "observed: {} nodes, {} temporal edges, {} timestamps",
        observed.n_nodes(),
        observed.n_edges(),
        observed.n_timestamps()
    );

    // 2. Build a session: one master seed drives init, training, and
    //    every simulation; the observer prints coarse progress.
    let mut cfg = TgaeConfig::default();
    cfg.epochs = 80;
    let mut session = Session::builder(&observed)
        .config(cfg)
        .seed(7)
        .observer(|ev: &EpochEvent| {
            if (ev.epoch + 1).is_multiple_of(20) {
                println!(
                    "  epoch {:>3}/{}: loss {:.4}",
                    ev.epoch + 1,
                    ev.n_epochs,
                    ev.loss
                );
            }
            TrainControl::Continue
        })
        .build()
        .expect("valid graph + config");
    println!(
        "model: {} trainable parameters",
        session.model().n_parameters()
    );

    // 3. Train (Eq. 7 objective, Adam); errors are typed, not panics.
    let report = session.train().expect("training ran");
    println!(
        "trained {} steps in {:.2?}: loss {:.4} -> {:.4} (mean epoch {:.2?})",
        report.epochs_run(),
        report.wall,
        report.losses[0],
        report.final_loss(),
        report.mean_epoch_wall()
    );

    // 4. Hand the trained run off and simulate run 0: a synthetic
    //    temporal graph with the same edge budget.
    let run = session.into_shared();
    let synthetic = run.simulate(0).expect("simulation ran");
    println!(
        "generated: {} temporal edges across {} timestamps",
        synthetic.n_edges(),
        synthetic.n_timestamps()
    );

    // 5. Evaluate with the paper's harness (Eq. 10): relative error of the
    //    seven graph statistics across accumulated snapshots.
    println!("\n{:<16} {:>10} {:>10}", "metric", "f_avg", "f_med");
    for score in run.evaluate(&synthetic).expect("same shape") {
        println!(
            "{:<16} {:>10.4} {:>10.4}",
            score.kind.name(),
            score.avg,
            score.med
        );
    }

    // 6. Inspect the final accumulated snapshots side by side.
    let t_last = observed.n_timestamps() as u32 - 1;
    let real = GraphStats::compute(&Snapshot::accumulated(&observed, t_last, true));
    let fake = GraphStats::compute(&Snapshot::accumulated(&synthetic, t_last, true));
    println!("\nfinal snapshot        observed   generated");
    println!(
        "mean degree        {:>11.3} {:>11.3}",
        real.mean_degree, fake.mean_degree
    );
    println!("LCC                {:>11.0} {:>11.0}", real.lcc, fake.lcc);
    println!(
        "triangles          {:>11.0} {:>11.0}",
        real.triangle_count, fake.triangle_count
    );
    println!(
        "components         {:>11.0} {:>11.0}",
        real.n_components, fake.n_components
    );
}
