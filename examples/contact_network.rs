//! Epidemiology / communication scenario: simulating a bursty contact
//! network (the paper's pandemic-trajectory motivation, §I).
//!
//! Contact-tracing datasets are privacy-sensitive; synthetic contact
//! networks let epidemic models be stress-tested without the raw data —
//! *if* the simulator preserves both the contact-volume profile over time
//! and the local clustering that drives spreading. This example trains
//! TGAE on an MSG-like message network, then compares spreading behaviour
//! (a deterministic SI cascade) on the observed vs simulated graphs, also
//! exercising the ablation variants.
//!
//! Run with: `cargo run --release --example contact_network`

#![allow(clippy::field_reassign_with_default)] // config-building style

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tgx::prelude::*;

/// Deterministic SI cascade: seed node 0 at t=0; any temporal edge from an
/// infected node infects its target from that timestamp on. Returns the
/// infected count per timestamp — a functional (not just structural) probe
/// of simulation quality.
fn si_cascade(g: &TemporalGraph, seed_node: u32) -> Vec<usize> {
    let mut infected = vec![false; g.n_nodes()];
    infected[seed_node as usize] = true;
    let mut curve = Vec::with_capacity(g.n_timestamps());
    for t in 0..g.n_timestamps() as u32 {
        // within a snapshot, propagate one hop (edges are simultaneous)
        let newly: Vec<u32> = g
            .edges_at(t)
            .iter()
            .filter(|e| infected[e.u as usize] && !infected[e.v as usize])
            .map(|e| e.v)
            .collect();
        for v in newly {
            infected[v as usize] = true;
        }
        curve.push(infected.iter().filter(|&&i| i).count());
    }
    curve
}

fn main() {
    let mut config = tgx::datasets::presets::msg().config.scaled(0.12);
    config.timestamps = 40;
    let mut data_rng = SmallRng::seed_from_u64(5);
    let observed = tgx::datasets::generate(&config, &mut data_rng);
    println!(
        "contact network: {} people, {} timed contacts, {} snapshots",
        observed.n_nodes(),
        observed.n_edges(),
        observed.n_timestamps()
    );

    // seed at the highest-degree node for a robust cascade
    let seed_node = observed
        .static_degrees()
        .iter()
        .enumerate()
        .max_by_key(|&(_, d)| *d)
        .map(|(v, _)| v as u32)
        .expect("non-empty graph");
    let real_curve = si_cascade(&observed, seed_node);

    println!("\nvariant comparison (SI cascade + structure):");
    println!(
        "{:<8} {:>10} {:>14} {:>14}",
        "variant", "loss", "cascade L1", "tri. rel.err"
    );
    let t_last = observed.n_timestamps() as u32 - 1;
    let real_tri =
        GraphStats::compute(&Snapshot::accumulated(&observed, t_last, true)).triangle_count;

    for variant in [
        TgaeVariant::Full,
        TgaeVariant::RandomWalk,
        TgaeVariant::NonProbabilistic,
    ] {
        let mut cfg = TgaeConfig::default().with_variant(variant);
        cfg.epochs = 60;
        let mut session = Session::builder(&observed)
            .config(cfg)
            .seed(9)
            .build()
            .expect("valid session");
        let report = session.train().expect("train");
        let synthetic = session.into_shared().simulate(0).expect("simulate");

        // functional fidelity: how closely does an epidemic on the twin
        // track an epidemic on the real network?
        let syn_curve = si_cascade(&synthetic, seed_node);
        let cascade_l1: f64 = real_curve
            .iter()
            .zip(&syn_curve)
            .map(|(&a, &b)| (a as f64 - b as f64).abs())
            .sum::<f64>()
            / real_curve.len() as f64;

        let syn_tri =
            GraphStats::compute(&Snapshot::accumulated(&synthetic, t_last, true)).triangle_count;
        let tri_err = (real_tri - syn_tri).abs() / real_tri.max(1.0);
        println!(
            "{:<8} {:>10.4} {:>14.2} {:>14.3}",
            variant.name(),
            report.final_loss(),
            cascade_l1,
            tri_err
        );
    }

    println!("\ncontact volume per snapshot is preserved by construction:");
    let obs_counts = observed.edge_counts_per_timestamp();
    println!(
        "  first five snapshots: {:?} (observed) — generators must match these budgets",
        &obs_counts[..5.min(obs_counts.len())]
    );
}
