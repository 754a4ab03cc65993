//! Experiment dataset selection: Table II presets at harness scales.
//!
//! The paper runs on a V100 with 32 GB of HBM; this harness runs the same
//! operating points shrunk by a per-dataset default scale so the full
//! experiment grid finishes on a laptop CPU. Every binary accepts
//! `--scale <f>` to override (1.0 = the paper's full Table II sizes).

use tg_datasets::{by_name, Preset};
use tg_graph::TemporalGraph;

/// Default harness scale for each Table II dataset (chosen so the slowest
/// baseline finishes in seconds at default settings).
pub fn default_scale(name: &str) -> f64 {
    match name.to_ascii_uppercase().as_str() {
        "DBLP" => 0.5,
        "EMAIL" => 0.05,
        "MSG" => 0.15,
        "BITCOIN-A" => 0.08,
        "BITCOIN-O" => 0.05,
        "MATH" => 0.01,
        "UBUNTU" => 0.004,
        _ => 0.1,
    }
}

/// Timestamp cap applied after scaling: long time axes (Bitcoin's ~1900
/// timestamps) are bucketed down so per-snapshot statistics stay
/// meaningful at reduced edge counts.
pub fn timestamp_cap(name: &str) -> usize {
    match name.to_ascii_uppercase().as_str() {
        "EMAIL" => 50,
        "BITCOIN-A" | "BITCOIN-O" => 60,
        _ => 100,
    }
}

/// Generate a named dataset at the given (or default) scale.
pub fn load(name: &str, scale: Option<f64>, seed: u64) -> (Preset, TemporalGraph) {
    #[expect(
        clippy::panic,
        reason = "the experiment drivers name presets from a fixed list; a typo stops the run"
    )]
    let preset = by_name(name).unwrap_or_else(|| panic!("unknown dataset {name}"));
    let scale = scale.unwrap_or_else(|| default_scale(name));
    let mut cfg = preset.config.scaled(scale);
    cfg.timestamps = cfg.timestamps.min(timestamp_cap(name));
    let g = tg_datasets::generate(&cfg, &mut seeded(seed));
    (preset, g)
}

fn seeded(seed: u64) -> rand::rngs::SmallRng {
    use rand::SeedableRng;
    rand::rngs::SmallRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_scales_and_caps() {
        let (preset, g) = load("BITCOIN-A", Some(0.05), 7);
        assert_eq!(preset.name, "BITCOIN-A");
        assert!(g.n_nodes() < 400);
        assert!(g.n_timestamps() <= 60);
    }

    #[test]
    fn default_scales_cover_all_presets() {
        for p in tg_datasets::all_presets() {
            assert!(default_scale(p.name) > 0.0);
            let (_, g) = load(p.name, None, 1);
            assert!(g.n_edges() > 0, "{} generated empty", p.name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_dataset_panics() {
        load("NOPE", None, 1);
    }
}
