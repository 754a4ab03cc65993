//! Named dataset presets mirroring Table II of the paper.
//!
//! Each preset carries the paper's node/edge/timestamp counts plus
//! structural knobs chosen to mimic the network's character (citation vs
//! communication vs trust vs Q&A). `Preset::generate_scaled` shrinks node
//! and edge counts proportionally for laptop-scale runs — `tgx::paper`
//! defaults to a scale < 1 per dataset, and
//! `cargo run --release --example paper_tables -- <table> --scale 1.0`
//! runs the full Table II operating points.

use crate::synthetic::{generate, SyntheticConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tg_graph::TemporalGraph;

/// A named dataset preset (paper Table II row).
#[derive(Clone, Debug)]
pub struct Preset {
    pub name: &'static str,
    pub config: SyntheticConfig,
}

impl Preset {
    /// Generate at full Table II scale with the given seed.
    pub fn generate(&self, seed: u64) -> TemporalGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        generate(&self.config, &mut rng)
    }

    /// Generate with node/edge counts multiplied by `scale`.
    pub fn generate_scaled(&self, scale: f64, seed: u64) -> TemporalGraph {
        let cfg = self.config.scaled(scale);
        let mut rng = SmallRng::seed_from_u64(seed);
        generate(&cfg, &mut rng)
    }

    /// Paper statistics `(nodes, edges, timestamps)` for this preset.
    pub fn paper_stats(&self) -> (usize, usize, usize) {
        (self.config.nodes, self.config.edges, self.config.timestamps)
    }
}

/// DBLP: IEEE VIS citation network, 1990–2015. Strong communities
/// (research topics), densifying over time, few repeats.
pub fn dblp() -> Preset {
    Preset {
        name: "DBLP",
        config: SyntheticConfig {
            nodes: 1909,
            edges: 8237,
            timestamps: 15,
            communities: 12,
            community_affinity: 0.85,
            pa_smoothing: 1.0,
            recency_repeat: 0.05,
            recency_window: 64,
            growth: 0.8,
        },
    }
}

/// EMAIL: dense communication network — heavy edge re-firing between the
/// same pairs across 805 timestamps.
pub fn email() -> Preset {
    Preset {
        name: "EMAIL",
        config: SyntheticConfig {
            nodes: 986,
            edges: 332_334,
            timestamps: 805,
            communities: 6,
            community_affinity: 0.75,
            pa_smoothing: 0.5,
            recency_repeat: 0.55,
            recency_window: 2048,
            growth: 0.1,
        },
    }
}

/// MSG: online-community messaging (Panzarasa et al.) — moderate repeats,
/// bursty.
pub fn msg() -> Preset {
    Preset {
        name: "MSG",
        config: SyntheticConfig {
            nodes: 1899,
            edges: 20_296,
            timestamps: 195,
            communities: 8,
            community_affinity: 0.6,
            pa_smoothing: 0.7,
            recency_repeat: 0.35,
            recency_window: 512,
            growth: 0.2,
        },
    }
}

/// BITCOIN-A: Bitcoin Alpha who-trusts-whom — sparse, long time axis,
/// mild preferential attachment.
pub fn bitcoin_alpha() -> Preset {
    Preset {
        name: "BITCOIN-A",
        config: SyntheticConfig {
            nodes: 3783,
            edges: 24_186,
            timestamps: 1902,
            communities: 10,
            community_affinity: 0.5,
            pa_smoothing: 0.8,
            recency_repeat: 0.1,
            recency_window: 256,
            growth: 0.3,
        },
    }
}

/// BITCOIN-O: Bitcoin OTC who-trusts-whom.
pub fn bitcoin_otc() -> Preset {
    Preset {
        name: "BITCOIN-O",
        config: SyntheticConfig {
            nodes: 5881,
            edges: 35_592,
            timestamps: 1904,
            communities: 10,
            community_affinity: 0.5,
            pa_smoothing: 0.8,
            recency_repeat: 0.1,
            recency_window: 256,
            growth: 0.3,
        },
    }
}

/// MATH: Math Overflow interactions — large, strong hubs (power users).
pub fn math() -> Preset {
    Preset {
        name: "MATH",
        config: SyntheticConfig {
            nodes: 24_818,
            edges: 506_550,
            timestamps: 79,
            communities: 20,
            community_affinity: 0.55,
            pa_smoothing: 0.4,
            recency_repeat: 0.25,
            recency_window: 1024,
            growth: 0.5,
        },
    }
}

/// UBUNTU: Ask Ubuntu interactions — the paper's scalability stressor
/// (~14M temporal nodes); most baselines OOM here.
pub fn ubuntu() -> Preset {
    Preset {
        name: "UBUNTU",
        config: SyntheticConfig {
            nodes: 159_316,
            edges: 964_437,
            timestamps: 88,
            communities: 40,
            community_affinity: 0.5,
            pa_smoothing: 0.35,
            recency_repeat: 0.2,
            recency_window: 2048,
            growth: 0.4,
        },
    }
}

/// All seven Table II presets in paper order.
pub fn all_presets() -> Vec<Preset> {
    vec![
        dblp(),
        email(),
        msg(),
        bitcoin_alpha(),
        bitcoin_otc(),
        math(),
        ubuntu(),
    ]
}

/// Look up a preset by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<Preset> {
    all_presets()
        .into_iter()
        .find(|p| p.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_statistics_match_paper() {
        let expect = [
            ("DBLP", 1909, 8237, 15),
            ("EMAIL", 986, 332_334, 805),
            ("MSG", 1899, 20_296, 195),
            ("BITCOIN-A", 3783, 24_186, 1902),
            ("BITCOIN-O", 5881, 35_592, 1904),
            ("MATH", 24_818, 506_550, 79),
            ("UBUNTU", 159_316, 964_437, 88),
        ];
        let presets = all_presets();
        assert_eq!(presets.len(), expect.len());
        for (p, (name, n, m, t)) in presets.iter().zip(expect) {
            assert_eq!(p.name, name);
            assert_eq!(p.paper_stats(), (n, m, t), "{name}");
        }
    }

    #[test]
    fn scaled_generation_runs_and_matches_shape() {
        let g = dblp().generate_scaled(0.2, 7);
        assert_eq!(g.n_timestamps(), 15);
        assert!(g.n_nodes() >= 300 && g.n_nodes() <= 400);
        assert!(g.n_edges() > 1000);
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("dblp").is_some());
        assert!(by_name("Bitcoin-A").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn full_dblp_generation_is_fast_and_exactish() {
        let g = dblp().generate(42);
        assert_eq!(g.n_nodes(), 1909);
        assert_eq!(g.n_timestamps(), 15);
        let m = g.n_edges();
        assert!(m > 8000 && m <= 8237, "{m}");
    }
}
