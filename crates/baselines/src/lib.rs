//! `tg-baselines`: from-scratch reimplementations of the ten generators
//! the TGAE paper compares against (Tables IV–VI, Fig. 5–6).
//!
//! Every baseline keeps its namesake's defining mechanism and complexity
//! class while remaining runnable on CPU; each module doc gives the
//! rationale per method:
//!
//! | Method   | Module           | Mechanism kept |
//! |----------|------------------|----------------|
//! | E-R      | [`simple`]       | `G(n, m_t)` per snapshot |
//! | B-A      | [`simple`]       | preferential attachment |
//! | VGAE     | [`autoencoder`]  | GCN + variational inner-product decoder |
//! | Graphite | [`autoencoder`]  | VGAE + low-rank iterative refinement |
//! | SBMGNN   | [`autoencoder`]  | overlapping SBM with learned memberships |
//! | NetGAN   | [`walks`]        | low-rank walk-transition factorisation |
//! | TagGen   | [`walks`]        | temporal walks + O(T²) time-affinity table |
//! | TGGAN    | [`walks`]        | TagGen + adversarial re-weighting |
//! | TIGGER   | [`walks`]        | autoregressive walks, O(n + M) state |
//! | DYMOND   | [`dymond`]       | dynamic motif arrival model |
//!
//! All implement [`traits::TemporalGraphGenerator`] and preserve the
//! observed per-timestamp edge budget, matching the paper's protocol.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

pub mod autoencoder;
pub mod dymond;
pub mod simple;
pub mod traits;
pub mod walks;

pub use autoencoder::{AeConfig, AeGenerator};
pub use dymond::DymondGenerator;
pub use simple::{BaGenerator, ErGenerator};
pub use traits::TemporalGraphGenerator;
pub use walks::{
    NetGanConfig, NetGanGenerator, TagGenConfig, TagGenGenerator, TgganGenerator, TiggerConfig,
    TiggerGenerator,
};

/// All ten baselines with default configurations, in the paper's column
/// order (TIGGER, DYMOND, TGGAN, TagGen, NetGAN, E-R, B-A, VGAE, Graphite,
/// SBMGNN).
pub fn all_baselines() -> Vec<Box<dyn TemporalGraphGenerator>> {
    vec![
        Box::new(TiggerGenerator::new(TiggerConfig::default())),
        Box::new(DymondGenerator::default()),
        Box::new(TgganGenerator::new(TagGenConfig::default())),
        Box::new(TagGenGenerator::new(TagGenConfig::default())),
        Box::new(NetGanGenerator::new(NetGanConfig::default())),
        Box::new(ErGenerator),
        Box::new(BaGenerator),
        Box::new(AeGenerator::vgae(AeConfig::default())),
        Box::new(AeGenerator::graphite(AeConfig::default())),
        Box::new(AeGenerator::sbmgnn(AeConfig::default())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_ten_in_paper_order() {
        let names: Vec<&str> = all_baselines().iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec![
                "TIGGER", "DYMOND", "TGGAN", "TagGen", "NetGAN", "E-R", "B-A", "VGAE", "Graphite",
                "SBMGNN"
            ]
        );
    }

    #[test]
    fn learning_flags_match_paper_grouping() {
        let learned: Vec<bool> = all_baselines()
            .iter()
            .map(|b| b.is_learning_based())
            .collect();
        // E-R and B-A (positions 5, 6) are the only non-learning methods
        assert_eq!(
            learned,
            vec![true, true, true, true, true, false, false, true, true, true]
        );
    }
}
