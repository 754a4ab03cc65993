//! TGAE model and training configuration.

use crate::errors::TgxError;
use serde::{Deserialize, Serialize};
use tg_sampling::SamplerConfig;

/// The ablation variants of §IV-F (Table VII).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TgaeVariant {
    /// Full model.
    Full,
    /// TGAE-g: random-walk context (`th = 1`) instead of ego-graphs.
    RandomWalk,
    /// TGAE-t: no neighbor truncation.
    NoTruncation,
    /// TGAE-n: uniform initial node sampling instead of Eq. 2.
    UniformSampling,
    /// TGAE-p: deterministic (non-probabilistic) decoder — `Z = MLP_mu(X)`,
    /// no reparameterisation, no KL term (Eqs. 8–9).
    NonProbabilistic,
}

impl TgaeVariant {
    /// Display name matching Table VII's column headers.
    pub fn name(self) -> &'static str {
        match self {
            TgaeVariant::Full => "TGAE",
            TgaeVariant::RandomWalk => "TGAE-g",
            TgaeVariant::NoTruncation => "TGAE-t",
            TgaeVariant::UniformSampling => "TGAE-n",
            TgaeVariant::NonProbabilistic => "TGAE-p",
        }
    }

    /// All variants in Table VII order.
    pub const ALL: [TgaeVariant; 5] = [
        TgaeVariant::Full,
        TgaeVariant::RandomWalk,
        TgaeVariant::NoTruncation,
        TgaeVariant::UniformSampling,
        TgaeVariant::NonProbabilistic,
    ];
}

/// Full TGAE configuration: architecture + sampling + optimisation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TgaeConfig {
    /// Input feature dimension `d_in` (node-id + timestamp embeddings).
    pub d_in: usize,
    /// Hidden dimension per attention head `d_enc`.
    pub d_head: usize,
    /// Number of attention heads `h_tga` (Eq. 3).
    pub heads: usize,
    /// Output dimension of the encoder / decoder latent `d_att`.
    pub d_model: usize,
    /// Ego-graph sampler settings (radius `k` = number of TGAT layers).
    pub sampler: SamplerConfig,
    /// Initial temporal nodes per batch, `n_s` (Eq. 7).
    pub batch_centers: usize,
    /// Training epochs (each epoch = one sampled batch pass).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Weight of the KL term (β-VAE style; 1.0 = Eq. 6).
    pub kl_beta: f32,
    /// Global-norm gradient clip.
    pub grad_clip: f64,
    /// Use the dense n-way softmax when `n <= dense_cutoff`; otherwise
    /// score against a sampled candidate set (positives + negatives).
    pub dense_cutoff: usize,
    /// Number of uniform negative candidates in sparse mode.
    pub n_negatives: usize,
    /// Generation softmax temperature: logits are divided by this before
    /// sampling. `< 1` sharpens rows, concentrating repeated draws on the
    /// same partners across timestamps (how real temporal graphs behave);
    /// `1.0` reproduces the raw learned distribution.
    pub gen_temperature: f32,
    /// Model variant (ablations).
    pub variant: TgaeVariant,
    /// RNG seed for parameter init and sampling.
    pub seed: u64,
}

impl Default for TgaeConfig {
    fn default() -> Self {
        TgaeConfig {
            d_in: 32,
            d_head: 16,
            heads: 4,
            d_model: 32,
            sampler: SamplerConfig::default(),
            batch_centers: 64,
            epochs: 60,
            lr: 5e-3,
            kl_beta: 1e-3,
            grad_clip: 5.0,
            dense_cutoff: 4096,
            n_negatives: 512,
            gen_temperature: 0.7,
            variant: TgaeVariant::Full,
            seed: 42,
        }
    }
}

impl TgaeConfig {
    /// Apply a variant: adjusts the sampler and decoder knobs, returning
    /// the updated config.
    pub fn with_variant(mut self, variant: TgaeVariant) -> Self {
        self.variant = variant;
        match variant {
            TgaeVariant::Full | TgaeVariant::NonProbabilistic => {}
            TgaeVariant::RandomWalk => self.sampler = self.sampler.random_walk_variant(),
            TgaeVariant::NoTruncation => self.sampler = self.sampler.no_truncation_variant(),
            TgaeVariant::UniformSampling => self.sampler = self.sampler.uniform_sampling_variant(),
        }
        self
    }

    /// A small configuration for tests and quick examples.
    pub fn tiny() -> Self {
        TgaeConfig {
            d_in: 8,
            d_head: 4,
            heads: 2,
            d_model: 8,
            batch_centers: 16,
            epochs: 15,
            n_negatives: 32,
            ..Default::default()
        }
    }

    /// Refuse a field [`SessionBuilder::build`](crate::session::SessionBuilder::build)
    /// cannot train with: a zero size or epoch count, or a learning rate
    /// or generation temperature that is not finite and positive.
    pub fn validate(&self) -> Result<(), TgxError> {
        let field_checks: [(&str, bool); 8] = [
            ("epochs must be > 0", self.epochs > 0),
            ("d_in must be > 0", self.d_in > 0),
            ("d_head must be > 0", self.d_head > 0),
            ("heads must be > 0", self.heads > 0),
            ("d_model must be > 0", self.d_model > 0),
            ("batch_centers must be > 0", self.batch_centers > 0),
            (
                "lr must be finite and > 0",
                self.lr.is_finite() && self.lr > 0.0,
            ),
            (
                "gen_temperature must be finite and > 0",
                self.gen_temperature.is_finite() && self.gen_temperature > 0.0,
            ),
        ];
        for (msg, ok) in field_checks {
            if !ok {
                return Err(TgxError::InvalidConfig(msg.into()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names_match_table7() {
        let names: Vec<&str> = TgaeVariant::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(names, vec!["TGAE", "TGAE-g", "TGAE-t", "TGAE-n", "TGAE-p"]);
    }

    #[test]
    fn with_variant_adjusts_sampler() {
        let c = TgaeConfig::default().with_variant(TgaeVariant::RandomWalk);
        assert_eq!(c.sampler.threshold, 1);
        let c = TgaeConfig::default().with_variant(TgaeVariant::NoTruncation);
        assert_eq!(c.sampler.threshold, usize::MAX);
        let c = TgaeConfig::default().with_variant(TgaeVariant::UniformSampling);
        assert!(!c.sampler.degree_weighted);
        let c = TgaeConfig::default().with_variant(TgaeVariant::NonProbabilistic);
        assert_eq!(c.sampler.threshold, SamplerConfig::default().threshold);
    }
}
