//! Weight initialisation and basic random sampling helpers.
//!
//! `rand 0.8` ships uniform sampling only; the Gaussian draws needed by
//! embedding init and the VAE reparameterisation trick are produced with
//! the Box–Muller transform so we avoid an extra dependency.
//!
//! The categorical samplers share one draw,
//! [`sample_categorical_with_total`]: [`sample_categorical`] sums then
//! draws, [`sample_categorical_without_replacement`] sums, draws and
//! zeroes per pick, and the simulation engine runs the same scan on a
//! unit's candidate-major probabilities, several rows abreast, with the
//! variates it drew up front ([`categorical_pick`]). All of them consume
//! one `f64` variate per draw and never return an index of zero weight.

use crate::matrix::Matrix;
use rand::Rng;

/// One standard-normal draw via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // u1 in (0,1] to keep ln() finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Matrix of i.i.d. `N(0, std^2)` draws.
pub fn normal_matrix<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize, std: f32) -> Matrix {
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        data.push(standard_normal(rng) * std);
    }
    Matrix::from_vec(rows, cols, data)
}

/// Xavier/Glorot uniform init: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize) -> Matrix {
    let a = (6.0 / (rows + cols) as f64).sqrt() as f32;
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        data.push(rng.gen_range(-a..=a));
    }
    Matrix::from_vec(rows, cols, data)
}

/// Draw one index from an unnormalised non-negative weight vector.
///
/// Used by every categorical sampling step in the repo (initial-node
/// sampling, edge generation, baseline generators). Panics if all weights
/// are zero or any is negative.
pub fn sample_categorical<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "sample_categorical: all-zero weights");
    sample_categorical_with_total(rng, weights, total)
}

/// The draw every categorical sampler shares: one uniform variate scaled
/// by `total`, then one sequential subtraction scan. `total` must be the
/// sequential `f64` sum of `weights` and positive — callers that draw
/// repeatedly (the simulation engine, the without-replacement loop below)
/// compute it once per draw instead of once to test and once to sample.
///
/// Never returns an index whose weight is zero: the rounded `total` can
/// exceed what the running subtraction removes, so with a variate close
/// to 1 the scan can run off the end — the draw then belongs to the last
/// index with positive weight, not to `weights.len() - 1`; and a variate
/// of exactly 0 skips leading zero weights.
pub fn sample_categorical_with_total<R: Rng + ?Sized>(
    rng: &mut R,
    weights: &[f64],
    total: f64,
) -> usize {
    categorical_pick(rng.gen::<f64>(), weights, total)
}

/// [`sample_categorical_with_total`] on a variate the caller drew: the
/// index `variate ∈ [0, 1)` selects. The simulation engine draws a unit's
/// variates up front, in the order the rows consume them.
#[expect(
    clippy::expect_used,
    reason = "every caller checks `total > 0` first, and a positive total has a positive weight"
)]
pub fn categorical_pick(variate: f64, weights: &[f64], total: f64) -> usize {
    debug_assert!(weights.iter().all(|w| *w >= 0.0), "negative weight");
    let mut u = variate * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 && w > 0.0 {
            return i;
        }
    }
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("a positive total has a positive weight")
}

/// Sample `k` distinct indices without replacement from unnormalised
/// weights (sequential draw-and-zero). If fewer than `k` indices have
/// positive weight, returns all of them.
pub fn sample_categorical_without_replacement<R: Rng + ?Sized>(
    rng: &mut R,
    weights: &[f64],
    k: usize,
) -> Vec<usize> {
    let mut w = weights.to_vec();
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let total: f64 = w.iter().sum();
        if total <= 0.0 {
            break;
        }
        let i = sample_categorical_with_total(rng, &w, total);
        out.push(i);
        w[i] = 0.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn box_muller_moments() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 20000;
        let mut sum = 0.0f64;
        let mut sq = 0.0f64;
        for _ in 0..n {
            let x = standard_normal(&mut rng) as f64;
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn xavier_uniform_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        let m = xavier_uniform(&mut rng, 10, 30);
        let a = (6.0f64 / 40.0).sqrt() as f32;
        assert!(m.as_slice().iter().all(|v| v.abs() <= a + 1e-6));
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = SmallRng::seed_from_u64(3);
        let w = vec![0.0, 9.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..5000 {
            counts[sample_categorical(&mut rng, &w)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > 4 * counts[2], "{counts:?}");
    }

    #[test]
    fn without_replacement_distinct_and_bounded() {
        let mut rng = SmallRng::seed_from_u64(5);
        let w = vec![1.0; 6];
        let picks = sample_categorical_without_replacement(&mut rng, &w, 4);
        assert_eq!(picks.len(), 4);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "duplicates in {picks:?}");
        // requesting more than positive-weight entries truncates
        let w2 = vec![0.0, 1.0, 0.0, 2.0];
        let picks2 = sample_categorical_without_replacement(&mut rng, &w2, 10);
        assert_eq!(picks2.len(), 2);
    }

    /// A generator stuck on one word; `u64::MAX` makes `gen::<f64>()`
    /// return `1 - 2^-53`, the largest variate there is.
    struct ConstRng(u64);

    impl rand::RngCore for ConstRng {
        fn next_u32(&mut self) -> u32 {
            (self.0 >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            dest.fill(self.0 as u8);
        }
    }

    /// The subtraction scan as it was: it returned the last index
    /// whatever its weight once it ran off the end.
    fn scan_falls_through(weights: &[f64], r: f64) -> bool {
        let mut u = r * weights.iter().sum::<f64>();
        weights.iter().all(|&w| {
            u -= w;
            u > 0.0
        })
    }

    #[test]
    fn largest_variate_never_selects_a_zero_weight() {
        let r = ConstRng(u64::MAX).gen::<f64>();
        assert_eq!(r, 1.0 - (0.5f64).powi(53));
        // deterministic search for vectors whose rounded total exceeds
        // what the running subtraction removes (about 2 % of them)
        let mut gen = SmallRng::seed_from_u64(11);
        let mut found = 0;
        for _ in 0..2000 {
            let mut w: Vec<f64> = (0..12).map(|_| gen.gen::<f64>()).collect();
            w.extend([0.0, 0.0]);
            if !scan_falls_through(&w, r) {
                continue;
            }
            found += 1;
            assert_eq!(sample_categorical(&mut ConstRng(u64::MAX), &w), 11);
            let picks = sample_categorical_without_replacement(&mut ConstRng(u64::MAX), &w, 14);
            assert_eq!(picks.len(), 12, "{picks:?}");
            assert!(picks.iter().all(|&i| w[i] > 0.0), "{picks:?}");
        }
        assert!(found >= 5, "search found only {found} fall-through vectors");
    }

    #[test]
    fn zero_variate_skips_leading_zero_weights() {
        assert_eq!(
            sample_categorical(&mut ConstRng(0), &[0.0, 0.0, 3.0, 1.0]),
            2
        );
    }

    #[test]
    #[should_panic(expected = "all-zero weights")]
    fn categorical_zero_weights_panics() {
        let mut rng = SmallRng::seed_from_u64(5);
        sample_categorical(&mut rng, &[0.0, 0.0]);
    }
}
