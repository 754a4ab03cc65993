//! Sample statistics: the one percentile helper every reported number
//! goes through, and the [`Stat`] record of the result schema.

use serde::{Deserialize, Serialize};

/// Percentile `q` in `[0, 1]` of an ascending-sorted sample, with linear
/// interpolation between the two nearest ranks. Empty input gives `None`.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of an unsorted sample; `None` when it is empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    Stat::median(samples, "").map(|s| s.value)
}

/// The highest of p50/p90/p95/p99 that has at least ten samples beyond
/// it in a sample of `n` — the highest percentile `n` supports.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // per-mille integers: `n * (1 - 0.90)` is 9.999… in floating point
    [(990, 0.99), (950, 0.95), (900, 0.90)]
        .into_iter()
        .find(|&(per_mille, _)| n * (1000 - per_mille) >= 10_000)
        .map_or(0.5, |(_, q)| q)
}

/// One reported number: the headline `value` (how it was taken from
/// the `n` samples is the constructor's business: a percentile or the
/// mean), the p10/p50/p90 of the same samples, and the unit.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Stat {
    /// Headline statistic.
    pub value: f64,
    /// 10th percentile of the samples.
    pub p10: f64,
    /// Median of the samples.
    pub p50: f64,
    /// 90th percentile of the samples.
    pub p90: f64,
    /// Sample count.
    pub n: usize,
    /// Unit of `value`, `p10` and `p90`.
    pub unit: String,
}

impl Stat {
    /// The `q`-percentile of `samples` as the headline; `None` when
    /// there are no samples (the stage failed).
    pub fn of(samples: &[f64], q: f64, unit: &str) -> Option<Stat> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Stat {
            value: percentile(&sorted, q)?,
            p10: percentile(&sorted, 0.10)?,
            p50: percentile(&sorted, 0.50)?,
            p90: percentile(&sorted, 0.90)?,
            n: sorted.len(),
            unit: unit.to_string(),
        })
    }

    /// The arithmetic mean of `samples` as the headline: total time over
    /// operations. On a host that runs at one of two speeds for seconds
    /// to minutes at a time the mean moves in proportion to the share of
    /// slow samples, where the median jumps from one speed's value to
    /// the other's as that share crosses one half (see the README's
    /// "Steadiness").
    pub fn mean(samples: &[f64], unit: &str) -> Option<Stat> {
        let mut stat = Stat::median(samples, unit)?;
        stat.value = samples.iter().sum::<f64>() / samples.len() as f64;
        Some(stat)
    }

    /// The median of `samples` as the headline.
    pub fn median(samples: &[f64], unit: &str) -> Option<Stat> {
        Stat::of(samples, 0.5, unit)
    }

    /// A number measured once (a count, a size, a derived ratio).
    pub fn single(value: f64, unit: &str) -> Stat {
        Stat {
            value,
            p10: value,
            p50: value,
            p90: value,
            n: 1,
            unit: unit.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 1.0), Some(4.0));
        assert_eq!(percentile(&s, 0.5), Some(2.5));
        assert!((percentile(&s, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
    }

    #[test]
    fn median_is_order_independent_and_reports_spread() {
        let st = Stat::median(&[5.0, 1.0, 3.0], "ms").unwrap();
        assert_eq!(st.value, 3.0);
        assert_eq!(st.n, 3);
        assert!(st.p10 < st.value && st.value < st.p90);
        assert_eq!(st.unit, "ms");
        assert!(Stat::median(&[], "ms").is_none());
    }

    #[test]
    fn mean_is_the_headline_and_the_median_stays_on_record() {
        let st = Stat::mean(&[1.0, 1.0, 1.0, 5.0], "s").unwrap();
        assert_eq!(st.value, 2.0);
        assert_eq!(st.p50, 1.0);
        assert_eq!(st.n, 4);
        assert!(Stat::mean(&[], "s").is_none());
    }

    #[test]
    fn named_percentile_is_the_headline() {
        let samples: Vec<f64> = (1..=101).map(f64::from).collect();
        let st = Stat::of(&samples, 0.95, "ms").unwrap();
        assert_eq!(st.value, 96.0);
        assert_eq!(st.p10, 11.0);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(5), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.90);
        assert_eq!(highest_supported_percentile(200), 0.95);
        assert_eq!(highest_supported_percentile(999), 0.95);
        assert_eq!(highest_supported_percentile(1000), 0.99);
    }
}
