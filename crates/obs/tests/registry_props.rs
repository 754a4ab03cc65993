//! Registry correctness under concurrency and randomised inputs:
//!
//! 1. counters are exact under the workspace thread pool — no lost
//!    updates across shards;
//! 2. histogram binning matches a scalar reference for arbitrary
//!    bounds/observations (`le` semantics, duplicate/unsorted bounds
//!    sanitised; observations are drawn integer-valued so the f64 sums
//!    are exact).

use proptest::prelude::*;
use tg_obs::Registry;

#[test]
fn concurrent_counter_is_exact_under_the_thread_pool() {
    let r = Registry::new();
    let c = r.counter("t.pool", &[]);
    let h = r.histogram("t.pool.h", &[], &[10.0, 100.0]);
    const TASKS: usize = 64;
    const PER: u64 = 10_000;
    let done: Vec<u64> = tg_tensor::parallel::par_map(TASKS, |i| {
        for k in 0..PER {
            c.add(1);
            if k % 100 == 0 {
                h.observe((i % 3) as f64 * 50.0);
            }
        }
        PER
    });
    assert_eq!(done.iter().sum::<u64>(), TASKS as u64 * PER);
    assert_eq!(c.get(), TASKS as u64 * PER);
    assert_eq!(h.snapshot().count(), TASKS as u64 * (PER / 100));
}

/// Reference binning: index of the first bound `>= v`, overflow last.
fn reference_bucket(bounds: &[f64], v: f64) -> usize {
    bounds.iter().position(|b| v <= *b).unwrap_or(bounds.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn histogram_binning_matches_reference(
        raw_bounds in proptest::collection::vec(-50i32..50, 1..6),
        obs in proptest::collection::vec(-60i32..60, 0..40),
    ) {
        let r = Registry::new();
        let bounds_f: Vec<f64> = raw_bounds.iter().map(|b| *b as f64).collect();
        let h = r.histogram("p.h", &[], &bounds_f);

        // The instrument sanitises: sorted, deduped.
        let mut clean = bounds_f.clone();
        clean.sort_by(f64::total_cmp);
        clean.dedup();

        let mut expect = vec![0u64; clean.len() + 1];
        let mut expect_sum = 0f64;
        for o in &obs {
            let v = *o as f64;
            h.observe(v);
            expect[reference_bucket(&clean, v)] += 1;
            expect_sum += v;
        }
        let s = h.snapshot();
        prop_assert_eq!(&s.bounds, &clean);
        prop_assert_eq!(&s.counts, &expect);
        prop_assert_eq!(s.sum, expect_sum);
        prop_assert_eq!(s.count(), obs.len() as u64);
    }
}
