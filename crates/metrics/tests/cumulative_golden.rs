//! `CumulativeStats` pinned where the hubs are real: a digest of every
//! field's `to_bits()` at every timestamp of Table II presets too large
//! for the batch oracle of `tests/cumulative.rs`. BITCOIN-O ×1.0 at
//! seed 7 is the observed graph of the suite's `btc_sparse` workload,
//! whose Eq. 10 walks all 1904 of its snapshots, and MATH ×1.0 that of
//! `math_ingest`. The BITCOIN-O and MATH ×0.6 digests were recorded with
//! the sorted-adjacency pass (binary-searched common neighbours) that
//! the run-stamped one replaced, at the largest MATH scale that kept
//! that pass under 3 s in a debug build; the MATH ×1.0 digest with the
//! per-timestamp walk over every node's degree that the running degree
//! counts replaced.

use tg_metrics::{CumulativeStats, GraphStats};

/// FNV-1a over each snapshot's seven fields' bits in
/// `GraphStats::as_array` order, then the snapshot count.
fn digest(series: impl Iterator<Item = GraphStats>) -> (usize, u64) {
    fn mix(h: u64, word: u64) -> u64 {
        word.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut count = 0;
    for stats in series {
        count += 1;
        for v in stats.as_array() {
            h = mix(h, v.to_bits());
        }
    }
    (count, mix(h, count as u64))
}

/// The preset drawn at `scale` with seed 7: its snapshot count, digest
/// and final triangle count.
fn preset_series(name: &str, scale: f64) -> (usize, u64, f64) {
    let g = tg_datasets::by_name(name)
        .expect("known preset")
        .generate_scaled(scale, 7);
    let mut triangles = 0.0;
    let (count, h) = digest(CumulativeStats::new(&g).inspect(|s| triangles = s.triangle_count));
    (count, h, triangles)
}

#[test]
fn bitcoin_otc_full_scale() {
    assert_eq!(
        preset_series("BITCOIN-O", 1.0),
        (1904, 0xda14_7832_fe73_3248, 5952.0)
    );
}

#[test]
fn math_six_tenths_scale() {
    assert_eq!(
        preset_series("MATH", 0.6),
        (79, 0xca6f_dfe8_85e3_aaaf, 611_349.0)
    );
}

#[test]
fn math_full_scale() {
    assert_eq!(
        preset_series("MATH", 1.0),
        (79, 0x3a57_300a_b113_9598, 967_041.0)
    );
}
