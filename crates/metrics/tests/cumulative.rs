//! `CumulativeStats` against the batch oracle: every per-timestamp
//! statistic must be `to_bits()`-equal to
//! `GraphStats::compute(&Snapshot::accumulated(g, t, true))`, and every
//! `MetricScore` to the per-timestamp-snapshot evaluation loop the
//! accumulator replaced (kept here as `batch_evaluate`). A `StatsSink`
//! fed the same edges in any order within a timestamp, in any chunks,
//! must equal that graph walk bit for bit.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tg_graph::{EdgeSink, Snapshot, TemporalEdge, TemporalGraph};
use tg_metrics::harness::mean;
use tg_metrics::{
    evaluate, evaluate_against, metric_timeseries, relative_error, CumulativeStats, GraphStats,
    MetricKind, StatsSeries, StatsSink,
};

fn batch_series(g: &TemporalGraph, t_count: usize) -> Vec<GraphStats> {
    (0..t_count)
        .map(|t| GraphStats::compute(&Snapshot::accumulated(g, t as u32, true)))
        .collect()
}

/// Eq. 10 as it was computed before the accumulator: `(avg, med)` per
/// metric in `MetricKind::ALL` order.
fn batch_evaluate(real: &TemporalGraph, generated: &TemporalGraph) -> Vec<(f64, f64)> {
    let t_count = real.n_timestamps();
    let (sr, sg) = (
        batch_series(real, t_count),
        batch_series(generated, t_count),
    );
    MetricKind::ALL
        .iter()
        .map(|&kind| {
            let diffs: Vec<f64> = sr
                .iter()
                .zip(&sg)
                .map(|(r, g)| relative_error(r.get(kind), g.get(kind)))
                .collect();
            let mut sorted = diffs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
            let mid = sorted.len() / 2;
            let med = if sorted.len() % 2 == 1 {
                sorted[mid]
            } else {
                0.5 * (sorted[mid - 1] + sorted[mid])
            };
            (mean(&diffs), med)
        })
        .collect()
}

fn assert_series_match(g: &TemporalGraph) {
    let want = batch_series(g, g.n_timestamps());
    let got: Vec<GraphStats> = CumulativeStats::new(g).collect();
    assert_eq!(got.len(), want.len());
    for (t, (got, want)) in got.iter().zip(&want).enumerate() {
        for (kind, (a, b)) in MetricKind::ALL
            .iter()
            .zip(got.as_array().iter().zip(want.as_array()))
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} at t={t}: {a} vs {b}",
                kind.name()
            );
        }
    }
    for series in metric_timeseries(g) {
        let want: Vec<u64> = want.iter().map(|s| s.get(series.kind).to_bits()).collect();
        let got: Vec<u64> = series.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "{}", series.kind.name());
    }
}

fn assert_scores_match(real: &TemporalGraph, generated: &TemporalGraph) {
    let want = batch_evaluate(real, generated);
    let real_series: Vec<GraphStats> = CumulativeStats::new(real).collect();
    let generated_series: Vec<GraphStats> = CumulativeStats::new(generated).collect();
    for scores in [
        evaluate(real, generated),
        evaluate_against(&real_series, &generated_series),
    ] {
        assert_eq!(scores.len(), want.len());
        for ((score, &(avg, med)), kind) in scores.iter().zip(&want).zip(MetricKind::ALL) {
            assert_eq!(score.kind, kind);
            assert_eq!(score.avg.to_bits(), avg.to_bits(), "{} avg", kind.name());
            assert_eq!(score.med.to_bits(), med.to_bits(), "{} med", kind.name());
        }
    }
}

fn bits(series: &[GraphStats]) -> Vec<[u64; 7]> {
    series
        .iter()
        .map(|s| s.as_array().map(f64::to_bits))
        .collect()
}

/// `g`'s edges before timestamp `stop` fed to a `StatsSink` in an order
/// no graph has: each timestamp's edges shuffled and cut into chunks of
/// random length, empty ones included. A timestamp without edges gets no
/// unit or one empty unit, and the stream ends at `stop`.
fn streamed(g: &TemporalGraph, stop: usize, seed: u64) -> StatsSeries {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sink = StatsSink::new(g.n_nodes(), g.n_timestamps());
    for t in 0..stop.min(g.n_timestamps()) as u32 {
        let mut edges = g.edges_at(t).to_vec();
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.gen_range(0..=i));
        }
        if edges.is_empty() && rng.gen_bool(0.5) {
            continue;
        }
        let mut rest = edges.as_slice();
        let mut chunk = 0;
        loop {
            let k = rng.gen_range(0..=rest.len());
            sink.accept(t, chunk, &rest[..k]);
            rest = &rest[k..];
            chunk += 1;
            if rest.is_empty() {
                break;
            }
        }
    }
    sink.finish()
}

/// The streamed series equals the walk over the graph of the same edges.
fn assert_stream_matches_walk(g: &TemporalGraph, stop: usize, seed: u64) {
    let kept: Vec<TemporalEdge> = g
        .edges()
        .iter()
        .filter(|e| (e.t as usize) < stop)
        .copied()
        .collect();
    let g = TemporalGraph::from_edges(g.n_nodes(), g.n_timestamps(), kept);
    let got = streamed(&g, stop, seed);
    let want: Vec<GraphStats> = CumulativeStats::new(&g).collect();
    assert_eq!(bits(&got.stats), bits(&want), "stop {stop}, seed {seed}");
    let volume: Vec<u64> = g
        .edge_counts_per_timestamp()
        .into_iter()
        .map(|c| c as u64)
        .collect();
    assert_eq!(got.volume, volume);
    assert_eq!(got.n_edges(), g.n_edges() as u64);
}

/// One raw edge: endpoints, timestamp, a flavour selecting which
/// degenerate companion it brings, and the companion's timestamp.
type RawEdge = (u32, u32, u32, u32, u32);

/// Build a graph whose stream holds self-loops, reciprocal pairs and
/// edges repeated within and across timestamps; sparse inputs leave
/// timestamps empty.
fn build(n: usize, t_count: usize, raw: &[RawEdge]) -> TemporalGraph {
    let mut edges = Vec::new();
    if n > 0 {
        let (n, t_count) = (n as u32, t_count as u32);
        for &(u, v, t, flavour, t2) in raw {
            let (u, v, t, t2) = (u % n, v % n, t % t_count, t2 % t_count);
            edges.push(TemporalEdge::new(u, v, t));
            match flavour % 6 {
                0 => edges.push(TemporalEdge::new(u, u, t)),
                1 => edges.push(TemporalEdge::new(v, u, t)),
                2 => edges.push(TemporalEdge::new(v, u, t2)),
                3 => edges.push(TemporalEdge::new(u, v, t)),
                4 => edges.push(TemporalEdge::new(u, v, t2)),
                _ => {}
            }
        }
    }
    TemporalGraph::from_edges(n, t_count, edges)
}

fn arb_edges() -> impl Strategy<Value = Vec<RawEdge>> {
    collection::vec((0u32..40, 0u32..40, 0u32..12, 0u32..6, 0u32..12), 0..90)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn series_is_bit_identical_to_batch(n in 0usize..=40, t_count in 1usize..=12, raw in arb_edges()) {
        assert_series_match(&build(n, t_count, &raw));
    }

    /// The generated graph shares the node set but may run past the real
    /// horizon; the extra timestamps must not change any score.
    #[test]
    fn scores_are_bit_identical_to_batch(
        n in 0usize..=40,
        t_count in 1usize..=12,
        extra in 0usize..=3,
        raw_real in arb_edges(),
        raw_gen in arb_edges(),
    ) {
        let real = build(n, t_count, &raw_real);
        let generated = build(n, t_count + extra, &raw_gen);
        assert_scores_match(&real, &generated);
    }

    /// Chunking, order within a timestamp, empty timestamps and an early
    /// end of stream change no bit of the sink's series.
    #[test]
    fn sink_series_is_order_free(
        n in 0usize..=40,
        t_count in 1usize..=12,
        raw in arb_edges(),
        stop in 0usize..=13,
        seed in 0u64..u64::MAX,
    ) {
        assert_stream_matches_walk(&build(n, t_count, &raw), stop, seed);
    }
}

/// A unit below a closed timestamp breaks the sink's order contract.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "closed")]
fn a_unit_after_its_timestamp_closed_is_refused() {
    let mut sink = StatsSink::new(3, 3);
    sink.accept(1, 0, &[TemporalEdge::new(0, 1, 1)]);
    sink.accept(0, 0, &[TemporalEdge::new(1, 2, 0)]);
}

#[test]
fn repeats_reciprocals_and_self_loops_are_no_ops() {
    let e = TemporalEdge::new;
    let g = TemporalGraph::from_edges(
        5,
        4,
        vec![
            e(0, 1, 0),
            e(1, 0, 0), // reciprocal within a timestamp
            e(0, 1, 0), // repeat within a timestamp
            e(2, 2, 0), // self-loop
            e(1, 2, 1),
            e(0, 1, 1), // repeat across timestamps
            // t = 2 is empty
            e(2, 0, 3), // closes the triangle
            e(3, 4, 3),
        ],
    );
    assert_series_match(&g);
    let last = CumulativeStats::new(&g).last().unwrap();
    assert_eq!(last.triangle_count, 1.0);
    assert_eq!(last.lcc, 3.0);
    assert_eq!(last.n_components, 2.0);
}

/// PLE's logarithm table is keyed by `d_min`, which here goes 1 (first
/// edge) -> 2 (ring closed) -> 1 (a leaf attaches).
#[test]
fn d_min_moves_both_ways() {
    let e = TemporalEdge::new;
    let g = TemporalGraph::from_edges(
        5,
        4,
        vec![
            e(0, 1, 0),
            e(1, 2, 1),
            e(2, 3, 1),
            e(3, 0, 2),
            e(0, 2, 2),
            e(4, 0, 3),
        ],
    );
    assert_series_match(&g);
}

/// `d_min` climbs 1 -> 2 -> 3 as every node at the minimum gains an
/// edge, one at a time within a timestamp, then falls back to 1 when a
/// new node gets its first edge, and climbs again.
#[test]
fn d_min_climbs_then_a_new_node_resets_it() {
    let e = TemporalEdge::new;
    let g = TemporalGraph::from_edges(
        7,
        6,
        vec![
            // a star: leaves 1-4 at degree 1, hub 0 at 4
            e(0, 1, 0),
            e(0, 2, 0),
            e(0, 3, 0),
            e(0, 4, 0),
            // every leaf to 2
            e(1, 2, 1),
            e(3, 4, 1),
            // every leaf to 3
            e(1, 3, 2),
            e(2, 4, 2),
            // node 5 appears at degree 1
            e(5, 0, 3),
            // node 5 to 3; node 6 stays isolated throughout
            e(5, 1, 4),
            e(2, 5, 5),
        ],
    );
    assert_series_match(&g);
    let ple: Vec<f64> = CumulativeStats::new(&g).map(|s| s.ple).collect();
    // t = 2: four leaves at 3 and the hub at 4, so d_min = 3
    let want = 1.0 + 5.0 / (4.0f64 / 3.0).ln();
    assert_eq!(ple[2].to_bits(), want.to_bits());
}

#[test]
fn nodeless_and_edgeless_graphs() {
    assert_series_match(&TemporalGraph::from_edges(0, 3, Vec::new()));
    assert_series_match(&TemporalGraph::from_edges(4, 2, Vec::new()));
}

/// A Table II preset at `scale`, scored against the same preset drawn
/// with another seed.
fn check_preset(name: &str, scale: f64) {
    let preset = tg_datasets::by_name(name).expect("known preset");
    let real = preset.generate_scaled(scale, 7);
    let generated = preset.generate_scaled(scale, 8);
    assert_series_match(&real);
    assert_scores_match(&real, &generated);
}

#[test]
fn preset_dblp() {
    check_preset("DBLP", 1.0);
}

#[test]
fn preset_email() {
    check_preset("EMAIL", 0.02);
}

#[test]
fn preset_msg() {
    check_preset("MSG", 0.2);
}

#[test]
fn preset_bitcoin_alpha() {
    check_preset("BITCOIN-A", 0.025);
}

#[test]
fn preset_bitcoin_otc() {
    check_preset("BITCOIN-O", 0.02);
}

#[test]
fn preset_math() {
    check_preset("MATH", 0.03);
}

#[test]
fn preset_ubuntu() {
    check_preset("UBUNTU", 0.01);
}

/// A hub: its node, its timestamp, and one byte per node saying whether,
/// when and with which degenerate companion the hub meets that node.
type Hub = (u32, u32, Vec<u8>);

/// A graph around a few hubs adjacent to most nodes. A hub meets a node
/// in seven of eight bytes, mostly at the hub's own timestamp, so its
/// edges there form one long same-source run; a byte's top bits add a
/// repeat, a reciprocal (same or another timestamp), a self-loop, or a
/// leaf-to-leaf edge that closes a triangle through the hub. `extra`
/// edges connect arbitrary nodes.
fn build_hubs(n: usize, t_count: usize, hubs: &[Hub], extra: &[(u32, u32, u32)]) -> TemporalGraph {
    let e = TemporalEdge::new;
    let (n32, t32) = (n as u32, t_count as u32);
    let mut edges: Vec<TemporalEdge> = extra.iter().map(|&(u, v, t)| e(u, v, t)).collect();
    for (h, t_hub, bytes) in hubs {
        let h = *h;
        for (x, &b) in (0..n32).zip(bytes) {
            if b & 7 == 0 {
                continue;
            }
            let t = if b & 8 == 0 {
                *t_hub
            } else {
                u32::from(b >> 4) % t32
            };
            edges.push(e(h, x, t));
            match b >> 5 {
                0 => edges.push(e(h, x, t)),
                1 => edges.push(e(x, h, t)),
                2 => edges.push(e(h, h, t)),
                3 | 4 => edges.push(e(x, (x + 1) % n32, t)),
                5 => edges.push(e(x, h, (t + 1) % t32)),
                _ => {}
            }
        }
    }
    TemporalGraph::from_edges(n, t_count, edges)
}

fn arb_hub_graph() -> impl Strategy<Value = TemporalGraph> {
    (1usize..=200, 1usize..=8)
        .prop_flat_map(|(n, t_count)| {
            let (n32, t32) = (n as u32, t_count as u32);
            let hub = (0..n32, 0..t32, collection::vec(0u8..=255, n));
            let extra = (0..n32, 0..n32, 0..t32);
            (
                Just(n),
                Just(t_count),
                collection::vec(hub, 1..=4),
                collection::vec(extra, 0..=120),
            )
        })
        .prop_map(|(n, t_count, hubs, extra)| build_hubs(n, t_count, &hubs, &extra))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hubs make the long same-source runs and the degree-`n` lists that
    /// triangle closing walks.
    #[test]
    fn hub_heavy_series_is_bit_identical_to_batch(g in arb_hub_graph()) {
        assert_series_match(&g);
    }

    #[test]
    fn hub_heavy_sink_series_is_order_free(
        g in arb_hub_graph(),
        stop in 0usize..=9,
        seed in 0u64..u64::MAX,
    ) {
        assert_stream_matches_walk(&g, stop, seed);
    }
}
