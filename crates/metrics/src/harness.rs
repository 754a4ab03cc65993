//! The paper's evaluation harness (Eq. 10): per-timestamp accumulated
//! snapshots of the real and generated graphs are compared metric by
//! metric, and the relative differences are reduced with mean (`f_avg`,
//! Table V) or median (`f_med`, Table IV). Also exposes the raw per-
//! timestamp series used by Figure 5.
//!
//! Every per-timestamp statistic comes from one accumulated-snapshot pass
//! per graph (see [`crate::cumulative`]); nothing here builds a snapshot.
//! [`evaluate_against`] reduces two such series, so a caller scoring
//! several generated graphs collects the observed pass once, and a
//! generated stream scored through a [`crate::StatsSink`] is never
//! built into a graph at all.

use crate::cumulative::CumulativeStats;
use crate::stats::{GraphStats, MetricKind};
use serde::{Deserialize, Serialize};
use tg_graph::TemporalGraph;

/// Per-timestamp values of one statistic on accumulated snapshots.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricSeries {
    pub kind: MetricKind,
    /// `values[t]` = statistic on edges accumulated through timestamp `t`.
    pub values: Vec<f64>,
}

/// All seven statistic series for one temporal graph (Figure 5 payload).
pub fn metric_timeseries(g: &TemporalGraph) -> Vec<MetricSeries> {
    let per_t: Vec<GraphStats> = CumulativeStats::new(g).collect();
    MetricKind::ALL
        .iter()
        .map(|&kind| MetricSeries {
            kind,
            values: per_t.iter().map(|s| s.get(kind)).collect(),
        })
        .collect()
}

/// Relative error `|real - gen| / |real|`, with the paper's convention that
/// a zero reference falls back to the absolute difference.
pub fn relative_error(real: f64, generated: f64) -> f64 {
    let diff = (real - generated).abs();
    if real.abs() < 1e-12 {
        diff
    } else {
        diff / real.abs()
    }
}

/// The f_avg / f_med scores of one metric between a real and generated
/// temporal graph (Eq. 10).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MetricScore {
    pub kind: MetricKind,
    pub avg: f64,
    pub med: f64,
}

/// Compare two temporal graphs across all seven Table III statistics.
///
/// Both graphs are evaluated on `T` accumulated snapshots where `T` is the
/// *real* graph's timestamp count; the generated graph must cover the same
/// horizon (extra timestamps are ignored, missing ones are an error).
pub fn evaluate(real: &TemporalGraph, generated: &TemporalGraph) -> Vec<MetricScore> {
    let real: Vec<GraphStats> = CumulativeStats::new(real).collect();
    evaluate_graph_against(&real, generated)
}

/// [`evaluate`] with the real side already walked: `real[t]` are the
/// statistics of the real graph's accumulated snapshot `t` (a collected
/// [`CumulativeStats`] pass, which a caller scoring one real graph
/// against many generated ones keeps). `generated` must cover `real`'s
/// horizon; its extra timestamps are ignored.
pub fn evaluate_graph_against(real: &[GraphStats], generated: &TemporalGraph) -> Vec<MetricScore> {
    score(real, CumulativeStats::new(generated))
}

/// [`evaluate`] over two accumulated-snapshot series: `real[t]` and
/// `generated[t]` are the statistics at timestamp `t`, a collected
/// [`CumulativeStats`] pass or a [`crate::StatsSink`]'s
/// [`StatsSeries::stats`](crate::StatsSeries::stats). `generated` must
/// cover `real`'s horizon; its extra timestamps are ignored.
pub fn evaluate_against(real: &[GraphStats], generated: &[GraphStats]) -> Vec<MetricScore> {
    score(real, generated.iter().copied())
}

/// The reduction behind both: `generated` is consumed as it is zipped, so
/// a walked graph's series is never collected.
fn score(
    real: &[GraphStats],
    generated: impl ExactSizeIterator<Item = GraphStats>,
) -> Vec<MetricScore> {
    let t_count = real.len();
    assert!(
        generated.len() >= t_count,
        "generated series covers {} timestamps, need {}",
        generated.len(),
        t_count
    );
    let mut per_metric_diffs: Vec<Vec<f64>> =
        std::iter::repeat_with(|| Vec::with_capacity(t_count))
            .take(7)
            .collect();
    for (sr, sg) in real.iter().zip(generated) {
        for (i, kind) in MetricKind::ALL.iter().enumerate() {
            per_metric_diffs[i].push(relative_error(sr.get(*kind), sg.get(*kind)));
        }
    }
    MetricKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| MetricScore {
            kind,
            avg: mean(&per_metric_diffs[i]),
            med: median(&per_metric_diffs[i]),
        })
        .collect()
}

/// Arithmetic mean (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median (0 for empty input); even lengths average the middle pair.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_graph::TemporalEdge;

    fn line_graph(n: usize, t_count: usize) -> TemporalGraph {
        // one new edge per timestamp along a path
        let edges: Vec<TemporalEdge> = (0..t_count)
            .map(|t| TemporalEdge::new((t % (n - 1)) as u32, (t % (n - 1)) as u32 + 1, t as u32))
            .collect();
        TemporalGraph::from_edges(n, t_count, edges)
    }

    #[test]
    fn identical_graphs_score_zero() {
        let g = line_graph(6, 5);
        let scores = evaluate(&g, &g);
        assert_eq!(scores.len(), 7);
        for s in scores {
            assert_eq!(s.avg, 0.0, "{}", s.kind.name());
            assert_eq!(s.med, 0.0, "{}", s.kind.name());
        }
    }

    #[test]
    fn different_graphs_score_positive() {
        let g = line_graph(6, 5);
        // generated: same node count, all edges from node 0 (star-ish)
        let edges: Vec<TemporalEdge> = (0..5)
            .map(|t| TemporalEdge::new(0, (t % 5) as u32 + 1, t as u32))
            .collect();
        let h = TemporalGraph::from_edges(6, 5, edges);
        let scores = evaluate(&g, &h);
        let total: f64 = scores.iter().map(|s| s.avg).sum();
        assert!(total > 0.0);
    }

    #[test]
    fn timeseries_is_monotone_for_accumulating_metrics() {
        let g = line_graph(8, 7);
        let series = metric_timeseries(&g);
        let mean_deg = series
            .iter()
            .find(|s| s.kind == MetricKind::MeanDegree)
            .unwrap();
        for w in mean_deg.values.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-12,
                "accumulated mean degree must not shrink"
            );
        }
        let ncomp = series
            .iter()
            .find(|s| s.kind == MetricKind::NComponents)
            .unwrap();
        for w in ncomp.values.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "components must not increase");
        }
    }

    #[test]
    fn relative_error_conventions() {
        assert_eq!(relative_error(10.0, 5.0), 0.5);
        assert_eq!(relative_error(0.0, 3.0), 3.0); // absolute fallback
        assert_eq!(relative_error(4.0, 4.0), 0.0);
    }

    #[test]
    fn mean_median_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "timestamps")]
    fn mismatched_horizon_panics() {
        let g = line_graph(6, 5);
        let h = line_graph(6, 3);
        evaluate(&g, &h);
    }
}
