//! The paper's fidelity claim (Tables IV/V) as goldens: Eq. 10's `f_med`
//! and `f_avg` of TGAE, TIGGER, E-R and B-A on DBLP x0.1 and MATH x0.1,
//! seed 1, TGAE at the shipped `TgaeConfig::default()`, through the same
//! `tgx::paper::table4_5` that prints the tables.
//!
//! A golden moves only with a change that means to move it: update the
//! constant, and say why, in the same change. TGAE's wedge, claw and
//! triangle `f_med` on MATH record a known defect (ROADMAP Direction 12),
//! not the paper's result.

use tg_obs::memtrack::TrackingAllocator;
use tgx::baselines::ErGenerator;
use tgx::metrics::{MetricKind, MetricScore};
use tgx::model::TgaeConfig;
use tgx::paper::{self, Setup};
use tgx::prelude::*;

// Peaks are real only under the tracking allocator; see the OOM test.
#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Relative tolerance of every golden: tight enough that a 3 % move
/// (Direction 17's measured MATH wedge change, 1.63 -> 1.58) fails.
const REL_TOL: f64 = 0.02;

/// One method's scores on one dataset, in `MetricKind::ALL` order: Mean
/// Degree, LCC, Wedge, Claw, Triangle, PLE, N-Components.
struct Golden {
    med: [f64; 7],
    avg: [f64; 7],
}

const DBLP_TGAE: Golden = Golden {
    med: [
        0.0461165, 0.047619, 0.292379, 0.471592, 0.164179, 0.0374343, 0.1,
    ],
    avg: [
        0.0416171, 0.124803, 0.34086, 0.678399, 0.587649, 0.125508, 0.107595,
    ],
};
const DBLP_TIGGER: Golden = Golden {
    med: [
        0.0896226, 0.139394, 0.385731, 0.536238, 0.475836, 0.0692094, 0.315789,
    ],
    avg: [
        0.149422, 0.236362, 0.689622, 0.969219, 1.12293, 0.151688, 0.392866,
    ],
};
const DBLP_ER: Golden = Golden {
    med: [
        0.316038, 0.238411, 0.364849, 0.330889, 0.858209, 0.0760504, 0.686275,
    ],
    avg: [
        0.3073, 0.269893, 0.411174, 0.42492, 0.702884, 0.19548, 0.570599,
    ],
};
const DBLP_BA: Golden = Golden {
    med: [
        0.306604, 0.18543, 0.587869, 0.83985, 0.7, 0.0706033, 0.54902,
    ],
    avg: [
        0.298689, 0.296467, 0.727366, 1.03435, 0.611424, 0.136489, 0.464763,
    ],
};

/// The known defect: on MATH, TGAE's wedge, claw and triangle `f_med` are
/// several times E-R's (0.350 / 0.845 / 0.955). Fixing Direction 12
/// moves these three on purpose.
const MATH_TGAE_WEDGE_FMED: f64 = 1.63067;
const MATH_TGAE_CLAW_FMED: f64 = 3.84755;
const MATH_TGAE_TRIANGLE_FMED: f64 = 2.46896;

const MATH_TGAE: Golden = Golden {
    med: [
        0.39945,
        0.0322398,
        MATH_TGAE_WEDGE_FMED,
        MATH_TGAE_CLAW_FMED,
        MATH_TGAE_TRIANGLE_FMED,
        0.0279452,
        0.0641791,
    ],
    avg: [
        0.381325, 0.133921, 1.60027, 4.11926, 2.32208, 0.0482135, 0.0581758,
    ],
};
const MATH_TIGGER: Golden = Golden {
    med: [
        0.155849, 0.12215, 0.300723, 0.398889, 0.405084, 0.0350835, 0.251504,
    ],
    avg: [
        0.156694, 0.20402, 0.402187, 0.743485, 0.777864, 0.0710803, 0.222862,
    ],
};
const MATH_ER: Golden = Golden {
    med: [
        0.631182, 0.483852, 0.350127, 0.844516, 0.954973, 0.246186, 0.998476,
    ],
    avg: [
        0.625861, 0.569489, 0.34196, 0.824423, 0.916015, 0.412835, 0.89786,
    ],
};
const MATH_BA: Golden = Golden {
    med: [
        0.630383, 0.477551, 0.2591, 0.783771, 0.93977, 0.0954324, 0.998428,
    ],
    avg: [
        0.625161, 0.540376, 0.244783, 0.767269, 0.897364, 0.135007, 0.881028,
    ],
};

/// Table IV/V's cells for `dataset` x0.1, by method, in lineup order.
fn scores(dataset: &str) -> Vec<(String, Vec<MetricScore>)> {
    let setup = Setup {
        seed: 1,
        epochs: TgaeConfig::default().epochs,
        budget_bytes: usize::MAX,
    };
    let table = paper::table4_5(&[dataset], Some(0.1), Some("TGAE,TIGGER,E-R,B-A"), &setup)
        .expect("known names");
    assert_eq!(table.methods, ["TGAE", "TIGGER", "E-R", "B-A"]);
    let row = table.rows.into_iter().next().expect("one dataset row");
    row.cells
        .into_iter()
        .map(|c| (c.method, c.output.expect("no budget")))
        .collect()
}

/// Every value against its golden; a failure prints every value got.
fn check(dataset: &str, got: &[(String, Vec<MetricScore>)], goldens: [&Golden; 4]) {
    let close = |a: f64, b: f64| (a - b).abs() <= REL_TOL * b.abs();
    let mut ok = true;
    let mut report = String::new();
    for ((method, s), golden) in got.iter().zip(goldens) {
        let med: Vec<f64> = s.iter().map(|m| m.med).collect();
        let avg: Vec<f64> = s.iter().map(|m| m.avg).collect();
        ok &= med.iter().zip(&golden.med).all(|(&a, &b)| close(a, b));
        ok &= avg.iter().zip(&golden.avg).all(|(&a, &b)| close(a, b));
        report += &format!("{dataset} {method}: med {med:?}\n{dataset} {method}: avg {avg:?}\n");
    }
    assert!(ok, "{dataset} scores moved more than {REL_TOL}:\n{report}");
}

fn med(scores: &[MetricScore], kind: MetricKind) -> f64 {
    scores
        .iter()
        .find(|s| s.kind == kind)
        .expect("all seven")
        .med
}

#[test]
fn dblp_matches_its_goldens_and_tgae_beats_the_random_graphs() {
    let got = scores("DBLP");
    check("DBLP", &got, [&DBLP_TGAE, &DBLP_TIGGER, &DBLP_ER, &DBLP_BA]);
    let [(_, tgae), _, (_, er), (_, ba)] = &got[..] else {
        unreachable!("four methods");
    };
    for kind in [
        MetricKind::MeanDegree,
        MetricKind::Lcc,
        MetricKind::WedgeCount,
        MetricKind::TriangleCount,
        MetricKind::Ple,
        MetricKind::NComponents,
    ] {
        let (t, e, b) = (med(tgae, kind), med(er, kind), med(ba, kind));
        assert!(t < e && t < b, "{kind:?}: TGAE {t} vs E-R {e}, B-A {b}");
    }
    // Not yet on claws: E-R's f_med is below TGAE's.
    assert!(med(tgae, MetricKind::ClawCount) > med(er, MetricKind::ClawCount));
}

#[test]
fn math_matches_its_goldens_including_the_known_motif_loss() {
    let got = scores("MATH");
    check("MATH", &got, [&MATH_TGAE, &MATH_TIGGER, &MATH_ER, &MATH_BA]);
    let [(_, tgae), _, (_, er), _] = &got[..] else {
        unreachable!("four methods");
    };
    for kind in [
        MetricKind::WedgeCount,
        MetricKind::ClawCount,
        MetricKind::TriangleCount,
    ] {
        assert!(
            med(tgae, kind) > med(er, kind),
            "{kind:?}: TGAE no longer loses to E-R on MATH; update the defect goldens"
        );
    }
}

#[test]
fn a_run_over_its_memory_budget_is_an_oom_cell() {
    let edges: Vec<TemporalEdge> = (0..20)
        .map(|i| TemporalEdge::new(i % 5, (i + 1) % 5, i % 4))
        .collect();
    let g = TemporalGraph::from_edges(5, 4, edges);
    let over = paper::run_method(&mut ErGenerator, &g, 1, 0);
    assert!(over.peak_bytes > 0, "the tracking allocator is installed");
    assert!(over.is_oom());
}
