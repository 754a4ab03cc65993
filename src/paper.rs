//! The paper's experiments as functions, one per table or figure, each
//! returning typed rows. The `paper_tables` example prints them
//! (`cargo run --release --example paper_tables -- table4_5`), and
//! `tests/fidelity.rs` pins Tables IV/V.
//!
//! Every method trains on the observed graph and generates one with its
//! per-timestamp edge budget; one seed seeds the data, every model and
//! every draw. The datasets are Table II's at a per-dataset
//! [`default_scale`] (1.0 is the paper's size). Memory is a run's tracked
//! peak heap, which reads 0 (and no run is out of memory) unless the
//! binary installs `tg_obs::memtrack::TrackingAllocator`.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;
use std::time::{Duration, Instant};
use tg_baselines::{
    AeConfig, AeGenerator, BaGenerator, DymondGenerator, ErGenerator, NetGanConfig,
    NetGanGenerator, TagGenConfig, TagGenGenerator, TemporalGraphGenerator, TgganGenerator,
    TiggerConfig, TiggerGenerator,
};
use tg_datasets::{density_sweep, node_sweep, timestamp_sweep, GridPoint, Preset};
use tg_graph::{GraphSink, TemporalGraph};
use tg_metrics::{
    census_per_chunk_sampled, evaluate_against, metric_timeseries, mmd2_tv, CumulativeStats,
    GraphStats, MetricKind, MetricScore, MetricSeries,
};
use tg_obs::memtrack;
use tgae::{Session, TgaeConfig, TgaeVariant};

/// A dataset, method or sweep name that is none of the known ones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownName {
    /// What was named: `"dataset"`, `"method"` or `"sweep"`.
    pub kind: &'static str,
    pub name: String,
    pub known: Vec<&'static str>,
}

impl fmt::Display for UnknownName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kind, name, known) = (self.kind, &self.name, self.known.join(", "));
        write!(f, "unknown {kind} `{name}` (known: {known})")
    }
}

impl std::error::Error for UnknownName {}

/// Default scale of each Table II dataset, chosen so the slowest baseline
/// finishes in seconds.
pub fn default_scale(name: &str) -> f64 {
    match name.to_ascii_uppercase().as_str() {
        "DBLP" => 0.5,
        "EMAIL" => 0.05,
        "MSG" => 0.15,
        "BITCOIN-A" => 0.08,
        "BITCOIN-O" => 0.05,
        "MATH" => 0.01,
        "UBUNTU" => 0.004,
        _ => 0.1,
    }
}

/// Timestamp cap applied after scaling: long time axes (Bitcoin's ~1900
/// timestamps) are bucketed down so per-snapshot statistics stay
/// meaningful at reduced edge counts.
pub fn timestamp_cap(name: &str) -> usize {
    match name.to_ascii_uppercase().as_str() {
        "EMAIL" => 50,
        "BITCOIN-A" | "BITCOIN-O" => 60,
        _ => 100,
    }
}

/// The Table II preset called `name` (case-insensitive).
pub fn dataset(name: &str) -> Result<Preset, UnknownName> {
    tg_datasets::by_name(name).ok_or_else(|| UnknownName {
        kind: "dataset",
        name: name.to_string(),
        known: tg_datasets::all_presets().iter().map(|p| p.name).collect(),
    })
}

/// Generate `preset` at `scale` (`None`: its [`default_scale`]), its time
/// axis capped at [`timestamp_cap`].
pub fn load(preset: &Preset, scale: Option<f64>, seed: u64) -> TemporalGraph {
    let scale = scale.unwrap_or_else(|| default_scale(preset.name));
    let mut cfg = preset.config.scaled(scale);
    cfg.timestamps = cfg.timestamps.min(timestamp_cap(preset.name));
    tg_datasets::generate(&cfg, &mut SmallRng::seed_from_u64(seed))
}

/// TGAE as a [`TemporalGraphGenerator`], so the experiments treat it like
/// the baselines. It trains a [`Session`] from the config's seed and
/// simulates its `SharedRun` from the one `u64` drawn from the run's RNG.
pub struct TgaeMethod(pub TgaeConfig);

impl TemporalGraphGenerator for TgaeMethod {
    fn name(&self) -> &'static str {
        self.0.variant.name()
    }

    #[expect(
        clippy::expect_used,
        reason = "`fit_generate` has no error channel; a graph or config the session rejects is a bug in the experiment"
    )]
    fn fit_generate(
        &mut self,
        observed: &TemporalGraph,
        rng: &mut dyn rand::RngCore,
    ) -> TemporalGraph {
        let mut session = Session::builder(observed)
            .config(self.0.clone())
            .build()
            .expect("experiment graph/config must be valid");
        session.train().expect("training failed");
        let master = rng.next_u64();
        session
            .into_shared()
            .simulate_seeded(
                master,
                GraphSink::new(observed.n_nodes(), observed.n_timestamps()),
            )
            .expect("simulation failed")
    }
}

/// TGAE's configuration in every experiment: the shipped default at
/// `epochs` and `seed`.
pub fn tgae_config(epochs: usize, seed: u64) -> TgaeConfig {
    TgaeConfig {
        epochs,
        seed,
        ..Default::default()
    }
}

/// All eleven methods in the paper's column order: TGAE, TIGGER, DYMOND,
/// TGGAN, TagGen, NetGAN, E-R, B-A, VGAE, Graphite, SBMGNN.
pub fn all_methods(epochs: usize, seed: u64) -> Vec<Box<dyn TemporalGraphGenerator>> {
    let mut v: Vec<Box<dyn TemporalGraphGenerator>> =
        vec![Box::new(TgaeMethod(tgae_config(epochs, seed)))];
    v.extend(baseline_methods(epochs, seed));
    v
}

/// The ten baselines; the neural ones train at most 80 epochs.
pub fn baseline_methods(epochs: usize, seed: u64) -> Vec<Box<dyn TemporalGraphGenerator>> {
    let epochs = epochs.min(80);
    let ae = AeConfig {
        epochs,
        seed,
        ..Default::default()
    };
    let walks = TagGenConfig {
        seed,
        ..Default::default()
    };
    vec![
        Box::new(TiggerGenerator::new(TiggerConfig {
            seed,
            ..Default::default()
        })),
        Box::new(DymondGenerator::default()),
        Box::new(TgganGenerator::new(walks)),
        Box::new(TagGenGenerator::new(walks)),
        Box::new(NetGanGenerator::new(NetGanConfig {
            epochs,
            seed,
            ..Default::default()
        })),
        Box::new(ErGenerator),
        Box::new(BaGenerator),
        Box::new(AeGenerator::vgae(ae)),
        Box::new(AeGenerator::graphite(ae)),
        Box::new(AeGenerator::sbmgnn(ae)),
    ]
}

/// The five TGAE variants of Table VII's ablation.
pub fn ablation_methods(epochs: usize, seed: u64) -> Vec<Box<dyn TemporalGraphGenerator>> {
    TgaeVariant::ALL
        .iter()
        .map(|&v| {
            Box::new(TgaeMethod(tgae_config(epochs, seed).with_variant(v)))
                as Box<dyn TemporalGraphGenerator>
        })
        .collect()
}

/// Keep the methods of `lineup` that `list` names (comma-separated,
/// case-insensitive), in lineup order; `None` or `""` keeps them all.
pub fn select_methods(
    lineup: Vec<Box<dyn TemporalGraphGenerator>>,
    list: Option<&str>,
) -> Result<Vec<Box<dyn TemporalGraphGenerator>>, UnknownName> {
    let Some(list) = list.filter(|l| !l.is_empty()) else {
        return Ok(lineup);
    };
    let listed = |name: &str| list.split(',').any(|w| w.trim().eq_ignore_ascii_case(name));
    let known = names(&lineup);
    let mut wanted = list.split(',').map(str::trim).filter(|w| !w.is_empty());
    if let Some(name) = wanted.find(|w| !known.iter().any(|k| k.eq_ignore_ascii_case(w))) {
        let name = name.to_string();
        return Err(UnknownName {
            kind: "method",
            name,
            known,
        });
    }
    Ok(lineup.into_iter().filter(|m| listed(m.name())).collect())
}

/// How every method of an experiment runs.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    /// Seeds the data, every model and every draw.
    pub seed: u64,
    /// TGAE's training epochs.
    pub epochs: usize,
    /// A run whose tracked peak heap goes over this is out of memory.
    pub budget_bytes: usize,
}

/// One method's run on one graph.
pub struct RunOutcome<T = TemporalGraph> {
    pub method: String,
    pub wall: Duration,
    pub peak_bytes: usize,
    /// What the run produced, or what was scored of it; `None` when its
    /// peak heap went over the budget (the paper's OOM cells).
    pub output: Option<T>,
}

impl<T> RunOutcome<T> {
    pub fn is_oom(&self) -> bool {
        self.output.is_none()
    }

    /// The same run with `f` applied to its output.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> RunOutcome<U> {
        RunOutcome {
            method: self.method,
            wall: self.wall,
            peak_bytes: self.peak_bytes,
            output: self.output.map(f),
        }
    }
}

/// Run `method` on `observed` from a fresh RNG seeded with `seed`,
/// measuring its wall time and tracked peak heap; over `budget_bytes` the
/// output is dropped and the run is out of memory.
pub fn run_method(
    method: &mut dyn TemporalGraphGenerator,
    observed: &TemporalGraph,
    seed: u64,
    budget_bytes: usize,
) -> RunOutcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    memtrack::reset_peak();
    #[expect(
        clippy::disallowed_methods,
        reason = "the wall time is reported, never fed back into a seeded value"
    )]
    let start = Instant::now();
    let generated = method.fit_generate(observed, &mut rng);
    let wall = start.elapsed();
    let peak_bytes = memtrack::peak_bytes();
    RunOutcome {
        method: method.name().to_string(),
        wall,
        peak_bytes,
        output: (peak_bytes <= budget_bytes).then_some(generated),
    }
}

/// Run each of `lineup` on `observed` and keep `score` of what it made.
fn run_lineup<T>(
    lineup: Vec<Box<dyn TemporalGraphGenerator>>,
    observed: &TemporalGraph,
    setup: &Setup,
    score: impl Fn(&TemporalGraph) -> T,
) -> Vec<RunOutcome<T>> {
    lineup
        .into_iter()
        .map(|mut m| {
            run_method(m.as_mut(), observed, setup.seed, setup.budget_bytes).map(|g| score(&g))
        })
        .collect()
}

/// The methods of [`all_methods`] that `methods` names, as
/// [`select_methods`] picks them.
fn chosen(
    methods: Option<&str>,
    setup: &Setup,
) -> Result<Vec<Box<dyn TemporalGraphGenerator>>, UnknownName> {
    select_methods(all_methods(setup.epochs, setup.seed), methods)
}

fn names(lineup: &[Box<dyn TemporalGraphGenerator>]) -> Vec<&'static str> {
    lineup.iter().map(|m| m.name()).collect()
}

/// Eq. 10 of a generated graph against `observed`, whose
/// accumulated-snapshot statistics are collected once for every method.
fn fidelity_against(observed: &TemporalGraph) -> impl Fn(&TemporalGraph) -> Vec<MetricScore> {
    let observed: Vec<GraphStats> = CumulativeStats::new(observed).collect();
    move |generated| {
        let generated: Vec<GraphStats> = CumulativeStats::new(generated)
            .take(observed.len())
            .collect();
        evaluate_against(&observed, &generated)
    }
}

/// How Tables VI and VII take the temporal-motif MMD.
#[derive(Clone, Copy, Debug)]
pub struct MotifMmd {
    /// The Gaussian-TV kernel's width.
    pub sigma: f64,
    /// Time chunks; each chunk's motif distribution is one sample.
    pub chunks: usize,
    /// The motif window δ; `None` takes a tenth of the time axis, at
    /// least 2, so every dataset has motif mass.
    pub delta: Option<u64>,
}

impl MotifMmd {
    /// Anchors sampled per chunk.
    const MAX_ANCHORS: usize = 20_000;

    /// The MMD (Eq. 1) between a generated graph's per-chunk motif
    /// distributions and `observed`'s, which are counted once.
    fn against(&self, observed: &TemporalGraph, seed: u64) -> impl Fn(&TemporalGraph) -> f64 + '_ {
        let delta = self
            .delta
            .unwrap_or((observed.n_timestamps() as u64 / 10).max(2));
        let samples = move |g: &TemporalGraph| -> Vec<Vec<f64>> {
            census_per_chunk_sampled(
                g,
                delta,
                self.chunks,
                Self::MAX_ANCHORS,
                &mut SmallRng::seed_from_u64(seed),
            )
            .iter()
            .map(|c| c.distribution())
            .collect()
        };
        let real = samples(observed);
        move |generated| mmd2_tv(&real, &samples(generated), self.sigma)
    }
}

/// A table over datasets or grid points: the methods of its columns, in
/// order, and its rows.
pub struct Table<R> {
    pub methods: Vec<&'static str>,
    pub rows: Vec<R>,
}

/// One dataset's (or grid point's) row: a cell per method.
pub struct Row<T> {
    pub dataset: String,
    pub cells: Vec<RunOutcome<T>>,
}

/// Each method of `lineup()` on each graph, scored by what `scorer` makes
/// of that graph; each graph gets untrained methods.
fn run_table<T, S: Fn(&TemporalGraph) -> T>(
    graphs: impl Iterator<Item = (String, TemporalGraph)>,
    setup: &Setup,
    lineup: impl Fn() -> Result<Vec<Box<dyn TemporalGraphGenerator>>, UnknownName>,
    scorer: impl Fn(&TemporalGraph) -> S,
) -> Result<Table<Row<T>>, UnknownName> {
    let mut table = Table {
        methods: names(&lineup()?),
        rows: Vec::new(),
    };
    for (dataset, observed) in graphs {
        let cells = run_lineup(lineup()?, &observed, setup, scorer(&observed));
        table.rows.push(Row { dataset, cells });
    }
    Ok(table)
}

/// The named datasets, each generated only when its turn comes; every
/// name is looked up first, so a typo costs no run.
fn generated<'a>(
    names: &'a [&str],
    scale: Option<f64>,
    seed: u64,
) -> Result<impl Iterator<Item = (String, TemporalGraph)> + 'a, UnknownName> {
    let presets: Vec<Preset> = names.iter().map(|n| dataset(n)).collect::<Result<_, _>>()?;
    let generate = move |(name, p): (&&str, Preset)| (name.to_string(), load(&p, scale, seed));
    Ok(names.iter().zip(presets).map(generate))
}

/// Table II: one Table II preset as generated here.
pub struct DatasetStats {
    pub preset: Preset,
    pub scale: f64,
    /// `(nodes, edges, timestamps)`, beside `preset.paper_stats()`.
    pub generated: (usize, usize, usize),
}

/// Table II: every preset at `scale` (`None`: its default scale).
pub fn table2(scale: Option<f64>, seed: u64) -> Vec<DatasetStats> {
    tg_datasets::all_presets()
        .into_iter()
        .map(|preset| {
            let g = load(&preset, scale, seed);
            DatasetStats {
                scale: scale.unwrap_or_else(|| default_scale(preset.name)),
                generated: (g.n_nodes(), g.n_edges(), g.n_timestamps()),
                preset,
            }
        })
        .collect()
}

/// Tables IV and V: each method's Eq. 10 `f_med` and `f_avg` over the
/// seven Table III metrics, per dataset. `methods` selects from
/// [`all_methods`] as [`select_methods`] does.
pub fn table4_5(
    datasets: &[&str],
    scale: Option<f64>,
    methods: Option<&str>,
    setup: &Setup,
) -> Result<Table<Row<Vec<MetricScore>>>, UnknownName> {
    let graphs = generated(datasets, scale, setup.seed)?;
    run_table(graphs, setup, || chosen(methods, setup), fidelity_against)
}

/// Table VI: the temporal-motif MMD between each method's graph and the
/// observed one, per dataset.
pub fn table6(
    datasets: &[&str],
    scale: Option<f64>,
    methods: Option<&str>,
    mmd: &MotifMmd,
    setup: &Setup,
) -> Result<Table<Row<f64>>, UnknownName> {
    let graphs = generated(datasets, scale, setup.seed)?;
    run_table(
        graphs,
        setup,
        || chosen(methods, setup),
        |observed| mmd.against(observed, setup.seed),
    )
}

/// Table VII's two scores of one variant.
#[derive(Clone, Copy, Debug)]
pub struct Ablation {
    /// `f_avg` of mean degree.
    pub degree: f64,
    /// The temporal-motif MMD.
    pub motif: f64,
}

/// Table VII: TGAE and its four ablation variants, per dataset.
pub fn table7(
    datasets: &[&str],
    scale: Option<f64>,
    mmd: &MotifMmd,
    setup: &Setup,
) -> Result<Table<Row<Ablation>>, UnknownName> {
    let graphs = generated(datasets, scale, setup.seed)?;
    let lineup = || Ok(ablation_methods(setup.epochs, setup.seed));
    run_table(graphs, setup, lineup, |observed| {
        let fidelity = fidelity_against(observed);
        let motif = mmd.against(observed, setup.seed);
        move |g: &TemporalGraph| Ablation {
            degree: fidelity(g)
                .iter()
                .find(|s| s.kind == MetricKind::MeanDegree)
                .map_or(f64::NAN, |s| s.avg),
            motif: motif(g),
        }
    })
}

/// The six metrics Fig. 5 plots (the paper skips mean degree).
pub const FIG5_METRICS: [MetricKind; 6] = [
    MetricKind::Lcc,
    MetricKind::WedgeCount,
    MetricKind::ClawCount,
    MetricKind::TriangleCount,
    MetricKind::Ple,
    MetricKind::NComponents,
];

/// Fig. 5's methods: the learned ones, without E-R and B-A.
pub const FIG5_METHODS: &str = "TGAE,TIGGER,DYMOND,TGGAN,TagGen,NetGAN,VGAE,Graphite,SBMGNN";

/// One graph's Fig. 5 curves.
pub struct Curves {
    /// The [`FIG5_METRICS`] series, in that order.
    pub series: Vec<MetricSeries>,
    /// The curve-tracking error per [`FIG5_METRICS`] entry: the mean over
    /// timestamps of |ln(generated) − ln(observed)|, each value floored at
    /// 1e-9.
    pub error: Vec<f64>,
}

/// Fig. 5: the observed graph's curves and each method's.
pub struct Fig5 {
    pub origin: Vec<MetricSeries>,
    pub cells: Vec<RunOutcome<Curves>>,
}

/// Fig. 5: the accumulated-snapshot curves of the [`FIG5_METRICS`] on one
/// dataset.
pub fn fig5(
    dataset: &str,
    scale: Option<f64>,
    methods: Option<&str>,
    setup: &Setup,
) -> Result<Fig5, UnknownName> {
    let preset = self::dataset(dataset)?;
    let lineup = chosen(methods, setup)?;
    let observed = load(&preset, scale, setup.seed);
    let origin = fig5_series(&observed);
    let ln = |x: &f64| x.max(1e-9).ln();
    let error = |(o, g): (&MetricSeries, &MetricSeries)| {
        let gaps = o
            .values
            .iter()
            .zip(&g.values)
            .map(|(a, b)| (ln(a) - ln(b)).abs());
        gaps.sum::<f64>() / o.values.len() as f64
    };
    let curves = |g: &TemporalGraph| {
        let series = fig5_series(g);
        let error = origin.iter().zip(&series).map(error).collect();
        Curves { series, error }
    };
    let cells = run_lineup(lineup, &observed, setup, curves);
    Ok(Fig5 { origin, cells })
}

fn fig5_series(g: &TemporalGraph) -> Vec<MetricSeries> {
    metric_timeseries(g)
        .into_iter()
        .filter(|s| FIG5_METRICS.contains(&s.kind))
        .collect()
}

/// Fig. 6's methods: the learning-based ones.
pub const FIG6_METHODS: &str = "TGAE,TGGAN,TagGen,NetGAN,TIGGER,DYMOND,VGAE,Graphite,SBMGNN";

/// The sweeps `which` names (`nodes`, `timestamps`, `density` or `all`),
/// each cut to its first `points` grid points.
pub fn fig6_sweeps(
    which: &str,
    points: usize,
) -> Result<Vec<(&'static str, Vec<GridPoint>)>, UnknownName> {
    let all = [
        ("nodes", node_sweep()),
        ("timestamps", timestamp_sweep()),
        ("density", density_sweep()),
    ];
    let chosen: Vec<_> = all
        .into_iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .map(|(name, pts)| (name, pts.into_iter().take(points).collect()))
        .collect();
    if chosen.is_empty() {
        let known = vec!["nodes", "timestamps", "density", "all"];
        let name = which.to_string();
        return Err(UnknownName {
            kind: "sweep",
            name,
            known,
        });
    }
    Ok(chosen)
}

/// Fig. 6: each method's wall time and peak heap at each grid point, in a
/// row named by the point's label. A cell's output is `()` when the run
/// fit the budget.
pub fn fig6(
    points: &[GridPoint],
    methods: Option<&str>,
    setup: &Setup,
) -> Result<Table<Row<()>>, UnknownName> {
    let graphs = points.iter().map(|p| (p.label(), p.generate(setup.seed)));
    run_table(
        graphs,
        setup,
        || chosen(methods, setup),
        |_| |_: &TemporalGraph| (),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_graph::TemporalEdge;

    fn toy() -> TemporalGraph {
        let edges: Vec<TemporalEdge> = (0..20)
            .map(|i| TemporalEdge::new(i % 5, (i + 1) % 5, i % 4))
            .collect();
        TemporalGraph::from_edges(5, 4, edges)
    }

    #[test]
    fn registry_order_matches_paper_columns() {
        assert_eq!(
            names(&all_methods(5, 1)),
            vec![
                "TGAE", "TIGGER", "DYMOND", "TGGAN", "TagGen", "NetGAN", "E-R", "B-A", "VGAE",
                "Graphite", "SBMGNN"
            ]
        );
    }

    #[test]
    fn ablations_are_the_five_variants() {
        assert_eq!(
            names(&ablation_methods(5, 1)),
            vec!["TGAE", "TGAE-g", "TGAE-t", "TGAE-n", "TGAE-p"]
        );
    }

    #[test]
    fn selection_keeps_lineup_order_and_names_an_unknown_method() {
        let kept = select_methods(all_methods(5, 1), Some("e-r, tgae,")).unwrap();
        assert_eq!(names(&kept), vec!["TGAE", "E-R"]);
        assert_eq!(select_methods(all_methods(5, 1), None).unwrap().len(), 11);
        assert_eq!(
            select_methods(all_methods(5, 1), Some("")).unwrap().len(),
            11
        );
        let err = select_methods(all_methods(5, 1), Some("TGAE,tgea"))
            .err()
            .unwrap();
        assert_eq!((err.kind, err.name.as_str()), ("method", "tgea"));
        assert_eq!(err.known, names(&all_methods(5, 1)));
        assert!(err.to_string().contains("known: TGAE, TIGGER"), "{err}");
    }

    #[test]
    fn load_scales_and_caps() {
        let preset = dataset("bitcoin-a").unwrap();
        assert_eq!(preset.name, "BITCOIN-A");
        let g = load(&preset, Some(0.05), 7);
        assert!(g.n_nodes() < 400);
        assert!(g.n_timestamps() <= 60);
    }

    #[test]
    fn default_scales_cover_all_presets() {
        for p in tg_datasets::all_presets() {
            assert!(default_scale(p.name) > 0.0);
            let g = load(&p, None, 1);
            assert!(g.n_edges() > 0, "{} generated empty", p.name);
        }
    }

    #[test]
    fn an_unknown_dataset_is_an_error_naming_the_presets() {
        let err = dataset("NOPE").err().unwrap();
        assert_eq!((err.kind, err.name.as_str()), ("dataset", "NOPE"));
        assert_eq!(err.known.len(), 7);
        assert!(err.known.contains(&"MATH"));
        let setup = Setup {
            seed: 1,
            epochs: 1,
            budget_bytes: usize::MAX,
        };
        assert!(table4_5(&["DBLP", "NOPE"], None, None, &setup).is_err());
        assert!(fig6_sweeps("node", 1).is_err());
        assert_eq!(fig6_sweeps("all", 2).unwrap().len(), 3);
    }

    #[test]
    fn run_method_produces_outcome() {
        let g = toy();
        let out = run_method(&mut ErGenerator, &g, 1, usize::MAX);
        assert_eq!(out.method, "E-R");
        assert!(!out.is_oom());
        assert_eq!(out.output.unwrap().n_edges(), g.n_edges());
    }

    #[test]
    fn tgae_method_wraps_model() {
        let g = toy();
        let mut cfg = TgaeConfig::tiny();
        cfg.epochs = 3;
        let mut m = TgaeMethod(cfg);
        assert_eq!(m.name(), "TGAE");
        let out = run_method(&mut m, &g, 2, usize::MAX);
        assert_eq!(out.method, "TGAE");
        assert_eq!(out.output.unwrap().n_nodes(), 5);
    }
}
