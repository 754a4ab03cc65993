//! The five workloads: their specs, set-up, the timed pipeline stages
//! with their output checks, and the end-to-end (untraced) run.
//!
//! Every workload runs the same stages — ingest, train, generate,
//! evaluate on its own Table II dataset, and warm closed-loop requests
//! against the served run of [`crate::serve`] — and differs in the
//! dataset and in how many times each stage repeats. That is what lets
//! every workload report every end-to-end metric.

use crate::report::{WorkloadResult, END_TO_END};
use crate::serve::{self, ServeCounts};
use crate::stats::Stat;
use crate::{fail, Res, SuiteError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tg_bench::memtrack;
use tg_datasets::Preset;
use tg_graph::io::{
    load_edge_list_exact, read_edge_list_exact, save_edge_list, StreamingWriterSink,
};
use tg_graph::sink::GraphSink;
use tg_graph::TemporalGraph;
use tg_metrics::MetricScore;
use tg_sampling::InitialNodeSampler;
use tg_store::format::Fnv1a;
use tg_store::{StoreSource, StoreWriter};
use tgae::{Session, ShardSpec, SharedRun, TgaeConfig, TrainReport};

/// `--seconds` value the repeat counts below are written for.
pub const NOMINAL_SECONDS: u64 = 20;

/// How often a run sets up; `setup_s` is the median.
const SETUPS: usize = 3;

/// A run stops starting operations once its timed part has lasted this
/// many times `--seconds`: the repeat counts are fixed, so a box that
/// runs at two thirds of its usual speed would otherwise take half as
/// long again, and the driver's budget for all runs is a wall-clock one.
const CUTOFF: f64 = 1.4;

/// Seed every dataset is synthesised with. The datasets stand in for
/// the paper's fixed Table II graphs, so they do not move with
/// `--seed`: re-drawn per seed, BITCOIN-O's hub structure alone moved
/// `generate_s` between 1.47 s and 2.47 s — a different workload per
/// seed, not noise around one. `--seed` drives the model initialisation,
/// the training sample stream and every simulation master.
pub const DATA_SEED: u64 = 7;

/// The store an ingest writes, inside the run's scratch directory.
const STORE_FILE: &str = "observed.tgs";

/// Steps the served run (DBLP ×0.1) is trained for.
pub const SERVED_TRAIN_STEPS: usize = 30;

/// One workload: a dataset and how often each stage repeats at
/// [`NOMINAL_SECONDS`].
pub struct Spec {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Why the workload exists, in one sentence.
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the driver runs it. The others run
    /// under `suite run --all` only (see the README's "Steadiness").
    pub in_benchmark_json: bool,
    preset: fn() -> Preset,
    scale: f64,
    ingest_reps: usize,
    /// Steps per train block (`cfg.epochs`): part of the input, never scaled.
    pub train_steps: usize,
    train_blocks: usize,
    /// Steps of the untimed warm-up block, 0 for none (a block ≥ 2 s).
    warm_train_steps: usize,
    gen_reps: usize,
    /// 1 generates the full plan, `k > 1` shard 0 of `plan.shards(k)`.
    pub gen_shards: usize,
    warm_generate: bool,
    eval_reps: usize,
    warm_evaluate: bool,
    serve: ServeCounts,
}

/// The workloads, in run order. Sizes are the paper's Table II rows.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "dblp_dense",
        why: "DBLP x1.0 (1909 nodes <= dense_cutoff): dense n-way softmax, forward+backward are 99% of a step; the gemm/softmax-xent/tape workload",
        in_benchmark_json: true,
        preset: tg_datasets::presets::dblp,
        scale: 1.0,
        ingest_reps: 200,
        train_steps: 40,
        train_blocks: 6,
        warm_train_steps: 4,
        gen_reps: 12,
        gen_shards: 1,
        warm_generate: true,
        eval_reps: 60,
        warm_evaluate: true,
        serve: ServeCounts::PROBE,
    },
    Spec {
        name: "btc_sparse",
        why: "BITCOIN-O x1.0 (5881 nodes, 1904 timestamps): sparse candidates, tiny steps so Adam and per-unit overhead dominate; evaluate walks 1904 snapshots",
        in_benchmark_json: true,
        preset: tg_datasets::presets::bitcoin_otc,
        scale: 1.0,
        ingest_reps: 50,
        train_steps: 300,
        train_blocks: 2,
        warm_train_steps: 20,
        gen_reps: 2,
        gen_shards: 1,
        warm_generate: false,
        eval_reps: 1,
        warm_evaluate: false,
        serve: ServeCounts::PROBE,
    },
    Spec {
        name: "email_multi",
        why: "EMAIL x0.3 (295 nodes, 99700 edges): dense temporal neighbourhoods and heavy re-firing; the neighbour-lookup and categorical-sampling workload",
        in_benchmark_json: false,
        preset: tg_datasets::presets::email,
        scale: 0.3,
        ingest_reps: 40,
        train_steps: 30,
        train_blocks: 4,
        warm_train_steps: 2,
        gen_reps: 3,
        gen_shards: 1,
        warm_generate: true,
        eval_reps: 3,
        warm_evaluate: false,
        serve: ServeCounts::PROBE,
    },
    Spec {
        name: "math_ingest",
        why: "MATH x1.0 (24818 nodes, 506550 edges): the only size where text parse and the edge store do measurable work, and the largest sparse train step",
        in_benchmark_json: true,
        preset: tg_datasets::presets::math,
        scale: 1.0,
        ingest_reps: 6,
        train_steps: 8,
        train_blocks: 2,
        warm_train_steps: 0,
        gen_reps: 2,
        gen_shards: 8,
        warm_generate: false,
        eval_reps: 1,
        warm_evaluate: false,
        serve: ServeCounts::PROBE,
    },
    Spec {
        name: "serve_small",
        why: "DBLP x0.1 (190 nodes) served over loopback TCP by one closed-loop client: requests small enough that protocol and cache costs show in the latency",
        in_benchmark_json: true,
        preset: tg_datasets::presets::dblp,
        scale: 0.1,
        ingest_reps: 1000,
        train_steps: SERVED_TRAIN_STEPS,
        train_blocks: 12,
        warm_train_steps: 4,
        gen_reps: 150,
        gen_shards: 1,
        warm_generate: true,
        eval_reps: 500,
        warm_evaluate: true,
        serve: ServeCounts::FULL,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Scale a nominal repeat count to `--seconds` (never below one).
pub fn scaled(count: usize, seconds: u64) -> usize {
    let n = (count as u64 * seconds + NOMINAL_SECONDS / 2) / NOMINAL_SECONDS;
    n.max(1) as usize
}

/// How many times each pipeline stage repeats in one pass.
#[derive(Clone, Copy, Debug)]
pub struct Reps {
    /// Ingest ops.
    pub ingest: usize,
    /// Train blocks (at least one: later stages need its model).
    pub train: usize,
    /// Generations (at least one: evaluate needs its output).
    pub generate: usize,
    /// Evaluations.
    pub evaluate: usize,
}

impl Spec {
    /// The end-to-end run's repeat counts at `--seconds`.
    pub fn reps(&self, seconds: u64) -> Reps {
        Reps {
            ingest: scaled(self.ingest_reps, seconds),
            train: scaled(self.train_blocks, seconds),
            generate: scaled(self.gen_reps, seconds),
            evaluate: scaled(self.eval_reps, seconds),
        }
    }

    /// The served run's closed-loop request counts at `--seconds`.
    pub fn serve_counts(&self, seconds: u64) -> ServeCounts {
        self.serve.scaled(seconds)
    }
}

/// Time one public entry point. The span is inert unless the traced
/// run has installed a sink, in which case the same call also lands in
/// the trace file.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = tg_obs::trace::span(name);
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Attempted/failed operation counts. Every operation runs under
/// `catch_unwind`; a panic, a typed error and a failed output check all
/// count as one failed operation.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Tally {
    /// Run one operation; `None` (and one failure) if it did not succeed.
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let outcome = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => r,
            Err(_) => Err("panicked".to_string()),
        };
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                None
            }
        }
    }

    /// Count one output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.op(what, || {
            if ok {
                Ok(())
            } else {
                Err("output check failed".into())
            }
        });
    }
}

/// Everything set-up produces: the inputs on disk and in memory, and
/// the small trained run the serve phases use.
pub struct Prepared {
    /// The workload.
    pub spec: &'static Spec,
    /// Workload seed (sessions and simulation masters).
    pub seed: u64,
    /// Scratch directory of this run, inside the build directory.
    pub dir: PathBuf,
    /// The observed graph of the pipeline stages.
    pub g: TemporalGraph,
    /// `g` as a `u v t` text edge list.
    pub text_path: PathBuf,
    /// `TgaeConfig::default()` with `epochs = train_steps`.
    pub cfg: TgaeConfig,
    /// DBLP ×0.1 trained 30 steps — what the server serves.
    pub served: SharedRun,
    /// Directory holding the served run's two run directories.
    pub serve_root: PathBuf,
}

fn default_cfg(steps: usize) -> TgaeConfig {
    TgaeConfig {
        epochs: steps,
        ..TgaeConfig::default()
    }
}

/// One train block through the public entry point: a fresh session,
/// `train()` for `cfg.epochs` steps.
pub fn train_block<'g>(
    g: &'g TemporalGraph,
    cfg: &TgaeConfig,
    seed: u64,
) -> Result<(Session<'g>, TrainReport), String> {
    let mut session = Session::builder(g)
        .config(cfg.clone())
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    let report = session.train().map_err(|e| e.to_string())?;
    Ok((session, report))
}

/// Losses are finite, and fall over a block long enough to show it.
pub fn losses_ok(report: &TrainReport) -> bool {
    report.losses.iter().all(|l| l.is_finite())
        && (report.losses.len() < 30 || report.tail_loss() < report.losses[0])
}

/// The slice of the plan a workload generates: the whole plan, or
/// shard 0 of `gen_shards`.
pub fn shard_of(run: &SharedRun, master: u64, gen_shards: usize) -> ShardSpec {
    let plan = run.plan(master);
    plan.shards(gen_shards)[0]
}

/// Generate `shard` into an edge-list file; returns the edges written.
pub fn generate_to_file(run: &SharedRun, shard: &ShardSpec, path: &Path) -> Result<u64, String> {
    let sink = StreamingWriterSink::create(path).map_err(|e| e.to_string())?;
    tgae::generate_shard_with_sink(run.model(), run.observed(), shard, sink)
        .map_err(|e| e.to_string())
}

/// Generate `shard` into an in-memory graph (the input of `evaluate`).
pub fn generate_graph(run: &SharedRun, shard: &ShardSpec) -> TemporalGraph {
    let shape = (run.observed().n_nodes(), run.observed().n_timestamps());
    tgae::generate_shard_with_sink(
        run.model(),
        run.observed(),
        shard,
        GraphSink::new(shape.0, shape.1),
    )
}

/// Text edge list on disk → a trainable state: parse, write the store,
/// verify it, load it back, build the initial-node sampler.
///
/// The store is written with [`StoreWriter`], which is `write_graph`
/// without its durable commit (`fsync` + rename of a temporary file).
/// That `fsync` is the host's disk queue, not the program, and on the
/// shared host `ingest_s` with it spread past the 25 % bound on three
/// workloads; the traced run still times `write_graph` whole
/// (`tg-store.write_edges_per_s`).
pub fn ingest(p: &Prepared) -> Result<(TemporalGraph, InitialNodeSampler), String> {
    let (n, t) = (p.g.n_nodes(), p.g.n_timestamps());
    let parsed = load_edge_list_exact(&p.text_path, n, t).map_err(|e| e.to_string())?;
    let store = p.dir.join(STORE_FILE);
    let mut writer = StoreWriter::create(&store, n, t).map_err(|e| e.to_string())?;
    writer
        .push_chunk(parsed.edges())
        .map_err(|e| e.to_string())?;
    writer.finish().map_err(|e| e.to_string())?;
    let mut source = StoreSource::open(&store).map_err(|e| e.to_string())?;
    source
        .reader_mut()
        .verify_payload()
        .map_err(|e| e.to_string())?;
    let loaded = source.load_graph().map_err(|e| e.to_string())?;
    let sampler = InitialNodeSampler::new(&loaded, p.cfg.sampler.degree_weighted);
    Ok((loaded, sampler))
}

/// Score a generated graph (Table III statistics, Eq. 10).
pub fn evaluate(run: &SharedRun, generated: &TemporalGraph) -> Result<Vec<MetricScore>, String> {
    run.evaluate(generated).map_err(|e| e.to_string())
}

fn scores_ok(scores: &[MetricScore]) -> bool {
    scores.len() == 7
        && scores
            .iter()
            .all(|s| s.avg.is_finite() && s.med.is_finite())
}

/// Build the inputs and warm every stage up once. Everything here is
/// `setup_s`; nothing here is timed as a stage.
pub fn setup(spec: &'static Spec, seed: u64, dir: &Path, tally: &mut Tally) -> Res<Prepared> {
    let g = (spec.preset)().generate_scaled(spec.scale, DATA_SEED);
    let text_path = dir.join("observed.edges");
    save_edge_list(&g, &text_path).map_err(fail("write observed edge list"))?;

    // the served run: trained here, saved as two run directories so the
    // cold phase can alternate between them with a one-entry cache
    let small = tg_datasets::presets::dblp().generate_scaled(0.1, DATA_SEED);
    let (session, _) = train_block(&small, &default_cfg(SERVED_TRAIN_STEPS), seed)
        .map_err(fail("train the served run"))?;
    let served = session.into_shared();
    let serve_root = dir.join("runs");
    for id in serve::RUN_IDS {
        let run_dir = serve_root.join(id);
        std::fs::create_dir_all(&run_dir).map_err(fail("create run directory"))?;
        tgae::save(served.model(), run_dir.join("model.json"))
            .map_err(fail("save served model"))?;
        save_edge_list(served.observed(), run_dir.join("observed.edges"))
            .map_err(fail("save served edges"))?;
    }

    let p = Prepared {
        spec,
        seed,
        dir: dir.to_path_buf(),
        g,
        text_path,
        cfg: default_cfg(spec.train_steps),
        served,
        serve_root,
    };

    // one untimed op of every stage cheap enough to afford it: pool,
    // thread-local tapes, page faults, file-system metadata
    tally.op("warm-up ingest", || ingest(&p).map(|_| ()));
    if spec.warm_train_steps > 0 {
        let cfg = default_cfg(spec.warm_train_steps);
        let warm = tally.op("warm-up train", || {
            train_block(&p.g, &cfg, seed).map(|(s, _)| s.into_shared())
        });
        if let (Some(run), true) = (warm, spec.warm_generate) {
            let master = run.seed_policy().simulation_master(0);
            let shard = shard_of(&run, master, spec.gen_shards);
            let path = p.dir.join("warmup.edges");
            tally.op("warm-up generate", || generate_to_file(&run, &shard, &path));
            if spec.warm_evaluate {
                tally.op("warm-up evaluate", || {
                    evaluate(&run, &generate_graph(&run, &shard)).map(|_| ())
                });
            }
        }
    }
    Ok(p)
}

/// What the pipeline stages leave behind for the traced run's layers.
pub struct Pipeline {
    /// The last train block's model with the observed graph.
    pub run: SharedRun,
    /// The last train block's report.
    pub report: TrainReport,
    /// The shard every generation ran.
    pub shard: ShardSpec,
    /// Bytes of one streamed generation of `shard`.
    pub generated_bytes: Vec<u8>,
    /// The same generation parsed back into a graph.
    pub generated: TemporalGraph,
}

/// Per-stage wall-time samples, seconds.
#[derive(Default)]
pub struct StageSamples {
    /// `ingest_s` samples.
    pub ingest: Vec<f64>,
    /// `train_s` samples, one per block.
    pub train: Vec<f64>,
    /// `generate_s` samples.
    pub generate: Vec<f64>,
    /// `evaluate_s` samples.
    pub evaluate: Vec<f64>,
}

/// The four pipeline stages, one operation per call so a run can take
/// them in any interleaving, each with its output checks. `generate`
/// needs a trained block and `evaluate` a generation; called too early
/// they count one failed operation.
///
/// The fingerprint takes the first block's losses and the first
/// generation's bytes (the later ones are checked equal to them), so it
/// does not depend on the repeat counts.
pub struct Stages<'p> {
    p: &'p Prepared,
    /// Wall-time samples so far.
    pub samples: StageSamples,
    /// Seeded outputs so far.
    pub fingerprint: Fnv1a,
    trained: Option<(SharedRun, TrainReport)>,
    first_losses: Option<Vec<f32>>,
    shard: Option<(ShardSpec, u64)>,
    generated_bytes: Option<Vec<u8>>,
    generated: Option<TemporalGraph>,
}

impl<'p> Stages<'p> {
    /// No operation run yet.
    pub fn new(p: &'p Prepared) -> Self {
        Stages {
            p,
            samples: StageSamples::default(),
            fingerprint: Fnv1a::new(),
            trained: None,
            first_losses: None,
            shard: None,
            generated_bytes: None,
            generated: None,
        }
    }

    /// One ingest: text file → trainable state. The previous ingest's
    /// store is removed first, untimed: an ingest writes a store that is
    /// not there yet, and truncating the old one was a third of the time
    /// on the small inputs.
    pub fn ingest(&mut self, tally: &mut Tally) {
        let p = self.p;
        let _ = std::fs::remove_file(p.dir.join(STORE_FILE));
        let out = tally.op("ingest", || {
            let (out, secs) = timed("bench.stage.ingest", || ingest(p));
            out.map(|(g, sampler)| (g, sampler, secs))
        });
        if let Some((loaded, sampler, secs)) = out {
            self.samples.ingest.push(secs);
            tally.check(
                "store round trip returns the input edges",
                loaded.edges() == p.g.edges() && sampler.population_size() > 0,
            );
        }
    }

    /// One train block on a fresh session.
    pub fn train(&mut self, tally: &mut Tally) {
        let p = self.p;
        let out = tally.op("train block", || {
            let (out, secs) = timed("bench.stage.train", || train_block(&p.g, &p.cfg, p.seed));
            out.map(|(session, report)| (session.into_shared(), report, secs))
        });
        let Some((run, report, secs)) = out else {
            return;
        };
        self.samples.train.push(secs);
        tally.check("losses finite and falling", losses_ok(&report));
        match &self.first_losses {
            Some(first) => tally.check("train blocks repeat bit for bit", *first == report.losses),
            None => {
                for l in &report.losses {
                    self.fingerprint.update(&l.to_bits().to_le_bytes());
                }
                self.first_losses = Some(report.losses.clone());
            }
        }
        self.trained = Some((run, report));
    }

    /// One generation of the workload's shard into an edge-list file,
    /// with the last train block's model.
    pub fn generate(&mut self, tally: &mut Tally) {
        let Some((run, _)) = &self.trained else {
            return tally.check("generate needs a trained block", false);
        };
        let (shard, expected_edges) = *self.shard.get_or_insert_with(|| {
            let master = run.seed_policy().simulation_master(0);
            let shard = shard_of(run, master, self.p.spec.gen_shards);
            (shard, run.plan(master).shard_cost_estimate(&shard).edges)
        });
        let path = self.p.dir.join("generated.edges");
        let out = tally.op("generate", || {
            let (out, secs) = timed("bench.stage.generate", || {
                generate_to_file(run, &shard, &path)
            });
            out.map(|n| (n, secs))
        });
        let Some((n_edges, secs)) = out else {
            return;
        };
        self.samples.generate.push(secs);
        tally.check(
            "generated edge count is the plan's",
            n_edges == expected_edges,
        );
        let bytes = tally.op("read generated file", || {
            std::fs::read(&path).map_err(|e| e.to_string())
        });
        match (&self.generated_bytes, bytes) {
            (Some(first), Some(bytes)) => {
                tally.check("generation repeats byte for byte", *first == bytes);
            }
            (None, Some(bytes)) => {
                self.fingerprint.update(&bytes);
                self.generated_bytes = Some(bytes);
            }
            (_, None) => {}
        }
    }

    /// One evaluation of the first generation, parsed back from its
    /// streamed text (the traced run also checks that graph against a
    /// `GraphSink` generation).
    pub fn evaluate(&mut self, tally: &mut Tally) {
        let (Some((run, _)), Some(bytes)) = (&self.trained, &self.generated_bytes) else {
            return tally.check("evaluate needs a generation", false);
        };
        if self.generated.is_none() {
            let (n, t) = (self.p.g.n_nodes(), self.p.g.n_timestamps());
            self.generated = tally.op("parse the streamed edge list", || {
                read_edge_list_exact(&bytes[..], n, t).map_err(|e| e.to_string())
            });
        }
        let Some(generated) = &self.generated else {
            return;
        };
        let out = tally.op("evaluate", || {
            let (out, secs) = timed("bench.stage.evaluate", || evaluate(run, generated));
            out.map(|scores| (scores, secs))
        });
        if let Some((scores, secs)) = out {
            self.samples.evaluate.push(secs);
            tally.check("seven finite metric scores", scores_ok(&scores));
        }
    }

    /// Hand the stages' products to the traced run's layers.
    pub fn into_pipeline(self) -> Option<Pipeline> {
        let (run, report) = self.trained?;
        Some(Pipeline {
            run,
            report,
            shard: self.shard?.0,
            generated_bytes: self.generated_bytes?,
            generated: self.generated?,
        })
    }
}

/// One kind of operation of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Text file → trainable state.
    Ingest,
    /// One train block.
    Train,
    /// One generation.
    Generate,
    /// One evaluation.
    Evaluate,
    /// One direct in-process generation of the served run.
    Direct,
    /// One warm request on the persistent connection.
    Warm,
    /// One warm request on a fresh connection.
    Connect,
    /// Two cold requests, one per run id.
    Cold,
}

/// Rounds a run's operations are dealt into.
const ROUNDS: usize = 10;

/// Interleave the operations: `ROUNDS` rounds, each taking every kind
/// in the order given, operation `j` of a kind with `count` operations
/// landing in round `j * ROUNDS / count`. Every kind therefore has an
/// operation in the first round (so later kinds find their inputs) and
/// its samples are spread over the whole run — on a box whose speed
/// shifts for seconds at a time, a stage measured in one contiguous
/// burst reports whichever phase it happened to hit.
///
/// `run` is told the operation, its round, and whether it is the first
/// of its kind in that round.
pub fn interleave(counts: &[(Op, usize)], mut run: impl FnMut(Op, usize, bool)) {
    for round in 0..ROUNDS {
        for &(op, count) in counts {
            // j with floor(j * ROUNDS / count) == round
            let begin = (round * count).div_ceil(ROUNDS);
            let end = ((round + 1) * count).div_ceil(ROUNDS);
            for j in begin..end {
                run(op, round, j == begin);
            }
        }
    }
}

/// FNV-1a of a byte string with its length: what the serve phases
/// compare instead of keeping every generated stream.
pub fn digest(bytes: &[u8]) -> (usize, u64) {
    let mut h = Fnv1a::new();
    h.update(bytes);
    (bytes.len(), h.finish())
}

/// Set up and bring the server up, [`SETUPS`] times over, each into a
/// directory of its own; returns the last set-up with its server and
/// every set-up's seconds. Three, because the first one in a process
/// also pays for the first touch of the heap and the pool.
fn set_up_repeatedly(
    spec: &'static Spec,
    seed: u64,
    dir: &Path,
    tally: &mut Tally,
) -> Res<(Prepared, Option<serve::Live>, Vec<f64>)> {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut last: Option<(Prepared, Option<serve::Live>)> = None;
    for i in 0..SETUPS {
        if let Some((_, Some(live))) = last.take() {
            live.stop(tally);
        }
        let t = Instant::now();
        let sub = dir.join(format!("setup{i}"));
        std::fs::create_dir_all(&sub).map_err(fail(sub.display()))?;
        let p = setup(spec, seed, &sub, tally)?;
        let live = serve::start(&p.serve_root, tally);
        seconds.push(t.elapsed().as_secs_f64());
        last = Some((p, live));
    }
    let (p, live) = last.ok_or_else(|| SuiteError::Failed("no set-up ran".into()))?;
    Ok((p, live, seconds))
}

/// The end-to-end run: set-up, the timed operations untraced and
/// interleaved, peak heap.
///
/// Fresh-connection and cache-miss requests are not part of it: they
/// are exercised, checked and reported by the traced run.
pub fn run_end_to_end(
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    dir: &Path,
) -> Res<WorkloadResult> {
    let t0 = Instant::now();
    let mut tally = Tally::default();
    // The server is up for the whole run so that its requests can be
    // interleaved with the pipeline stages. It costs those stages
    // nothing measurable: an idle accept loop waking every 5 ms, and a
    // metrics registry only `tg-serve` itself records into.
    let (p, live, setup_s) = set_up_repeatedly(spec, seed, dir, &mut tally)?;

    memtrack::reset_peak();
    let reps = spec.reps(seconds);
    let serve_counts = spec.serve_counts(seconds);
    let mut stages = Stages::new(&p);
    let mut requests = live.as_ref().map(|live| live.requests(&p));
    let counts = [
        (Op::Ingest, reps.ingest),
        (Op::Train, reps.train),
        (Op::Generate, reps.generate),
        (Op::Evaluate, reps.evaluate),
        (Op::Direct, serve_counts.direct),
        (Op::Warm, serve_counts.warm),
    ];
    let timed_t0 = Instant::now();
    let cutoff = Duration::from_secs_f64(seconds as f64 * CUTOFF);
    let mut not_started = 0u64;
    interleave(&counts, |op, round, first_of_round| {
        // every kind has run once after round 0; past the cut-off the
        // rest of the run is dropped, not failed
        if round > 0 && timed_t0.elapsed() > cutoff {
            not_started += 1;
            return;
        }
        match (op, &mut requests) {
            (Op::Ingest, _) => stages.ingest(&mut tally),
            (Op::Train, _) => stages.train(&mut tally),
            (Op::Generate, _) => stages.generate(&mut tally),
            (Op::Evaluate, _) => stages.evaluate(&mut tally),
            (Op::Direct, Some(r)) => r.direct(&mut tally),
            (Op::Warm, Some(r)) => r.warm(first_of_round, &mut tally),
            _ => {}
        }
    });
    if not_started > 0 {
        println!(
            "the box ran slow: {not_started} operations were not started after {:.1} s",
            cutoff.as_secs_f64()
        );
    }
    let serve_samples = requests.map(|r| r.samples).unwrap_or_default();
    if let Some(live) = live {
        live.stop(&mut tally);
    }
    let peak_mib = memtrack::peak_bytes() as f64 / (1u64 << 20) as f64;
    let (samples, fingerprint) = (&stages.samples, stages.fingerprint);

    let mut result = WorkloadResult::default();
    for def in &END_TO_END {
        let stat = match def.name {
            "setup_s" => Stat::median(&setup_s, def.unit),
            "ingest_s" => Stat::mean(&samples.ingest, def.unit),
            "train_s" => Stat::mean(&samples.train, def.unit),
            "generate_s" => Stat::mean(&samples.generate, def.unit),
            "evaluate_s" => Stat::mean(&samples.evaluate, def.unit),
            "serve_warm_ms" => Stat::mean(&serve_samples.warm_ms, def.unit),
            "peak_heap_mib" => Some(Stat::single(peak_mib, def.unit)),
            _ => None,
        };
        match stat {
            Some(stat) => {
                result.end_to_end.insert(def.name.to_string(), stat);
            }
            // a stage with no successful op has no number to report
            None => tally.check(def.name, false),
        }
    }
    finish(&mut result, &tally, &fingerprint, t0);
    Ok(result)
}

/// Fill in the counts, the fingerprint and the wall time.
pub fn finish(result: &mut WorkloadResult, tally: &Tally, fingerprint: &Fnv1a, t0: Instant) {
    result.ops_attempted = tally.attempted;
    result.ops_failed = tally.failed;
    result.failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    result.fingerprint = format!("{:016x}", fingerprint.finish());
    result.wall_s = t0.elapsed().as_secs_f64();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_scale_with_seconds_and_never_reach_zero() {
        assert_eq!(scaled(9, NOMINAL_SECONDS), 9);
        assert_eq!(scaled(9, 2 * NOMINAL_SECONDS), 18);
        assert_eq!(scaled(1200, 5), 300);
        assert_eq!(scaled(1, 1), 1);
        assert_eq!(scaled(3, 1), 1);
    }

    #[test]
    fn tally_counts_errors_panics_and_failed_checks() {
        let mut t = Tally::default();
        assert_eq!(t.op("ok", || Ok(3)), Some(3));
        assert_eq!(t.op::<()>("err", || Err("typed".into())), None);
        let unwound: Option<()> = t.op("panic", || {
            // lint: allow(panic) — the op under test must unwind
            panic!("boom")
        });
        assert_eq!(unwound, None);
        t.check("holds", true);
        t.check("broken", false);
        assert_eq!((t.attempted, t.failed), (5, 3));
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for s in &SPECS {
            assert_eq!(spec(s.name).map(|x| x.name), Some(s.name));
            assert!(
                s.why.len() <= 200,
                "{} why is {} chars",
                s.name,
                s.why.len()
            );
        }
        assert!(spec("nope").is_none());
    }
}
