//! The traced run: the same workload with `tg_obs::trace` armed and a
//! `bench.<crate>.<call>` span around every call into a crate's public
//! API, so one trace file holds the program's spans and the suite's.
//!
//! Spans are recorded **from outside**: this file wraps public entry
//! points; it adds no span inside any crate. The train stage is
//! replayed step-wise and the generate stage unit-wise through public
//! functions only, which is what splits a step into sampling /
//! computation-graph build / forward / backward / clip / optimiser and
//! a unit into decode / sample+sink. The replay is checked against
//! `Session::train` before any share derived from it is believed.

use crate::report::WorkloadResult;
use crate::serve::{self, ServeSamples};
use crate::spans::{parse_jsonl, Trace};
use crate::stats::{self, highest_supported_percentile, Stat};
use crate::workloads::{
    finish, generate_graph, interleave, setup, shard_of, timed, Op, Pipeline, Prepared, Reps, Spec,
    Stages, Tally,
};
use crate::{fail, Res, SuiteError};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, Stdio};
use std::rc::Rc;
use std::time::{Duration, Instant};
use tg_graph::io::{load_edge_list_exact, StreamingWriterSink};
use tg_graph::sink::EdgeSink;
use tg_graph::source::{read_graph, InMemorySource, DEFAULT_CHUNK_EDGES};
use tg_graph::{NodeId, Time};
use tg_sampling::{ComputationGraph, InitialNodeSampler};
use tg_serve::{read_frame, write_frame, AdmissionController, Frame, ModelCache, StatusReport};
use tg_store::StoreSource;
use tg_tensor::matrix::{matmul_nn, matmul_nt, matmul_tn, Matrix};
use tg_tensor::optim::{clip_global_norm, Adam};
use tg_tensor::parallel::ThreadPin;
use tg_tensor::tape::Tape;
use tgae::{Session, SharedRun, SimulationEngine, Tgae};

/// Hidden subcommand the traced run re-executes itself with to try one
/// generation at full pool width in a process of its own.
pub const PAR_CHILD: &str = "par-child";

/// XOR-folded into the session seed to derive the training RNG stream
/// (`tgae::session` documents it: "same RNG stream `seed ^ 0x5eed_1234`").
const TRAIN_STREAM: u64 = 0x5eed_1234;

/// Every per-layer metric with its unit, in report order. Named
/// `<crate>.<metric>`; `BENCHMARK.json` lists the same names with the
/// end-to-end metric each should move.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("tg-graph.text_parse_edges_per_s", "edges/s"),
    ("tg-graph.text_write_mb_per_s", "MB/s"),
    ("tg-graph.assemble_edges_per_s", "edges/s"),
    ("tg-graph.temporal_neighbors_per_s", "1/s"),
    ("tg-store.write_edges_per_s", "edges/s"),
    ("tg-store.verify_mb_per_s", "MB/s"),
    ("tg-store.read_edges_per_s", "edges/s"),
    ("tg-store.bytes_per_edge", "B/edge"),
    ("tg-sampling.initial_build_ms", "ms"),
    ("tg-sampling.sample_batch_us", "us"),
    ("tg-sampling.cgbuild_ms_per_step", "ms"),
    ("tg-sampling.cgbuild_share_train", "share"),
    ("tg-sampling.cgbuild_share_generate", "share"),
    ("tg-sampling.slots_per_step", "count"),
    ("tg-tensor.gemm_nn_gflops", "GFLOP/s"),
    ("tg-tensor.gemm_nt_gflops", "GFLOP/s"),
    ("tg-tensor.gemm_tn_gflops", "GFLOP/s"),
    ("tg-tensor.segment_softmax_edges_per_s", "edges/s"),
    ("tg-tensor.backward_ms_per_step", "ms"),
    ("tg-tensor.backward_share", "share"),
    ("tg-tensor.clip_ms_per_step", "ms"),
    ("tg-tensor.optim_ms_per_step", "ms"),
    ("tg-tensor.optim_share", "share"),
    ("tgae.forward_ms_per_step", "ms"),
    ("tgae.forward_share", "share"),
    ("tgae.train_slots_per_s", "1/s"),
    ("tgae.plan_ms", "ms"),
    ("tgae.units_per_s", "1/s"),
    ("tgae.decode_ms_per_unit", "ms"),
    ("tgae.decode_share", "share"),
    ("tgae.sample_sink_share", "share"),
    ("tgae.gen_edges_per_s", "edges/s"),
    ("tgae.model_save_ms", "ms"),
    ("tgae.model_load_ms", "ms"),
    ("tgae.model_json_kib", "KiB"),
    ("tgae.checkpoint_write_ms", "ms"),
    ("tgae.generate_par_failed", "count"),
    ("tg-metrics.evaluate_ms", "ms"),
    ("tg-metrics.timeseries_edges_per_s", "edges/s"),
    ("tg-serve.overhead_ms", "ms"),
    ("tg-serve.ping_rtt_us", "us"),
    ("tg-serve.accept_wait_ms", "ms"),
    ("tg-serve.frame_encode_mb_per_s", "MB/s"),
    ("tg-serve.frame_decode_mb_per_s", "MB/s"),
    ("tg-serve.cache_hit_us", "us"),
    ("tg-serve.cache_miss_ms", "ms"),
    ("tg-serve.admit_ns", "ns"),
    ("tg-serve.warm_p50_ms", "ms"),
    ("tg-serve.warm_p99_ms", "ms"),
    ("tg-serve.connect_p50_ms", "ms"),
    ("tg-serve.cold_p50_ms", "ms"),
    ("tg-serve.bytes_per_request", "B"),
    ("tg-serve.rejected", "count"),
    ("tg-serve.cache_misses", "count"),
    ("tg-obs.trace_overhead_train_pct", "%"),
    ("tg-obs.trace_overhead_generate_pct", "%"),
    ("tg-obs.span_cost_ns", "ns"),
    ("tg-obs.spans_recorded", "count"),
    ("suite.replay_slots_rel_err", "share"),
    ("suite.replay_step_rel_err", "share"),
    ("suite.self_time_coverage", "share"),
];

const STEP: &str = "bench.train.step";
const SAMPLE: &str = "bench.tg-sampling.sample_batch";
const CG_TRAIN: &str = "bench.tg-sampling.cg_build";
const FORWARD: &str = "bench.tgae.forward_batch_into";
const BACKWARD: &str = "bench.tg-tensor.backward";
const CLIP: &str = "bench.tg-tensor.clip_global_norm";
const ADAM: &str = "bench.tg-tensor.adam_step";
const UNIT: &str = "bench.generate.unit";
const CG_GEN: &str = "bench.tg-sampling.cg_build_gen";
const DECODE: &str = "bench.tgae.decode_rows";
const EXECUTE: &str = "bench.tgae.execute";
const ROOT: &str = "bench.suite.traced";

/// The per-layer numbers gathered so far.
struct Layers(BTreeMap<String, Stat>);

impl Layers {
    fn put(&mut self, name: &str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, unit)| unit);
        self.0.insert(name.to_string(), Stat::single(value, unit));
    }
}

/// Call `f` `reps` times under span `name`; the last value and the
/// median seconds per call.
fn repeat<T>(name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut out, first) = timed(name, &mut f);
    let mut secs = vec![first];
    for _ in 1..reps {
        let (next, s) = timed(name, &mut f);
        out = next;
        secs.push(s);
    }
    (out, median(&secs))
}

fn median(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(f64::NAN)
}

fn rel_err(measured: f64, reference: f64) -> f64 {
    (measured - reference).abs() / reference.abs().max(f64::MIN_POSITIVE)
}

/// How many reps of a call costing `secs` fit a ~60 ms budget.
fn reps_for(secs: f64) -> usize {
    ((0.06 / secs.max(1e-9)) as usize).clamp(1, 15)
}

/// tg-graph and tg-store: the pieces of `ingest_s`, one public call each.
fn ingest_layers(p: &Prepared, pipeline: &Pipeline, m: &mut Layers) -> Result<(), String> {
    let (n, t) = (p.g.n_nodes(), p.g.n_timestamps());
    let edges = p.g.n_edges() as f64;

    let (parsed, first) = timed("bench.tg-graph.load_edge_list_exact", || {
        load_edge_list_exact(&p.text_path, n, t)
    });
    let parsed = parsed.map_err(|e| e.to_string())?;
    let reps = reps_for(first);
    let (_, parse_s) = repeat("bench.tg-graph.load_edge_list_exact", reps, || {
        load_edge_list_exact(&p.text_path, n, t).map(|g| g.n_edges())
    });
    m.put("tg-graph.text_parse_edges_per_s", edges / parse_s);

    let store = p.dir.join("layers.tgs");
    let (stats, write_s) = repeat("bench.tg-store.write_graph", reps, || {
        tg_store::write_graph(&parsed, &store)
    });
    let stats = stats.map_err(|e| e.to_string())?;
    m.put("tg-store.write_edges_per_s", edges / write_s);
    m.put("tg-store.bytes_per_edge", stats.bytes_per_edge());

    let mut source = StoreSource::open(&store).map_err(|e| e.to_string())?;
    let (verified, verify_s) = repeat("bench.tg-store.verify_payload", reps, || {
        source.reader_mut().verify_payload()
    });
    verified.map_err(|e| e.to_string())?;
    m.put(
        "tg-store.verify_mb_per_s",
        stats.file_bytes as f64 / 1e6 / verify_s,
    );
    let (loaded, read_s) = repeat("bench.tg-store.load_graph", reps, || source.load_graph());
    if loaded.map_err(|e| e.to_string())?.edges() != p.g.edges() {
        return Err("store round trip changed the edges".into());
    }
    m.put("tg-store.read_edges_per_s", edges / read_s);

    let (assembled, assemble_s) = repeat("bench.tg-graph.read_graph", reps, || {
        read_graph(&mut InMemorySource::new(&p.g), DEFAULT_CHUNK_EDGES)
    });
    assembled.map_err(|e| e.to_string())?;
    m.put("tg-graph.assemble_edges_per_s", edges / assemble_s);

    let weighted = p.cfg.sampler.degree_weighted;
    let (_, init_s) = repeat("bench.tg-sampling.initial_new", reps, || {
        InitialNodeSampler::new(&p.g, weighted).population_size()
    });
    m.put("tg-sampling.initial_build_ms", init_s * 1e3);

    // one generated run replayed into the streaming text sink
    let generated = &pipeline.generated;
    let (bytes, write_text_s) = repeat("bench.tg-graph.streaming_accept", reps, || {
        let mut buf = Vec::with_capacity(pipeline.generated_bytes.len());
        let mut sink = StreamingWriterSink::new(&mut buf);
        for t in 0..generated.n_timestamps() as Time {
            sink.accept(t, 0, generated.edges_at(t));
        }
        sink.finish().map(|_| buf.len())
    });
    let bytes = bytes.map_err(|e| e.to_string())?;
    m.put(
        "tg-graph.text_write_mb_per_s",
        bytes as f64 / 1e6 / write_text_s,
    );

    // temporal neighbourhood lookups over one plan's centers
    let window = p.cfg.sampler.time_window;
    let plan = pipeline.run.plan(pipeline.shard.master_seed);
    let centers: Vec<(NodeId, Time)> = plan
        .units()
        .iter()
        .flat_map(|u| u.budgets.iter().map(|&(v, _, _)| (v, u.t)))
        .take(100_000)
        .collect();
    let (found, lookup_s) = timed("bench.tg-graph.temporal_neighbors", || {
        centers
            .iter()
            .map(|&(v, t)| p.g.temporal_neighbors(v, t, window).len())
            .sum::<usize>()
    });
    std::hint::black_box(found);
    m.put(
        "tg-graph.temporal_neighbors_per_s",
        centers.len() as f64 / lookup_s,
    );
    Ok(())
}

/// What the step-wise replay saw, for the faithfulness check and the
/// kernel shapes.
struct ReplayStats {
    mean_slots: f64,
    mean_candidates: f64,
    mean_ego_edges: f64,
}

/// The train stage again, one public call at a time, each in its own
/// span. Same model seed and RNG stream as `Session::train`, so it
/// performs the same steps; the computation graph is built a second
/// time on a cloned RNG (`forward_batch_into` builds its own inside).
/// It runs in two halves with other work in between, so that it and
/// the `Session::train` blocks it is checked against sample the box's
/// speed at interleaved times.
struct TrainReplay<'p> {
    p: &'p Prepared,
    model: Tgae,
    sampler: InitialNodeSampler,
    opt: Adam,
    rng: SmallRng,
    tape: Tape,
    steps_done: usize,
    slots: usize,
    candidates: usize,
    ego_edges: usize,
}

impl<'p> TrainReplay<'p> {
    fn new(p: &'p Prepared) -> Self {
        let mut cfg = p.cfg.clone();
        cfg.seed = p.seed;
        TrainReplay {
            p,
            sampler: InitialNodeSampler::new(&p.g, cfg.sampler.degree_weighted),
            opt: Adam::new(cfg.lr),
            rng: SmallRng::seed_from_u64(cfg.seed ^ TRAIN_STREAM),
            model: Tgae::new(p.g.n_nodes(), p.g.n_timestamps(), cfg),
            tape: Tape::new(),
            steps_done: 0,
            slots: 0,
            candidates: 0,
            ego_edges: 0,
        }
    }

    /// Run steps until `until` of the block's steps are done.
    fn run(&mut self, until: usize) {
        let (g, cfg) = (&self.p.g, self.model.cfg.clone());
        while self.steps_done < until.min(cfg.epochs) {
            let _step = tg_obs::trace::span(STEP);
            let rng = &mut self.rng;
            let (centers, _) = timed(SAMPLE, || self.sampler.sample_batch(cfg.batch_centers, rng));
            timed(CG_TRAIN, || {
                ComputationGraph::build(g, &centers, &cfg.sampler, &mut rng.clone()).n_slots()
            });
            let ((loss, stats), _) = timed(FORWARD, || {
                self.model
                    .forward_batch_into(&mut self.tape, g, &centers, rng)
            });
            let (mut grads, _) = timed(BACKWARD, || self.tape.backward(loss));
            timed(CLIP, || clip_global_norm(&mut grads, cfg.grad_clip));
            timed(ADAM, || self.opt.step(&mut self.model.store, &grads));
            self.tape.recycle(grads);
            self.slots += stats.n_slots;
            self.candidates += stats.n_candidates;
            self.ego_edges += stats.n_edges;
            self.steps_done += 1;
        }
    }

    fn stats(&self) -> ReplayStats {
        let steps = self.steps_done.max(1) as f64;
        ReplayStats {
            mean_slots: self.slots as f64 / steps,
            mean_candidates: self.candidates as f64 / steps,
            mean_ego_edges: self.ego_edges as f64 / steps,
        }
    }
}

/// The generate stage again, unit by unit: plan, then per planned unit
/// the decode on the unit's own seed and the engine's execute of that
/// one unit. Returns whether the replayed stream is the generated one.
fn replay_generate(pipeline: &Pipeline) -> Result<bool, String> {
    let run = &pipeline.run;
    let (model, observed) = (run.model(), run.observed());
    let (plan, _) = repeat("bench.tgae.plan", 3, || {
        run.plan(pipeline.shard.master_seed)
    });
    let engine = SimulationEngine::new(model, observed);
    let mut buf = Vec::with_capacity(pipeline.generated_bytes.len());
    let mut sink = StreamingWriterSink::new(&mut buf);
    for unit in plan.shard_units(&pipeline.shard) {
        let _unit = tg_obs::trace::span(UNIT);
        let centers: Vec<(NodeId, Time)> =
            unit.budgets.iter().map(|&(u, _, _)| (u, unit.t)).collect();
        timed(CG_GEN, || {
            let mut rng = SmallRng::seed_from_u64(unit.seed);
            ComputationGraph::build(observed, &centers, &model.cfg.sampler, &mut rng).n_slots()
        });
        timed(DECODE, || {
            let mut rng = SmallRng::seed_from_u64(unit.seed);
            model
                .decode_rows_for_generation(observed, &centers, &mut rng)
                .0
                .rows()
        });
        timed(EXECUTE, || {
            engine.execute(std::slice::from_ref(unit), &mut sink)
        });
    }
    sink.finish().map_err(|e| e.to_string())?;
    Ok(buf == pipeline.generated_bytes)
}

/// tg-tensor kernels at the workload's own shapes: the score gemm
/// (mean slots × d_model × candidates) and the attention edge softmax.
fn kernel_layers(p: &Prepared, replay: &ReplayStats, m: &mut Layers) {
    let (rows, inner) = (replay.mean_slots.round().max(1.0) as usize, p.cfg.d_model);
    let cols = replay.mean_candidates.round().max(1.0) as usize;
    let fill = |r: usize, c: usize| ((r * 31 + c * 17) % 23) as f32 / 23.0 - 0.5;
    let a = Matrix::from_fn(rows, inner, fill);
    let a_t = Matrix::from_fn(inner, rows, fill);
    let b = Matrix::from_fn(inner, cols, fill);
    let b_t = Matrix::from_fn(cols, inner, fill);
    let flops = 2.0 * rows as f64 * inner as f64 * cols as f64;
    let (_, first) = timed("bench.tg-tensor.matmul_nn", || matmul_nn(&a, &b).rows());
    let reps = reps_for(first).max(3);
    let (_, nn) = repeat("bench.tg-tensor.matmul_nn", reps, || {
        matmul_nn(&a, &b).rows()
    });
    let (_, nt) = repeat("bench.tg-tensor.matmul_nt", reps, || {
        matmul_nt(&a, &b_t).rows()
    });
    let (_, tn) = repeat("bench.tg-tensor.matmul_tn", reps, || {
        matmul_tn(&a_t, &b).rows()
    });
    m.put("tg-tensor.gemm_nn_gflops", flops / nn / 1e9);
    m.put("tg-tensor.gemm_nt_gflops", flops / nt / 1e9);
    m.put("tg-tensor.gemm_tn_gflops", flops / tn / 1e9);

    let n_edges = replay.mean_ego_edges.round().max(1.0) as usize;
    let n_segments = rows.min(n_edges);
    let seg: Rc<Vec<u32>> = Rc::new(
        (0..n_edges)
            .map(|i| (i * n_segments / n_edges) as u32)
            .collect(),
    );
    let scores = Matrix::from_fn(n_edges, 1, fill);
    let mut tape = Tape::new();
    let (_, softmax_s) = repeat("bench.tg-tensor.segment_softmax", 15, || {
        tape.clear();
        let x = tape.input(scores.clone());
        tape.segment_softmax(x, seg.clone(), n_segments)
    });
    m.put(
        "tg-tensor.segment_softmax_edges_per_s",
        n_edges as f64 / softmax_s,
    );
}

/// Model persistence and the cost of one training checkpoint.
fn persistence_layers(
    p: &Prepared,
    pipeline: &Pipeline,
    plain_block_s: f64,
    m: &mut Layers,
) -> Result<(), String> {
    let path = p.dir.join("model.json");
    let (saved, first) = timed("bench.tgae.save", || {
        tgae::save(pipeline.run.model(), &path)
    });
    saved.map_err(|e| e.to_string())?;
    let reps = reps_for(first).min(5);
    let (_, save_s) = repeat("bench.tgae.save", reps, || {
        tgae::save(pipeline.run.model(), &path).is_ok()
    });
    let (loaded, load_s) = repeat("bench.tgae.load", reps, || tgae::load(&path));
    loaded.map_err(|e| e.to_string())?;
    let kib = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64 / 1024.0;
    m.put("tgae.model_save_ms", save_s * 1e3);
    m.put("tgae.model_load_ms", load_s * 1e3);
    m.put("tgae.model_json_kib", kib);

    // one more train block, checkpointing four times along the way
    let cadence = (p.spec.train_steps / 4).max(1);
    let writes = (p.spec.train_steps / cadence) as f64;
    let (block, ckpt_s) = timed("bench.tgae.train_block_checkpointing", || {
        Session::builder(&p.g)
            .config(p.cfg.clone())
            .seed(p.seed)
            .checkpoint(p.dir.join("checkpoint.json"), cadence)
            .build()
            .and_then(|mut s| s.train())
    });
    block.map_err(|e| e.to_string())?;
    m.put(
        "tgae.checkpoint_write_ms",
        (ckpt_s - plain_block_s) / writes * 1e3,
    );
    Ok(())
}

/// tg-serve and tg-obs pieces that need no server: frame codec, model
/// cache, admission control, and the cost of an empty span.
fn serve_unit_layers(p: &Prepared, m: &mut Layers) -> Result<(), String> {
    let mut rows = String::new();
    for e in p.served.observed().edges().iter().cycle().take(4096) {
        rows.push_str(&format!("{} {} {}\n", e.u, e.v, e.t));
    }
    let payload_mb = rows.len() as f64 / 1e6;
    let frame = Frame::edges(rows);
    let mut wire = Vec::new();
    let (encoded, encode_s) = repeat("bench.tg-serve.write_frame", 15, || {
        wire.clear();
        write_frame(&mut wire, &frame)
    });
    encoded.map_err(|e| e.to_string())?;
    let (decoded, decode_s) = repeat("bench.tg-serve.read_frame", 15, || {
        read_frame(&mut &wire[..]).map(|f| f.is_some())
    });
    decoded.map_err(|e| e.to_string())?;
    m.put("tg-serve.frame_encode_mb_per_s", payload_mb / encode_s);
    m.put("tg-serve.frame_decode_mb_per_s", payload_mb / decode_s);

    let cache: ModelCache<SharedRun> = ModelCache::new(1, serve::loader(p.serve_root.clone()));
    let get = |id: &str| cache.get(id).map(|(run, _)| run.observed().n_edges());
    get(serve::RUN_IDS[0]).map_err(|e| e.to_string())?;
    const HITS: usize = 20_000;
    let (_, hits_s) = timed("bench.tg-serve.cache_get_hits", || {
        (0..HITS).filter(|_| get(serve::RUN_IDS[0]).is_ok()).count()
    });
    m.put("tg-serve.cache_hit_us", hits_s / HITS as f64 * 1e6);
    let mut miss_s = Vec::new();
    for i in 0..6 {
        let (out, s) = timed("bench.tg-serve.cache_get_miss", || {
            get(serve::RUN_IDS[(i + 1) % 2])
        });
        out.map_err(|e| e.to_string())?;
        miss_s.push(s);
    }
    m.put("tg-serve.cache_miss_ms", median(&miss_s) * 1e3);

    let admission = AdmissionController::new(1 << 24);
    let cost = p.served.cost_estimate().cost;
    const ADMITS: usize = 200_000;
    let (_, admit_s) = timed("bench.tg-serve.try_admit", || {
        (0..ADMITS)
            .filter(|_| admission.try_admit(cost).is_ok())
            .count()
    });
    m.put("tg-serve.admit_ns", admit_s / ADMITS as f64 * 1e9);

    const EMPTY_SPANS: usize = 50_000;
    let (_, spans_s) = timed("bench.tg-obs.empty_spans", || {
        for _ in 0..EMPTY_SPANS {
            drop(tg_obs::trace::span("bench.tg-obs.empty"));
        }
    });
    m.put("tg-obs.span_cost_ns", spans_s / EMPTY_SPANS as f64 * 1e9);
    Ok(())
}

fn serve_layers(s: &ServeSamples, status: Option<&StatusReport>, m: &mut Layers) {
    m.put(
        "tg-serve.overhead_ms",
        median(&s.warm_ms) - median(&s.direct_ms),
    );
    m.put("tg-serve.ping_rtt_us", median(&s.ping_us));
    m.put(
        "tg-serve.accept_wait_ms",
        (median(&s.fresh_ping_us) - median(&s.ping_us)) / 1e3,
    );
    m.put("tg-serve.warm_p50_ms", median(&s.warm_ms));
    m.put("tg-serve.connect_p50_ms", median(&s.connect_ms));
    m.put("tg-serve.cold_p50_ms", median(&s.cold_ms));
    // p99 only where the sample supports it, else the highest it does
    let tail = highest_supported_percentile(s.warm_ms.len());
    if let Some(p99) = Stat::of(&s.warm_ms, tail, "ms") {
        m.put("tg-serve.warm_p99_ms", p99.value);
    }
    if let Some(status) = status {
        let requests: u64 = status.runs.iter().map(|r| r.requests).sum();
        let bytes: u64 = status.runs.iter().map(|r| r.bytes).sum();
        m.put(
            "tg-serve.bytes_per_request",
            bytes as f64 / requests.max(1) as f64,
        );
        m.put("tg-serve.rejected", status.admission_rejected as f64);
        m.put("tg-serve.cache_misses", status.cache.misses as f64);
    }
}

/// Everything that is derived from the parsed trace file: the per-step
/// and per-unit splits, the replay's faithfulness, and how much of the
/// traced wall the span tree accounts for.
fn trace_layers(
    trace: &Trace,
    replay: &ReplayStats,
    pipeline: &Pipeline,
    traced_wall_s: f64,
    m: &mut Layers,
    tally: &mut Tally,
) {
    let steps = trace.totals(STEP).n.max(1) as f64;
    // the replay's second computation-graph build is the suite's own work
    let step_total = trace.secs(STEP) - trace.secs(CG_TRAIN);
    let per_step_ms = |name: &str| trace.secs(name) / steps * 1e3;
    m.put("tg-sampling.sample_batch_us", per_step_ms(SAMPLE) * 1e3);
    m.put("tg-sampling.cgbuild_ms_per_step", per_step_ms(CG_TRAIN));
    m.put(
        "tg-sampling.cgbuild_share_train",
        trace.secs(CG_TRAIN) / step_total,
    );
    m.put("tg-sampling.slots_per_step", replay.mean_slots);
    m.put("tgae.forward_ms_per_step", per_step_ms(FORWARD));
    // forward_batch_into builds the computation graph itself: the share
    // left after taking that out is the model's own
    m.put(
        "tgae.forward_share",
        (trace.secs(FORWARD) - trace.secs(CG_TRAIN)) / step_total,
    );
    m.put(
        "tgae.train_slots_per_s",
        replay.mean_slots * steps / step_total,
    );
    m.put("tg-tensor.backward_ms_per_step", per_step_ms(BACKWARD));
    m.put(
        "tg-tensor.backward_share",
        trace.secs(BACKWARD) / step_total,
    );
    m.put("tg-tensor.clip_ms_per_step", per_step_ms(CLIP));
    m.put("tg-tensor.optim_ms_per_step", per_step_ms(ADAM));
    m.put("tg-tensor.optim_share", trace.secs(ADAM) / step_total);

    let units = trace.totals(UNIT).n.max(1) as f64;
    let execute = trace.secs(EXECUTE);
    let decode_share = trace.secs(DECODE) / execute;
    m.put(
        "tgae.plan_ms",
        median(&trace.durations("bench.tgae.plan")) * 1e3,
    );
    m.put("tgae.decode_ms_per_unit", trace.secs(DECODE) / units * 1e3);
    m.put("tgae.decode_share", decode_share);
    m.put("tgae.sample_sink_share", (1.0 - decode_share).max(0.0));
    m.put(
        "tg-sampling.cgbuild_share_generate",
        trace.secs(CG_GEN) / execute,
    );

    // faithful means: the replay did Session::train's work (same mean
    // slots per step) in Session::train's time. The work is checked and
    // fails the run; the time — median step wall against the median of
    // the program's own `train.epoch` spans in the same file — is
    // reported and flagged, but cannot fail it: the two are measured
    // seconds apart, and this box runs identical work up to 1.5x slower
    // for seconds to minutes at a time.
    let replay_steps: Vec<f64> = trace
        .durations(STEP)
        .iter()
        .zip(trace.durations(CG_TRAIN))
        .map(|(step, cg)| step - cg)
        .collect();
    let slots_err = rel_err(replay.mean_slots, pipeline.report.mean_batch_slots);
    let step_err = rel_err(
        median(&replay_steps),
        median(&trace.durations("train.epoch")),
    );
    m.put("suite.replay_slots_rel_err", slots_err);
    m.put("suite.replay_step_rel_err", step_err);
    tally.check(
        "step-wise replay does Session::train's work (slots within 5 %)",
        slots_err <= 0.05,
    );
    if step_err > 0.15 {
        println!(
            "unfaithful: the replay's median step took {:.0} % off Session::train's; \
             the train-step shares of this run were measured at another speed",
            step_err * 100.0
        );
    }

    let covered = trace
        .first(ROOT)
        .map_or(0.0, |root| trace.subtree_self_ns(root.id) as f64 / 1e9);
    let coverage = covered / traced_wall_s;
    m.put("suite.self_time_coverage", coverage);
    tally.check(
        "self times sum to the traced wall within 10 %",
        (coverage - 1.0).abs() <= 0.10,
    );
    m.put("tg-obs.spans_recorded", trace.len() as f64);
}

/// One generation at full pool width in a child process: 1 if it
/// panicked, hung or was killed, 0 if it finished.
fn generate_par_failed(p: &Prepared, pipeline: &Pipeline) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .arg(PAR_CHILD)
        .arg("--model")
        .arg(p.dir.join("model.json"))
        .arg("--edges")
        .arg(&p.text_path)
        .args(["--master", &pipeline.shard.master_seed.to_string()])
        .args(["--shards", &p.spec.gen_shards.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| e.to_string())?;
    let deadline = Instant::now() + Duration::from_secs(90);
    loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => return Ok(if status.success() { 0.0 } else { 1.0 }),
            None if Instant::now() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return Ok(1.0);
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// The `par-child` subcommand: load the saved model, pin the pool to
/// every core, generate once. `Ok(false)` (exit code 1) on a panic.
pub fn par_child(options: &BTreeMap<String, String>) -> Res<bool> {
    let get = |key: &str| {
        options
            .get(key)
            .ok_or_else(|| SuiteError::Usage(format!("{PAR_CHILD} needs --{key}")))
    };
    let number = |key: &str| -> Res<u64> { get(key)?.parse().map_err(fail(format!("--{key}"))) };
    let model = tgae::load(get("model")?).map_err(fail("load model"))?;
    let observed = load_edge_list_exact(get("edges")?, model.n_nodes, model.n_timestamps)
        .map_err(fail("load observed edges"))?;
    let run = SharedRun::new(model, observed).map_err(fail("assemble run"))?;
    let shard = shard_of(&run, number("master")?, number("shards")?.max(1) as usize);
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _pin = ThreadPin::new(width);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let sink = StreamingWriterSink::new(std::io::sink());
        tgae::generate_shard_with_sink(run.model(), run.observed(), &shard, sink).is_ok()
    }));
    Ok(matches!(outcome, Ok(true)))
}

/// Traced against untraced, fastest sample of each: interference only
/// ever slows a sample down, so the minima are the comparable ends.
fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    let fastest = |s: &[f64]| s.iter().copied().fold(f64::INFINITY, f64::min);
    (fastest(traced) - fastest(untraced)) / fastest(untraced) * 100.0
}

/// The traced run of one workload: per-layer metrics, `trace.json` and
/// the top self-time table.
pub fn run_traced(
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    dir: &Path,
    out_dir: &Path,
) -> Res<WorkloadResult> {
    let t0 = Instant::now();
    let mut tally = Tally::default();
    let p = setup(spec, seed, dir, &mut tally)?;
    let full = spec.reps(seconds);
    let mut m = Layers(BTreeMap::new());
    let mut result = WorkloadResult::default();

    // the same stage calls untraced first: tracing is a one-way switch,
    // and the difference to the traced pass is the tracer's overhead
    let reference_reps = Reps {
        train: (full.train / 2).clamp(1, 2),
        generate: (full.generate / 2).clamp(1, 3),
        ..full
    };
    let mut reference = Stages::new(&p);
    for _ in 0..reference_reps.train {
        reference.train(&mut tally);
    }
    for _ in 0..reference_reps.generate {
        reference.generate(&mut tally);
    }
    let untraced = reference.samples;

    let jsonl = dir.join("trace.jsonl");
    tg_obs::trace::install(&jsonl, spec.name).map_err(fail("install the trace sink"))?;
    let traced_t0 = Instant::now();
    let root = tg_obs::trace::span(ROOT);

    let mut stages = Stages::new(&p);
    stages.ingest(&mut tally);
    for _ in 0..reference_reps.train {
        stages.train(&mut tally);
    }
    for _ in 0..reference_reps.generate {
        stages.generate(&mut tally);
    }
    stages.evaluate(&mut tally);
    let fingerprint = stages.fingerprint;
    let traced = std::mem::take(&mut stages.samples);
    let Some(pipeline) = stages.into_pipeline() else {
        tally.check("pipeline ran to the end", false);
        finish(&mut result, &tally, &fingerprint, t0);
        return Ok(result);
    };
    m.put(
        "tg-obs.trace_overhead_train_pct",
        overhead_pct(&traced.train, &untraced.train),
    );
    m.put(
        "tg-obs.trace_overhead_generate_pct",
        overhead_pct(&traced.generate, &untraced.generate),
    );
    let generate_s = median(&untraced.generate);
    let plan = pipeline.run.plan(pipeline.shard.master_seed);
    let units = plan.shard_units(&pipeline.shard).len() as f64;
    let edges = plan.shard_cost_estimate(&pipeline.shard).edges as f64;
    m.put("tgae.units_per_s", units / generate_s);
    m.put("tgae.gen_edges_per_s", edges / generate_s);
    // SharedRun::evaluate is tg_metrics::evaluate behind two shape checks
    m.put("tg-metrics.evaluate_ms", median(&traced.evaluate) * 1e3);

    tally.op("layers: ingest", || ingest_layers(&p, &pipeline, &mut m));
    let steps = spec.train_steps;
    let mut replay = TrainReplay::new(&p);
    tally.op("layers: step-wise train replay, first half", || {
        replay.run(steps / 2);
        Ok(())
    });
    let replayed = tally.op("layers: unit-wise generate replay", || {
        replay_generate(&pipeline)
    });
    tally.check(
        "unit-wise replay reproduces the generated bytes",
        replayed == Some(true),
    );
    let collected = tally.op("generate into GraphSink", || {
        Ok(generate_graph(&pipeline.run, &pipeline.shard))
    });
    tally.check(
        "streamed edges are GraphSink's edges",
        collected.is_some_and(|g| g.edges() == pipeline.generated.edges()),
    );
    tally.op("layers: metric time series", || {
        let (series, secs) = timed("bench.tg-metrics.metric_timeseries", || {
            tg_metrics::metric_timeseries(&p.g).len()
        });
        m.put(
            "tg-metrics.timeseries_edges_per_s",
            p.g.n_edges() as f64 / secs,
        );
        if series == 7 {
            Ok(())
        } else {
            Err(format!("{series} metric series, expected 7"))
        }
    });
    let plain_block_s = median(&traced.train);
    tally.op("layers: persistence", || {
        persistence_layers(&p, &pipeline, plain_block_s, &mut m)
    });
    tally.op("layers: step-wise train replay, second half", || {
        replay.run(steps);
        Ok(())
    });
    let replay = replay.stats();
    tally.op("layers: kernels", || {
        kernel_layers(&p, &replay, &mut m);
        Ok(())
    });
    tally.op("layers: serve units", || serve_unit_layers(&p, &mut m));
    if let Some(live) = serve::start(&p.serve_root, &mut tally) {
        let counts = spec.serve_counts(seconds);
        let mut requests = live.requests(&p);
        let ops = [
            (Op::Direct, counts.direct),
            (Op::Warm, counts.warm),
            (Op::Cold, counts.cold.div_ceil(2)),
            (Op::Connect, counts.connect),
        ];
        interleave(&ops, |op, _round, first_of_round| match op {
            Op::Direct => requests.direct(&mut tally),
            Op::Warm => requests.warm(first_of_round, &mut tally),
            Op::Connect => requests.connect(&mut tally),
            _ => requests.cold(&mut tally),
        });
        let mut samples = requests.samples;
        live.pings(&mut samples, &mut tally);
        let status = live.status(&mut tally);
        live.stop(&mut tally);
        serve_layers(&samples, status.as_ref(), &mut m);
    }

    drop(root);
    let traced_wall_s = traced_t0.elapsed().as_secs_f64();
    tg_obs::trace::flush().map_err(fail("flush the trace"))?;
    let text = std::fs::read_to_string(&jsonl).map_err(fail("read the trace back"))?;
    let trace = Trace::new(parse_jsonl(&text));
    trace_layers(
        &trace,
        &replay,
        &pipeline,
        traced_wall_s,
        &mut m,
        &mut tally,
    );
    let chrome = out_dir.join(format!("{}.trace.json", spec.name));
    let merged = tally.op("write trace.json", || {
        tg_obs::chrome::merge_traces(std::slice::from_ref(&jsonl), &chrome)
    });
    if merged.is_some() {
        println!("wrote {}", chrome.display());
    }
    println!("top self times:\n{}", trace.top_table(16));

    // in a process of its own, and counted in neither tally: at this
    // commit generation at pool width > 1 is expected to panic
    match generate_par_failed(&p, &pipeline) {
        Ok(failed) => m.put("tgae.generate_par_failed", failed),
        Err(e) => eprintln!("could not run the pool-width probe: {e}"),
    }

    for (name, _) in &PER_LAYER {
        if !m.0.contains_key(*name) {
            tally.check(name, false);
        }
    }
    result.per_layer = m.0;
    finish(&mut result, &tally, &fingerprint, t0);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (name, unit) in &PER_LAYER {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn overhead_is_relative_to_the_fastest_untraced_sample() {
        assert!((overhead_pct(&[1.2, 1.5], &[1.3, 1.0]) - 20.0).abs() < 1e-9);
        assert!(overhead_pct(&[0.9], &[1.0]) < 0.0);
        assert_eq!(rel_err(1.1, 1.0), 0.10000000000000009);
    }

    #[test]
    fn rep_counts_fit_the_budget() {
        assert_eq!(reps_for(1.0), 1);
        assert_eq!(reps_for(0.02), 3);
        assert_eq!(reps_for(1e-6), 15);
    }
}
