//! The sharded streaming simulation engine — temporal graph assembly
//! and generation, paper §IV-G, as an explicit **plan → execute → emit**
//! pipeline.
//!
//! After training, every observed temporal node `(u, t)` with positive
//! out-degree is decoded into a categorical edge distribution
//! `p(t, u, ·)`, and its observed out-degree worth of targets is drawn
//! **without replacement** (`A'_ut ~ Cat(...)`). Generation finishes when
//! the per-timestamp edge budget matches the observed graph — so the
//! synthetic graph has exactly the same number of temporal edges per
//! snapshot, and the evaluation compares structure rather than volume.
//! With `n > dense_cutoff` the distribution is restricted to a candidate
//! set (the observed temporal neighborhood plus uniform negatives), which
//! keeps assembly memory far below the `O(T n^2)` dense score matrix.
//!
//! The stages are separate so each can scale independently:
//!
//! 1. **Plan** ([`SimulationPlan`]): a deterministic *shard manifest* of
//!    work units, each `(timestamp, chunk, SplitMix64-derived seed,
//!    per-source budgets)`. The plan is a pure function of the observed
//!    graph, the chunk size, and a master seed: planning twice with the
//!    same inputs gives the same units, so a shard of one plan (below)
//!    holds the same units however the plan is cut.
//! 2. **Execute** ([`SimulationEngine::execute`]): run any subset of
//!    units on the worker pool. Each unit decodes its centers onto its
//!    worker's tape ([`tg_tensor::tape::Tape::with_thread_local`]) —
//!    gathering from the parameter tables only the rows it scores —
//!    and samples its edges from the probability rows where they lie on
//!    that tape, with its own RNG stream, so results are bit-identical
//!    at any thread count and any unit partition. The tape frees the
//!    unit's buffers when the unit finishes. Units are processed in
//!    bounded windows (a few per worker), so the number of in-flight edge
//!    buffers — and therefore peak memory with a streaming sink — is
//!    independent of the total edge count.
//! 3. **Emit** ([`EdgeSink`]): finished units are handed to the sink *in
//!    plan order* regardless of execution interleaving. `GraphSink`
//!    rebuilds the classic in-memory graph; `StreamingWriterSink` writes
//!    edge-list text with bounded memory; `tg_metrics::StatsSink` keeps
//!    only the Table III statistics of each accumulated snapshot.
//!
//! # Sharding
//!
//! A shard is a contiguous timestamp range of one plan:
//! [`SimulationPlan::shards`] partitions the timestamp axis into ranges
//! balanced by observed edge count, and a [`ShardSpec`] is the master
//! seed plus one such range. [`generate_shard_with_sink`] runs a shard.
//! Because per-unit RNG streams depend only on `(master, t, chunk)`, and
//! shards partition the plan in order, concatenating the shards' outputs
//! in shard order gives the whole run's bytes **bit-identically**;
//! `examples/simulate.rs` and `tests/engine_determinism.rs` check this.
//!
//! [`generate_shard_with_sink`] is the one function that runs the
//! pipeline; [`SharedRun`](crate::shared::SharedRun) calls it with the
//! whole-horizon spec `[0, T)`.

use crate::model::Tgae;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tg_graph::sink::EdgeSink;
use tg_graph::{NodeId, TemporalEdge, TemporalGraph, Time};
use tg_tensor::init::sample_categorical_with_total;
use tg_tensor::parallel::{num_threads, par_map};
use tg_tensor::tape::Tape;

/// SplitMix64 finalizer: decorrelates the per-chunk seeds derived from
/// `(master, t, chunk)` so neighboring chunks get unrelated streams.
pub fn mix_seed(master: u64, t: u64, chunk: u64) -> u64 {
    let mut z = master ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ chunk.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One unit of the shard manifest: a center chunk at one timestamp, with
/// its derived RNG seed and the `(source, total, distinct)` out-degree
/// budgets the sampler must honor.
#[derive(Clone, Debug)]
pub struct PlannedUnit {
    /// Timestamp every edge of this unit will carry.
    pub t: Time,
    /// Chunk index within the timestamp (plan order key).
    pub chunk: u32,
    /// SplitMix64-derived seed of this unit's private RNG stream.
    pub seed: u64,
    /// Per-source budgets: `(source, total out-edges, distinct targets)`.
    pub budgets: Vec<(NodeId, usize, usize)>,
}

/// One shard of the manifest: a contiguous timestamp range plus the
/// master seed the plan was derived from. [`generate_shard_with_sink`]
/// runs it over the model and the observed graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Master seed the manifest derives every unit seed from.
    pub master_seed: u64,
    /// First timestamp of the shard (inclusive).
    pub t_begin: Time,
    /// One past the last timestamp of the shard (exclusive).
    pub t_end: Time,
    /// This shard's index in `0..n_shards` (file naming / bookkeeping).
    pub shard: u32,
    /// Total number of shards in the partition.
    pub n_shards: u32,
}

/// The deterministic shard manifest: every work unit of one generation
/// run, in emission order (timestamps ascending, chunks ascending).
#[derive(Clone, Debug)]
pub struct SimulationPlan {
    master_seed: u64,
    units: Vec<PlannedUnit>,
    /// Observed edges per timestamp (shard balancing weights).
    edges_per_t: Vec<usize>,
}

impl SimulationPlan {
    /// Plan the generation of a graph mirroring `observed`, chunking
    /// centers into groups of `batch_centers` (floored at 32, like the
    /// training batch), with all unit seeds derived from `master_seed`.
    ///
    /// Planning is cheap (one pass over the edge list) and **pure**:
    /// identical inputs give an identical manifest.
    pub fn new(observed: &TemporalGraph, batch_centers: usize, master_seed: u64) -> Self {
        let batch = batch_centers.max(32);
        let mut units: Vec<PlannedUnit> = Vec::new();
        for t in 0..observed.n_timestamps() as Time {
            let slice = observed.edges_at(t);
            if slice.is_empty() {
                continue;
            }
            // per-source budgets at t: total out-edges and distinct targets
            // (temporal graphs are multigraphs — EMAIL-like data re-fires
            // the same pair within one snapshot, and the simulation must
            // too)
            let mut budgets: Vec<(NodeId, usize, usize)> = Vec::new();
            let mut last_target: Option<NodeId> = None;
            for e in slice {
                match budgets.last_mut() {
                    Some((u, total, distinct)) if *u == e.u => {
                        *total += 1;
                        if last_target != Some(e.v) {
                            *distinct += 1;
                        }
                    }
                    _ => budgets.push((e.u, 1, 1)),
                }
                last_target = Some(e.v);
            }
            for (ci, chunk) in budgets.chunks(batch).enumerate() {
                units.push(PlannedUnit {
                    t,
                    chunk: ci as u32,
                    seed: mix_seed(master_seed, t as u64, ci as u64),
                    budgets: chunk.to_vec(),
                });
            }
        }
        SimulationPlan {
            master_seed,
            units,
            edges_per_t: observed.edge_counts_per_timestamp(),
        }
    }

    /// The master seed every unit seed derives from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// All work units, in emission order.
    pub fn units(&self) -> &[PlannedUnit] {
        &self.units
    }

    /// Total edges the executed plan will emit (the observed budget).
    pub fn n_edges(&self) -> usize {
        self.edges_per_t.iter().sum()
    }

    /// Partition the timestamp axis into `n_shards` contiguous ranges,
    /// greedily balanced by observed edge count. Every timestamp lands in
    /// exactly one shard; a shard may be **empty** (zero timestamps) when
    /// `n_shards` exceeds the number of non-empty timestamps or when one
    /// timestamp holds more than its proportional edge share (a skewed
    /// snapshot can exhaust several shards' targets at once — the empty
    /// shard is not necessarily trailing). Deterministic: the same plan
    /// and `n_shards` give the same partition.
    pub fn shards(&self, n_shards: usize) -> Vec<ShardSpec> {
        assert!(n_shards > 0, "need at least one shard");
        let t_count = self.edges_per_t.len() as Time;
        let total: usize = self.n_edges();
        let mut specs = Vec::with_capacity(n_shards);
        let mut t_begin: Time = 0;
        let mut seen = 0usize;
        for s in 0..n_shards as u32 {
            // advance until this shard holds its proportional edge share
            let target = (total as f64 * (s + 1) as f64 / n_shards as f64).round() as usize;
            let mut t_end = t_begin;
            while t_end < t_count && (seen < target || s as usize + 1 == n_shards) {
                seen += self.edges_per_t[t_end as usize];
                t_end += 1;
            }
            specs.push(ShardSpec {
                master_seed: self.master_seed,
                t_begin,
                t_end,
                shard: s,
                n_shards: n_shards as u32,
            });
            t_begin = t_end;
        }
        specs
    }

    /// The contiguous slice of units covered by `spec` (units are sorted
    /// by timestamp, so a timestamp range is a plan subslice).
    pub fn shard_units(&self, spec: &ShardSpec) -> &[PlannedUnit] {
        assert_eq!(
            spec.master_seed, self.master_seed,
            "shard spec belongs to a different plan"
        );
        let lo = self.units.partition_point(|u| u.t < spec.t_begin);
        let hi = self.units.partition_point(|u| u.t < spec.t_end);
        &self.units[lo..hi]
    }
}

/// A cheap, **monotone** workload estimate for executing a set of planned
/// units — the admission currency of the `tg-serve` scheduler.
///
/// The component counts are exact (the plan already knows every unit's
/// budgets); `cost` folds them into one scalar with fixed positive
/// weights, so it is
///
/// - **monotone**: adding a timestamp, splitting into more chunks
///   (smaller `batch_centers`), or growing any per-source budget can only
///   increase the estimate, never decrease it;
/// - **additive**: the estimates of the shards of a partition sum exactly
///   to the estimate of the whole plan (shards partition the unit list).
///
/// The weights model the execute path: every emitted edge costs a sample,
/// every center a decode row, and every unit a fixed dispatch/RNG-setup
/// overhead.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Work units (center chunks) the plan executes.
    pub units: u64,
    /// Center rows decoded across all units.
    pub centers: u64,
    /// Edges the executed units will emit (the observed budget).
    pub edges: u64,
    /// The folded scalar: `edges + 8·centers + 64·units`.
    pub cost: u64,
}

/// Per-center decode weight in [`CostEstimate::cost`].
const COST_PER_CENTER: u64 = 8;
/// Per-unit dispatch weight in [`CostEstimate::cost`].
const COST_PER_UNIT: u64 = 64;

impl CostEstimate {
    /// Estimate the cost of executing exactly `units`.
    pub fn of_units(units: &[PlannedUnit]) -> CostEstimate {
        let mut centers = 0u64;
        let mut edges = 0u64;
        for unit in units {
            centers += unit.budgets.len() as u64;
            edges += unit
                .budgets
                .iter()
                .map(|&(_, total, _)| total as u64)
                .sum::<u64>();
        }
        let n_units = units.len() as u64;
        CostEstimate {
            units: n_units,
            centers,
            edges,
            cost: edges + COST_PER_CENTER * centers + COST_PER_UNIT * n_units,
        }
    }
}

impl SimulationPlan {
    /// Workload estimate of executing the whole manifest. Independent of
    /// the master seed (seeds never change budgets or chunking), so a
    /// scheduler can price a request before committing to run it.
    pub fn cost_estimate(&self) -> CostEstimate {
        CostEstimate::of_units(&self.units)
    }

    /// Workload estimate of one shard of the manifest. Shard estimates
    /// sum exactly to [`SimulationPlan::cost_estimate`] across a
    /// partition.
    pub fn shard_cost_estimate(&self, spec: &ShardSpec) -> CostEstimate {
        CostEstimate::of_units(self.shard_units(spec))
    }
}

/// Drives a [`SimulationPlan`] through a trained model into an
/// [`EdgeSink`]. Stateless besides the two borrows, so engines are free
/// to construct per call.
pub struct SimulationEngine<'a> {
    model: &'a Tgae,
    observed: &'a TemporalGraph,
}

impl<'a> SimulationEngine<'a> {
    /// Engine over a trained model and the observed graph it mirrors.
    /// Panics if the model was shaped for a different graph.
    pub fn new(model: &'a Tgae, observed: &'a TemporalGraph) -> Self {
        assert_eq!(model.n_nodes, observed.n_nodes(), "node-count mismatch");
        assert_eq!(
            model.n_timestamps,
            observed.n_timestamps(),
            "timestamp-count mismatch"
        );
        SimulationEngine { model, observed }
    }

    /// Plan the full run under `master_seed` (chunk size comes from the
    /// model's `batch_centers`).
    pub fn plan(&self, master_seed: u64) -> SimulationPlan {
        SimulationPlan::new(self.observed, self.model.cfg.batch_centers, master_seed)
    }

    /// Execute a set of units on the worker pool, emitting each finished
    /// unit into `sink` in plan order.
    ///
    /// Units run in **bounded windows** of a few per worker: within a
    /// window everything executes in parallel, then the window's outputs
    /// are emitted in order and their buffers dropped before the next
    /// window starts. With a non-accumulating sink this caps peak memory
    /// at `O(window × chunk edges)` no matter how many edges the plan
    /// emits in total.
    pub fn execute<S: EdgeSink>(&self, units: &[PlannedUnit], sink: &mut S) {
        let _span = tg_obs::trace::span("engine.execute");
        let window = num_threads().max(1) * 4;
        for group in units.chunks(window) {
            let outs: Vec<Vec<TemporalEdge>> = par_map(group.len(), |i| {
                // Worker-thread span: lands in that thread's trace
                // buffer. Inert (no clock read, no allocation) unless a
                // trace sink is installed.
                let _span = tg_obs::trace::span("engine.unit");
                self.execute_unit(&group[i])
            });
            for (unit, edges) in group.iter().zip(&outs) {
                sink.accept(unit.t, unit.chunk, edges);
            }
        }
    }

    /// Decode and sample one unit with its private RNG stream. Pure given
    /// the trained model: the same unit always yields the same edges.
    ///
    /// The unit's probability rows are sampled inside the scope of this
    /// worker's thread-local tape that decoded them and are dropped with
    /// it; besides them, a unit owns its edge list and three scratch
    /// vectors reused across its rows. The unit RNG is consumed in a fixed
    /// order: computation-graph sampling, negative candidates, then one
    /// variate per drawn edge, row by row.
    fn execute_unit(&self, unit: &PlannedUnit) -> Vec<TemporalEdge> {
        let t = unit.t;
        let mut rng = SmallRng::seed_from_u64(unit.seed);
        let centers: Vec<(NodeId, Time)> = unit.budgets.iter().map(|&(u, _, _)| (u, t)).collect();
        let n_edges = unit.budgets.iter().map(|&(_, total, _)| total).sum();
        let mut edges: Vec<TemporalEdge> = Vec::with_capacity(n_edges);
        Tape::with_thread_local(|tape| {
            let (probs, cands) =
                self.model
                    .generation_rows(tape, self.observed, &centers, &mut rng);
            let _draw = tg_obs::trace::span("unit.draw");
            let mut scratch = RowSampler::default();
            for (row, &budget) in unit.budgets.iter().enumerate() {
                scratch.sample(&mut rng, probs.row(row), &cands, budget, |v| {
                    edges.push(TemporalEdge::new(budget.0, v, t))
                });
            }
        });
        edges
    }
}

/// The per-row categorical sampler of a unit: scratch buffers that live
/// for the unit and are refilled for every row.
#[derive(Default)]
struct RowSampler {
    /// The row's weights over the candidates, drawn picks zeroed.
    w: Vec<f64>,
    /// Candidate columns of the sampled support, in draw order.
    support: Vec<usize>,
    /// The support's weights (the multiplicity distribution).
    sup_w: Vec<f64>,
}

impl RowSampler {
    /// Draw the out-edges of one `(source, total, distinct)` budget from
    /// the source's probability row and hand each target to `emit`:
    /// `distinct` targets without replacement (§IV-G) — fewer if the row
    /// has fewer positive weights — then the remaining `total - distinct`
    /// edges re-fire within that support, weighted by `p`. Self-loops are
    /// excluded. Consumes one variate per emitted edge and sums the
    /// weights once per draw; the picks are those of
    /// [`sample_categorical_without_replacement`] followed by
    /// [`sample_categorical`] over the support.
    ///
    /// [`sample_categorical_without_replacement`]: tg_tensor::init::sample_categorical_without_replacement
    /// [`sample_categorical`]: tg_tensor::init::sample_categorical
    fn sample<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        probs: &[f32],
        cands: &[u32],
        (u, total, distinct): (NodeId, usize, usize),
        mut emit: impl FnMut(NodeId),
    ) {
        // one pass: widen, zero the self-loop column, count the positives
        self.w.clear();
        let mut positives = 0usize;
        self.w.extend(probs.iter().zip(cands).map(|(&p, &cand)| {
            let w = if cand == u { 0.0 } else { p as f64 };
            positives += usize::from(w > 0.0);
            w
        }));
        let take = distinct.min(positives);
        self.support.clear();
        for _ in 0..take {
            // positive: fewer than `positives` columns are zeroed so far
            let sum: f64 = self.w.iter().sum();
            let col = sample_categorical_with_total(rng, &self.w, sum);
            self.w[col] = 0.0;
            self.support.push(col);
            emit(cands[col]);
        }
        if total > take && !self.support.is_empty() {
            self.sup_w.clear();
            self.sup_w
                .extend(self.support.iter().map(|&col| probs[col] as f64));
            let sum: f64 = self.sup_w.iter().sum();
            assert!(sum > 0.0, "sample_categorical: all-zero weights");
            for _ in 0..(total - take) {
                let pick = sample_categorical_with_total(rng, &self.sup_w, sum);
                emit(cands[self.support[pick]]);
            }
        }
    }
}

/// Execute one shard of the manifest into `sink` and finish it — the one
/// way a simulation runs. The plan is recomputed deterministically from
/// `spec.master_seed`, so the outputs of a plan's shards, concatenated in
/// shard order, are bit-identical to a single run over the whole horizon
/// `[0, T)`. Pair it with any [`EdgeSink`]: `GraphSink` rebuilds an
/// in-memory graph, `StreamingWriterSink` bounds memory,
/// `tg_metrics::StatsSink` keeps statistics and no edge list.
pub fn generate_shard_with_sink<S: EdgeSink>(
    model: &Tgae,
    observed: &TemporalGraph,
    spec: &ShardSpec,
    mut sink: S,
) -> S::Output {
    let _span = tg_obs::trace::span("engine.generate_shard");
    let engine = SimulationEngine::new(model, observed);
    let plan = engine.plan(spec.master_seed);
    engine.execute(plan.shard_units(spec), &mut sink);
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TgaeConfig;
    use crate::session::Session;
    use crate::shared::SharedRun;
    use tg_graph::sink::GraphSink;
    use tg_tensor::parallel::ThreadPin;

    /// Train the tiny config over `g` and hand the run off for simulation.
    fn trained_run(g: &TemporalGraph, epochs: usize, batch_centers: usize) -> SharedRun {
        let mut cfg = TgaeConfig::tiny();
        cfg.epochs = epochs;
        cfg.batch_centers = batch_centers;
        let mut s = Session::builder(g).config(cfg).build().expect("session");
        s.train().expect("train");
        s.into_shared()
    }

    fn graph_sink(g: &TemporalGraph) -> GraphSink {
        GraphSink::new(g.n_nodes(), g.n_timestamps())
    }

    /// The edges of one seeded simulation with the pool pinned to `threads`.
    fn edges_at_width(run: &SharedRun, master: u64, threads: usize) -> Vec<TemporalEdge> {
        let _pin = ThreadPin::new(threads);
        let gen = run.simulate_seeded(master, graph_sink(run.observed()));
        gen.expect("simulate").edges().to_vec()
    }

    fn ring_graph(n: u32, t_count: u32) -> TemporalGraph {
        let mut edges = Vec::new();
        for t in 0..t_count {
            for u in 0..n {
                edges.push(TemporalEdge::new(u, (u + 1) % n, t));
            }
        }
        TemporalGraph::from_edges(n as usize, t_count as usize, edges)
    }

    /// One row sampled the way `execute_unit` composed the `tg-tensor`
    /// samplers before [`RowSampler`]: fresh weight vectors per row, the
    /// support drawn by `sample_categorical_without_replacement`, the
    /// multiplicity by `sample_categorical` over the support's weights.
    fn reference_row(
        rng: &mut SmallRng,
        probs: &[f32],
        cands: &[u32],
        (u, total, distinct): (NodeId, usize, usize),
    ) -> Vec<NodeId> {
        use tg_tensor::init::{sample_categorical, sample_categorical_without_replacement};
        let mut w: Vec<f64> = probs.iter().map(|&p| p as f64).collect();
        for (col, &cand) in cands.iter().enumerate() {
            if cand == u {
                w[col] = 0.0;
            }
        }
        let take = distinct.min(w.iter().filter(|&&x| x > 0.0).count());
        let support = sample_categorical_without_replacement(rng, &w, take);
        let mut targets: Vec<NodeId> = support.iter().map(|&col| cands[col]).collect();
        if total > take && !support.is_empty() {
            let sup_w: Vec<f64> = support.iter().map(|&col| w[col]).collect();
            for _ in 0..(total - take) {
                targets.push(cands[support[sample_categorical(rng, &sup_w)]]);
            }
        }
        targets
    }

    #[test]
    fn row_sampler_draws_what_the_composed_samplers_drew() {
        let mut gen = SmallRng::seed_from_u64(2024);
        let mut scratch = RowSampler::default(); // reused across rows, as in a unit
        let (mut multi, mut short, mut empty) = (0, 0, 0);
        for case in 0..400u64 {
            let n = gen.gen_range(1..40usize);
            // distinct candidate ids in a shuffled-looking order
            let cands: Vec<u32> = (0..n as u32).map(|i| (i * 7 + 3) % 41).collect();
            let zero_share = [0.0, 0.3, 0.9, 1.0][case as usize % 4];
            let probs: Vec<f32> = (0..n)
                .map(|_| {
                    let p = gen.gen::<f32>();
                    if gen.gen::<f64>() < zero_share {
                        0.0
                    } else {
                        p
                    }
                })
                .collect();
            // the source is a candidate in half of the cases
            let u = if case % 2 == 0 { cands[n / 2] } else { 1000 };
            let distinct = gen.gen_range(1..8usize);
            let total = distinct + [0, 0, 1, 5][gen.gen_range(0..4usize)];
            let budget = (u, total, distinct);

            let mut rng_ref = SmallRng::seed_from_u64(case);
            let mut rng_new = SmallRng::seed_from_u64(case);
            let want = reference_row(&mut rng_ref, &probs, &cands, budget);
            let mut got = Vec::new();
            scratch.sample(&mut rng_new, &probs, &cands, budget, |v| got.push(v));
            assert_eq!(got, want, "case {case}");
            assert_eq!(rng_new.state(), rng_ref.state(), "case {case}: rng");
            assert!(got.iter().all(|&v| v != u), "case {case}: self-loop");

            let positives = (0..n).filter(|&c| probs[c] > 0.0 && cands[c] != u).count();
            multi += usize::from(total > distinct && positives > 0);
            short += usize::from(positives > 0 && positives < distinct);
            empty += usize::from(positives == 0);
            if positives == 0 {
                assert!(got.is_empty());
                assert_eq!(rng_new.state(), SmallRng::seed_from_u64(case).state());
            }
        }
        // the generator above must actually reach every branch
        assert!(
            multi > 50 && short > 20 && empty > 20,
            "{multi} {short} {empty}"
        );
    }

    #[test]
    fn plan_is_deterministic_and_ordered() {
        let g = ring_graph(12, 4);
        let a = SimulationPlan::new(&g, 4, 99);
        let b = SimulationPlan::new(&g, 4, 99);
        assert_eq!(a.units().len(), b.units().len());
        assert!(!a.units().is_empty());
        for (ua, ub) in a.units().iter().zip(b.units()) {
            assert_eq!((ua.t, ua.chunk, ua.seed), (ub.t, ub.chunk, ub.seed));
            assert_eq!(ua.budgets, ub.budgets);
        }
        // emission order: (t, chunk) strictly increasing lexicographically
        for w in a.units().windows(2) {
            assert!((w[0].t, w[0].chunk) < (w[1].t, w[1].chunk));
        }
        // different master seed -> different unit seeds
        let c = SimulationPlan::new(&g, 4, 100);
        assert_ne!(a.units()[0].seed, c.units()[0].seed);
    }

    #[test]
    fn shards_partition_the_plan() {
        let g = ring_graph(10, 5);
        let plan = SimulationPlan::new(&g, 4, 7);
        for n_shards in [1usize, 2, 3, 4, 7] {
            let specs = plan.shards(n_shards);
            assert_eq!(specs.len(), n_shards);
            assert_eq!(specs[0].t_begin, 0);
            assert_eq!(specs.last().unwrap().t_end as usize, g.n_timestamps());
            let mut covered = 0usize;
            for (i, s) in specs.iter().enumerate() {
                assert!(s.t_begin <= s.t_end);
                if i > 0 {
                    assert_eq!(s.t_begin, specs[i - 1].t_end, "contiguous ranges");
                }
                covered += plan.shard_units(s).len();
            }
            assert_eq!(covered, plan.units().len(), "{n_shards} shards");
        }
    }

    #[test]
    fn shards_beyond_timestamps_leave_trailing_empties() {
        let g = ring_graph(6, 2);
        let plan = SimulationPlan::new(&g, 4, 1);
        let specs = plan.shards(5);
        assert_eq!(specs.len(), 5);
        let non_empty = specs
            .iter()
            .filter(|s| !plan.shard_units(s).is_empty())
            .count();
        assert!(non_empty <= 2);
        let covered: usize = specs.iter().map(|s| plan.shard_units(s).len()).sum();
        assert_eq!(covered, plan.units().len());
    }

    #[test]
    fn cost_estimate_counts_the_observed_budget() {
        let g = ring_graph(12, 4); // 12 edges × 4 timestamps
        let plan = SimulationPlan::new(&g, 4, 99);
        let est = plan.cost_estimate();
        assert_eq!(est.edges as usize, g.n_edges());
        assert_eq!(est.units as usize, plan.units().len());
        // every node is a source once per timestamp
        assert_eq!(est.centers, 12 * 4);
        assert_eq!(est.cost, est.edges + 8 * est.centers + 64 * est.units);
        // seed-independent: the estimate prices the plan, not the stream
        assert_eq!(SimulationPlan::new(&g, 4, 1234).cost_estimate(), est);
    }

    #[test]
    fn shard_cost_estimates_sum_to_the_total() {
        let g = ring_graph(10, 5);
        let plan = SimulationPlan::new(&g, 4, 7);
        let total = plan.cost_estimate();
        for n_shards in [1usize, 2, 3, 7] {
            let mut units = 0u64;
            let mut centers = 0u64;
            let mut edges = 0u64;
            let mut cost = 0u64;
            for spec in plan.shards(n_shards) {
                let e = plan.shard_cost_estimate(&spec);
                units += e.units;
                centers += e.centers;
                edges += e.edges;
                cost += e.cost;
            }
            assert_eq!(
                (units, centers, edges, cost),
                (total.units, total.centers, total.edges, total.cost),
                "{n_shards} shards"
            );
        }
    }

    #[test]
    fn smaller_chunks_never_cost_less() {
        let g = ring_graph(96, 2); // enough sources for several 32-chunks
        let fine = SimulationPlan::new(&g, 32, 1).cost_estimate();
        let coarse = SimulationPlan::new(&g, 64, 1).cost_estimate();
        assert!(fine.units > coarse.units);
        assert!(fine.cost > coarse.cost);
        assert_eq!(fine.edges, coarse.edges);
        assert_eq!(fine.centers, coarse.centers);
    }

    #[test]
    fn sharded_union_equals_full_run() {
        let g = ring_graph(9, 3);
        let run = trained_run(&g, 5, 4);
        let full = run.simulate_seeded(123, graph_sink(&g)).expect("simulate");
        for n_shards in [1usize, 2, 4] {
            let mut merged: Vec<TemporalEdge> = Vec::new();
            for spec in run.plan(123).shards(n_shards) {
                let shard = generate_shard_with_sink(run.model(), &g, &spec, graph_sink(&g));
                merged.extend_from_slice(shard.edges());
            }
            let merged = TemporalGraph::from_edges(g.n_nodes(), g.n_timestamps(), merged);
            assert_eq!(merged.edges(), full.edges(), "{n_shards} shards");
        }
    }

    #[test]
    fn generated_graph_matches_shape_and_budgets() {
        let g = ring_graph(8, 3);
        let gen = trained_run(&g, 10, 16).simulate(0).expect("simulate");
        assert_eq!(gen.n_nodes(), g.n_nodes());
        assert_eq!(gen.n_timestamps(), g.n_timestamps());
        // per-timestamp budgets preserved exactly (ring: every node has
        // out-degree 1 <= candidates)
        assert_eq!(
            gen.edge_counts_per_timestamp(),
            g.edge_counts_per_timestamp()
        );
    }

    #[test]
    fn generated_edges_have_no_self_loops() {
        let g = ring_graph(6, 2);
        let gen = trained_run(&g, 5, 16).simulate(0).expect("simulate");
        assert!(gen.edges().iter().all(|e| e.u != e.v));
    }

    #[test]
    fn generation_sources_are_observed_sources() {
        // we preserve the out-degree sequence, so generated sources at t
        // must be a subset of observed sources at t
        let g = ring_graph(6, 2);
        let gen = trained_run(&g, 5, 16).simulate(0).expect("simulate");
        for t in 0..2u32 {
            let mut observed_sources: Vec<u32> = g.edges_at(t).iter().map(|e| e.u).collect();
            observed_sources.dedup();
            for e in gen.edges_at(t) {
                assert!(observed_sources.contains(&e.u), "unexpected source {}", e.u);
            }
        }
    }

    #[test]
    fn multigraph_budgets_reproduced_with_multiplicity() {
        // observed graph re-fires (0 -> 1) three times at t=0: generation
        // must emit three edges from node 0 at t=0 (repeats allowed).
        let mut edges = vec![
            TemporalEdge::new(0, 1, 0),
            TemporalEdge::new(0, 1, 0),
            TemporalEdge::new(0, 1, 0),
            TemporalEdge::new(1, 2, 0),
            TemporalEdge::new(2, 3, 0),
        ];
        for u in 0..4u32 {
            edges.push(TemporalEdge::new(u, (u + 1) % 4, 1));
        }
        let g = TemporalGraph::from_edges(4, 2, edges);
        let gen = trained_run(&g, 5, 16).simulate(0).expect("simulate");
        assert_eq!(
            gen.edge_counts_per_timestamp(),
            g.edge_counts_per_timestamp()
        );
        let from0: Vec<_> = gen.edges_at(0).iter().filter(|e| e.u == 0).collect();
        assert_eq!(from0.len(), 3, "source budget with multiplicity");
    }

    #[test]
    fn generation_is_bit_identical_across_thread_counts() {
        let g = ring_graph(10, 3);
        let run = trained_run(&g, 5, 4); // several chunks per timestamp
        let serial = edges_at_width(&run, 77, 1);
        for threads in [2, 3, 8] {
            assert_eq!(
                edges_at_width(&run, 77, threads),
                serial,
                "thread count {threads} changed the output"
            );
        }
    }

    #[test]
    fn parallel_gemm_inside_a_unit_keeps_the_bytes() {
        // 64 centers x d_model 8 x 1024 dense candidates = 1 << 19 >=
        // PAR_THRESHOLD: at width 2 the scoring gemm of a unit fans out on
        // the pool, and the thread that waits for it helps by running
        // another unit — a second `Tape::with_thread_local` on its stack.
        let g = ring_graph(1024, 2);
        let mut cfg = TgaeConfig::tiny();
        cfg.batch_centers = 64;
        let model = Tgae::new(g.n_nodes(), g.n_timestamps(), cfg);
        let run = SharedRun::new(model, g).expect("run");
        assert_eq!(edges_at_width(&run, 5, 2), edges_at_width(&run, 5, 1));
    }

    #[test]
    fn trained_model_reproduces_ring_better_than_untrained() {
        // The ring is perfectly learnable: out-neighbor of u is always
        // (u+1) mod n. A trained model should hit far more true edges.
        let g = ring_graph(8, 3);
        let mut cfg = TgaeConfig::tiny();
        cfg.epochs = 200;
        cfg.lr = 3e-2;
        let mut trained = Session::builder(&g)
            .config(cfg.clone())
            .build()
            .expect("session");
        trained.train().expect("train");
        let untrained = Session::builder(&g).config(cfg).build().expect("session");
        let hit_rate = |session: Session<'_>| -> f64 {
            let gen = session
                .into_shared()
                .simulate_seeded(3, graph_sink(&g))
                .expect("simulate");
            #[expect(clippy::disallowed_types, reason = "membership tests only")]
            let truth: std::collections::HashSet<(u32, u32)> =
                g.edges().iter().map(|e| (e.u, e.v)).collect();
            let hits = gen
                .edges()
                .iter()
                .filter(|e| truth.contains(&(e.u, e.v)))
                .count();
            hits as f64 / gen.n_edges().max(1) as f64
        };
        let trained_rate = hit_rate(trained);
        let untrained_rate = hit_rate(untrained);
        assert!(
            trained_rate > untrained_rate + 0.2,
            "trained {trained_rate:.3} vs untrained {untrained_rate:.3}"
        );
    }
}
