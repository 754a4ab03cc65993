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
//!    reading from the parameter tables only the rows it scores — into
//!    one candidate-major probability matrix, and samples its edges from
//!    that matrix where it lies, several rows abreast, with its own RNG
//!    stream, so results are bit-identical at any thread count and any
//!    unit partition. The tape frees the unit's buffers when the unit
//!    finishes. Units are processed in
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

use crate::model::{Tgae, SCORE_LANES};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tg_graph::sink::EdgeSink;
use tg_graph::{NodeId, TemporalEdge, TemporalGraph, Time};
use tg_tensor::init::categorical_pick;
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
    /// The unit's probabilities leave the decode candidate-major and are
    /// sampled where they lie ([`draw_unit`]); besides them, a unit owns
    /// its edge list and the draw's per-row scratch. The unit RNG is
    /// consumed in a fixed order: computation-graph sampling, negative
    /// candidates, then one variate per drawn edge, row by row.
    fn execute_unit(&self, unit: &PlannedUnit) -> Vec<TemporalEdge> {
        let t = unit.t;
        let mut rng = SmallRng::seed_from_u64(unit.seed);
        let centers: Vec<(NodeId, Time)> = unit.budgets.iter().map(|&(u, _, _)| (u, t)).collect();
        let n_edges = unit.budgets.iter().map(|&(_, total, _)| total).sum();
        let mut edges: Vec<TemporalEdge> = Vec::with_capacity(n_edges);
        let mut scores = Tape::with_thread_local(|tape| {
            self.model
                .generation_rows(tape, self.observed, &centers, &mut rng)
        });
        let _draw = tg_obs::trace::span("unit.draw");
        let width = scores.probs.cols();
        draw_unit(
            &mut rng,
            scores.probs.as_mut_slice(),
            width,
            &scores.cands,
            &scores.lookup,
            &unit.budgets,
            |row, v| edges.push(TemporalEdge::new(unit.budgets[row].0, v, t)),
        );
        edges
    }
}

/// Draw the out-edges of a unit's rows from its candidate-major
/// probabilities and hand them to `emit` as `(row, target)`, row by row.
///
/// `probs` holds one row of `width` values per candidate (a multiple of
/// [`SCORE_LANES`] and at least `budgets.len()`); column `j` is the
/// distribution of `budgets[j] = (source, total, distinct)`. Each row
/// draws `distinct` targets without replacement (§IV-G) — fewer if it has
/// fewer positive weights — then re-fires its remaining `total − distinct`
/// edges within that support, weighted by `p`; self-loops are excluded.
/// The picks are those of `sample_categorical_without_replacement` then
/// `sample_categorical` over the support, row after row, each on the
/// `f64` widening of `p` with the source's column zeroed (`lookup` finds
/// it), and the RNG ends where theirs ends.
///
/// The passes run rows abreast instead of one row at a time
/// ([`LaneGroup`]): one pass sums every row's weights and counts its
/// positives; the unit's variates are then drawn up front in the rows'
/// order (a row with a pick consumes `max(total, take)`, a row without
/// none); pick level `k` is one subtraction scan over the lane groups
/// with a row that picks a `k`-th time, which also sums the weights
/// level `k + 1` draws from. A pick's entry is zeroed in `probs`.
fn draw_unit<R: Rng + ?Sized>(
    rng: &mut R,
    probs: &mut [f32],
    width: usize,
    cands: &[u32],
    lookup: &[u32],
    budgets: &[(NodeId, usize, usize)],
    mut emit: impl FnMut(usize, NodeId),
) {
    let rows = budgets.len();
    assert!(
        rows <= width && width.is_multiple_of(SCORE_LANES) && probs.len() == cands.len() * width,
        "draw_unit: {rows} rows do not fit {} × {width} probabilities",
        cands.len()
    );
    for (j, &(u, _, _)) in budgets.iter().enumerate() {
        let col = lookup[u as usize];
        if col != u32::MAX {
            probs[col as usize * width + j] = 0.0;
        }
    }
    let (mut sums, positives) = sum_and_count(probs, width);
    // row j picks `takes[j]` targets, with variates from `first[j]` on
    let (mut takes, mut first) = (vec![0usize; width], vec![0usize; rows]);
    let mut variates = Vec::new();
    for (j, &(_, total, distinct)) in budgets.iter().enumerate() {
        takes[j] = distinct.min(positives[j] as usize);
        first[j] = variates.len();
        let emitted = if takes[j] == 0 {
            0
        } else {
            total.max(takes[j])
        };
        variates.extend((0..emitted).map(|_| rng.gen::<f64>()));
    }
    // row j's pick k is `support[offset[j] + k]`: (column, probability)
    let mut offset = Vec::with_capacity(rows + 1);
    offset.push(0);
    for &take in &takes[..rows] {
        offset.push(offset[offset.len() - 1] + take);
    }
    let mut support = vec![(0u32, 0.0f32); offset[rows]];
    let column = |probs: &[f32], j: usize| -> Vec<f64> {
        probs
            .iter()
            .skip(j)
            .step_by(width)
            .map(|&p| f64::from(p))
            .collect()
    };
    let mut groups: Vec<LaneGroup> = Vec::new();
    for k in 0..takes.iter().copied().max().unwrap_or(0) {
        groups.clear();
        for (g, lane_takes) in takes.chunks_exact(SCORE_LANES).enumerate() {
            if lane_takes.iter().any(|&take| take > k) {
                let base = g * SCORE_LANES;
                let mut group = LaneGroup::new(base);
                for (l, &take) in lane_takes.iter().enumerate() {
                    if take > k {
                        group.u[l] = variates[first[base + l] + k] * sums[base + l];
                        group.open |= 1 << l;
                    }
                    if take > k + 1 {
                        group.again |= 1 << l;
                    }
                }
                groups.push(group);
            }
        }
        LaneGroup::scan_all(probs, width, &mut groups);
        for group in &groups {
            for (l, j) in (group.base..group.base + SCORE_LANES).enumerate() {
                if takes[j] <= k {
                    continue;
                }
                // a lane the scan left without a pick (it ran off the
                // end: a variate close to 1 against a rounded sum) takes
                // the row-at-a-time draw
                let scanned = group.open & (1 << l) == 0;
                let col = if scanned {
                    group.pick[l] as usize
                } else {
                    categorical_pick(variates[first[j] + k], &column(probs, j), sums[j])
                };
                let p = &mut probs[col * width + j];
                support[offset[j] + k] = (col as u32, *p);
                *p = 0.0;
                if takes[j] > k + 1 {
                    sums[j] = if scanned {
                        group.next[l]
                    } else {
                        column(probs, j).iter().sum()
                    };
                }
            }
        }
    }
    let mut sup_w = Vec::new();
    for (j, &(u, total, _)) in budgets.iter().enumerate() {
        let picks = &support[offset[j]..offset[j + 1]];
        for &(col, _) in picks {
            emit(j, cands[col as usize]);
        }
        if total > picks.len() && !picks.is_empty() {
            sup_w.clear();
            sup_w.extend(picks.iter().map(|&(_, p)| f64::from(p)));
            let sum: f64 = sup_w.iter().sum();
            assert!(sum > 0.0, "sample_categorical: all-zero weights");
            let refires = &variates[first[j] + picks.len()..first[j] + total];
            for &v in refires {
                let pick = categorical_pick(v, &sup_w, sum);
                debug_assert_ne!(cands[picks[pick].0 as usize], u, "self-loop");
                emit(j, cands[picks[pick].0 as usize]);
            }
        }
    }
}

/// Each row's sequential `f64` sum over the candidates and its count of
/// positive weights, [`SCORE_LANES`] rows abreast. The candidates are
/// walked [`SCAN_CHUNK`] at a time, every lane group over one block before
/// the next, so each block is read from cache.
fn sum_and_count(probs: &[f32], width: usize) -> (Vec<f64>, Vec<u32>) {
    let (mut sums, mut positives) = (vec![0.0f64; width], vec![0u32; width]);
    for block in probs.chunks(SCAN_CHUNK * width) {
        let lanes = sums
            .chunks_exact_mut(SCORE_LANES)
            .zip(positives.chunks_exact_mut(SCORE_LANES));
        for (base, (sums, positives)) in (0..width).step_by(SCORE_LANES).zip(lanes) {
            let mut s: [f64; SCORE_LANES] = std::array::from_fn(|l| sums[l]);
            let mut n: [u32; SCORE_LANES] = std::array::from_fn(|l| positives[l]);
            for row in block.chunks_exact(width) {
                let row = &row[base..][..SCORE_LANES];
                for l in 0..SCORE_LANES {
                    s[l] += f64::from(row[l]);
                    n[l] += u32::from(row[l] > 0.0);
                }
            }
            sums.copy_from_slice(&s);
            positives.copy_from_slice(&n);
        }
    }
    (sums, positives)
}

/// Candidates a lane group advances between two looks at its lanes.
const SCAN_CHUNK: usize = 32;

/// One pick level over [`SCORE_LANES`] adjacent rows of a unit, as the
/// subtraction scan of `sample_categorical` advances it in all lanes at
/// once: `u −= w` candidate by candidate, branch-free, and after each
/// chunk of [`SCAN_CHUNK`] candidates a lane whose `u` fell to 0 or below
/// replays that chunk alone for its pick, the first candidate with
/// `u ≤ 0` and `w > 0` (`u` only falls, so no earlier chunk holds one).
/// A lane that picks again at the next level also sums its weights with
/// the pick left out — that level's sum, bit for bit the sequential sum
/// over the weights with the pick zeroed.
struct LaneGroup {
    /// First column of the group.
    base: usize,
    /// The variate times the lane's sum, less the weights scanned so far
    /// (`−∞` in a lane that does not pick).
    u: [f64; SCORE_LANES],
    /// The candidate each lane picked.
    pick: [u32; SCORE_LANES],
    /// The sum of the lane's weights scanned so far, its pick left out.
    next: [f64; SCORE_LANES],
    /// Bit `l` is set if lane `l` picks again at the next level: the
    /// scan then runs to the end for `next`.
    again: u8,
    /// Bit `l` is set while lane `l` has yet to pick.
    open: u8,
}

impl LaneGroup {
    fn new(base: usize) -> Self {
        LaneGroup {
            base,
            u: [f64::NEG_INFINITY; SCORE_LANES],
            pick: [0; SCORE_LANES],
            next: [0.0; SCORE_LANES],
            again: 0,
            open: 0,
        }
    }

    /// Bit `l` set where lane `l`'s `u` is at or below 0.
    #[inline(always)]
    fn at_or_below_zero(&self) -> u8 {
        let mut bits = 0u8;
        for (l, &u) in self.u.iter().enumerate() {
            bits |= u8::from(u <= 0.0) << l;
        }
        bits
    }

    /// Every group's scan, chunk by chunk: a group leaves once all its
    /// lanes have picked, unless it sums the next level's weights.
    fn scan_all(probs: &[f32], width: usize, groups: &mut [LaneGroup]) {
        let n_cands = probs.len() / width;
        let mut active: Vec<usize> = (0..groups.len()).collect();
        let mut c0 = 0;
        while c0 < n_cands && !active.is_empty() {
            let c1 = (c0 + SCAN_CHUNK).min(n_cands);
            for &g in &active {
                let group = &mut groups[g];
                let (u0, next0) = (group.u, group.next);
                if group.again != 0 {
                    group.advance::<true>(probs, width, c0..c1);
                } else {
                    group.advance::<false>(probs, width, c0..c1);
                }
                let mut crossed = group.open & group.at_or_below_zero();
                while crossed != 0 {
                    let l = crossed.trailing_zeros() as usize;
                    crossed &= crossed - 1;
                    group.replay(probs, width, l, c0..c1, u0[l], next0[l]);
                }
            }
            active.retain(|&g| groups[g].again != 0 || groups[g].open != 0);
            c0 = c1;
        }
    }

    /// Advance every lane over the candidates of `chunk`: `u −= w`, and if
    /// `NEXT`, `next += w`.
    #[inline(always)]
    fn advance<const NEXT: bool>(
        &mut self,
        probs: &[f32],
        width: usize,
        chunk: std::ops::Range<usize>,
    ) {
        let (mut u, mut next) = (self.u, self.next);
        for c in chunk {
            let row = &probs[c * width + self.base..][..SCORE_LANES];
            for l in 0..SCORE_LANES {
                let w = f64::from(row[l]);
                u[l] -= w;
                if NEXT {
                    next[l] += w;
                }
            }
        }
        (self.u, self.next) = (u, next);
    }

    /// Lane `l`'s scan over `chunk` from `u` and `next` as the chunk
    /// found them: the pick is the first candidate with `u ≤ 0` and
    /// `w > 0`, and `next` leaves it out. Without one (`u` started at 0
    /// and no weight in the chunk is positive) the lane stays open.
    fn replay(
        &mut self,
        probs: &[f32],
        width: usize,
        l: usize,
        chunk: std::ops::Range<usize>,
        mut u: f64,
        next: f64,
    ) {
        let j = self.base + l;
        let weights = chunk.clone().map(|c| f64::from(probs[c * width + j]));
        for (c, w) in chunk.clone().zip(weights.clone()) {
            u -= w;
            if u <= 0.0 && w > 0.0 {
                self.pick[l] = c as u32;
                self.open &= !(1 << l);
                if self.again & (1 << l) != 0 {
                    self.next[l] = chunk
                        .zip(weights)
                        .filter(|&(c2, _)| c2 != c)
                        .fold(next, |s, (_, w)| s + w);
                }
                return;
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

    /// Rows of probabilities laid out as the decode leaves them:
    /// candidate-major, `width` columns padded to the lane multiple.
    fn candidate_major(rows: &[Vec<f32>], n_cands: usize) -> (Vec<f32>, usize) {
        let width = rows.len().next_multiple_of(SCORE_LANES);
        let mut probs = vec![0.5f32; n_cands * width]; // padding is never read as a row
        for (j, row) in rows.iter().enumerate() {
            for (c, &p) in row.iter().enumerate() {
                probs[c * width + j] = p;
            }
        }
        (probs, width)
    }

    /// `draw_unit` over `rows` with the given budgets, as `(row, target)`.
    fn drawn(
        rng: &mut SmallRng,
        rows: &[Vec<f32>],
        cands: &[u32],
        budgets: &[(NodeId, usize, usize)],
    ) -> Vec<(usize, NodeId)> {
        let mut lookup = vec![u32::MAX; 1001];
        for (i, &v) in cands.iter().enumerate() {
            lookup[v as usize] = i as u32;
        }
        let (mut probs, width) = candidate_major(rows, cands.len());
        let mut got = Vec::new();
        draw_unit(rng, &mut probs, width, cands, &lookup, budgets, |j, v| {
            got.push((j, v))
        });
        got
    }

    /// The unit draw against [`reference_row`] run row after row: the
    /// same `(row, target)` stream and the same RNG state after it, over
    /// 1–20 rows (one lane group, several, and groups that are partly
    /// padding), candidate sets of 1–120 (one scan chunk and several),
    /// sources in and out of the candidate set, exact zeros, rows with no
    /// positive weight, `distinct` beyond the positives, re-fires, and a
    /// first variate forced to `1 − 2⁻⁵³` (the run-off to the last
    /// positive weight) or to exactly 0 (leading zeros are skipped).
    #[test]
    fn draw_unit_draws_what_the_composed_samplers_drew() {
        let mut gen = SmallRng::seed_from_u64(2024);
        let (mut multi, mut short, mut empty, mut self_in, mut ran_off) = (0, 0, 0, 0, 0);
        let mut zero_first = 0;
        for case in 0..600u64 {
            let n_rows = 1 + case as usize % 20;
            let n = if case % 5 == 4 {
                gen.gen_range(40..120usize)
            } else {
                gen.gen_range(1..40usize)
            };
            // distinct candidate ids in a shuffled-looking order
            let cands: Vec<u32> = (0..n as u32).map(|i| (i * 7 + 3) % 211).collect();
            let zero_share = [0.0, 0.3, 0.9, 1.0][case as usize % 4];
            let mut rows = Vec::new();
            let mut budgets = Vec::new();
            for r in 0..n_rows {
                let mut row: Vec<f32> = (0..n)
                    .map(|_| {
                        let p = gen.gen::<f32>();
                        if gen.gen::<f64>() < zero_share {
                            0.0
                        } else {
                            p
                        }
                    })
                    .collect();
                if r == 0 && case % 3 == 0 {
                    // weights spread over 60 binades, so their `f64` sum
                    // rounds, and trailing zeros: a scan that runs off the
                    // end lands on the last positive weight, not the last
                    // column
                    for p in row.iter_mut() {
                        *p *= 0.5f32.powi(gen.gen_range(0..60));
                    }
                    for p in row.iter_mut().skip(2).rev().take(2) {
                        *p = 0.0;
                    }
                }
                rows.push(row);
                // the source is a candidate in half of the rows
                let u = if gen.gen::<bool>() {
                    cands[gen.gen_range(0..n)]
                } else {
                    1000
                };
                let distinct = gen.gen_range(1..8usize);
                let total = distinct + [0, 0, 1, 5][gen.gen_range(0..4usize)];
                budgets.push((u, total, distinct));
            }
            // a third of the cases force the unit's first variate to
            // 1 − 2⁻⁵³ and some others to 0 (xoshiro256++ returns
            // `s₃` first from a state with `s₀ = 0`)
            let start = if case % 3 == 0 {
                SmallRng::from_state([0, case, 7, u64::MAX])
            } else if case % 7 == 1 {
                SmallRng::from_state([0, case, 7, 0])
            } else {
                SmallRng::seed_from_u64(case)
            };
            let mut rng_ref = start.clone();
            let mut want = Vec::new();
            for (j, (row, &budget)) in rows.iter().zip(&budgets).enumerate() {
                let targets = reference_row(&mut rng_ref, row, &cands, budget);
                want.extend(targets.into_iter().map(|v| (j, v)));
            }
            let mut rng_new = start.clone();
            let got = drawn(&mut rng_new, &rows, &cands, &budgets);
            assert_eq!(got, want, "case {case}");
            assert_eq!(rng_new.state(), rng_ref.state(), "case {case}: rng");

            for (j, (row, &(u, total, distinct))) in rows.iter().zip(&budgets).enumerate() {
                let positives = (0..n).filter(|&c| row[c] > 0.0 && cands[c] != u).count();
                let edges = got.iter().filter(|&&(r, _)| r == j).count();
                assert!(
                    got.iter().all(|&(r, v)| r != j || v != u),
                    "case {case}: self-loop"
                );
                assert_eq!(edges, if positives == 0 { 0 } else { total }, "case {case}");
                multi += usize::from(total > distinct && positives > 0);
                short += usize::from(positives > 0 && positives < distinct);
                empty += usize::from(positives == 0);
                self_in += usize::from(cands.contains(&u) && positives > 0);
            }
            let picks_first =
                |row: &[f32], u: NodeId| (0..n).any(|c| row[c] > 0.0 && cands[c] != u);
            if case % 3 != 0 && case % 7 == 1 && picks_first(&rows[0], budgets[0].0) {
                zero_first += 1;
            }
            if case % 3 == 0 {
                let (row, u) = (&rows[0], budgets[0].0);
                let w: Vec<f64> = (0..n)
                    .map(|c| {
                        if cands[c] == u {
                            0.0
                        } else {
                            f64::from(row[c])
                        }
                    })
                    .collect();
                let mut left = (1.0 - 0.5f64.powi(53)) * w.iter().sum::<f64>();
                ran_off += usize::from(
                    w.iter().all(|&x| {
                        left -= x;
                        left > 0.0 || x == 0.0
                    }) && w.iter().any(|&x| x > 0.0),
                );
            }
        }
        // the generator above must actually reach every branch
        assert!(
            multi > 200
                && short > 100
                && empty > 100
                && self_in > 200
                && ran_off >= 5
                && zero_first >= 20,
            "{multi} {short} {empty} {self_in} {ran_off} {zero_first}"
        );
    }

    /// Pearson's χ² of `counts` against `expected` probabilities.
    fn chi_square(counts: &[usize], expected: &[f64]) -> f64 {
        let n = counts.iter().sum::<usize>() as f64;
        counts
            .iter()
            .zip(expected)
            .map(|(&o, &p)| (o as f64 - n * p).powi(2) / (n * p))
            .sum()
    }

    #[test]
    fn draws_follow_the_weights_without_self_loops_or_repeats() {
        // nine candidates, the source (node 4) among them, one exact zero
        let cands: Vec<u32> = (0..9).collect();
        let weights = [0.05f32, 0.2, 0.0, 0.1, 0.3, 0.15, 0.02, 0.08, 0.1];
        let (u, draws) = (4u32, 100_000usize);
        // 10⁵ single draws, 13 rows (two lane groups) per unit
        let rows = vec![weights.to_vec(); 13];
        let budgets = vec![(u, 1, 1); 13];
        let mut rng = SmallRng::seed_from_u64(99);
        let mut counts = [0usize; 9];
        for _ in 0..draws.div_ceil(13) {
            for (_, v) in drawn(&mut rng, &rows, &cands, &budgets) {
                counts[v as usize] += 1;
            }
        }
        assert_eq!(counts[u as usize], 0, "self-loop drawn");
        assert_eq!(counts[2], 0, "zero weight drawn");
        // the seven positive non-source weights, renormalised
        let support: Vec<usize> = (0..9).filter(|&c| c != 2 && c != 4).collect();
        let mass: f64 = support.iter().map(|&c| f64::from(weights[c])).sum();
        let expected: Vec<f64> = support
            .iter()
            .map(|&c| f64::from(weights[c]) / mass)
            .collect();
        let observed: Vec<usize> = support.iter().map(|&c| counts[c]).collect();
        // 6 degrees of freedom: P(χ² > 22.46) = 0.001
        let chi2 = chi_square(&observed, &expected);
        assert!(chi2 < 22.46, "χ² = {chi2:.2} for {observed:?}");

        // without replacement: 6 distinct targets of 7 positives, never
        // repeated within a row, then re-fires only inside that support
        let rows = vec![weights.to_vec(); 3];
        let budgets = vec![(u, 9, 6); 3];
        for _ in 0..2000 {
            let got = drawn(&mut rng, &rows, &cands, &budgets);
            for j in 0..3 {
                let targets: Vec<NodeId> = got
                    .iter()
                    .filter(|&&(r, _)| r == j)
                    .map(|&(_, v)| v)
                    .collect();
                assert_eq!(targets.len(), 9);
                let mut distinct = targets[..6].to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), 6, "repeated distinct target: {targets:?}");
                assert!(targets.iter().all(|&v| v != u && weights[v as usize] > 0.0));
                assert!(targets[6..].iter().all(|v| distinct.contains(v)));
            }
        }
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
