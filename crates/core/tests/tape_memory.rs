//! A tape holds nothing between steps: once a training step's tape is
//! cleared and its gradients are dropped, and once a generation run has
//! returned, the live heap is back where it was.
//!
//! Its own test binary because the measurement needs
//! [`TrackingAllocator`] as the global allocator, and one test so no
//! sibling thread allocates under the measurement.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tg_graph::io::StreamingWriterSink;
use tg_graph::{TemporalEdge, TemporalGraph};
use tg_obs::memtrack::{self, TrackingAllocator};
use tg_sampling::InitialNodeSampler;
use tg_tensor::optim::{clip_global_norm, Adam};
use tg_tensor::parallel::ThreadPin;
use tg_tensor::tape::Tape;
use tgae::{SharedRun, Tgae, TgaeConfig};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// How far live bytes may drift: far below what one step allocates.
const SLACK: usize = 256 << 10;

/// A step or run must allocate at least this much for the test to mean
/// anything.
const WORK: usize = 1 << 20;

fn ring_graph(n: u32, t_count: u32) -> TemporalGraph {
    let mut edges = Vec::new();
    for t in 0..t_count {
        for u in 0..n {
            edges.push(TemporalEdge::new(u, (u + 1) % n, t));
        }
    }
    TemporalGraph::from_edges(n as usize, t_count as usize, edges)
}

#[test]
fn a_tape_holds_nothing_between_steps() {
    // 256 centers scored against 1024 dense candidates: 1 MiB of scores
    let g = ring_graph(1024, 2);
    let mut cfg = TgaeConfig::tiny();
    cfg.batch_centers = 256;
    let mut model = Tgae::new(g.n_nodes(), g.n_timestamps(), cfg.clone());

    // (a) training steps on one reused tape
    {
        let sampler = InitialNodeSampler::new(&g, cfg.sampler.degree_weighted);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut opt = Adam::new(cfg.lr);
        let mut tape = Tape::new();
        let mut live = Vec::new();
        for step in 1..=20 {
            memtrack::reset_peak();
            let before = memtrack::current_bytes();
            let centers = sampler.sample_batch(cfg.batch_centers, &mut rng);
            let (loss, _) = model.forward_batch_into(&mut tape, &g, &centers, &mut rng);
            let mut grads = tape.backward(loss);
            clip_global_norm(&mut grads, cfg.grad_clip);
            opt.step(&mut model.store, &grads);
            drop(grads);
            tape.clear();
            let used = memtrack::peak_bytes() - before;
            assert!(used > WORK, "step {step} allocated only {used} bytes");
            live.push(memtrack::current_bytes());
        }
        // step 1 creates the optimizer state; from step 2 on nothing grows
        let base = live[1];
        for (step, &bytes) in live.iter().enumerate().skip(2) {
            assert!(
                bytes.abs_diff(base) <= SLACK,
                "after step {}: {bytes} live bytes vs {base} after step 2 \
                 (every step: {live:?})",
                step + 1,
            );
        }
    }

    // (b) a serial generation run into a discarding sink
    let run = SharedRun::new(model, g).expect("run");
    let _pin = ThreadPin::new(1);
    memtrack::reset_peak();
    let before = memtrack::current_bytes();
    let written = run
        .simulate_seeded(5, StreamingWriterSink::new(std::io::sink()))
        .expect("simulate")
        .expect("write");
    let after = memtrack::current_bytes();
    let used = memtrack::peak_bytes() - before;
    assert_eq!(written, 2048);
    assert!(used > WORK, "generation allocated only {used} bytes");
    assert!(
        after.abs_diff(before) <= SLACK,
        "generation left {after} live bytes, {before} before"
    );
}
