//! `tg-bench`: the standing benchmark. Its `suite` binary
//! (`src/bin/suite/`, also a package of its own) times the pipeline end to
//! end on the workloads `BENCHMARK.json` lists, and its traced mode
//! (`suite trace --workload W`) times each layer of a step and of a
//! generation unit.
//!
//! The paper's tables and figures are `tgx::paper`, printed by
//! `cargo run --release --example paper_tables -- <table>`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

// The heap tracker lives in `tg-obs`; the suite names it through this
// crate.
pub use tg_obs::memtrack::{self, TrackingAllocator};
