//! `tg-bench`: the experiment harness regenerating every table and figure
//! of the TGAE paper.
//!
//! | Binary          | Reproduces |
//! |-----------------|------------|
//! | `exp_table2`    | Table II (dataset statistics) |
//! | `exp_table4_5`  | Tables IV & V (f_med / f_avg across 7 metrics) |
//! | `exp_table6`    | Table VI (temporal-motif MMD) |
//! | `exp_table7`    | Table VII (ablation variants) |
//! | `exp_fig5`      | Figure 5 (metric curves over timestamps, DBLP) |
//! | `exp_fig6`      | Figure 6 (time & peak-memory scalability sweeps) |
//!
//! Binaries print the paper-style table to stdout and write CSV artifacts
//! under `results/`. Common flags: `--scale`, `--seed`, `--epochs`,
//! `--budget-mb`, `--methods tgae,e-r,...`.
//!
//! The standing benchmark is the `suite` binary (`src/bin/suite/`); its
//! traced mode (`suite trace --workload W`) times each layer of a step and
//! of a generation unit.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

pub mod datasets;
pub mod methods;
pub mod runner;

// The heap tracker lives in `tg-obs`; the frozen benchmark suite
// (`src/bin/suite`) still names it through this crate.
pub use tg_obs::memtrack::{self, TrackingAllocator};
