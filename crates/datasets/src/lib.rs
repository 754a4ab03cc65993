//! `tg-datasets`: dataset substrate for the TGAE reproduction.
//!
//! The paper evaluates on seven real temporal networks (Table II) plus a
//! synthetic scalability grid (Figure 6). Real dumps are not vendorable, so
//! this crate generates seeded synthetic stand-ins with matching scale and
//! structural character (the [`synthetic`] module says which character and
//! why); real data in `src dst timestamp` format drops in via
//! `tg_graph::io`.
//!
//! - [`synthetic`] — the configurable generator (preferential attachment +
//!   communities + temporal burstiness + densification).
//! - [`presets`] — the seven Table II rows as named presets.
//! - [`grid`] — the `n*T*density` scalability sweeps of Figure 6.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

pub mod grid;
pub mod presets;
pub mod synthetic;

pub use grid::{density_sweep, node_sweep, timestamp_sweep, GridPoint};
pub use presets::{all_presets, by_name, Preset};
pub use synthetic::{generate, SyntheticConfig};
