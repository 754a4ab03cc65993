#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]
//! `tg-serve`: the resident multi-tenant simulation service.
//!
//! A `tgx-cli train` run produces a run directory; this crate serves any
//! number of such runs from one long-lived daemon so repeated
//! simulate/evaluate requests stop paying model-load time. The pieces:
//!
//! - [`protocol`] — length-prefixed JSON frames over TCP or a Unix
//!   socket, one [`Frame`] variant per message (a payload that decodes is
//!   well-formed); edge streams are byte-identical to in-process
//!   `StreamingWriterSink` output.
//! - [`cache`] — a bounded LRU of loaded [`SharedRun`](tgae::SharedRun)s;
//!   every concurrent request for a run-id shares **one** `Arc`-held
//!   model (no per-request clone).
//! - [`admission`] — cost-based admission control priced by
//!   [`SimulationPlan::cost_estimate`](tgae::SimulationPlan::cost_estimate);
//!   over-budget requests get a typed [`ErrorKind::Busy`] rejection.
//! - [`server`] — the accept loop, per-connection workers, the
//!   `serve.accept` / `serve.request.decode` / `serve.generate.unit`
//!   fault points, and graceful drain.
//! - [`client`] — the blocking client the CLI, tests, and benchmarks use.
//! - [`telemetry`] — the `Status`/`Metrics` introspection ops' report
//!   types, fed by the global [`tg_obs`] metrics registry.
//! - [`signal`] — `SIGTERM`/`SIGINT` → drain, with no external crate.
//!
//! ```no_run
//! use tg_serve::{Client, ServeConfig, Server};
//!
//! let loader = Box::new(|run_id: &str| {
//!     Err(format!("no run directory for `{run_id}` in this example"))
//! });
//! let server = Server::bind_tcp("127.0.0.1:0", loader, ServeConfig::default()).unwrap();
//! let addr = server.tcp_addr().unwrap().to_string();
//! let handle = server.handle();
//! let thread = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect_tcp(&addr).unwrap();
//! client.ping().unwrap();
//! handle.shutdown();
//! thread.join().unwrap().unwrap();
//! ```

pub mod admission;
pub mod cache;
pub mod client;
mod net;
pub mod protocol;
pub mod server;
pub mod signal;
mod sync;
pub mod telemetry;

pub use admission::{AdmissionController, Permit, Rejection};
pub use cache::{CacheError, CacheOutcome, CacheStats, ModelCache};
pub use client::{Client, ClientError, SimulateOutcome, StatsOutcome};
pub use protocol::{read_frame, write_frame, ErrorKind, Frame, MAX_FRAME_BYTES};
pub use server::{Loader, ServeConfig, ServeReport, Server, ServerHandle};
pub use telemetry::{CacheCounters, ResidentModel, RunCounters, StatusReport};
