//! # tg-obs — workspace telemetry
//!
//! Dependency-free observability layer threaded through every crate in
//! the workspace:
//!
//! - [`Registry`] — a global metrics registry of sharded atomic
//!   [`Counter`]s, [`Gauge`]s, and fixed-boundary [`Histogram`]s, with
//!   Prometheus-style text exposition ([`Registry::render_prometheus`]).
//!   Handles are interned per `(name, label-set)`; the hot path is a
//!   relaxed atomic op on an already-held handle — no locks, no
//!   allocation.
//! - [`trace`] — RAII span guards capturing monotonic start/duration
//!   and parent ids, buffered per-thread and flushed as JSONL.
//! - [`chrome`] — renders span JSONL files (one per process) as Chrome
//!   `trace_event` JSON, so a traced run opens in a trace viewer.
//! - [`memtrack`] — a counting global allocator a binary can install to
//!   read live and peak heap bytes (the heap gauge of training telemetry
//!   and the benchmark's `peak_heap_mib`).
//!
//! ## The zero-cost-when-idle contract
//!
//! Until a sink is installed ([`enable_metrics`] for timers,
//! [`trace::install`] for spans), telemetry calls read no wall clock
//! and allocate nothing: [`Stopwatch::start`] returns an empty
//! stopwatch and [`trace::span`] returns an inert guard. Counter and
//! gauge updates on held handles are single relaxed atomic ops and are
//! always live (they are cheaper than the branch that would gate
//! them). Nothing in this crate ever feeds seeded state, so outputs
//! are bit-identical with telemetry on or off; the wall-clock reads
//! themselves are confined to this crate, each under an argued
//! `#[expect(clippy::disallowed_methods)]` (the root `clippy.toml`
//! disallows `Instant::now` / `SystemTime::now` workspace-wide).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]
#![deny(unsafe_code)]

pub mod chrome;
// The one module allowed `unsafe`: `GlobalAlloc` is an unsafe trait.
#[allow(unsafe_code)]
pub mod memtrack;
mod registry;
pub mod trace;

pub use registry::{
    enable_metrics, metrics_enabled, Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot,
    MetricValue, Registry, Stopwatch, LATENCY_SECONDS,
};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock a mutex, adopting the data if a holder panicked. Telemetry
/// state stays usable after a panic elsewhere: a half-updated buffer
/// is strictly better than a poisoned (and therefore silent) one.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Append `s` to `out` as a JSON string literal (with quotes),
/// escaping the characters JSON requires. Used by the hand-rolled
/// JSONL/JSON writers — this crate deliberately has no serde
/// dependency.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
