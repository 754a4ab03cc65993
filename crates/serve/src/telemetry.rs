//! The `status` report types and the registry-backed per-run counters.
//!
//! The server records request activity into the global
//! [`tg_obs::Registry`] (`serve.requests` / `serve.bytes` counters
//! labelled by run, `serve.cache.*` and `serve.admission.rejected`
//! totals, `serve.request.seconds` latency histograms split by cache
//! hit/miss). A `status` request assembles this module's
//! [`StatusReport`] from live server state plus that registry, so the
//! frame and the `metrics` exposition can never disagree about what
//! was counted.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tg_obs::{MetricValue, Registry};

/// One resident model cache entry as reported by `status`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResidentModel {
    /// The run directory name.
    pub run_id: String,
    /// Whether an in-flight request currently holds the model (a
    /// pinned entry cannot be evicted).
    pub pinned: bool,
}

/// Model-cache lifetime totals as reported by `status`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CacheCounters {
    /// Requests that found their model resident.
    pub hits: u64,
    /// Requests that paid a load.
    pub misses: u64,
    /// Idle entries evicted to make room.
    pub evictions: u64,
    /// Misses refused because every resident entry was pinned.
    pub saturations: u64,
}

/// Per-run request totals as reported by `status`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunCounters {
    /// The run directory name.
    pub run_id: String,
    /// Requests answered successfully for this run.
    pub requests: u64,
    /// Edge-stream payload bytes sent for this run.
    pub bytes: u64,
}

/// The payload of a [`Frame::StatusReport`](crate::Frame::StatusReport).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StatusReport {
    /// Whether the server is refusing new work.
    pub draining: bool,
    /// Requests answered successfully over the server's lifetime.
    pub requests_served: u64,
    /// Requests executing right now.
    pub active_requests: u64,
    /// Cost currently admitted.
    pub inflight_cost: u64,
    /// Requests currently admitted.
    pub inflight_requests: u64,
    /// The configured admission budget.
    pub max_cost: u64,
    /// Requests refused by admission control.
    pub admission_rejected: u64,
    /// The configured model-cache capacity.
    pub cache_capacity: u64,
    /// Model-cache lifetime totals.
    pub cache: CacheCounters,
    /// Resident models, most-recently-used first.
    pub resident: Vec<ResidentModel>,
    /// Per-run request totals, sorted by run id.
    pub runs: Vec<RunCounters>,
}

/// Collect the per-run `serve.requests` / `serve.bytes` counters out
/// of the global registry, keyed by the `run` label.
pub(crate) fn runs_from_registry() -> Vec<RunCounters> {
    let mut by_run: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for m in Registry::global().snapshot() {
        let MetricValue::Counter(v) = m.value else {
            continue;
        };
        let Some((_, run)) = m.labels.iter().find(|(k, _)| k == "run") else {
            continue;
        };
        match m.name.as_str() {
            "serve.requests" => by_run.entry(run.clone()).or_default().0 += v,
            "serve.bytes" => by_run.entry(run.clone()).or_default().1 += v,
            _ => {}
        }
    }
    by_run
        .into_iter()
        .map(|(run_id, (requests, bytes))| RunCounters {
            run_id,
            requests,
            bytes,
        })
        .collect()
}
