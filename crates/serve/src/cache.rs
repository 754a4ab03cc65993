//! The LRU model cache: loaded runs keyed by run-id, shared via `Arc`.
//!
//! Loading a run (model JSON + observed edge list off disk) is the
//! expensive part of serving a request — the whole point of a resident
//! server is to pay it once. The cache keeps up to `capacity` loaded
//! values, hands every requester an [`Arc`] alias of the **same**
//! instance (never a copy), and evicts least-recently-used entries when
//! full — but only entries that are *idle*: an entry whose `Arc` is still
//! held by an in-flight request is pinned, and if every resident entry is
//! pinned the miss is refused as [`CacheError::Saturated`] (the server
//! maps that to a typed `busy` rejection rather than unbounded growth).
//!
//! Loads run **outside** the lock (they hit the disk); if two threads
//! miss the same id concurrently, the first insert wins and the loser
//! adopts the winner's `Arc`, so there is always exactly one resident
//! instance per id.
//!
//! Invariants (property-tested in `tests/cache_props.rs`):
//!
//! - resident entries never exceed `capacity`;
//! - a hit returns the same `Arc` as the previous `get` of that id;
//! - only idle entries are ever evicted.

use crate::sync::lock_unpoisoned;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Whether a `get` found the value resident or had to load it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheOutcome {
    /// The value was resident; no load ran.
    Hit,
    /// The value was loaded (this request paid the disk cost).
    Miss,
}

impl CacheOutcome {
    /// Lower-case spelling (`"hit"` / `"miss"`): the `cache` label of the
    /// latency histogram and of the client's outcome structs.
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// Why a `get` failed.
#[derive(Debug)]
pub enum CacheError {
    /// The loader could not produce a value for this id (unknown run,
    /// unreadable run directory, shape mismatch, …).
    Load {
        /// The requested id.
        run_id: String,
        /// The loader's diagnosis.
        message: String,
    },
    /// The cache is full and every resident entry is held by an in-flight
    /// request — admitting this load would grow memory past the
    /// configured bound. A `429`-style condition: retry later.
    Saturated {
        /// The configured capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Load { run_id, message } => {
                write!(f, "cannot load run `{run_id}`: {message}")
            }
            CacheError::Saturated { capacity } => write!(
                f,
                "model cache saturated: all {capacity} resident models are serving in-flight requests"
            ),
        }
    }
}

impl std::error::Error for CacheError {}

/// The fallible value loader a [`ModelCache`] fills misses through.
pub type CacheLoader<T> = Box<dyn Fn(&str) -> Result<T, String> + Send + Sync>;

/// Lifetime totals of one cache instance (see [`ModelCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get` calls that found the value resident.
    pub hits: u64,
    /// `get` calls that paid a load.
    pub misses: u64,
    /// Idle entries evicted to make room.
    pub evictions: u64,
    /// Misses refused because every resident entry was pinned.
    pub saturations: u64,
}

/// Instance counters plus their global-registry mirrors. The instance
/// side is the source of truth for [`ModelCache::stats`] (tests and
/// the `status` frame get exact per-cache numbers); the mirrors make
/// the same events visible to `metrics` scrapes as
/// `serve.cache.{hit,miss,eviction,saturation}`.
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    saturations: AtomicU64,
    g_hits: Arc<tg_obs::Counter>,
    g_misses: Arc<tg_obs::Counter>,
    g_evictions: Arc<tg_obs::Counter>,
    g_saturations: Arc<tg_obs::Counter>,
}

impl Counters {
    fn new() -> Counters {
        let reg = tg_obs::Registry::global();
        Counters {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            saturations: AtomicU64::new(0),
            g_hits: reg.counter("serve.cache.hit", &[]),
            g_misses: reg.counter("serve.cache.miss", &[]),
            g_evictions: reg.counter("serve.cache.eviction", &[]),
            g_saturations: reg.counter("serve.cache.saturation", &[]),
        }
    }

    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.g_hits.inc();
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.g_misses.inc();
    }

    fn eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        self.g_evictions.inc();
    }

    fn saturation(&self) {
        self.saturations.fetch_add(1, Ordering::Relaxed);
        self.g_saturations.inc();
    }
}

/// A bounded, thread-safe LRU cache of `Arc<T>` values produced by a
/// fallible loader. See the [module docs](self) for the contract.
pub struct ModelCache<T> {
    capacity: usize,
    loader: CacheLoader<T>,
    /// Most-recently-used first.
    entries: Mutex<Vec<(String, Arc<T>)>>,
    counters: Counters,
}

impl<T> ModelCache<T> {
    /// Cache holding at most `capacity` (≥ 1) values, filling misses
    /// through `loader`.
    pub fn new(
        capacity: usize,
        loader: impl Fn(&str) -> Result<T, String> + Send + Sync + 'static,
    ) -> Self {
        assert!(capacity >= 1, "cache capacity must be >= 1");
        ModelCache {
            capacity,
            loader: Box::new(loader),
            entries: Mutex::new(Vec::new()),
            counters: Counters::new(),
        }
    }

    /// This cache's lifetime hit/miss/eviction/saturation totals. The
    /// same events are mirrored into the global metrics registry as
    /// `serve.cache.*` counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            saturations: self.counters.saturations.load(Ordering::Relaxed),
        }
    }

    /// Resident ids with their pinned state, most-recently-used first.
    /// An entry is *pinned* while any in-flight request still holds its
    /// `Arc` (strong count above the cache's own reference).
    pub fn resident_detailed(&self) -> Vec<(String, bool)> {
        lock_unpoisoned(&self.entries)
            .iter()
            .map(|(id, arc)| (id.clone(), Arc::strong_count(arc) > 1))
            .collect()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident entry count (≤ capacity).
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.entries).len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `run_id` is currently resident (does not touch LRU order).
    pub fn contains(&self, run_id: &str) -> bool {
        lock_unpoisoned(&self.entries)
            .iter()
            .any(|(id, _)| id == run_id)
    }

    /// Resident ids, most-recently-used first.
    pub fn resident(&self) -> Vec<String> {
        lock_unpoisoned(&self.entries)
            .iter()
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// Fetch `run_id`, loading it on a miss. The returned `Arc` aliases
    /// the single resident instance; holding it pins the entry against
    /// eviction.
    pub fn get(&self, run_id: &str) -> Result<(Arc<T>, CacheOutcome), CacheError> {
        {
            let mut entries = lock_unpoisoned(&self.entries);
            if let Some(pos) = entries.iter().position(|(id, _)| id == run_id) {
                let entry = entries.remove(pos);
                let arc = Arc::clone(&entry.1);
                entries.insert(0, entry);
                self.counters.hit();
                return Ok((arc, CacheOutcome::Hit));
            }
        }
        // Miss: load outside the lock — loads hit the disk, and a slow
        // load must not block hits on other ids.
        let loaded = (self.loader)(run_id).map_err(|message| CacheError::Load {
            run_id: run_id.to_string(),
            message,
        })?;
        let mut entries = lock_unpoisoned(&self.entries);
        if let Some(pos) = entries.iter().position(|(id, _)| id == run_id) {
            // A concurrent miss won the insert race; adopt its instance so
            // exactly one copy stays resident. This request still paid a
            // load, so it reports Miss.
            let entry = entries.remove(pos);
            let arc = Arc::clone(&entry.1);
            entries.insert(0, entry);
            self.counters.miss();
            return Ok((arc, CacheOutcome::Miss));
        }
        if entries.len() >= self.capacity {
            // Evict the least-recently-used *idle* entry. strong_count == 1
            // means the cache holds the only reference — no in-flight
            // request is using it.
            match entries
                .iter()
                .rposition(|(_, arc)| Arc::strong_count(arc) == 1)
            {
                Some(pos) => {
                    entries.remove(pos);
                    self.counters.eviction();
                }
                None => {
                    self.counters.saturation();
                    return Err(CacheError::Saturated {
                        capacity: self.capacity,
                    });
                }
            }
        }
        let arc = Arc::new(loaded);
        entries.insert(0, (run_id.to_string(), Arc::clone(&arc)));
        self.counters.miss();
        Ok((arc, CacheOutcome::Miss))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn counting_cache(capacity: usize) -> (Arc<AtomicUsize>, ModelCache<String>) {
        let loads = Arc::new(AtomicUsize::new(0));
        let loads2 = Arc::clone(&loads);
        let cache = ModelCache::new(capacity, move |id: &str| {
            loads2.fetch_add(1, Ordering::SeqCst);
            if id == "missing" {
                Err("no such run".into())
            } else {
                Ok(format!("model:{id}"))
            }
        });
        (loads, cache)
    }

    #[test]
    fn hit_returns_the_same_arc_without_reloading() {
        let (loads, cache) = counting_cache(2);
        let (a, o1) = cache.get("r").unwrap();
        let (b, o2) = cache.get("r").unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(loads.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn lru_evicts_the_coldest_idle_entry() {
        let (_, cache) = counting_cache(2);
        drop(cache.get("a").unwrap());
        drop(cache.get("b").unwrap());
        drop(cache.get("a").unwrap()); // a is now the warmest
        drop(cache.get("c").unwrap()); // evicts b
        assert_eq!(cache.len(), 2);
        assert!(cache.contains("a"));
        assert!(cache.contains("c"));
        assert!(!cache.contains("b"));
        assert_eq!(cache.resident(), vec!["c".to_string(), "a".to_string()]);
    }

    #[test]
    fn held_entries_are_pinned_and_saturation_is_typed() {
        let (_, cache) = counting_cache(1);
        let (held, _) = cache.get("a").unwrap();
        let err = cache.get("b").unwrap_err();
        assert!(
            matches!(err, CacheError::Saturated { capacity: 1 }),
            "{err}"
        );
        assert!(cache.contains("a"), "pinned entry must not be evicted");
        drop(held);
        // idle now: the eviction goes through
        cache.get("b").unwrap();
        assert!(cache.contains("b"));
        assert!(!cache.contains("a"));
    }

    #[test]
    fn stats_count_hits_misses_evictions_and_saturations() {
        let (_, cache) = counting_cache(1);
        drop(cache.get("a").unwrap()); // miss
        drop(cache.get("a").unwrap()); // hit
        drop(cache.get("b").unwrap()); // miss + eviction of a
        let (held, _) = cache.get("b").unwrap(); // hit, now pinned
        let _ = cache.get("c").unwrap_err(); // saturation
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 2,
                evictions: 1,
                saturations: 1,
            }
        );
        assert_eq!(cache.resident_detailed(), vec![("b".to_string(), true)]);
        drop(held);
        assert_eq!(cache.resident_detailed(), vec![("b".to_string(), false)]);
        // loader failures count as neither hit nor miss
        let _ = cache.get("missing");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn loader_failure_is_typed_and_caches_nothing() {
        let (loads, cache) = counting_cache(2);
        let err = cache.get("missing").unwrap_err();
        assert!(matches!(err, CacheError::Load { .. }), "{err}");
        assert!(err.to_string().contains("missing"));
        assert!(cache.is_empty());
        // failures are not negative-cached: the loader runs again
        let _ = cache.get("missing");
        assert_eq!(loads.load(Ordering::SeqCst), 2);
    }
}
