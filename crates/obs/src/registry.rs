//! The metrics registry: sharded counters, gauges, fixed-boundary
//! histograms, and the two exposition formats.
//!
//! Instruments are interned per `(name, sorted label set)`: the first
//! registration allocates, every later lookup returns the same
//! [`Arc`] handle, and the recording hot path is a relaxed atomic op
//! on a held handle. Exposition walks a `BTreeMap`, so output order is
//! deterministic without a sort step.

use crate::{lock_unpoisoned, push_json_str};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// enable gate + stopwatch
// ---------------------------------------------------------------------------

static METRICS_ON: AtomicBool = AtomicBool::new(false);

/// Install the metrics "sink": after this, [`Stopwatch::start`] reads
/// the monotonic clock. Counter/gauge/histogram updates on held
/// handles are live regardless — this gate exists so that processes
/// which never export metrics pay zero wall-clock reads.
pub fn enable_metrics() {
    METRICS_ON.store(true, Ordering::Release);
}

/// Whether [`enable_metrics`] has been called in this process.
pub fn metrics_enabled() -> bool {
    METRICS_ON.load(Ordering::Acquire)
}

/// A latency timer that is inert until [`enable_metrics`] runs: when
/// metrics are off, `start` performs no clock read and `observe` is a
/// no-op, keeping the workspace's determinism contract auditable (all
/// wall-clock reads live in this crate).
pub struct Stopwatch {
    start: Option<std::time::Instant>,
}

impl Stopwatch {
    /// Start timing if metrics are enabled; otherwise return an inert
    /// stopwatch without touching the clock.
    pub fn start() -> Stopwatch {
        #[expect(
            clippy::disallowed_methods,
            reason = "metrics-only latency timing; the reading is exported, never fed back into seeded state"
        )]
        let start = if metrics_enabled() {
            Some(std::time::Instant::now())
        } else {
            None
        };
        Stopwatch { start }
    }

    /// Seconds since `start`, or `None` for an inert stopwatch.
    pub fn elapsed_seconds(&self) -> Option<f64> {
        self.start.map(|s| s.elapsed().as_secs_f64())
    }

    /// Record the elapsed time into `h`; no-op when inert.
    pub fn observe(&self, h: &Histogram) {
        if let Some(s) = self.elapsed_seconds() {
            h.observe(s);
        }
    }
}

// ---------------------------------------------------------------------------
// instruments
// ---------------------------------------------------------------------------

/// Counter shard count; power of two so the thread slot maps with a
/// mask. Eight 64-byte lines bound the false-sharing cost without
/// bloating every counter past a page.
const SHARDS: usize = 8;

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

fn thread_slot() -> usize {
    // Threads being torn down fall back to slot 0; the sum is unaffected.
    THREAD_SLOT.try_with(|s| *s).unwrap_or(0)
}

/// One cache-line-padded counter shard.
#[repr(align(64))]
struct Shard(AtomicU64);

/// A monotonically increasing counter, sharded across cache lines so
/// concurrent writers on different threads do not bounce one line.
pub struct Counter {
    shards: [Shard; SHARDS],
}

impl Counter {
    fn new() -> Counter {
        Counter {
            shards: std::array::from_fn(|_| Shard(AtomicU64::new(0))),
        }
    }

    /// Add `n` to the counter (relaxed; lock-free).
    pub fn add(&self, n: u64) {
        self.shards[thread_slot() & (SHARDS - 1)]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A last-write-wins floating-point gauge (f64 bits in an atomic).
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta via CAS.
    pub fn add(&self, d: f64) {
        let _ = self
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                Some((f64::from_bits(b) + d).to_bits())
            });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Default latency bucket boundaries (seconds), 250µs to 10s.
pub const LATENCY_SECONDS: &[f64] = &[
    0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0,
];

/// A fixed-boundary histogram. Buckets are stored non-cumulative
/// (bucket `i` counts observations `v <= bounds[i]`, the last bucket
/// is the `+Inf` overflow) and rendered cumulative for Prometheus.
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        let mut b: Vec<f64> = bounds.iter().copied().filter(|x| x.is_finite()).collect();
        b.sort_by(f64::total_cmp);
        b.dedup();
        let n = b.len() + 1;
        Histogram {
            bounds: b,
            buckets: (0..n).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|b| *b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                Some((f64::from_bits(b) + v).to_bits())
            });
    }

    /// A point-in-time copy of the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// An immutable histogram snapshot; the unit of export.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Ascending `le` boundaries.
    pub bounds: Vec<f64>,
    /// Non-cumulative bucket counts, `bounds.len() + 1` entries (the
    /// last is the `+Inf` overflow bucket).
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }
}

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

type Labels = Vec<(String, String)>;
type Key = (String, Labels);

fn intern_key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut ls: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    ls.sort();
    (name.to_string(), ls)
}

/// The value half of one exported metric.
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram buckets + sum.
    Histogram(HistogramSnapshot),
}

/// One exported metric: name, sorted labels, value.
#[derive(Clone, Debug)]
pub struct MetricSnapshot {
    /// Dotted metric name as registered (e.g. `serve.requests`).
    pub name: String,
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
    /// The recorded value.
    pub value: MetricValue,
}

/// An instrument registry. Most callers use the process-wide
/// [`Registry::global`]; tests construct private instances so their
/// assertions cannot race other tests' counters.
pub struct Registry {
    counters: Mutex<BTreeMap<Key, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<Key, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<Key, Arc<Histogram>>>,
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        GLOBAL.get_or_init(Registry::new)
    }

    /// Intern (or fetch) the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = intern_key(name, labels);
        let mut map = lock_unpoisoned(&self.counters);
        Arc::clone(map.entry(key).or_insert_with(|| Arc::new(Counter::new())))
    }

    /// Intern (or fetch) the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = intern_key(name, labels);
        let mut map = lock_unpoisoned(&self.gauges);
        Arc::clone(map.entry(key).or_insert_with(|| Arc::new(Gauge::new())))
    }

    /// Intern (or fetch) the histogram `name{labels}` with the given
    /// `le` boundaries. If the histogram already exists its original
    /// boundaries win — boundaries are part of the instrument's
    /// identity, not of any one call site.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Arc<Histogram> {
        let key = intern_key(name, labels);
        let mut map = lock_unpoisoned(&self.histograms);
        Arc::clone(
            map.entry(key)
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// A typed snapshot of every instrument, sorted by
    /// `(name, labels)`. This is what the serve `status` frame
    /// and both renderers are built from.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let mut out = Vec::new();
        for ((name, labels), c) in lock_unpoisoned(&self.counters).iter() {
            out.push(MetricSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                value: MetricValue::Counter(c.get()),
            });
        }
        for ((name, labels), g) in lock_unpoisoned(&self.gauges).iter() {
            out.push(MetricSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                value: MetricValue::Gauge(g.get()),
            });
        }
        for ((name, labels), h) in lock_unpoisoned(&self.histograms).iter() {
            out.push(MetricSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                value: MetricValue::Histogram(h.snapshot()),
            });
        }
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        out
    }

    /// Render the registry in Prometheus text exposition format.
    /// Dotted names are sanitised to underscore form; instruments are
    /// emitted in sorted order with one `# TYPE` line per family.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for m in self.snapshot() {
            let fam = sanitize(&m.name);
            match &m.value {
                MetricValue::Counter(v) => {
                    type_line(&mut out, &mut last_family, &fam, "counter");
                    out.push_str(&fam);
                    label_block(&mut out, &m.labels, None);
                    out.push_str(&format!(" {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    type_line(&mut out, &mut last_family, &fam, "gauge");
                    out.push_str(&fam);
                    label_block(&mut out, &m.labels, None);
                    out.push_str(&format!(" {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    type_line(&mut out, &mut last_family, &fam, "histogram");
                    let mut cum = 0u64;
                    for (i, c) in h.counts.iter().enumerate() {
                        cum += c;
                        let le = match h.bounds.get(i) {
                            Some(b) => format!("{b}"),
                            None => "+Inf".to_string(),
                        };
                        out.push_str(&format!("{fam}_bucket"));
                        label_block(&mut out, &m.labels, Some(&le));
                        out.push_str(&format!(" {cum}\n"));
                    }
                    out.push_str(&format!("{fam}_sum"));
                    label_block(&mut out, &m.labels, None);
                    out.push_str(&format!(" {}\n", h.sum));
                    out.push_str(&format!("{fam}_count"));
                    label_block(&mut out, &m.labels, None);
                    out.push_str(&format!(" {cum}\n"));
                }
            }
        }
        out
    }
}

/// Map a dotted metric name onto the Prometheus charset.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn type_line(out: &mut String, last: &mut String, fam: &str, kind: &str) {
    if last != fam {
        out.push_str(&format!("# TYPE {fam} {kind}\n"));
        *last = fam.to_string();
    }
}

/// Append `{k="v",…}` (plus an optional `le`) to `out`; nothing when
/// there are no labels and no `le`.
fn label_block(out: &mut String, labels: &[(String, String)], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&sanitize(k));
        out.push('=');
        push_json_str(out, v);
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=");
        push_json_str(out, le);
    }
    out.push('}');
}

/// Intern (or fetch) a counter in the global registry:
/// `counter!("serve.requests")` or
/// `counter!("serve.requests", run = run_id)`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::Registry::global().counter($name, &[])
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::Registry::global().counter($name, &[$((stringify!($k), $v)),+])
    };
}

/// Intern (or fetch) a gauge in the global registry; same shapes as
/// [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {
        $crate::Registry::global().gauge($name, &[])
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::Registry::global().gauge($name, &[$((stringify!($k), $v)),+])
    };
}

/// Intern (or fetch) a histogram in the global registry. The bounds
/// slice follows the name: `histogram!("serve.request.seconds",
/// tg_obs::LATENCY_SECONDS, cache = "hit")`.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $bounds:expr) => {
        $crate::Registry::global().histogram($name, &[], $bounds)
    };
    ($name:expr, $bounds:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::Registry::global().histogram($name, &[$((stringify!($k), $v)),+], $bounds)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_shards() {
        let r = Registry::new();
        let c = r.counter("t.c", &[]);
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
    }

    #[test]
    fn labels_are_interned_sorted() {
        let r = Registry::new();
        let a = r.counter("t.c", &[("b", "2"), ("a", "1")]);
        let b = r.counter("t.c", &[("a", "1"), ("b", "2")]);
        a.inc();
        assert_eq!(b.get(), 1, "same label set must intern to one handle");
    }

    #[test]
    fn gauge_set_add_get() {
        let r = Registry::new();
        let g = r.gauge("t.g", &[]);
        g.set(2.5);
        g.add(-1.0);
        assert_eq!(g.get(), 1.5);
    }

    #[test]
    fn histogram_bucket_boundaries_are_le() {
        let r = Registry::new();
        let h = r.histogram("t.h", &[], &[1.0, 2.0]);
        h.observe(0.5); // <= 1.0
        h.observe(1.0); // <= 1.0 (le is inclusive)
        h.observe(1.5); // <= 2.0
        h.observe(9.0); // +Inf
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 1]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum, 12.0);
    }

    #[test]
    fn prometheus_rendering_is_sorted_and_typed() {
        let r = Registry::new();
        r.counter("serve.requests", &[("run", "r1")]).add(2);
        r.counter("serve.requests", &[("run", "r2")]).inc();
        r.gauge("serve.inflight.cost", &[]).set(7.0);
        let h = r.histogram("lat.seconds", &[], &[0.3]);
        h.observe(0.25);
        h.observe(0.5);
        let text = r.render_prometheus();
        let expected = "# TYPE lat_seconds histogram\n\
                        lat_seconds_bucket{le=\"0.3\"} 1\n\
                        lat_seconds_bucket{le=\"+Inf\"} 2\n\
                        lat_seconds_sum 0.75\n\
                        lat_seconds_count 2\n\
                        # TYPE serve_inflight_cost gauge\n\
                        serve_inflight_cost 7\n\
                        # TYPE serve_requests counter\n\
                        serve_requests{run=\"r1\"} 2\n\
                        serve_requests{run=\"r2\"} 1\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn stopwatch_is_inert_until_enabled() {
        // Runs before any test in this process calls enable_metrics():
        // relies on test ordering being irrelevant — we only check the
        // inert path when the flag is genuinely off.
        if !metrics_enabled() {
            let sw = Stopwatch::start();
            assert!(sw.elapsed_seconds().is_none());
        }
    }
}
