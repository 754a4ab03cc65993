//! The resident daemon: accept loop, per-connection workers, request
//! execution.
//!
//! One [`Server`] owns the listening socket plus the shared serving state
//! — the [`ModelCache`] of loaded runs, the [`AdmissionController`], and
//! the drain flag. Each accepted connection gets its own worker thread
//! that reads request frames in a loop; simulation itself additionally
//! fans out across the engine's persistent worker pool, all requests
//! sharing **one** `Arc`-held model per run-id.
//!
//! # Fault points
//!
//! - `serve.accept` — evaluated per accepted connection; an injected
//!   error drops the connection before any frame is exchanged.
//! - `serve.request.decode` — evaluated per decoded request frame (arg =
//!   [`Frame::op`], e.g. `simulate`); an injected error yields a typed
//!   `Decode` error frame and the connection stays usable.
//! - `serve.generate.unit` — evaluated per emitted work unit (arg =
//!   `t:<t> chunk:<c>`); an injected error fails the request with a typed
//!   `Internal` error frame, an injected panic is caught at the request
//!   boundary. Either way the daemon and all concurrent requests survive.
//! - `serve.status` — evaluated while assembling a `Status` report; an
//!   injected error answers a typed `Internal` frame and the connection
//!   (and daemon) stay usable.
//!
//! # Drain
//!
//! `SIGTERM`/`SIGINT` (via [`crate::signal`]), a `Shutdown` request
//! frame, or [`ServerHandle::shutdown`] put the server in *draining*
//! mode: new connections and new requests are refused with typed
//! `Shutdown` error frames, in-flight requests run to completion, then
//! [`Server::run`] returns its [`ServeReport`].

use crate::admission::AdmissionController;
use crate::cache::{CacheError, ModelCache};
use crate::net::{Conn, Listener};
use crate::protocol::{
    decode_payload, read_payload, write_frame, ErrorKind, Frame, MAX_FRAME_BYTES,
};
use crate::signal;
use crate::telemetry::{self, CacheCounters, ResidentModel, StatusReport};
use std::io::{self, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};
use tg_faults::registry::{SERVE_ACCEPT, SERVE_GENERATE_UNIT, SERVE_REQUEST_DECODE, SERVE_STATUS};
use tg_graph::sink::EdgeSink;
use tg_graph::{TemporalEdge, Time};
use tg_metrics::{evaluate_against, GraphStats, StatsSink};
use tgae::SharedRun;

/// Produces the [`SharedRun`] for a run-id on a cache miss (typically by
/// reading a `tgx-cli` run directory off disk).
pub type Loader = Box<dyn Fn(&str) -> Result<SharedRun, String> + Send + Sync>;

/// Server tuning knobs. `Default` is sized for tests and small
/// deployments; the CLI exposes the interesting ones as flags.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Resident models kept loaded (LRU beyond this).
    pub cache_capacity: usize,
    /// In-flight cost budget for admission control (see
    /// [`CostEstimate`](tgae::CostEstimate)).
    pub max_cost: u64,
    /// Accept-loop poll interval while idle.
    pub poll: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_capacity: 4,
            max_cost: 1 << 24,
            poll: Duration::from_millis(5),
        }
    }
}

/// What [`Server::run`] reports after a clean drain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeReport {
    /// Requests answered successfully over the server's lifetime.
    pub requests_served: u64,
}

/// A cache entry: one loaded run. The Table III series of its observed
/// graph lives on the run ([`SharedRun::observed_series`]): walked once,
/// by the first request that needs it, and shared with every clone.
struct Resident {
    run: SharedRun,
    /// Set by the first request of this residency that asks for the series.
    asked: Once,
}

impl Resident {
    /// The observed series; `serve.observed_walks{run}` counts one walk
    /// per resident run (none happens if a clone of the run walked first).
    fn observed_series(&self, run_id: &str) -> &[GraphStats] {
        self.asked.call_once(|| {
            tg_obs::counter!("serve.observed_walks", run = run_id).inc();
        });
        self.run.observed_series()
    }
}

struct SharedState {
    cache: ModelCache<Resident>,
    admission: AdmissionController,
    cfg: ServeConfig,
    shutdown: AtomicBool,
    active: AtomicUsize,
    served: AtomicU64,
}

impl SharedState {
    fn is_draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::termination_requested()
    }

    /// Assemble the `status` payload from live state plus the metrics
    /// registry (the per-run counters live only there).
    fn status_report(&self) -> StatusReport {
        let (inflight_cost, inflight_requests) = self.admission.inflight();
        let cs = self.cache.stats();
        StatusReport {
            draining: self.is_draining(),
            requests_served: self.served.load(Ordering::SeqCst),
            active_requests: self.active.load(Ordering::SeqCst) as u64,
            inflight_cost,
            inflight_requests: inflight_requests as u64,
            max_cost: self.admission.max_cost(),
            admission_rejected: self.admission.rejected(),
            cache_capacity: self.cache.capacity() as u64,
            cache: CacheCounters {
                hits: cs.hits,
                misses: cs.misses,
                evictions: cs.evictions,
                saturations: cs.saturations,
            },
            resident: self
                .cache
                .resident_detailed()
                .into_iter()
                .map(|(run_id, pinned)| ResidentModel { run_id, pinned })
                .collect(),
            runs: telemetry::runs_from_registry(),
        }
    }
}

/// A bound, not-yet-running server. Call [`Server::run`] to serve until
/// drained.
pub struct Server {
    listener: Listener,
    shared: Arc<SharedState>,
}

/// A cloneable handle for observing and stopping a running server from
/// another thread (tests drive in-process servers through this).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<SharedState>,
}

impl ServerHandle {
    /// Ask the server to drain and exit (idempotent).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Requests currently executing.
    pub fn active_requests(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Requests answered successfully so far.
    pub fn requests_served(&self) -> u64 {
        self.shared.served.load(Ordering::SeqCst)
    }

    /// Whether the server is refusing new work.
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }
}

impl Server {
    fn assemble(listener: Listener, loader: Loader, cfg: ServeConfig) -> Server {
        let shared = Arc::new(SharedState {
            cache: ModelCache::new(cfg.cache_capacity, move |id: &str| {
                loader(id).map(|run| Resident {
                    run,
                    asked: Once::new(),
                })
            }),
            admission: AdmissionController::new(cfg.max_cost),
            cfg,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            served: AtomicU64::new(0),
        });
        Server { listener, shared }
    }

    /// Bind a TCP endpoint (`"127.0.0.1:0"` picks an ephemeral port —
    /// read it back with [`Server::tcp_addr`]).
    pub fn bind_tcp(addr: &str, loader: Loader, cfg: ServeConfig) -> io::Result<Server> {
        Ok(Server::assemble(Listener::bind_tcp(addr)?, loader, cfg))
    }

    /// Bind a Unix-domain socket path (removed again on shutdown).
    #[cfg(unix)]
    pub fn bind_unix(
        path: &std::path::Path,
        loader: Loader,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        Ok(Server::assemble(Listener::bind_unix(path)?, loader, cfg))
    }

    /// The bound TCP address (None for Unix sockets).
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        self.listener.tcp_addr()
    }

    /// Human-readable endpoint (address or socket path).
    pub fn endpoint(&self) -> String {
        self.listener.endpoint()
    }

    /// A handle for stopping/observing this server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serve until drained. Returns after a `shutdown` request,
    /// [`ServerHandle::shutdown`], or a termination signal — once every
    /// in-flight request has completed.
    pub fn run(self) -> io::Result<ServeReport> {
        // A resident daemon IS a metrics sink by definition: arm the
        // obs stopwatch so request latencies land in the registry.
        tg_obs::enable_metrics();
        let Server { listener, shared } = self;
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let draining = shared.is_draining();
            match listener.accept_nonblocking() {
                Ok(Some(conn)) => {
                    // Direct eval (not the `fail_point!` macro): an injected
                    // accept failure must drop this one connection, never
                    // propagate out of the accept loop.
                    if tg_faults::eval(&SERVE_ACCEPT, None).is_err() {
                        continue;
                    }
                    if draining {
                        refuse_while_draining(conn);
                        continue;
                    }
                    let worker_shared = Arc::clone(&shared);
                    workers.push(std::thread::spawn(move || {
                        handle_connection(conn, worker_shared)
                    }));
                    workers.retain(|h| !h.is_finished());
                }
                Ok(None) => {
                    if draining && shared.active.load(Ordering::SeqCst) == 0 {
                        break;
                    }
                    std::thread::sleep(shared.cfg.poll);
                }
                Err(_) => std::thread::sleep(shared.cfg.poll),
            }
        }
        // Workers past this point are either writing drain refusals or
        // blocked reading an idle connection; in-flight *requests* are
        // already done (active == 0), so don't join — an idle client
        // holding its connection open must not stall shutdown.
        drop(workers);
        Ok(ServeReport {
            requests_served: shared.served.load(Ordering::SeqCst),
        })
    }
}

/// Pins one executing request in the active counter (RAII).
struct ActiveGuard<'a>(&'a AtomicUsize);

impl<'a> ActiveGuard<'a> {
    fn new(counter: &'a AtomicUsize) -> Self {
        counter.fetch_add(1, Ordering::SeqCst);
        ActiveGuard(counter)
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn error(kind: ErrorKind, cause: impl std::fmt::Display) -> Frame {
    Frame::Error {
        kind,
        message: cause.to_string(),
    }
}

fn draining_refusal() -> Frame {
    error(ErrorKind::Shutdown, "server is draining")
}

/// How long a connection the accept loop refuses while draining gets to
/// deliver its first frame, in total, before the server hangs up on it.
const REFUSAL_READ_DEADLINE: Duration = Duration::from_millis(100);

/// Answer a connection accepted while draining with the typed refusal,
/// then read and discard the client's first frame before dropping the
/// connection. Closing a socket with unread input sends a reset instead
/// of a FIN, and a reset that reaches the client before it reads the
/// refusal loses the refusal with it. The whole read shares one
/// [`REFUSAL_READ_DEADLINE`], so a client that trickles its frame, or
/// sends none, holds the accept loop no longer than that.
fn refuse_while_draining(mut conn: Conn) {
    let _ = write_frame(&mut conn, &draining_refusal());
    let mut first = Deadline::new(&mut conn, REFUSAL_READ_DEADLINE);
    let mut len = [0u8; 4];
    if first.read_exact(&mut len).is_ok() {
        let len = (u32::from_be_bytes(len) as usize).min(MAX_FRAME_BYTES);
        let _ = io::copy(&mut first.take(len as u64), &mut io::sink());
    }
}

/// A reader over a connection whose reads all end by one instant: each
/// read's timeout is the time left, and a read past it fails `TimedOut`.
struct Deadline<'a> {
    conn: &'a mut Conn,
    until: Instant,
}

impl<'a> Deadline<'a> {
    #[expect(
        clippy::disallowed_methods,
        reason = "a socket deadline; the reading never reaches seeded state"
    )]
    fn new(conn: &'a mut Conn, limit: Duration) -> Self {
        Deadline {
            conn,
            until: Instant::now() + limit,
        }
    }
}

impl Read for Deadline<'_> {
    #[expect(
        clippy::disallowed_methods,
        reason = "a socket deadline; the reading never reaches seeded state"
    )]
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.conn.set_read_timeout(Some(left))?;
        self.conn.read(buf)
    }
}

fn handle_connection(mut conn: Conn, shared: Arc<SharedState>) {
    loop {
        let payload = match read_payload(&mut conn) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(e) => {
                // A torn or oversized frame leaves no boundary to resume
                // from: answer typed, then close.
                let _ = write_frame(&mut conn, &error(ErrorKind::Decode, e));
                return;
            }
        };
        // Pin BEFORE the drain check: once a request is past this line the
        // accept loop's `active == 0` drain test cannot miss it.
        let _active = ActiveGuard::new(&shared.active);
        if shared.is_draining() {
            let _ = write_frame(&mut conn, &draining_refusal());
            return;
        }
        // The payload arrived whole, so the framing is intact whatever it
        // holds: one that does not decode, an injected decode fault or a
        // response variant is refused typed, and a retry on this
        // connection can succeed.
        let request = decode_payload(&payload).and_then(|frame| {
            tg_faults::eval(&SERVE_REQUEST_DECODE, Some(frame.op()))?;
            Ok(frame)
        });
        let answer = match request {
            Err(e) => error(ErrorKind::Decode, e),
            Ok(Frame::Ping) => Frame::Pong,
            Ok(Frame::Shutdown) => {
                shared.shutdown.store(true, Ordering::SeqCst);
                let _ = write_frame(&mut conn, &Frame::Bye);
                return;
            }
            Ok(Frame::Simulate {
                run_id,
                seed,
                stats,
            }) => {
                let job = if stats { Job::Stats } else { Job::Stream };
                match handle_request(&mut conn, &shared, &run_id, seed, job) {
                    Ok(true) => continue,
                    Ok(false) | Err(_) => return,
                }
            }
            Ok(Frame::Eval { run_id, seed }) => {
                match handle_request(&mut conn, &shared, &run_id, seed, Job::Eval) {
                    Ok(true) => continue,
                    Ok(false) | Err(_) => return,
                }
            }
            // An introspection failure (injected here) must answer typed
            // on this connection and leave the daemon — and every
            // data-plane request — untouched.
            Ok(Frame::Status) => match tg_faults::eval(&SERVE_STATUS, None) {
                Err(e) => error(ErrorKind::Internal, e),
                Ok(()) => Frame::StatusReport(shared.status_report()),
            },
            Ok(Frame::Metrics) => Frame::MetricsReport {
                text: tg_obs::Registry::global().render_prometheus(),
            },
            Ok(
                response @ (Frame::Start { .. }
                | Frame::Edges { .. }
                | Frame::Stats { .. }
                | Frame::Done { .. }
                | Frame::Scores { .. }
                | Frame::StatusReport(_)
                | Frame::MetricsReport { .. }
                | Frame::Pong
                | Frame::Bye
                | Frame::Error { .. }),
            ) => error(
                ErrorKind::Decode,
                format_args!("`{}` is a response, not a request", response.op()),
            ),
        };
        if write_frame(&mut conn, &answer).is_err() {
            return;
        }
    }
}

/// What an admitted request computes from its generation.
enum Job {
    /// Stream the edges as `Edges` frames, then `Done`.
    Stream,
    /// Fold the edges into one `Stats` series.
    Stats,
    /// Fold the edges the same way and score the series against the
    /// observed graph's.
    Eval,
}

/// Execute one `Simulate`/`Eval` request. `Ok(true)` means the
/// connection may serve further requests; `Ok(false)` means it must close
/// (a response stream was torn mid-flight).
fn handle_request(
    conn: &mut Conn,
    shared: &SharedState,
    run_id: &str,
    seed: u64,
    job: Job,
) -> io::Result<bool> {
    let stopwatch = tg_obs::Stopwatch::start();
    let (resident, outcome) = match shared.cache.get(run_id) {
        Ok(hit) => hit,
        Err(e @ CacheError::Load { .. }) => {
            write_frame(conn, &error(ErrorKind::NotFound, e))?;
            return Ok(true);
        }
        Err(e @ CacheError::Saturated { .. }) => {
            write_frame(conn, &error(ErrorKind::Busy, e))?;
            return Ok(true);
        }
    };
    let run = &resident.run;
    let est = run.cost_estimate();
    let _permit = match shared.admission.try_admit(est.cost) {
        Ok(permit) => permit,
        Err(rejection) => {
            write_frame(conn, &error(ErrorKind::Busy, rejection))?;
            return Ok(true);
        }
    };
    write_frame(
        conn,
        &Frame::Start {
            cost: est,
            cache: outcome,
        },
    )?;

    // The panic boundary: an engine bug or an injected
    // `serve.generate.unit=panic` fault unwinds to here and becomes a
    // typed `Internal` error frame — the daemon and every concurrent
    // request keep going.
    let executed = catch_unwind(AssertUnwindSafe(|| -> Result<Frame, String> {
        match job {
            Job::Eval | Job::Stats => {
                // The generated side of Eq. 10 is folded unit by unit;
                // no synthetic graph is built.
                let observed = run.observed();
                let sink =
                    FaultGate::new(StatsSink::new(observed.n_nodes(), observed.n_timestamps()));
                let stats = run
                    .simulate_seeded(seed, sink)
                    .map_err(|e| e.to_string())??;
                if matches!(job, Job::Stats) {
                    return Ok(Frame::Stats { stats });
                }
                let real = resident.observed_series(run_id);
                let scores = evaluate_against(real, &stats.stats);
                Ok(Frame::Scores { scores })
            }
            Job::Stream => {
                let bytes_counter = tg_obs::counter!("serve.bytes", run = run_id);
                let sink = FaultGate::new(FrameSink::new(conn, bytes_counter));
                let streamed = run
                    .simulate_seeded(seed, sink)
                    .map_err(|e| e.to_string())??;
                let n_edges = streamed.map_err(|e| format!("stream write failed: {e}"))?;
                Ok(Frame::Done { n_edges })
            }
        }
    }));
    match executed {
        Ok(Ok(response)) => {
            write_frame(conn, &response)?;
            shared.served.fetch_add(1, Ordering::SeqCst);
            tg_obs::counter!("serve.requests", run = run_id).inc();
            // Cold/warm split: a miss paid the model load, a hit is
            // pure generation time.
            let latency = tg_obs::histogram!(
                "serve.request.seconds",
                tg_obs::LATENCY_SECONDS,
                cache = outcome.as_str()
            );
            stopwatch.observe(&latency);
            Ok(true)
        }
        Ok(Err(message)) => {
            // Edge frames may already be on the wire: answer typed, then
            // close so the client never mistakes a partial stream for a
            // complete one.
            let _ = write_frame(conn, &error(ErrorKind::Internal, message));
            Ok(false)
        }
        Err(panic) => {
            // `as_ref`, not `&panic`: a `&Box<dyn Any>` unsize-coerces to
            // the BOX as the `dyn Any`, making every payload downcast miss.
            let message = panic_message(panic.as_ref());
            let _ = write_frame(
                conn,
                &error(
                    ErrorKind::Internal,
                    format_args!("request panicked: {message}"),
                ),
            );
            Ok(false)
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Wraps any [`EdgeSink`] with the `serve.generate.unit` fault point: an
/// injected error marks the request failed (deferred, surfaced by
/// `finish`) and stops feeding the inner sink; an injected panic unwinds
/// to the request boundary.
struct FaultGate<S> {
    inner: S,
    deferred: Option<String>,
}

impl<S> FaultGate<S> {
    fn new(inner: S) -> Self {
        FaultGate {
            inner,
            deferred: None,
        }
    }
}

impl<S: EdgeSink> EdgeSink for FaultGate<S> {
    type Output = Result<S::Output, String>;

    fn accept(&mut self, t: Time, chunk: u32, edges: &[TemporalEdge]) {
        if self.deferred.is_some() {
            return;
        }
        if let Err(e) =
            tg_faults::eval_lazy(&SERVE_GENERATE_UNIT, || format!("t:{t} chunk:{chunk}"))
        {
            self.deferred = Some(e.to_string());
            return;
        }
        self.inner.accept(t, chunk, edges);
    }

    fn finish(self) -> Result<S::Output, String> {
        match self.deferred {
            Some(message) => Err(message),
            None => Ok(self.inner.finish()),
        }
    }
}

/// Edge rows buffered per `Edges` frame.
const BATCH_EDGES: usize = 4096;

/// Streams accepted units to the connection as `Edges` frames, batching
/// [`BATCH_EDGES`] rows per frame: the rows `StreamingWriterSink` writes in
/// process, [`TemporalEdge`]'s `Display` plus a newline. Write
/// errors are deferred to `finish` (the [`EdgeSink`] contract has no
/// fallible accept).
struct FrameSink<'a> {
    conn: &'a mut Conn,
    buf: String,
    buffered_rows: usize,
    n_edges: u64,
    deferred: Option<io::Error>,
    /// Per-run `serve.bytes` registry counter; counts payload bytes
    /// actually handed to the transport.
    bytes: Arc<tg_obs::Counter>,
}

impl<'a> FrameSink<'a> {
    fn new(conn: &'a mut Conn, bytes: Arc<tg_obs::Counter>) -> Self {
        FrameSink {
            conn,
            buf: String::new(),
            buffered_rows: 0,
            n_edges: 0,
            deferred: None,
            bytes,
        }
    }

    fn flush_batch(&mut self) {
        if self.buffered_rows == 0 || self.deferred.is_some() {
            return;
        }
        let data = std::mem::take(&mut self.buf);
        self.buffered_rows = 0;
        let n = data.len() as u64;
        match write_frame(self.conn, &Frame::edges(data)) {
            Ok(()) => self.bytes.add(n),
            Err(e) => self.deferred = Some(e),
        }
    }
}

impl EdgeSink for FrameSink<'_> {
    type Output = io::Result<u64>;

    fn accept(&mut self, _t: Time, _chunk: u32, edges: &[TemporalEdge]) {
        if self.deferred.is_some() {
            return;
        }
        for e in edges {
            use std::fmt::Write as _;
            let _ = writeln!(self.buf, "{e}");
            self.buffered_rows += 1;
            self.n_edges += 1;
            if self.buffered_rows >= BATCH_EDGES {
                self.flush_batch();
            }
        }
    }

    fn finish(mut self) -> io::Result<u64> {
        self.flush_batch();
        match self.deferred {
            Some(e) => Err(e),
            None => {
                self.conn.flush()?;
                Ok(self.n_edges)
            }
        }
    }
}
