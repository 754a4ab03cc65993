//! The serve phases: an in-process `tg_serve::Server` on real loopback
//! TCP, driven by one **closed-loop** client (the next request leaves
//! only after the previous reply arrived; one client, one connection
//! thread, an idle accept loop — never more runnable threads than the
//! box has cores).
//!
//! What is served is always the same small run — DBLP ×0.1 trained 30
//! steps, about 8 ms to generate directly — saved as two run
//! directories and loaded the way `tgx-cli serve` loads one
//! (`tgae::load` + `load_edge_list_exact` + `SharedRun::new`), behind a
//! one-entry model cache. A bigger run cannot be served here: one
//! request is one full generation, 0.2–21 s on the four pipeline
//! datasets.

use crate::workloads::{digest, scaled, timed, Prepared, Tally};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use tg_graph::io::{load_edge_list_exact, StreamingWriterSink};
use tg_serve::{Client, ServeConfig, ServeReport, Server, ServerHandle, StatusReport};
use tgae::SharedRun;

/// The two run directories the served run is saved under; the cold
/// phase alternates between them so every cold request is a miss, an
/// eviction and a load.
pub const RUN_IDS: [&str; 2] = ["run_a", "run_b"];

/// Requests per serve phase at the nominal `--seconds`. The end-to-end
/// run issues the direct generations and the warm requests; the traced
/// run all four phases.
#[derive(Clone, Copy, Debug)]
pub struct ServeCounts {
    /// Warm `simulate` on one persistent connection.
    pub warm: usize,
    /// Warm `simulate`, each on a fresh connection.
    pub connect: usize,
    /// Cold `simulate` alternating the two run ids.
    pub cold: usize,
    /// Direct in-process generations; also the number of distinct seeds.
    pub direct: usize,
}

impl ServeCounts {
    /// `serve_small`: the workload that exists to measure serving.
    pub const FULL: ServeCounts = ServeCounts {
        warm: 1500,
        connect: 160,
        cold: 40,
        direct: 150,
    };
    /// The four pipeline workloads: enough requests for a p95 with ten
    /// samples beyond it, after the heavy stages have run in the process.
    pub const PROBE: ServeCounts = ServeCounts {
        warm: 240,
        connect: 60,
        cold: 20,
        direct: 40,
    };

    /// Scale to `--seconds`.
    pub fn scaled(&self, seconds: u64) -> ServeCounts {
        ServeCounts {
            warm: scaled(self.warm, seconds),
            connect: scaled(self.connect, seconds),
            cold: scaled(self.cold, seconds),
            direct: scaled(self.direct, seconds),
        }
    }
}

/// The cache-miss loader, mirroring `tgx-cli serve`'s: run id → run
/// directory → model JSON + dense edge list → validated `SharedRun`.
pub fn loader(root: PathBuf) -> impl Fn(&str) -> Result<SharedRun, String> + Send + Sync {
    move |run_id: &str| {
        let dir = root.join(run_id);
        let model = tgae::load(dir.join("model.json")).map_err(|e| e.to_string())?;
        let observed = load_edge_list_exact(
            dir.join("observed.edges"),
            model.n_nodes,
            model.n_timestamps,
        )
        .map_err(|e| e.to_string())?;
        SharedRun::new(model, observed).map_err(|e| e.to_string())
    }
}

/// Client-side latency samples of the serve phases.
#[derive(Default)]
pub struct ServeSamples {
    /// Direct `SharedRun::simulate_seeded`, ms.
    pub direct_ms: Vec<f64>,
    /// Warm request on the persistent connection, ms.
    pub warm_ms: Vec<f64>,
    /// Connect + warm request + drop, ms.
    pub connect_ms: Vec<f64>,
    /// Request that misses the cache, ms.
    pub cold_ms: Vec<f64>,
    /// `ping` on the persistent connection, µs.
    pub ping_us: Vec<f64>,
    /// Connect + `ping` + drop, µs.
    pub fresh_ping_us: Vec<f64>,
}

/// A running server with its address.
pub struct Live {
    addr: String,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<ServeReport>>,
}

/// Think time before the `i`-th fresh connection. The accept loop polls
/// every `ServeConfig::poll`; a closed-loop client reconnecting the
/// instant its last reply arrived phase-locks to that poll and measures
/// one arbitrary point of the 0..poll wait. Golden-ratio steps through
/// the poll period sample the wait evenly instead, so the median is the
/// typical new connection's.
fn think(i: usize) {
    let poll = ServeConfig::default().poll.as_secs_f64();
    let phase = (i as f64 * 0.618_033_988_749_895).fract();
    std::thread::sleep(std::time::Duration::from_secs_f64(poll * phase));
}

/// One `simulate` into `buf`, returning the latency in ms and the
/// reply's cache outcome and edge count.
fn request(
    client: &mut Client,
    span: &'static str,
    run_id: &str,
    seed: u64,
    buf: &mut Vec<u8>,
) -> Result<(f64, String, u64), String> {
    buf.clear();
    let (outcome, secs) = timed(span, || client.simulate(run_id, seed, buf));
    let outcome = outcome.map_err(|e| e.to_string())?;
    Ok((secs * 1e3, outcome.cache, outcome.n_edges))
}

/// Bind, spawn the accept loop, and warm the server up: one cold load of
/// the first run id and a few warm requests.
pub fn start(root: &Path, tally: &mut Tally) -> Option<Live> {
    let live = tally.op("start server", || {
        let cfg = ServeConfig {
            cache_capacity: 1,
            ..ServeConfig::default()
        };
        let server = Server::bind_tcp("127.0.0.1:0", Box::new(loader(root.to_path_buf())), cfg)
            .map_err(|e| e.to_string())?;
        let addr = server.tcp_addr().ok_or("server has no TCP address")?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Live {
            addr: addr.to_string(),
            handle,
            thread,
        })
    })?;
    tally.op("warm-up requests", || {
        let mut client = Client::connect_tcp(&live.addr).map_err(|e| e.to_string())?;
        let mut buf = Vec::new();
        for seed in 0..6 {
            request(
                &mut client,
                "bench.tg-serve.warm_up",
                RUN_IDS[0],
                seed,
                &mut buf,
            )?;
        }
        Ok(())
    });
    Some(live)
}

/// The closed-loop client of one run: one operation per call, every
/// served stream checked against the direct generation for its seed.
pub struct Requests<'a> {
    addr: &'a str,
    run: &'a SharedRun,
    /// Latency samples so far.
    pub samples: ServeSamples,
    /// Per seed: the master and the digest of its direct generation.
    expected: Vec<(u64, (usize, u64))>,
    client: Option<Client>,
    buf: Vec<u8>,
    issued: usize,
}

impl Requests<'_> {
    /// The next seed with a known direct digest, in rotation.
    fn next_seed(&mut self) -> Result<(u64, (usize, u64)), String> {
        if self.expected.is_empty() {
            return Err("no direct generation to compare against yet".into());
        }
        self.issued += 1;
        Ok(self.expected[self.issued % self.expected.len()])
    }

    fn served_ok(
        &self,
        cache: &str,
        want: &str,
        n_edges: u64,
        exp: (usize, u64),
    ) -> Result<(), String> {
        if cache != want {
            return Err(format!("cache was `{cache}`, expected `{want}`"));
        }
        if n_edges != self.run.observed().n_edges() as u64 || digest(&self.buf) != exp {
            return Err("served bytes differ from direct generation".to_string());
        }
        Ok(())
    }

    fn persistent(&mut self) -> Result<&mut Client, String> {
        if self.client.is_none() {
            self.client = Some(Client::connect_tcp(self.addr).map_err(|e| e.to_string())?);
        }
        self.client
            .as_mut()
            .ok_or_else(|| "no connection".to_string())
    }

    /// One request on the persistent connection, checked.
    fn persistent_request(
        &mut self,
        span: &'static str,
        run_id: &str,
        want: &str,
    ) -> Result<f64, String> {
        let (seed, exp) = self.next_seed()?;
        let mut buf = std::mem::take(&mut self.buf);
        let outcome = self
            .persistent()
            .and_then(|client| request(client, span, run_id, seed, &mut buf));
        self.buf = buf;
        let (ms, cache, n_edges) = outcome?;
        self.served_ok(&cache, want, n_edges, exp).map(|()| ms)
    }

    /// One direct generation of the next seed, in process; its digest is
    /// what every served stream of that seed must reproduce.
    pub fn direct(&mut self, tally: &mut Tally) {
        let master = self
            .run
            .seed_policy()
            .simulation_master(self.expected.len() as u64);
        let (run, buf) = (self.run, &mut self.buf);
        let ms = tally.op("direct generation", || {
            buf.clear();
            let (out, secs) = timed("bench.tgae.simulate_direct", || {
                run.simulate_seeded(master, StreamingWriterSink::new(&mut *buf))
            });
            let written = out.map_err(|e| e.to_string())?;
            written.map_err(|e| e.to_string())?;
            Ok(secs * 1e3)
        });
        if let Some(ms) = ms {
            self.samples.direct_ms.push(ms);
            self.expected.push((master, digest(&self.buf)));
        }
    }

    /// One warm request on the persistent connection. After another
    /// kind of operation (`rewarm`), three untimed requests go first: the
    /// caches a heavy stage just emptied, and a connection thread that
    /// has slept through it, are not what "warm" measures.
    pub fn warm(&mut self, rewarm: bool, tally: &mut Tally) {
        for _ in 0..if rewarm { 3 } else { 0 } {
            tally.op("re-warm request", || {
                self.persistent_request("bench.tg-serve.warm_up", RUN_IDS[0], "hit")
            });
        }
        let ms = tally.op("warm request", || {
            self.persistent_request("bench.tg-serve.simulate_warm", RUN_IDS[0], "hit")
        });
        self.samples.warm_ms.extend(ms);
    }

    /// Connect, one warm request, drop.
    pub fn connect(&mut self, tally: &mut Tally) {
        think(self.samples.connect_ms.len());
        let ms = tally.op("fresh-connection request", || {
            let (seed, exp) = self.next_seed()?;
            self.buf.clear();
            let (addr, buf) = (self.addr, &mut self.buf);
            let (out, secs) = timed("bench.tg-serve.simulate_connect", || {
                let mut fresh = Client::connect_tcp(addr)?;
                fresh.simulate(RUN_IDS[0], seed, buf)
            });
            let out = out.map_err(|e| e.to_string())?;
            self.served_ok(&out.cache, "hit", out.n_edges, exp)
                .map(|()| secs * 1e3)
        });
        self.samples.connect_ms.extend(ms);
    }

    /// Two cold requests on the persistent connection: the other run id
    /// (a miss, an eviction, a load), then the first one back (the
    /// same), which also leaves the cache as the warm requests expect.
    pub fn cold(&mut self, tally: &mut Tally) {
        for run_id in [RUN_IDS[1], RUN_IDS[0]] {
            let ms = tally.op("cold request", || {
                self.persistent_request("bench.tg-serve.simulate_cold", run_id, "miss")
            });
            self.samples.cold_ms.extend(ms);
        }
    }
}

impl Live {
    /// A closed-loop client of this server for the served run.
    pub fn requests<'a>(&'a self, p: &'a Prepared) -> Requests<'a> {
        Requests {
            addr: &self.addr,
            run: &p.served,
            samples: ServeSamples::default(),
            expected: Vec::new(),
            client: None,
            buf: Vec::new(),
            issued: 0,
        }
    }

    /// `ping` round trips, persistent and on fresh connections (the
    /// difference is what the accept loop costs a new connection).
    pub fn pings(&self, s: &mut ServeSamples, tally: &mut Tally) {
        let persistent = tally.op("connect", || {
            Client::connect_tcp(&self.addr).map_err(|e| e.to_string())
        });
        if let Some(mut client) = persistent {
            for _ in 0..300 {
                let us = tally.op("ping", || {
                    let (out, secs) = timed("bench.tg-serve.ping", || client.ping());
                    out.map(|()| secs * 1e6).map_err(|e| e.to_string())
                });
                s.ping_us.extend(us);
            }
        }
        for i in 0..60 {
            think(i);
            let us = tally.op("fresh-connection ping", || {
                let (out, secs) = timed("bench.tg-serve.ping_fresh", || {
                    Client::connect_tcp(&self.addr)?.ping()
                });
                out.map(|()| secs * 1e6).map_err(|e| e.to_string())
            });
            s.fresh_ping_us.extend(us);
        }
    }

    /// The server's own counters.
    pub fn status(&self, tally: &mut Tally) -> Option<StatusReport> {
        tally.op("status", || {
            Client::connect_tcp(&self.addr)
                .and_then(|mut c| c.status())
                .map_err(|e| e.to_string())
        })
    }

    /// Drain the server and wait for its thread.
    pub fn stop(self, tally: &mut Tally) {
        self.handle.shutdown();
        tally.op("server drained cleanly", || match self.thread.join() {
            Ok(Ok(_report)) => Ok(()),
            Ok(Err(e)) => Err(e.to_string()),
            Err(_) => Err("server thread panicked".to_string()),
        });
    }
}
