//! The tentpole proof: N concurrent clients against ONE `Arc`-shared
//! model produce streams byte-identical to sequential in-process
//! generation with the same per-request seeds.
//!
//! The server here runs in-process (ephemeral TCP port, real sockets,
//! real worker threads) with a loader that counts invocations — so the
//! tests can assert that fan-out never reloaded or cloned the model.

use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use tg_graph::io::StreamingWriterSink;
use tg_graph::sink::GraphSink;
use tg_graph::{TemporalEdge, TemporalGraph};
use tg_serve::{
    read_frame, write_frame, Client, ClientError, ErrorKind, Frame, ServeConfig, ServeReport,
    Server, ServerHandle,
};
use tgae::{Session, SharedRun, TgaeConfig};

fn ring(n: u32, t_count: u32) -> TemporalGraph {
    let mut edges = Vec::new();
    for t in 0..t_count {
        for u in 0..n {
            edges.push(TemporalEdge::new(u, (u + 1) % n, t));
        }
    }
    TemporalGraph::from_edges(n as usize, t_count as usize, edges)
}

/// Train a small run once and freeze it into a `SharedRun`.
fn trained_run() -> SharedRun {
    let observed = ring(24, 3);
    let mut cfg = TgaeConfig::tiny();
    cfg.epochs = 2;
    let mut session = Session::builder(&observed)
        .config(cfg)
        .seed(5)
        .build()
        .expect("valid ring");
    session.train().expect("training runs");
    session.into_shared()
}

/// The sequential in-process reference: the exact bytes
/// `StreamingWriterSink` writes for this run + seed.
fn reference_bytes(run: &SharedRun, seed: u64) -> (Vec<u8>, u64) {
    let mut buf = Vec::new();
    let n = run
        .simulate_seeded(seed, StreamingWriterSink::new(&mut buf))
        .expect("engine runs")
        .expect("in-memory write cannot fail");
    (buf, n)
}

struct TestServer {
    addr: String,
    handle: ServerHandle,
    thread: JoinHandle<io::Result<ServeReport>>,
    loads: Arc<AtomicUsize>,
}

impl TestServer {
    fn start(run: SharedRun, cfg: ServeConfig) -> TestServer {
        TestServer::start_as("shared", run, cfg)
    }

    /// A server whose loader knows `run` under the id `name`.
    fn start_as(name: &'static str, run: SharedRun, cfg: ServeConfig) -> TestServer {
        let loads = Arc::new(AtomicUsize::new(0));
        let loader_loads = Arc::clone(&loads);
        let loader = Box::new(move |run_id: &str| {
            loader_loads.fetch_add(1, Ordering::SeqCst);
            if run_id == name {
                Ok(run.clone())
            } else {
                Err(format!("no run named `{run_id}`"))
            }
        });
        let server = Server::bind_tcp("127.0.0.1:0", loader, cfg).expect("bind ephemeral port");
        let addr = server.tcp_addr().expect("tcp server").to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            handle,
            thread,
            loads,
        }
    }

    fn stop(self) -> ServeReport {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("server thread")
            .expect("clean drain")
    }
}

#[test]
fn concurrent_streams_are_byte_identical_to_sequential_in_process() {
    let run = trained_run();
    let server = TestServer::start(run.clone(), ServeConfig::default());

    // Warm the cache with one sequential request so the concurrent waves
    // below are pure hits on one resident model.
    {
        let mut client = Client::connect_tcp(&server.addr).unwrap();
        let mut sink = Vec::new();
        let outcome = client.simulate("shared", 100, &mut sink).unwrap();
        assert_eq!(outcome.cache, "miss");
        let (want, want_n) = reference_bytes(&run, 100);
        assert_eq!(outcome.n_edges, want_n);
        assert_eq!(sink, want, "warm-up stream diverged from in-process bytes");
    }

    for &n_clients in &[1usize, 4, 8] {
        let workers: Vec<_> = (0..n_clients)
            .map(|i| {
                let addr = server.addr.clone();
                let seed = 200 + i as u64;
                std::thread::spawn(move || {
                    let mut client = Client::connect_tcp(&addr).expect("connect");
                    let mut sink = Vec::new();
                    let outcome = client
                        .simulate("shared", seed, &mut sink)
                        .expect("simulate");
                    (seed, sink, outcome)
                })
            })
            .collect();
        for worker in workers {
            let (seed, got, outcome) = worker.join().expect("client thread");
            let (want, want_n) = reference_bytes(&run, seed);
            assert_eq!(outcome.n_edges, want_n, "seed {seed}: edge count diverged");
            assert_eq!(
                got, want,
                "seed {seed} under {n_clients} concurrent clients: bytes diverged"
            );
            assert_eq!(
                outcome.cache, "hit",
                "model was loaded once and must stay resident"
            );
        }
    }

    assert_eq!(
        server.loads.load(Ordering::SeqCst),
        1,
        "all 13 requests must share the one loaded model (no per-request load/clone)"
    );
    let report = server.stop();
    assert_eq!(report.requests_served, 1 + 1 + 4 + 8);
}

#[test]
fn interleaved_eval_and_simulate_on_one_run_id() {
    let run = trained_run();
    let server = TestServer::start(run.clone(), ServeConfig::default());

    // In-process references.
    let shape = (run.observed().n_nodes(), run.observed().n_timestamps());
    let synthetic = run
        .simulate_seeded(77, GraphSink::new(shape.0, shape.1))
        .unwrap();
    let want_scores = format!("{:?}", run.evaluate(&synthetic).unwrap());
    let (want_bytes, _) = reference_bytes(&run, 33);

    // One sequential request makes the run resident first: `ModelCache::get`
    // loads outside its lock, so two cold first requests could each pay a
    // load, and `loads == 1` below must mean "eval and simulate share one
    // instance", not "the insert race went one way".
    {
        let mut client = Client::connect_tcp(&server.addr).unwrap();
        let warm = client.eval("shared", 77).unwrap();
        assert_eq!(format!("{warm:?}"), want_scores, "warm-up eval diverged");
    }

    let addr_eval = server.addr.clone();
    let evaluator = std::thread::spawn(move || {
        let mut client = Client::connect_tcp(&addr_eval).unwrap();
        let mut out = Vec::new();
        for _ in 0..3 {
            out.push(format!("{:?}", client.eval("shared", 77).unwrap()));
        }
        out
    });
    let addr_sim = server.addr.clone();
    let simulator = std::thread::spawn(move || {
        let mut client = Client::connect_tcp(&addr_sim).unwrap();
        let mut out = Vec::new();
        for _ in 0..3 {
            let mut sink = Vec::new();
            client.simulate("shared", 33, &mut sink).unwrap();
            out.push(sink);
        }
        out
    });

    for scores in evaluator.join().unwrap() {
        assert_eq!(scores, want_scores, "concurrent eval diverged");
    }
    for bytes in simulator.join().unwrap() {
        assert_eq!(bytes, want_bytes, "simulate interleaved with eval diverged");
    }
    assert_eq!(server.loads.load(Ordering::SeqCst), 1);
    server.stop();
}

#[test]
fn evals_of_one_resident_run_walk_the_observed_graph_once() {
    // an id no other test in this binary serves: the walk counter is
    // process-wide
    const ID: &str = "walked_once";
    let run = trained_run();
    let server = TestServer::start_as(ID, run.clone(), ServeConfig::default());
    let walks = tg_obs::counter!("serve.observed_walks", run = ID);

    let shape = (run.observed().n_nodes(), run.observed().n_timestamps());
    let synthetic = run
        .simulate_seeded(77, GraphSink::new(shape.0, shape.1))
        .unwrap();
    let want = format!("{:?}", run.evaluate(&synthetic).unwrap());

    let mut client = Client::connect_tcp(&server.addr).unwrap();
    let first = format!("{:?}", client.eval(ID, 77).unwrap());
    let second = format!("{:?}", client.eval(ID, 77).unwrap());
    assert_eq!(first, want, "eval diverged from the in-process scores");
    assert_eq!(second, first, "a second eval of the run scored differently");
    assert_eq!(walks.get(), 1, "both evals must score against one walk");
    assert_eq!(server.loads.load(Ordering::SeqCst), 1);
    server.stop();
}

#[test]
fn stats_requests_match_the_in_process_summary() {
    let run = trained_run();
    let server = TestServer::start(run.clone(), ServeConfig::default());

    // the graph walk over the same seed's GraphSink output
    let observed = run.observed();
    let sink = GraphSink::new(observed.n_nodes(), observed.n_timestamps());
    let synthetic = run.simulate_seeded(9, sink).unwrap();
    let walked: Vec<tg_metrics::GraphStats> =
        tg_metrics::CumulativeStats::new(&synthetic).collect();

    let mut client = Client::connect_tcp(&server.addr).unwrap();
    let outcome = client.simulate_stats("shared", 9).unwrap();
    assert_eq!(outcome.stats.n_edges(), synthetic.n_edges() as u64);
    assert_eq!(outcome.stats.stats, walked);
    server.stop();
}

#[test]
fn unknown_run_id_is_a_typed_not_found_and_the_connection_survives() {
    let run = trained_run();
    let server = TestServer::start(run, ServeConfig::default());

    let mut client = Client::connect_tcp(&server.addr).unwrap();
    let mut sink = Vec::new();
    match client.simulate("nope", 1, &mut sink) {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(kind, ErrorKind::NotFound);
            assert!(message.contains("nope"), "{message}");
        }
        other => panic!("expected not_found, got {other:?}"),
    }
    assert!(sink.is_empty(), "no edges may precede the refusal");
    // Same connection keeps working afterwards.
    client.ping().unwrap();
    let outcome = client.simulate("shared", 4, &mut sink).unwrap();
    assert!(outcome.n_edges > 0);
    server.stop();
}

#[test]
fn draining_server_refuses_new_work_with_a_typed_frame() {
    let run = trained_run();
    let server = TestServer::start(run, ServeConfig::default());

    // An already-open connection also gets refused per-request once the
    // drain starts.
    let mut existing = Client::connect_tcp(&server.addr).unwrap();
    server.handle.shutdown();
    assert!(server.handle.is_draining());
    match existing.ping() {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::Shutdown),
        other => panic!("expected shutdown refusal, got {other:?}"),
    }

    // A brand-new connection is refused at accept time (error frame or,
    // if the listener already closed, a transport error).
    match Client::connect_tcp(&server.addr) {
        Ok(mut fresh) => match fresh.ping() {
            Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::Shutdown),
            Err(ClientError::Io(_)) => {}
            other => panic!("expected refusal, got {other:?}"),
        },
        Err(ClientError::Io(_)) => {}
        Err(other) => panic!("unexpected connect failure {other:?}"),
    }

    let report = server.thread.join().unwrap().unwrap();
    assert_eq!(report.requests_served, 0);
}

/// The race `draining_server_refuses_new_work_with_a_typed_frame` can
/// lose, made deterministic: the client connects and starts its request,
/// and the drain starts before the accept loop ever runs. The loop then
/// accepts a connection whose request it will not serve. It must not
/// close that connection on unread input: the reset that close sends
/// fails the client's next write, and the `Shutdown` frame is lost.
#[test]
fn a_connection_refused_while_draining_gets_its_shutdown_frame() {
    let payload = serde_json::to_string(&Frame::Ping).unwrap().into_bytes();
    for round in 0..5 {
        let loader: tg_serve::Loader = Box::new(|id: &str| Err(format!("no run named `{id}`")));
        let server = Server::bind_tcp("127.0.0.1:0", loader, ServeConfig::default())
            .expect("bind ephemeral port");
        let mut stream = std::net::TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .write_all(&(payload.len() as u32).to_be_bytes())
            .unwrap();
        server.handle().shutdown();
        let thread = std::thread::spawn(move || server.run());
        // the accept loop refuses the connection while the request is
        // half sent
        std::thread::sleep(std::time::Duration::from_millis(30));
        let rest = stream.write_all(&payload);
        match (rest, read_frame(&mut stream)) {
            (Ok(()), Ok(Some(Frame::Error { kind, .. }))) => assert_eq!(kind, ErrorKind::Shutdown),
            other => panic!("round {round}: expected the shutdown refusal, got {other:?}"),
        }
        let report = thread.join().unwrap().unwrap();
        assert_eq!(report.requests_served, 0);
    }
}

/// A connection refused while draining gets one deadline for its first
/// frame, not one per read: a client that trickles a large frame a byte
/// at a time, each byte well inside any per-read timeout, must not hold
/// the accept loop, and with it `run`, for as long as it keeps sending.
#[test]
fn a_client_trickling_its_frame_does_not_stall_the_drain() {
    let loader: tg_serve::Loader = Box::new(|id: &str| Err(format!("no run named `{id}`")));
    let server = Server::bind_tcp("127.0.0.1:0", loader, ServeConfig::default())
        .expect("bind ephemeral port");
    let mut stream = std::net::TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.write_all(&(1u32 << 20).to_be_bytes()).unwrap();
    server.handle().shutdown();
    let (done, report) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.run()));
    // a byte every 20 ms for up to 10 s, until the server hangs up
    let trickle = std::thread::spawn(move || {
        for _ in 0..500 {
            if stream.write_all(&[0]).is_err() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    });
    let report = report
        .recv_timeout(std::time::Duration::from_secs(3))
        .expect("run() still blocked on the trickling client after 3 s");
    assert_eq!(report.unwrap().requests_served, 0);
    trickle.join().unwrap();
}

/// Write `payload` as one whole frame, whatever it holds.
fn send_payload(stream: &mut std::net::TcpStream, payload: &[u8]) {
    stream
        .write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(payload).unwrap();
}

#[test]
fn an_undecodable_frame_is_a_typed_error_and_the_connection_survives() {
    let run = trained_run();
    let server = TestServer::start(run, ServeConfig::default());
    let mut stream = std::net::TcpStream::connect(&server.addr).unwrap();

    // Whole frames that are no request: not JSON, JSON but no variant, a
    // variant short of a field, a response. Each is refused typed ...
    let pong = serde_json::to_string(&Frame::Pong).unwrap();
    for payload in [
        &b"\xff\xfe not json"[..],
        br#"{"op":"ping"}"#,
        br#"{"Simulate":{"run_id":"shared"}}"#,
        pong.as_bytes(),
    ] {
        send_payload(&mut stream, payload);
        match read_frame(&mut stream).unwrap() {
            Some(Frame::Error { kind, .. }) => assert_eq!(kind, ErrorKind::Decode),
            other => panic!("expected a decode error, got {other:?}"),
        }
        // ... and the same socket still answers.
        write_frame(&mut stream, &Frame::Ping).unwrap();
        assert!(matches!(
            read_frame(&mut stream).unwrap(),
            Some(Frame::Pong)
        ));
    }

    // A framing failure has no boundary to resume from: typed answer,
    // then the server hangs up.
    stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
    match read_frame(&mut stream).unwrap() {
        Some(Frame::Error { kind, .. }) => assert_eq!(kind, ErrorKind::Decode),
        other => panic!("expected a decode error, got {other:?}"),
    }
    assert!(
        read_frame(&mut stream).unwrap().is_none(),
        "connection closed"
    );

    // None of it touched the daemon.
    Client::connect_tcp(&server.addr).unwrap().ping().unwrap();
    let report = server.stop();
    assert_eq!(report.requests_served, 0);
}

/// The Unix-socket transport end to end: a server bound to a path in a
/// temp dir answers a ping and streams the in-process bytes, removes its
/// socket file when it drains, binds again over the stale socket file a
/// crashed predecessor would have left at the same path, and refuses to
/// replace a regular file.
#[cfg(unix)]
#[test]
fn unix_socket_streams_in_process_bytes_and_cleans_up_its_path() {
    let run = trained_run();
    let (want, want_n) = reference_bytes(&run, 41);
    let dir = std::env::temp_dir().join(format!("tg_serve_unix_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.sock");
    let start = |path: &std::path::Path| {
        let run = run.clone();
        let loader = Box::new(move |run_id: &str| match run_id {
            "shared" => Ok(run.clone()),
            _ => Err(format!("no run named `{run_id}`")),
        });
        let server = Server::bind_unix(path, loader, ServeConfig::default()).expect("bind");
        assert_eq!(server.tcp_addr(), None);
        std::thread::spawn(move || server.run())
    };

    let thread = start(&path);
    let mut client = Client::connect_unix(&path).expect("connect");
    client.ping().unwrap();
    let mut got = Vec::new();
    let outcome = client.simulate("shared", 41, &mut got).unwrap();
    assert_eq!(outcome.n_edges, want_n);
    assert_eq!(
        got, want,
        "unix-socket stream diverged from in-process bytes"
    );
    client.shutdown().unwrap();
    let report = thread.join().expect("server thread").expect("clean drain");
    assert_eq!(report.requests_served, 1);
    assert!(!path.exists(), "the drained server left its socket file");

    // what a crashed predecessor leaves: the socket file of a listener
    // that was bound and never cleaned up
    drop(std::os::unix::net::UnixListener::bind(&path).unwrap());
    assert!(path.exists());
    let thread = start(&path);
    let mut client = Client::connect_unix(&path).expect("connect after rebind");
    client.ping().unwrap();
    client.shutdown().unwrap();
    thread.join().expect("server thread").expect("clean drain");
    assert!(!path.exists());

    // a regular file at the path is refused and left as it was
    std::fs::write(&path, b"not a socket").unwrap();
    let loader = Box::new(|run_id: &str| Err(format!("no run named `{run_id}`")));
    match Server::bind_unix(&path, loader, ServeConfig::default()) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::AlreadyExists, "{e}"),
        Ok(_) => panic!("bound over a regular file"),
    }
    assert_eq!(std::fs::read(&path).unwrap(), b"not a socket");
    std::fs::remove_dir_all(&dir).unwrap();
}
