//! The `status` / `metrics` introspection ops against a live in-process
//! server: counters must reflect exactly the requests this test issued,
//! the resident list must name the model it warmed, and the Prometheus
//! exposition must be well-formed text a line-oriented scraper can
//! consume.
//!
//! The metrics registry is process-global, so every run-id here is
//! unique to this file (`tgx_test_tel_*`) — other test binaries run in
//! their own processes and cannot pollute it, and within this binary
//! assertions on per-run counters filter by run-id.

use std::io;
use std::thread::JoinHandle;
use tg_graph::{TemporalEdge, TemporalGraph};
use tg_serve::{Client, ServeConfig, ServeReport, Server, ServerHandle};
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

/// Requests recorded so far in `serve.request.seconds{cache=…}`. The
/// histogram is shared by every test of this binary, so callers compare
/// readings taken before and after their own traffic.
fn request_seconds_count(cache: &str) -> u64 {
    tg_obs::Registry::global()
        .snapshot()
        .iter()
        .find(|m| {
            m.name == "serve.request.seconds"
                && m.labels == [("cache".to_string(), cache.to_string())]
        })
        .map_or(0, |m| match &m.value {
            tg_obs::MetricValue::Histogram(h) => h.count(),
            other => panic!("serve.request.seconds must be a histogram, got {other:?}"),
        })
}

struct TestServer {
    addr: String,
    handle: ServerHandle,
    thread: JoinHandle<io::Result<ServeReport>>,
}

impl TestServer {
    fn start(run: SharedRun, cfg: ServeConfig) -> TestServer {
        let loader = Box::new(move |run_id: &str| {
            if run_id.starts_with("tgx_test_tel_") {
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
fn status_reports_residency_and_exact_request_counters() {
    let server = TestServer::start(trained_run(), ServeConfig::default());
    let mut client = Client::connect_tcp(&server.addr).unwrap();
    let (miss_before, hit_before) = (request_seconds_count("miss"), request_seconds_count("hit"));

    // An untouched daemon: nothing resident, nothing in flight.
    let before = client.status().expect("status on idle server");
    assert!(!before.draining);
    assert_eq!(before.inflight_cost, 0);
    assert_eq!(before.inflight_requests, 0);
    assert!(before.max_cost > 0, "default config has a cost budget");
    assert!(
        !before.resident.iter().any(|m| m.run_id == "tgx_test_tel_a"),
        "model resident before any request"
    );

    // One cold simulate, one warm eval: the cache sees miss-then-hit and
    // the per-run counters see two requests with a non-empty byte tally.
    let mut sink = Vec::new();
    let outcome = client.simulate("tgx_test_tel_a", 7, &mut sink).unwrap();
    assert_eq!(outcome.cache, "miss");
    assert!(!sink.is_empty());
    let scores = client.eval("tgx_test_tel_a", 7).unwrap();
    assert!(!scores.is_empty());

    let after = client.status().expect("status after traffic");
    assert!(
        after
            .resident
            .iter()
            .any(|m| m.run_id == "tgx_test_tel_a" && !m.pinned),
        "warmed model must be resident and idle, got {:?}",
        after.resident
    );
    assert!(after.requests_served >= 2);
    assert_eq!(after.inflight_cost, 0, "no request is in flight now");
    assert_eq!(after.inflight_requests, 0);
    assert!(after.cache.misses >= 1, "cold load is a recorded miss");
    assert!(after.cache.hits >= 1, "warm eval is a recorded hit");
    assert_eq!(after.admission_rejected, 0);

    let tallies = after
        .runs
        .iter()
        .find(|r| r.run_id == "tgx_test_tel_a")
        .expect("per-run counters for the run this test drove");
    assert_eq!(tallies.requests, 2, "one simulate + one eval");
    assert!(
        tallies.bytes >= sink.len() as u64,
        "byte counter below the edge stream this test received"
    );

    // The latency histogram is observed after the response frame is
    // written, so read it once the server has drained.
    server.stop();
    assert!(
        request_seconds_count("miss") > miss_before,
        "the cold request must land in the miss histogram"
    );
    assert!(
        request_seconds_count("hit") > hit_before,
        "the warm request must land in the hit histogram"
    );
}

#[test]
fn metrics_exposition_is_parseable_prometheus_text() {
    let server = TestServer::start(trained_run(), ServeConfig::default());
    let mut client = Client::connect_tcp(&server.addr).unwrap();

    let mut sink = Vec::new();
    client.simulate("tgx_test_tel_b", 11, &mut sink).unwrap();
    client.simulate("tgx_test_tel_b", 12, &mut sink).unwrap();

    let text = client.metrics().expect("metrics scrape");

    // Line-oriented sanity: every line is a comment or `name{labels} value`
    // with a numeric value, and names are Prometheus-safe (no dots).
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line without value: {line:?}"));
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample value in {line:?}"
        );
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name in {line:?}"
        );
        samples += 1;
    }
    assert!(samples > 0, "scrape produced no samples");

    // The traffic this test issued is visible under its own run label.
    let requests_line = text
        .lines()
        .find(|l| l.starts_with("serve_requests") && l.contains("run=\"tgx_test_tel_b\""))
        .expect("per-run request counter in exposition");
    assert!(
        requests_line.ends_with(" 2"),
        "two simulates must read 2, got {requests_line:?}"
    );
    assert!(
        text.lines()
            .any(|l| l.starts_with("serve_request_seconds_bucket")),
        "latency histogram missing from exposition"
    );

    server.stop();
}
