//! Process-level fault and drain tests of the `tgx-cli serve` daemon:
//!
//! - an injected `serve.request.decode` failure yields a typed `decode`
//!   error frame, the connection stays usable, and the retry on the SAME
//!   connection streams bytes identical to in-process generation;
//! - an injected `serve.generate.unit` PANIC is contained to its request
//!   (typed `internal` frame), the daemon survives, and a reconnect retry
//!   is byte-identical;
//! - SIGTERM mid-stream drains: the in-flight request completes
//!   byte-identically, new work is refused, and the daemon exits 0;
//! - an injected `serve.accept` failure drops one connection and the
//!   next connection is served normally;
//! - admission-control rejection surfaces as `tgx-cli client` exit 6;
//! - a run directory whose manifest declares no timestamp answers a
//!   typed `not_found` and the connection stays usable;
//! - a refused or failed `tgx-cli client simulate` leaves `--out` as it
//!   was: absent, or holding its earlier bytes.
//!
//! All injection goes through `TG_FAULTS` in the daemon's environment —
//! the shipped binary, no test-only hooks.

mod common;

use common::{cli, tmp, train_run, write_ring_edges};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Stdio};
use tg_serve::{Client, ClientError, ErrorKind};

/// A spawned `tgx-cli serve` process bound to an ephemeral port.
struct Daemon {
    child: Child,
    addr: String,
    /// Kept open so the daemon never sees EPIPE on stdout.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn start(root: &Path, faults: Option<&str>, extra_args: &[&str]) -> Daemon {
        let mut cmd = cli();
        cmd.args(["serve", "--root"])
            .arg(root)
            .args(["--quiet"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(spec) = faults {
            cmd.env("TG_FAULTS", spec);
        }
        let mut child = cmd.spawn().expect("spawn tgx-cli serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read startup banner");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("address in banner")
            .to_string();
        assert!(
            line.contains("listening on"),
            "unexpected startup line: {line}"
        );
        Daemon {
            child,
            addr,
            _stdout: stdout,
        }
    }

    fn connect(&self) -> Client {
        Client::connect_tcp(&self.addr).expect("connect to daemon")
    }

    fn sigterm(&self) {
        let status = std::process::Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("run kill");
        assert!(status.success(), "kill -TERM failed");
    }

    fn shutdown_clean(mut self) {
        let _ = self.connect().shutdown();
        let status = self.child.wait().expect("wait for daemon");
        assert!(status.success(), "daemon exited uncleanly: {status:?}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Best-effort cleanup if an assertion bailed early.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Bytes of `tgx-cli simulate --in-process --master <master>` over the
/// same run directory — the reference every server stream must match.
fn reference_bytes(run_dir: &Path, master: u64) -> Vec<u8> {
    let status = cli()
        .args(["simulate", "--run-dir"])
        .arg(run_dir)
        .args(["--in-process", "--master", &master.to_string(), "--quiet"])
        .stdout(Stdio::null())
        .status()
        .expect("run tgx-cli simulate --in-process");
    assert!(status.success(), "in-process reference simulate failed");
    std::fs::read(run_dir.join("simulated.edges")).expect("simulated.edges")
}

/// Train one standard run under `<dir>/runs/<name>`, returning the runs
/// root and the run directory.
fn runs_root(dir: &Path, name: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let edges = dir.join("ring.edges");
    write_ring_edges(&edges);
    let root = dir.join("runs");
    std::fs::create_dir_all(&root).unwrap();
    let run_dir = train_run(&root, name, &edges);
    (root, run_dir)
}

#[test]
fn decode_fault_is_typed_and_the_same_connection_retries_byte_identically() {
    if !tg_faults::is_compiled() {
        return; // injection needs the default `faults` feature
    }
    let dir = tmp("serve_decode");
    let (root, run_dir) = runs_root(&dir, "r");
    let daemon = Daemon::start(&root, Some("serve.request.decode=err,max=1"), &[]);

    let mut client = daemon.connect();
    let mut first = Vec::new();
    match client.simulate("r", 9, &mut first) {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(kind, ErrorKind::Decode);
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("expected a typed decode error, got {other:?}"),
    }
    assert!(first.is_empty(), "no edges may precede the refusal");

    // Budget exhausted (max=1): the SAME connection now succeeds, and the
    // stream is byte-identical to in-process generation.
    let mut second = Vec::new();
    client
        .simulate("r", 9, &mut second)
        .expect("retry on the same connection");
    assert_eq!(second, reference_bytes(&run_dir, 9));

    daemon.shutdown_clean();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_unit_panic_is_contained_and_a_reconnect_retries_byte_identically() {
    if !tg_faults::is_compiled() {
        return;
    }
    let dir = tmp("serve_panic");
    let (root, run_dir) = runs_root(&dir, "r");
    let daemon = Daemon::start(&root, Some("serve.generate.unit=panic,max=1"), &[]);

    let mut client = daemon.connect();
    let mut first = Vec::new();
    match client.simulate("r", 9, &mut first) {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(
                kind,
                ErrorKind::Internal,
                "panic must surface as a typed frame"
            );
            // The payload text must survive the unwind: "request
            // panicked: injected fault at `serve.generate.unit` …".
            assert!(message.contains("panicked"), "{message}");
            assert!(message.contains("injected fault"), "{message}");
        }
        // The server closes the stream after an internal error; a client
        // mid-read may also observe the close as an EOF.
        Err(ClientError::Io(_)) => {}
        other => panic!("expected a contained panic, got {other:?}"),
    }

    // The daemon survived: a fresh connection serves the retry with
    // bytes identical to the in-process reference.
    let mut retry_client = daemon.connect();
    let mut second = Vec::new();
    retry_client
        .simulate("r", 9, &mut second)
        .expect("retry after the contained panic");
    assert_eq!(second, reference_bytes(&run_dir, 9));

    daemon.shutdown_clean();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigterm_drains_the_in_flight_stream_and_refuses_new_work() {
    if !tg_faults::is_compiled() {
        return;
    }
    let dir = tmp("serve_drain");
    let (root, run_dir) = runs_root(&dir, "r");
    // The first work unit sleeps 1.2 s — long enough to SIGTERM the
    // daemon while the request is provably in flight.
    let mut daemon = Daemon::start(
        &root,
        Some("serve.generate.unit=sleep:1200,arg=chunk:0,max=1"),
        &[],
    );

    let addr = daemon.addr.clone();
    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect_tcp(&addr).expect("connect");
        let mut bytes = Vec::new();
        let outcome = client
            .simulate("r", 9, &mut bytes)
            .expect("in-flight request");
        (bytes, outcome.n_edges)
    });

    // Let the request reach the sleeping unit, then ask for termination.
    std::thread::sleep(std::time::Duration::from_millis(400));
    daemon.sigterm();
    std::thread::sleep(std::time::Duration::from_millis(100));

    // New work is refused while draining.
    match Client::connect_tcp(&daemon.addr) {
        Ok(mut fresh) => match fresh.ping() {
            Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::Shutdown),
            Err(ClientError::Io(_)) => {}
            other => panic!("draining server accepted new work: {other:?}"),
        },
        Err(ClientError::Io(_)) => {}
        Err(other) => panic!("unexpected connect failure: {other:?}"),
    }

    // The in-flight stream still completes, byte-identical.
    let (bytes, n_edges) = in_flight.join().expect("in-flight client");
    assert_eq!(n_edges, 72);
    assert_eq!(bytes, reference_bytes(&run_dir, 9));

    // And the drained daemon exits 0.
    let status = daemon.child.wait().expect("wait for drained daemon");
    assert_eq!(
        status.code(),
        Some(0),
        "drain must exit cleanly: {status:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn accept_fault_drops_one_connection_and_the_next_is_served() {
    if !tg_faults::is_compiled() {
        return;
    }
    let dir = tmp("serve_accept");
    let (root, run_dir) = runs_root(&dir, "r");
    let daemon = Daemon::start(&root, Some("serve.accept=err,max=1"), &[]);

    // The first connection is accepted at the OS level but dropped by the
    // injected fault before any frame: the client sees EOF/reset.
    let mut doomed = daemon.connect();
    match doomed.ping() {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected a dropped connection, got {other:?}"),
    }

    // Budget exhausted: the next connection is served normally.
    let mut client = daemon.connect();
    client.ping().expect("daemon must survive the accept fault");
    let mut bytes = Vec::new();
    client.simulate("r", 9, &mut bytes).expect("simulate");
    assert_eq!(bytes, reference_bytes(&run_dir, 9));

    daemon.shutdown_clean();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn admission_rejection_surfaces_as_client_exit_6() {
    if !tg_faults::is_compiled() {
        return;
    }
    let dir = tmp("serve_busy");
    let (root, _run_dir) = runs_root(&dir, "r");
    // --max-cost 1: anything is admitted while idle, nothing else fits.
    // The sleep keeps the first request in flight long enough for the
    // second to be rejected deterministically.
    let daemon = Daemon::start(
        &root,
        Some("serve.generate.unit=sleep:3000,arg=chunk:0,max=1"),
        &["--max-cost", "1"],
    );

    let addr = daemon.addr.clone();
    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect_tcp(&addr).expect("connect");
        let mut bytes = Vec::new();
        client
            .simulate("r", 9, &mut bytes)
            .expect("oversized-but-idle request");
    });
    std::thread::sleep(std::time::Duration::from_millis(700));

    let out = cli()
        .args(["client", "simulate", "--addr", &daemon.addr])
        .args(["--run-id", "r", "--seed", "4", "--out"])
        .arg(dir.join("rejected.edges"))
        .output()
        .expect("run tgx-cli client");
    assert_eq!(
        out.status.code(),
        Some(6),
        "busy rejection must exit 6: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("busy"),
        "stderr must say busy: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dir.join("rejected.edges").exists());

    in_flight.join().expect("first request still completes");
    daemon.shutdown_clean();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failed_client_simulate_keeps_the_earlier_out_file() {
    if !tg_faults::is_compiled() {
        return;
    }
    let dir = tmp("serve_client_out");
    let (root, _run_dir) = runs_root(&dir, "r");
    let daemon = Daemon::start(&root, Some("serve.generate.unit=err,max=1"), &[]);
    let target = dir.join("kept.edges");
    std::fs::write(&target, "0 1 0\n").unwrap();

    let out = cli()
        .args(["client", "simulate", "--addr", &daemon.addr])
        .args(["--run-id", "r", "--seed", "4", "--out"])
        .arg(&target)
        .output()
        .expect("run tgx-cli client");
    assert!(
        !out.status.success(),
        "the injected failure must fail the request: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read_to_string(&target).unwrap(), "0 1 0\n");
    assert!(!dir.join("kept.edges.tmp").exists());

    daemon.shutdown_clean();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn status_fault_is_typed_and_the_daemon_survives() {
    if !tg_faults::is_compiled() {
        return;
    }
    let dir = tmp("status_fault");
    let (root, _run_dir) = runs_root(&dir, "r");
    let daemon = Daemon::start(&root, Some("serve.status=err,max=1"), &[]);

    // The faulted status answers a typed internal error — the report is
    // telemetry, so failing to assemble it must not cost the connection,
    // let alone the daemon.
    let mut client = daemon.connect();
    match client.status() {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(kind, ErrorKind::Internal);
            assert!(
                message.contains("serve.status"),
                "error must name the fault point: {message}"
            );
        }
        Ok(_) => panic!("status must fail while the fault budget lasts"),
        Err(other) => panic!("expected a typed server error, got: {other}"),
    }

    // Same connection, fault budget spent: a real report comes back and
    // normal work is unaffected.
    let report = client.status().expect("status after the fault budget");
    assert!(!report.draining);
    let mut bytes = Vec::new();
    client
        .simulate("r", 3, &mut bytes)
        .expect("simulate still works");
    assert!(!bytes.is_empty());

    daemon.shutdown_clean();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_run_dir_without_timestamps_is_not_found_and_the_connection_survives() {
    let dir = tmp("serve_no_timestamps");
    let (root, run_dir) = runs_root(&dir, "r");
    // A zero-timestamp shape over an empty observed file: the loader runs
    // outside the request's unwind guard, so a panic in it used to take
    // the connection thread down.
    let manifest = run_dir.join("run.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    assert!(text.contains("\"n_timestamps\": 3"), "{text}");
    std::fs::write(
        &manifest,
        text.replace("\"n_timestamps\": 3", "\"n_timestamps\": 0"),
    )
    .unwrap();
    std::fs::write(run_dir.join("observed.edges"), "").unwrap();
    let daemon = Daemon::start(&root, None, &[]);

    let mut client = daemon.connect();
    match client.simulate("r", 3, &mut Vec::new()) {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(kind, ErrorKind::NotFound);
            assert!(message.contains("0 timestamps"), "{message}");
        }
        other => panic!("expected a typed not_found error, got {other:?}"),
    }
    client.ping().expect("the same connection still answers");

    daemon.shutdown_clean();
    std::fs::remove_dir_all(&dir).ok();
}
