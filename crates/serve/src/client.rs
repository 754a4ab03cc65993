//! The blocking protocol client used by `tgx-cli client`, the tests, and
//! the benchmark harness.

use crate::net::Conn;
use crate::protocol::{read_frame, write_frame, ErrorKind, Frame};
use crate::telemetry::StatusReport;
use std::io::{self, Write};
use tg_metrics::{MetricScore, StatsSeries};
use tgae::CostEstimate;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, torn frame).
    Io(io::Error),
    /// The server refused the request as busy (admission control or
    /// saturated model cache). Retry later.
    Busy(String),
    /// The server answered with a typed error frame other than `Busy`.
    Server {
        /// What went wrong.
        kind: ErrorKind,
        /// The server's diagnosis.
        message: String,
    },
    /// The server broke the protocol (unexpected frame for this state).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Busy(m) => write!(f, "{m}"),
            ClientError::Server { kind, message } => {
                write!(f, "server error ({kind:?}): {message}")
            }
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The error a frame stands for when it is not the answer `expected`: the
/// server's typed refusal, or a protocol violation.
fn unexpected(expected: &str, frame: Frame) -> ClientError {
    match frame {
        Frame::Error {
            kind: ErrorKind::Busy,
            message,
        } => ClientError::Busy(message),
        Frame::Error { kind, message } => ClientError::Server { kind, message },
        other => ClientError::Protocol(format!("expected {expected}, got `{}`", other.op())),
    }
}

/// What an admitted request reported back in its `Start` frame, plus the
/// stream's final tally.
#[derive(Clone, Debug)]
pub struct SimulateOutcome {
    /// Total edges generated.
    pub n_edges: u64,
    /// The admission price the server computed.
    pub cost: CostEstimate,
    /// `"hit"` / `"miss"` — whether the model was already resident.
    pub cache: String,
}

/// Outcome of a `simulate --stats` request: the statistics instead of an
/// edge stream.
#[derive(Clone, Debug)]
pub struct StatsOutcome {
    /// Per-timestamp volume and accumulated-snapshot statistics.
    pub stats: StatsSeries,
    /// The admission price the server computed.
    pub cost: CostEstimate,
    /// `"hit"` / `"miss"`.
    pub cache: String,
}

/// One blocking protocol connection. A client may issue any number of
/// sequential requests; drop it to hang up.
pub struct Client {
    conn: Conn,
}

impl Client {
    /// Connect over TCP (`"127.0.0.1:4321"`).
    pub fn connect_tcp(addr: &str) -> Result<Client, ClientError> {
        let stream = std::net::TcpStream::connect(addr)?;
        // Small request frames must not sit in Nagle's buffer waiting
        // for the server's delayed ACK.
        stream.set_nodelay(true)?;
        Ok(Client {
            conn: Conn::Tcp(stream),
        })
    }

    /// Connect to a Unix-domain socket path.
    #[cfg(unix)]
    pub fn connect_unix(path: &std::path::Path) -> Result<Client, ClientError> {
        let stream = std::os::unix::net::UnixStream::connect(path)?;
        Ok(Client {
            conn: Conn::Unix(stream),
        })
    }

    fn recv(&mut self) -> Result<Frame, ClientError> {
        match read_frame(&mut self.conn)? {
            Some(frame) => Ok(frame),
            None => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
        }
    }

    /// Send a request and read the first frame of its answer.
    fn ask(&mut self, request: &Frame) -> Result<Frame, ClientError> {
        write_frame(&mut self.conn, request)?;
        self.recv()
    }

    /// Send a `Simulate` / `Eval` request and expect its `Start`
    /// acknowledgement.
    fn start(&mut self, request: &Frame) -> Result<(CostEstimate, String), ClientError> {
        match self.ask(request)? {
            Frame::Start { cost, cache } => Ok((cost, cache.as_str().to_string())),
            other => Err(unexpected("start", other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.ask(&Frame::Ping)? {
            Frame::Pong => Ok(()),
            other => Err(unexpected("pong", other)),
        }
    }

    /// Run one simulation on the server, streaming the edge-list text
    /// into `out`. The bytes written are identical to an in-process
    /// `StreamingWriterSink` run of the same run + seed.
    pub fn simulate(
        &mut self,
        run_id: &str,
        seed: u64,
        out: &mut impl Write,
    ) -> Result<SimulateOutcome, ClientError> {
        let (cost, cache) = self.start(&Frame::Simulate {
            run_id: run_id.to_string(),
            seed,
            stats: false,
        })?;
        loop {
            match self.recv()? {
                Frame::Edges { data } => out.write_all(data.as_bytes())?,
                Frame::Done { n_edges } => {
                    out.flush()?;
                    return Ok(SimulateOutcome {
                        n_edges,
                        cost,
                        cache,
                    });
                }
                other => return Err(unexpected("edges/done", other)),
            }
        }
    }

    /// Run one simulation, returning only its [`StatsSeries`].
    pub fn simulate_stats(&mut self, run_id: &str, seed: u64) -> Result<StatsOutcome, ClientError> {
        let (cost, cache) = self.start(&Frame::Simulate {
            run_id: run_id.to_string(),
            seed,
            stats: true,
        })?;
        match self.recv()? {
            Frame::Stats { stats } => Ok(StatsOutcome { stats, cost, cache }),
            other => Err(unexpected("stats", other)),
        }
    }

    /// Simulate under `seed` and score against the observed graph on the
    /// server (Eq. 10 metric suite).
    pub fn eval(&mut self, run_id: &str, seed: u64) -> Result<Vec<MetricScore>, ClientError> {
        self.start(&Frame::Eval {
            run_id: run_id.to_string(),
            seed,
        })?;
        match self.recv()? {
            Frame::Scores { scores } => Ok(scores),
            other => Err(unexpected("scores", other)),
        }
    }

    /// Fetch the server's introspection report: resident models,
    /// in-flight cost vs budget, cache and per-run request counters.
    pub fn status(&mut self) -> Result<StatusReport, ClientError> {
        match self.ask(&Frame::Status)? {
            Frame::StatusReport(report) => Ok(report),
            other => Err(unexpected("status_report", other)),
        }
    }

    /// Fetch the server's metrics registry as Prometheus text.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.ask(&Frame::Metrics)? {
            Frame::MetricsReport { text } => Ok(text),
            other => Err(unexpected("metrics_report", other)),
        }
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.ask(&Frame::Shutdown)? {
            Frame::Bye => Ok(()),
            other => Err(unexpected("bye", other)),
        }
    }
}
