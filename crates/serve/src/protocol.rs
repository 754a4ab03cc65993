//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one [`Frame`]: a 4-byte
//! big-endian `u32` byte length followed by that many bytes of JSON.
//!
//! ```text
//! ┌──────────────┬──────────────────────────────────────────┐
//! │ u32 BE length │ {"op":"simulate","run_id":"r","seed":9,…} │
//! └──────────────┴──────────────────────────────────────────┘
//! ```
//!
//! One struct covers every message; the `op` field selects the shape and
//! the unused optional fields ride along as `null`. That keeps the
//! vendored serde derive happy (it requires every field present on the
//! wire) and the protocol trivially evolvable — a new optional field is
//! ignored by old readers of the JSON tree.
//!
//! # Conversation shapes
//!
//! ```text
//! client                               server
//! ──────                               ──────
//! simulate{run_id,seed}        →
//!                              ←       start{cost,cache}
//!                              ←       edges{data}          (repeated)
//!                              ←       done{n_edges}
//!
//! simulate{run_id,seed,stats}  →
//!                              ←       start{cost,cache}
//!                              ←       stats{data,n_edges}
//!
//! eval{run_id,seed}            →
//!                              ←       start{cost,cache}
//!                              ←       scores{scores}
//!
//! ping → ← pong        shutdown → ← bye
//!
//! status{}                     →
//!                              ←       status_report{data}  (JSON report)
//! metrics{}                    →
//!                              ←       metrics_report{data} (Prometheus text)
//!
//! any request may instead be answered by
//!                              ←       error{kind,message}
//! ```
//!
//! `edges` frames carry plain `u v t\n` edge-list text; concatenating the
//! `data` payloads of one simulate conversation reproduces, **byte for
//! byte**, what `StreamingWriterSink` would have written in process for
//! the same model and master seed.

use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use tg_metrics::MetricScore;
use tgae::CostEstimate;

/// Upper bound on one frame's JSON payload. Large enough for any
/// realistic edge batch, small enough that a corrupt length prefix can't
/// make the reader allocate the moon.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Typed error kinds carried by `error` frames ([`Frame::kind`]).
pub mod kind {
    /// Admission control rejected the request (HTTP-429 analogue): the
    /// in-flight cost budget or the model cache is saturated. Retry later.
    pub const BUSY: &str = "busy";
    /// The request frame could not be decoded (or an injected
    /// `serve.request.decode` fault fired). The connection stays usable.
    pub const DECODE: &str = "decode";
    /// The run-id did not resolve to a loadable run directory.
    pub const NOT_FOUND: &str = "not_found";
    /// The request failed mid-execution (engine error or injected
    /// `serve.generate.unit` fault); the stream is torn, reconnect to
    /// retry.
    pub const INTERNAL: &str = "internal";
    /// The server is draining (SIGTERM or a `shutdown` request) and
    /// refuses new work.
    pub const SHUTDOWN: &str = "shutdown";
}

/// One protocol message; see the [module docs](self) for the shapes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Frame {
    /// Message type: `simulate` / `eval` / `ping` / `status` /
    /// `metrics` / `shutdown` requests, `start` / `edges` / `stats` /
    /// `done` / `scores` / `status_report` / `metrics_report` / `pong`
    /// / `bye` / `error` responses.
    pub op: String,
    /// Requests: the run directory name to serve.
    pub run_id: Option<String>,
    /// Requests: the engine master seed of this generation.
    pub seed: Option<u64>,
    /// `simulate` requests: return a `stats` summary instead of streaming
    /// edges.
    pub stats: Option<bool>,
    /// `edges` frames: edge-list text; `stats` frames: the JSON-encoded
    /// `GenerationStats`.
    pub data: Option<String>,
    /// `done` / `stats` frames: total edges generated.
    pub n_edges: Option<u64>,
    /// `start` frames: the admission cost the request was priced at.
    pub cost: Option<CostEstimate>,
    /// `start` frames: `"hit"` or `"miss"` — whether the model was
    /// already resident.
    pub cache: Option<String>,
    /// `scores` frames: the Eq. 10 metric scores.
    pub scores: Option<Vec<MetricScore>>,
    /// `error` frames: one of the [`kind`] constants.
    pub kind: Option<String>,
    /// `error` frames: the human-readable diagnosis.
    pub message: Option<String>,
}

impl Frame {
    fn base(op: &str) -> Frame {
        Frame {
            op: op.to_string(),
            run_id: None,
            seed: None,
            stats: None,
            data: None,
            n_edges: None,
            cost: None,
            cache: None,
            scores: None,
            kind: None,
            message: None,
        }
    }

    /// A `simulate` request (`stats = true` asks for the summary form).
    pub fn simulate(run_id: &str, seed: u64, stats: bool) -> Frame {
        let mut f = Frame::base("simulate");
        f.run_id = Some(run_id.to_string());
        f.seed = Some(seed);
        f.stats = Some(stats);
        f
    }

    /// An `eval` request: simulate under `seed`, score against the
    /// observed graph.
    pub fn eval(run_id: &str, seed: u64) -> Frame {
        let mut f = Frame::base("eval");
        f.run_id = Some(run_id.to_string());
        f.seed = Some(seed);
        f
    }

    /// A liveness probe.
    pub fn ping() -> Frame {
        Frame::base("ping")
    }

    /// The `ping` answer.
    pub fn pong() -> Frame {
        Frame::base("pong")
    }

    /// Ask the server to drain and exit.
    pub fn shutdown() -> Frame {
        Frame::base("shutdown")
    }

    /// The `shutdown` acknowledgement.
    pub fn bye() -> Frame {
        Frame::base("bye")
    }

    /// Ask for the introspection report (resident models, in-flight
    /// cost, per-run counters).
    pub fn status() -> Frame {
        Frame::base("status")
    }

    /// The `status` answer: `data` holds the JSON-encoded
    /// [`StatusReport`](crate::telemetry::StatusReport).
    pub fn status_report(json: String) -> Frame {
        let mut f = Frame::base("status_report");
        f.data = Some(json);
        f
    }

    /// Ask for the metrics registry in Prometheus text exposition form.
    pub fn metrics() -> Frame {
        Frame::base("metrics")
    }

    /// The `metrics` answer: `data` holds the Prometheus text.
    pub fn metrics_report(text: String) -> Frame {
        let mut f = Frame::base("metrics_report");
        f.data = Some(text);
        f
    }

    /// Request admitted: its price and whether the model was resident.
    pub fn start(cost: CostEstimate, cache: &str) -> Frame {
        let mut f = Frame::base("start");
        f.cost = Some(cost);
        f.cache = Some(cache.to_string());
        f
    }

    /// One batch of edge-list text.
    pub fn edges(data: String) -> Frame {
        let mut f = Frame::base("edges");
        f.data = Some(data);
        f
    }

    /// The statistics summary of a `simulate{stats}` request.
    pub fn stats_summary(json: String, n_edges: u64) -> Frame {
        let mut f = Frame::base("stats");
        f.data = Some(json);
        f.n_edges = Some(n_edges);
        f
    }

    /// End of a simulate stream.
    pub fn done(n_edges: u64) -> Frame {
        let mut f = Frame::base("done");
        f.n_edges = Some(n_edges);
        f
    }

    /// The metric scores of an `eval` request.
    pub fn scores(scores: Vec<MetricScore>) -> Frame {
        let mut f = Frame::base("scores");
        f.scores = Some(scores);
        f
    }

    /// A typed failure (see [`kind`]).
    pub fn error(kind: &str, message: impl Into<String>) -> Frame {
        let mut f = Frame::base("error");
        f.kind = Some(kind.to_string());
        f.message = Some(message.into());
        f
    }
}

/// Serialise and write one frame (length prefix + JSON), flushing so the
/// peer sees it immediately.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let json = serde_json::to_string(frame)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let bytes = json.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                bytes.len()
            ),
        ));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Read one frame. `Ok(None)` is a clean close (EOF exactly at a frame
/// boundary); EOF inside a frame, an oversized length prefix, or
/// undecodable JSON are errors.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame length prefix",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    let text = std::str::from_utf8(&buf).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame is not UTF-8: {e}"),
        )
    })?;
    let frame = serde_json::from_str(text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("undecodable frame: {e}"),
        )
    })?;
    Ok(Some(frame))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: &Frame) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).unwrap();
        let mut cursor = &buf[..];
        let back = read_frame(&mut cursor).unwrap().expect("one frame");
        assert!(
            read_frame(&mut cursor).unwrap().is_none(),
            "clean EOF after"
        );
        back
    }

    #[test]
    fn frames_round_trip_through_the_wire_format() {
        let f = round_trip(&Frame::simulate("run", 42, false));
        assert_eq!(f.op, "simulate");
        assert_eq!(f.run_id.as_deref(), Some("run"));
        assert_eq!(f.seed, Some(42));
        assert_eq!(f.stats, Some(false));

        let est = tgae::CostEstimate {
            units: 3,
            centers: 24,
            edges: 72,
            cost: 72 + 8 * 24 + 64 * 3,
        };
        let f = round_trip(&Frame::start(est, "miss"));
        assert_eq!(f.cost, Some(est));
        assert_eq!(f.cache.as_deref(), Some("miss"));

        let f = round_trip(&Frame::error(kind::BUSY, "in-flight budget exhausted"));
        assert_eq!(f.kind.as_deref(), Some(kind::BUSY));
        assert!(f.message.unwrap().contains("budget"));
    }

    #[test]
    fn edge_data_survives_verbatim() {
        let text = "0 1 0\n1 2 0\n2 0 1\n".to_string();
        let f = round_trip(&Frame::edges(text.clone()));
        assert_eq!(f.data, Some(text));
    }

    #[test]
    fn eof_inside_a_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::ping()).unwrap();
        let truncated = &buf[..buf.len() - 2];
        let err = read_frame(&mut &truncated[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // torn mid-prefix too
        let err = read_frame(&mut &buf[..2]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut bytes = (u32::MAX).to_be_bytes().to_vec();
        bytes.extend_from_slice(b"xx");
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn garbage_json_is_invalid_data() {
        // the second payload is 2 MB of array openers: it must come back
        // as an error, not overflow the connection thread's stack
        for payload in [b"not json".to_vec(), vec![b'['; 2 << 20]] {
            let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
            bytes.extend_from_slice(&payload);
            let err = read_frame(&mut &bytes[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }
}
