//! The wire protocol: length-prefixed JSON frames, one [`Frame`] variant
//! per message.
//!
//! Every message — request or response — is a 4-byte big-endian `u32`
//! byte length followed by that many bytes of JSON: a [`Frame`] in serde's
//! externally tagged enum form (a unit variant is its name as a string, a
//! variant with fields is `{"Name":{…}}`).
//!
//! ```text
//! ┌──────────────┬─────────────────────────────────────────────────────┐
//! │ u32 BE length │ {"Simulate":{"run_id":"r","seed":9,"stats":false}}  │
//! └──────────────┴─────────────────────────────────────────────────────┘
//! ```
//!
//! A payload that decodes is well-formed: every field of its variant is
//! present and typed, and there is nothing else to check. A payload that
//! does not — bad JSON, an unknown variant, a missing or mistyped field —
//! is a decode failure, not a message.
//!
//! # Conversation shapes
//!
//! ```text
//! client                                server
//! ──────                                ──────
//! Simulate{run_id,seed,stats:false} →
//!                                   ←   Start{cost,cache}
//!                                   ←   Edges{data}          (repeated)
//!                                   ←   Done{n_edges}
//!
//! Simulate{run_id,seed,stats:true}  →
//!                                   ←   Start{cost,cache}
//!                                   ←   Stats{stats}
//!
//! Eval{run_id,seed}                 →
//!                                   ←   Start{cost,cache}
//!                                   ←   Scores{scores}
//!
//! Ping → ← Pong        Shutdown → ← Bye
//!
//! Status                            →
//!                                   ←   StatusReport(report)
//! Metrics                           →
//!                                   ←   MetricsReport{text}  (Prometheus text)
//!
//! any request may instead be answered by
//!                                   ←   Error{kind,message}
//! ```
//!
//! `Edges` frames carry plain `u v t\n` edge-list text; concatenating the
//! `data` payloads of one simulate conversation reproduces, **byte for
//! byte**, what `StreamingWriterSink` would have written in process for
//! the same model and master seed.
//!
//! # What keeps a connection and what closes it
//!
//! The server answers a payload that arrived whole but does not decode —
//! or decodes to a response variant — with `Error{kind: Decode}` and reads
//! the next frame: the framing is intact, so the connection is. A framing
//! failure (EOF inside a frame, a length prefix over [`MAX_FRAME_BYTES`])
//! leaves no frame boundary to resume from and closes it.

use crate::cache::CacheOutcome;
use crate::telemetry::StatusReport;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use tg_metrics::{MetricScore, StatsSeries};
use tgae::CostEstimate;

/// Upper bound on one frame's JSON payload. Large enough for any
/// realistic edge batch, small enough that a corrupt length prefix can't
/// make the reader allocate the moon.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Capacity a reader commits to on the word of a length prefix alone;
/// past it the buffer grows with the bytes that actually arrive.
const PAYLOAD_RESERVE: usize = 64 << 10;

/// Why the server refused or failed a request ([`Frame::Error`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// Admission control rejected the request (HTTP-429 analogue): the
    /// in-flight cost budget or the model cache is saturated. Retry later.
    Busy,
    /// The request payload could not be decoded, was a response variant,
    /// or an injected `serve.request.decode` fault fired. The connection
    /// stays usable.
    Decode,
    /// The run-id did not resolve to a loadable run directory.
    NotFound,
    /// The request failed mid-execution (engine error or injected
    /// `serve.generate.unit` fault); the stream is torn, reconnect to
    /// retry.
    Internal,
    /// The server is draining (SIGTERM or a `Shutdown` request) and
    /// refuses new work.
    Shutdown,
}

/// One protocol message; see the [module docs](self) for which variant
/// answers which.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Frame {
    /// Request: generate under `seed` from the run directory `run_id`.
    Simulate {
        /// The run directory name to serve.
        run_id: String,
        /// The engine master seed of this generation.
        seed: u64,
        /// Answer one `Stats` series instead of streaming `Edges`.
        stats: bool,
    },
    /// Request: simulate under `seed`, score against the observed graph.
    Eval {
        /// The run directory name to serve.
        run_id: String,
        /// The engine master seed of the scored generation.
        seed: u64,
    },
    /// Request: liveness probe.
    Ping,
    /// Request: the introspection report (resident models, in-flight
    /// cost, per-run counters).
    Status,
    /// Request: the metrics registry in Prometheus text exposition form.
    Metrics,
    /// Request: drain and exit.
    Shutdown,
    /// A `Simulate` / `Eval` request was admitted.
    Start {
        /// The admission cost the request was priced at.
        cost: CostEstimate,
        /// Whether the model was already resident.
        cache: CacheOutcome,
    },
    /// One batch of a simulate stream.
    Edges {
        /// Edge-list text, `u v t\n` per row.
        data: String,
    },
    /// The answer to `Simulate{stats: true}`.
    Stats {
        /// Per-timestamp volume and accumulated-snapshot statistics.
        stats: StatsSeries,
    },
    /// End of a simulate stream.
    Done {
        /// Total edges generated.
        n_edges: u64,
    },
    /// The answer to `Eval`.
    Scores {
        /// The Eq. 10 metric scores.
        scores: Vec<MetricScore>,
    },
    /// The answer to `Status`.
    StatusReport(StatusReport),
    /// The answer to `Metrics`.
    MetricsReport {
        /// Prometheus text exposition.
        text: String,
    },
    /// The answer to `Ping`.
    Pong,
    /// The answer to `Shutdown`.
    Bye,
    /// A typed failure, in place of any other answer.
    Error {
        /// What went wrong, for the client to branch on.
        kind: ErrorKind,
        /// The human-readable diagnosis.
        message: String,
    },
}

impl Frame {
    /// `Frame::Edges { data }`. The one constructor function: the frozen
    /// benchmark suite builds its encode/decode probe through this
    /// spelling; everything else writes its variant out.
    pub fn edges(data: String) -> Frame {
        Frame::Edges { data }
    }

    /// The variant's lower-case name, for diagnostics and as the
    /// `serve.request.decode` fault argument (`arg=simulate`).
    pub fn op(&self) -> &'static str {
        match self {
            Frame::Simulate { .. } => "simulate",
            Frame::Eval { .. } => "eval",
            Frame::Ping => "ping",
            Frame::Status => "status",
            Frame::Metrics => "metrics",
            Frame::Shutdown => "shutdown",
            Frame::Start { .. } => "start",
            Frame::Edges { .. } => "edges",
            Frame::Stats { .. } => "stats",
            Frame::Done { .. } => "done",
            Frame::Scores { .. } => "scores",
            Frame::StatusReport(_) => "status_report",
            Frame::MetricsReport { .. } => "metrics_report",
            Frame::Pong => "pong",
            Frame::Bye => "bye",
            Frame::Error { .. } => "error",
        }
    }
}

fn invalid_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Serialise and write one frame (length prefix + JSON), flushing so the
/// peer sees it immediately.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let json = serde_json::to_string(frame).map_err(|e| invalid_data(e.to_string()))?;
    let bytes = json.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(invalid_data(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
            bytes.len()
        )));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Read one length-prefixed payload, undecoded. `Ok(None)` is a clean
/// close (EOF exactly at a frame boundary); EOF inside a frame or an
/// oversized length prefix are errors, after which the stream has no
/// frame boundary left to resume from.
pub(crate) fn read_payload<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
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
        return Err(invalid_data(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut buf = Vec::with_capacity(len.min(PAYLOAD_RESERVE));
    if r.by_ref().take(len as u64).read_to_end(&mut buf)? < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "connection closed {} bytes into a {len}-byte frame",
                buf.len()
            ),
        ));
    }
    Ok(Some(buf))
}

/// Decode one payload; anything but a well-formed [`Frame`] is
/// `InvalidData`.
pub(crate) fn decode_payload(payload: &[u8]) -> io::Result<Frame> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| invalid_data(format!("frame is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| invalid_data(format!("undecodable frame: {e}")))
}

/// Read one frame. `Ok(None)` is a clean close (EOF exactly at a frame
/// boundary); EOF inside a frame, an oversized length prefix, or an
/// undecodable payload are errors.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    read_payload(r)?.map(|p| decode_payload(&p)).transpose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{CacheCounters, ResidentModel, RunCounters};

    fn encode(frame: &Frame) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).unwrap();
        buf
    }

    fn round_trip(frame: &Frame) -> Frame {
        let buf = encode(frame);
        let mut cursor = &buf[..];
        let back = read_frame(&mut cursor).unwrap().expect("one frame");
        assert!(
            read_frame(&mut cursor).unwrap().is_none(),
            "clean EOF after"
        );
        back
    }

    const COST: CostEstimate = CostEstimate {
        units: 3,
        centers: 24,
        edges: 72,
        cost: 72 + 8 * 24 + 64 * 3,
    };

    /// A sample of the variant declared after `frame`'s, `None` after the
    /// last. No wildcard arm: a new variant does not compile until it has
    /// a place in the chain, and so a sample in every test that walks it.
    fn next_variant(frame: &Frame) -> Option<Frame> {
        Some(match frame {
            Frame::Simulate { .. } => Frame::Eval {
                run_id: "run".into(),
                seed: u64::MAX,
            },
            Frame::Eval { .. } => Frame::Ping,
            Frame::Ping => Frame::Status,
            Frame::Status => Frame::Metrics,
            Frame::Metrics => Frame::Shutdown,
            Frame::Shutdown => Frame::Start {
                cost: COST,
                cache: CacheOutcome::Miss,
            },
            Frame::Start { .. } => Frame::edges("0 1 0\n1 2 0\n".into()),
            Frame::Edges { .. } => {
                let mut sink = tg_metrics::StatsSink::new(2, 2);
                use tg_graph::sink::EdgeSink;
                sink.accept(1, 0, &[tg_graph::TemporalEdge::new(0, 1, 1)]);
                Frame::Stats {
                    stats: sink.finish(),
                }
            }
            Frame::Stats { .. } => Frame::Done { n_edges: 7 },
            Frame::Done { .. } => Frame::Scores {
                scores: vec![MetricScore {
                    kind: tg_metrics::MetricKind::ALL[0],
                    avg: 0.25,
                    med: 0.5,
                }],
            },
            Frame::Scores { .. } => Frame::StatusReport(StatusReport {
                draining: false,
                requests_served: 3,
                active_requests: 1,
                inflight_cost: 456,
                inflight_requests: 1,
                max_cost: 1 << 24,
                admission_rejected: 2,
                cache_capacity: 4,
                cache: CacheCounters {
                    hits: 2,
                    misses: 1,
                    evictions: 0,
                    saturations: 0,
                },
                resident: vec![ResidentModel {
                    run_id: "run".into(),
                    pinned: true,
                }],
                runs: vec![RunCounters {
                    run_id: "run".into(),
                    requests: 3,
                    bytes: 4096,
                }],
            }),
            Frame::StatusReport(_) => Frame::MetricsReport {
                text: "# TYPE serve_requests counter\nserve_requests{run=\"r\"} 3\n".into(),
            },
            Frame::MetricsReport { .. } => Frame::Pong,
            Frame::Pong => Frame::Bye,
            Frame::Bye => Frame::Error {
                kind: ErrorKind::Busy,
                message: "in-flight budget exhausted".into(),
            },
            Frame::Error { .. } => return None,
        })
    }

    fn every_variant() -> Vec<Frame> {
        let first = Frame::Simulate {
            run_id: "run".into(),
            seed: 42,
            stats: false,
        };
        std::iter::successors(Some(first), next_variant).collect()
    }

    #[test]
    fn frames_round_trip_through_the_wire_format() {
        let frames = every_variant();
        assert_eq!(frames.len(), 16);
        for frame in &frames {
            let back = round_trip(frame);
            assert_eq!(back.op(), frame.op());
            assert_eq!(encode(&back), encode(frame), "{} changed", frame.op());
        }
        // the wire format, pinned: a request, a response, and the prefix
        let json = |frame: &Frame| String::from_utf8(encode(frame)[4..].to_vec()).unwrap();
        assert_eq!(
            json(&frames[0]),
            r#"{"Simulate":{"run_id":"run","seed":42,"stats":false}}"#
        );
        assert_eq!(
            json(&frames[6]),
            r#"{"Start":{"cost":{"units":3,"centers":24,"edges":72,"cost":456},"cache":"Miss"}}"#
        );
        assert_eq!(encode(&Frame::Ping), b"\x00\x00\x00\x06\"Ping\"");
    }

    #[test]
    fn edge_data_survives_verbatim() {
        let text = "0 1 0\n1 2 0\n2 0 1\n".to_string();
        match round_trip(&Frame::edges(text.clone())) {
            Frame::Edges { data } => assert_eq!(data, text),
            other => panic!("expected edges, got {other:?}"),
        }
    }

    #[test]
    fn eof_inside_a_frame_is_an_error() {
        let buf = encode(&Frame::Ping);
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

    #[test]
    fn a_payload_that_is_json_but_no_frame_is_invalid_data() {
        for payload in [
            r#""Pnig""#,                                // unknown unit variant
            r#"{"Launch":{"run_id":"r"}}"#,             // unknown variant
            r#"{"Simulate":{"run_id":"r","seed":9}}"#,  // missing field
            r#"{"Eval":{"run_id":"r","seed":"nine"}}"#, // mistyped field
            r#"{"op":"ping","run_id":null}"#,           // the pre-enum struct shape
            r#"{"Done":{"n_edges":1},"Pong":null}"#,    // two tags
        ] {
            let err = decode_payload(payload.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{payload}");
        }
    }
}
