//! RAII trace spans, buffered per-thread and flushed as JSONL.
//!
//! A process that wants a trace calls [`install`] once with an output
//! path; until then every [`span`] call returns an inert guard that
//! reads no clock and allocates nothing. Span records carry ids and
//! parent ids (the innermost span open on the same thread), which the
//! [`crate::chrome`] renderer keeps as event arguments.
//!
//! ## File format
//!
//! One JSON object per line. The first line is a process header:
//!
//! ```text
//! {"meta":"process","pid":1234,"label":"simulate","epoch_ns":1699…}
//! ```
//!
//! `epoch_ns` is the wall-clock UNIX time captured at the same moment
//! as the monotonic anchor, so timelines from different processes can
//! share an axis. Every other line is a completed span:
//!
//! ```text
//! {"pid":1234,"tid":1,"id":5299989643265,"parent":5299989643264,
//!  "name":"engine.generate","start_ns":8121,"dur_ns":52100}
//! ```
//!
//! `start_ns` is relative to the process anchor; `parent` is `0` for
//! roots. Span ids are `(pid << 32) | seq`.

use crate::{lock_unpoisoned, push_json_str};
use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Flush a thread buffer into the sink once it grows past this.
const FLUSH_BYTES: usize = 32 * 1024;

static TRACE_ON: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

struct Anchor {
    start: std::time::Instant,
    epoch_ns: u64,
    pid: u32,
}

struct SinkState {
    writer: BufWriter<File>,
    /// Every thread's pending-span buffer, registered on first use so
    /// [`flush`] can drain threads that never exit (pool workers).
    buffers: Vec<Arc<Mutex<String>>>,
}

static ANCHOR: OnceLock<Anchor> = OnceLock::new();
static SINK: OnceLock<Mutex<SinkState>> = OnceLock::new();

thread_local! {
    static THREAD: RefCell<ThreadTrace> = RefCell::new(ThreadTrace {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        buf: None,
    });
}

struct ThreadTrace {
    tid: u64,
    stack: Vec<u64>,
    buf: Option<Arc<Mutex<String>>>,
}

impl ThreadTrace {
    fn buffer(&mut self) -> Arc<Mutex<String>> {
        if let Some(b) = &self.buf {
            return Arc::clone(b);
        }
        let b = Arc::new(Mutex::new(String::new()));
        if let Some(sink) = SINK.get() {
            lock_unpoisoned(sink).buffers.push(Arc::clone(&b));
        }
        self.buf = Some(Arc::clone(&b));
        b
    }
}

/// Install the span sink: record the monotonic/wall anchor, write the
/// process header line to `path`, and arm span recording. Errors if a
/// sink is already installed (one trace file per process).
pub fn install(path: &Path, label: &str) -> std::io::Result<()> {
    if SINK.get().is_some() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            "trace sink already installed",
        ));
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "trace anchoring: the monotonic start and its wall-clock twin are exported to the trace file only, never fed back into seeded state"
    )]
    let anchor = ANCHOR.get_or_init(|| Anchor {
        start: std::time::Instant::now(),
        epoch_ns: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0),
        pid: std::process::id(),
    });
    let mut writer = BufWriter::new(File::create(path)?);
    let mut header = String::from("{\"meta\":\"process\",\"pid\":");
    header.push_str(&anchor.pid.to_string());
    header.push_str(",\"label\":");
    push_json_str(&mut header, label);
    header.push_str(",\"epoch_ns\":");
    header.push_str(&anchor.epoch_ns.to_string());
    header.push('}');
    writeln!(writer, "{header}")?;
    writer.flush()?;
    let _ = SINK.set(Mutex::new(SinkState {
        writer,
        buffers: Vec::new(),
    }));
    TRACE_ON.store(true, Ordering::Release);
    Ok(())
}

/// Whether a span sink is installed in this process.
pub fn enabled() -> bool {
    TRACE_ON.load(Ordering::Acquire)
}

/// Open a span. Inert (no clock read, no allocation) until
/// [`install`] has run. The parent is the innermost open span on this
/// thread, if any.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let Some(anchor) = ANCHOR.get() else {
        return SpanGuard(None);
    };
    let seq = NEXT_SPAN.fetch_add(1, Ordering::Relaxed) & 0xffff_ffff;
    let id = ((anchor.pid as u64) << 32) | seq;
    let data = THREAD.try_with(|t| {
        let mut t = t.borrow_mut();
        let parent = t.stack.last().copied().unwrap_or(0);
        t.stack.push(id);
        SpanData {
            name,
            id,
            parent,
            tid: t.tid,
            start_ns: anchor.start.elapsed().as_nanos() as u64,
        }
    });
    SpanGuard(data.ok())
}

struct SpanData {
    name: &'static str,
    id: u64,
    parent: u64,
    tid: u64,
    start_ns: u64,
}

/// An open span; records itself into the thread buffer on drop.
pub struct SpanGuard(Option<SpanData>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(d) = self.0.take() else { return };
        let Some(anchor) = ANCHOR.get() else { return };
        let end_ns = anchor.start.elapsed().as_nanos() as u64;
        let mut line = String::with_capacity(128);
        line.push_str("{\"pid\":");
        line.push_str(&anchor.pid.to_string());
        line.push_str(",\"tid\":");
        line.push_str(&d.tid.to_string());
        line.push_str(",\"id\":");
        line.push_str(&d.id.to_string());
        line.push_str(",\"parent\":");
        line.push_str(&d.parent.to_string());
        line.push_str(",\"name\":");
        push_json_str(&mut line, d.name);
        line.push_str(",\"start_ns\":");
        line.push_str(&d.start_ns.to_string());
        line.push_str(",\"dur_ns\":");
        line.push_str(&end_ns.saturating_sub(d.start_ns).to_string());
        line.push_str("}\n");
        let overflowing = THREAD
            .try_with(|t| {
                let mut t = t.borrow_mut();
                if t.stack.last() == Some(&d.id) {
                    t.stack.pop();
                } else {
                    t.stack.retain(|&x| x != d.id);
                }
                let buf = t.buffer();
                let len = {
                    let mut b = lock_unpoisoned(&buf);
                    b.push_str(&line);
                    b.len()
                };
                (len > FLUSH_BYTES).then_some(buf)
            })
            .ok()
            .flatten();
        if let Some(buf) = overflowing {
            drain_one(&buf);
        }
    }
}

/// Drain one thread buffer into the sink. Lock order is sink first,
/// then buffer — the same order `flush` uses.
fn drain_one(buf: &Arc<Mutex<String>>) {
    let Some(sink) = SINK.get() else { return };
    let mut st = lock_unpoisoned(sink);
    let mut b = lock_unpoisoned(buf);
    let _ = st.writer.write_all(b.as_bytes());
    b.clear();
}

/// Drain every thread's span buffer into the trace file and flush it.
/// Call before process exit: pool threads never unwind their TLS, so
/// this is the only way their buffered spans reach disk. No-op when
/// tracing is off.
pub fn flush() -> std::io::Result<()> {
    let Some(sink) = SINK.get() else {
        return Ok(());
    };
    let mut st = lock_unpoisoned(sink);
    let buffers: Vec<Arc<Mutex<String>>> = st.buffers.iter().map(Arc::clone).collect();
    for buf in &buffers {
        let mut b = lock_unpoisoned(buf);
        st.writer.write_all(b.as_bytes())?;
        b.clear();
    }
    st.writer.flush()
}

/// Open a span on the global sink (shorthand for
/// [`trace::span`](span)): `let _g = span!("engine.generate");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // `install` is process-global, so everything that needs a live
    // sink lives in ONE test; the inert-path test only asserts when
    // the sink is genuinely absent (true under `cargo test` unless
    // another test in this binary installed it first — which is
    // exactly the live test below, hence the guard).
    #[test]
    fn inert_guard_has_no_id() {
        let g = span("t.inert");
        // Re-check after the call: the live-sink test may install the
        // global sink concurrently, but the flag never goes back off,
        // so "still off now" implies it was off when `span` ran.
        if !enabled() {
            assert!(g.0.is_none());
        }
    }

    #[test]
    fn spans_record_nesting_and_flush() {
        let dir = std::env::temp_dir().join(format!("tg_obs_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        install(&path, "unit").unwrap();
        assert!(install(&path, "twice").is_err());

        {
            let _outer = span("t.outer");
            let _inner = span("t.inner");
        }
        flush().unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"meta\":\"process\""));
        assert!(lines[0].contains("\"label\":\"unit\""));
        let rec = |name: &str| {
            let needle = format!("\"name\":\"{name}\"");
            lines
                .iter()
                .find(|l| l.contains(&needle))
                .copied()
                .unwrap_or_else(|| panic!("no record for {name}"))
        };
        let id = |name: &str| {
            let line = rec(name);
            let (_, rest) = line.split_once("\"id\":").unwrap();
            rest.split(',').next().unwrap().to_string()
        };
        assert_ne!(id("t.inner"), id("t.outer"));
        assert!(rec("t.inner").contains(&format!("\"parent\":{},", id("t.outer"))));
        assert!(rec("t.outer").contains("\"parent\":0,"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
