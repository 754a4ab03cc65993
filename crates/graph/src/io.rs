//! Edge-list I/O for temporal graphs.
//!
//! The standard interchange format used by the paper's datasets (SNAP,
//! Bitcoin OTC/Alpha, StackExchange dumps) is a whitespace-separated text
//! file of `src dst timestamp` lines. [`read_edge_list`] accepts that
//! format directly (comments beginning with `#` or `%` are skipped) and
//! compacts raw ids/timestamps into the dense `0..n` / `0..T` ranges via
//! [`crate::builder::TemporalGraphBuilder`].

use crate::builder::TemporalGraphBuilder;
use crate::sink::EdgeSink;
use crate::temporal::{TemporalEdge, TemporalGraph, Time};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::num::NonZeroUsize;
use std::path::Path;

/// Errors produced by the edge-list parser.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem/stream error.
    Io(std::io::Error),
    /// A line failed to parse as a `src dst timestamp` record.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
    /// The input contained no edges at all.
    Empty,
    /// A dense shape with no timestamp, which no temporal graph has.
    NoTimestamps {
        /// The node count the shape declared.
        n_nodes: usize,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error on line {line}: {msg}"),
            IoError::Empty => write!(f, "edge list contained no edges"),
            IoError::NoTimestamps { n_nodes } => write!(
                f,
                "shape {n_nodes} nodes x 0 timestamps: a temporal graph needs at least one timestamp"
            ),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<tg_faults::FaultError> for IoError {
    fn from(e: tg_faults::FaultError) -> Self {
        IoError::Io(e.into())
    }
}

/// The temporary sibling [`commit_atomic`] stages into before the rename:
/// `<file name>.tmp` in the same directory (same filesystem, so the rename
/// is atomic). A `.tmp` left by a crash is inert — no reader ever opens
/// it — and the next write truncates it.
pub fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| std::ffi::OsString::from("artifact"));
    name.push(".tmp");
    path.with_file_name(name)
}

/// Crash-safe whole-file commit, the one every durable artifact (model
/// snapshots, checkpoints, manifests, edge lists, TGES stores) goes
/// through: `write` fills a fresh [`tmp_sibling`] through the handle it is
/// given, that same handle is fsynced, and the tmp is renamed over `path`.
/// A crash at any point leaves either the old file intact or the complete
/// new file — never a torn mix. On any returned error the tmp is removed
/// and `path` is untouched.
///
/// Fault points (see `tg-faults`), each carrying `path` as its argument:
/// `persist.atomic.start` before the tmp is created, and
/// `persist.atomic.unrenamed` after the fsync but before the rename.
pub fn commit_atomic<T, E>(
    path: &Path,
    write: impl FnOnce(&mut std::fs::File) -> Result<T, E>,
) -> Result<T, E>
where
    E: From<std::io::Error> + From<tg_faults::FaultError>,
{
    tg_faults::fail_point!(PERSIST_ATOMIC_START, path.display().to_string());
    let tmp = tmp_sibling(path);
    let committed = stage_and_rename(&tmp, path, write);
    if committed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    committed
}

/// The part of [`commit_atomic`] after which a failure leaves a tmp behind.
fn stage_and_rename<T, E>(
    tmp: &Path,
    path: &Path,
    write: impl FnOnce(&mut std::fs::File) -> Result<T, E>,
) -> Result<T, E>
where
    E: From<std::io::Error> + From<tg_faults::FaultError>,
{
    let mut f = std::fs::File::create(tmp)?;
    let out = write(&mut f)?;
    f.sync_all()?;
    drop(f);
    tg_faults::fail_point!(PERSIST_ATOMIC_UNRENAMED, path.display().to_string());
    std::fs::rename(tmp, path)?;
    Ok(out)
}

/// [`commit_atomic`] of a byte buffer, written in two halves with the
/// `persist.atomic.partial` fault point (arg: `path`) between them — a
/// crash there models a torn write.
pub fn atomic_write_bytes(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    commit_atomic(path, |f| {
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        f.write_all(head)?;
        tg_faults::fail_point!(PERSIST_ATOMIC_PARTIAL, path.display().to_string());
        f.write_all(tail)
    })
}

/// Call `f(line, [src, dst, timestamp])` for each record of a text edge
/// list, `line` being its 1-based line number — the one line reader every
/// edge-list parser shares, each parsing the three fields its own way.
/// Blank lines and lines starting with `#` or `%` are skipped. A record
/// with a missing or a fourth field is an [`IoError::Parse`] naming its
/// line: a KONECT `u v weight t` row, or two records spliced by a missing
/// newline, would otherwise load silently as the wrong edge.
pub fn for_each_record<R: Read>(
    reader: R,
    mut f: impl FnMut(usize, [&str; 3]) -> Result<(), IoError>,
) -> Result<(), IoError> {
    let mut reader = BufReader::new(reader);
    let mut buf = String::new();
    let mut line = 0;
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            return Ok(());
        }
        line += 1;
        let s = buf.trim();
        if s.is_empty() || s.starts_with('#') || s.starts_with('%') {
            continue;
        }
        let bad = |msg: &str| IoError::Parse {
            line,
            msg: msg.to_string(),
        };
        let mut it = s.split_whitespace();
        let mut field = |what| it.next().ok_or_else(|| bad(what));
        let record = [
            field("missing src")?,
            field("missing dst")?,
            field("missing timestamp")?,
        ];
        if it.next().is_some() {
            return Err(bad("trailing tokens after timestamp"));
        }
        f(line, record)?;
    }
}

/// Parse `src dst timestamp` lines from any reader. Raw node ids may be
/// arbitrary `u64`s and timestamps arbitrary non-negative numbers (a
/// fraction is dropped); both are compacted densely. A negative, fractional
/// or non-numeric id, a negative or non-finite timestamp, or a fourth
/// field is an [`IoError::Parse`] naming its line. `n_buckets`, when given,
/// quantises raw timestamps into that many equal-width buckets (the paper
/// aggregates fine-grained Unix timestamps into `T` snapshots this way).
pub fn read_edge_list<R: Read>(
    reader: R,
    n_buckets: Option<NonZeroUsize>,
) -> Result<TemporalGraph, IoError> {
    let mut builder = TemporalGraphBuilder::new();
    for_each_record(reader, |line, [src, dst, time]| {
        let bad = |msg: String| IoError::Parse { line, msg };
        let id = |tok: &str, what: &str| {
            tok.parse::<u64>()
                .map_err(|e| bad(format!("bad {what} `{tok}`: {e}")))
        };
        let (u, v) = (id(src, "src")?, id(dst, "dst")?);
        // Dumps may carry float epoch seconds: the fraction is dropped.
        let t = match time.parse::<f64>() {
            Ok(t) if t.is_finite() && t >= 0.0 => t as u64,
            Ok(_) => return Err(bad(format!("timestamp `{time}` is negative or not finite"))),
            Err(e) => return Err(bad(format!("bad timestamp `{time}`: {e}"))),
        };
        builder.add_raw(u, v, t);
        Ok(())
    })?;
    if builder.is_empty() {
        return Err(IoError::Empty);
    }
    Ok(match n_buckets {
        Some(b) => builder.build_bucketed(b),
        None => builder.build(),
    })
}

/// Load a temporal graph from a `src dst timestamp` file.
pub fn load_edge_list(
    path: impl AsRef<Path>,
    n_buckets: Option<NonZeroUsize>,
) -> Result<TemporalGraph, IoError> {
    let f = std::fs::File::open(path)?;
    read_edge_list(f, n_buckets)
}

/// Write a temporal graph as `src dst timestamp` lines.
pub fn write_edge_list<W: Write>(g: &TemporalGraph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    for e in g.edges() {
        writeln!(w, "{e}")?;
    }
    w.flush()?;
    Ok(())
}

/// Save a temporal graph to a `src dst timestamp` file.
pub fn save_edge_list(g: &TemporalGraph, path: impl AsRef<Path>) -> Result<(), IoError> {
    let f = std::fs::File::create(path)?;
    write_edge_list(g, f)
}

/// [`save_edge_list`] through [`commit_atomic`], so an interrupted save
/// never leaves a truncated edge list where a complete one used to be.
pub fn save_edge_list_atomic(g: &TemporalGraph, path: impl AsRef<Path>) -> Result<(), IoError> {
    commit_atomic(path.as_ref(), |f| write_edge_list(g, f))
}

/// Parse `src dst timestamp` lines **without id/timestamp compaction**:
/// every id must already be a dense `NodeId < n_nodes` and every
/// timestamp a dense `Time < n_timestamps`. This is the loader for files
/// produced by [`StreamingWriterSink`] / [`write_edge_list`], where the
/// ids are already dense and compaction would silently relabel any graph
/// whose generated edges miss a node or timestamp.
///
/// A shape of zero timestamps is [`IoError::NoTimestamps`] before any
/// record is read.
pub fn read_edge_list_exact<R: Read>(
    reader: R,
    n_nodes: usize,
    n_timestamps: usize,
) -> Result<TemporalGraph, IoError> {
    if n_timestamps == 0 {
        return Err(IoError::NoTimestamps { n_nodes });
    }
    let mut edges: Vec<TemporalEdge> = Vec::new();
    for_each_record(reader, |line, [src, dst, time]| {
        let dense = |tok: &str, what: &str, bound: usize| {
            let bad = |msg: String| IoError::Parse { line, msg };
            let v = tok
                .parse::<u32>()
                .map_err(|e| bad(format!("bad {what}: {e}")))?;
            if (v as usize) >= bound {
                return Err(bad(format!("{what} {v} out of range (< {bound})")));
            }
            Ok(v)
        };
        let u = dense(src, "src", n_nodes)?;
        let v = dense(dst, "dst", n_nodes)?;
        let t = dense(time, "timestamp", n_timestamps)?;
        edges.push(TemporalEdge::new(u, v, t));
        Ok(())
    })?;
    Ok(TemporalGraph::from_edges(n_nodes, n_timestamps, edges))
}

/// Load a dense edge-list file without compaction; see
/// [`read_edge_list_exact`].
pub fn load_edge_list_exact(
    path: impl AsRef<Path>,
    n_nodes: usize,
    n_timestamps: usize,
) -> Result<TemporalGraph, IoError> {
    let f = std::fs::File::open(path)?;
    read_edge_list_exact(f, n_nodes, n_timestamps)
}

/// [`EdgeSink`] that writes `src dst timestamp` lines straight through a
/// buffered writer as units are emitted, retaining **no edges** — peak
/// memory is bounded by the engine's in-flight unit window, independent
/// of the total edge count.
///
/// Because the simulation engine emits units in plan order (and shard
/// time-ranges partition that order), the files written by per-shard
/// sinks concatenate byte-identically — via [`merge_edge_lists`] — to the
/// file a single-process run would write.
///
/// I/O errors are captured on first occurrence and reported by
/// [`EdgeSink::finish`]; subsequent writes become no-ops.
///
/// # Drop behavior
///
/// The intended protocol is **explicit finish**: call
/// [`EdgeSink::finish`] (or [`StreamingWriterSink::into_inner`]) and
/// check the result — that is the only place deferred write errors are
/// reported. A sink dropped without finishing (early return, panic
/// unwind) still **flushes its buffer best-effort** so the file is not
/// silently truncated at a buffer boundary — that is `BufWriter`'s own
/// drop, which swallows any error from the final flush. Code that cares
/// whether the bytes landed must finish explicitly.
pub struct StreamingWriterSink<W: Write> {
    writer: BufWriter<W>,
    n_written: u64,
    err: Option<std::io::Error>,
}

impl<W: Write> StreamingWriterSink<W> {
    /// Wrap any writer (a `File`, a `Vec<u8>`, a socket…).
    pub fn new(writer: W) -> Self {
        StreamingWriterSink {
            writer: BufWriter::new(writer),
            n_written: 0,
            err: None,
        }
    }

    /// Edges written so far (excluding any failed writes).
    pub fn n_written(&self) -> u64 {
        self.n_written
    }

    /// Flush and hand back the inner writer (useful for in-memory
    /// `Vec<u8>` sinks in tests and benchmarks). Reports any deferred
    /// write error, like [`EdgeSink::finish`].
    pub fn into_inner(self) -> Result<W, IoError> {
        if let Some(e) = self.err {
            return Err(IoError::Io(e));
        }
        self.writer
            .into_inner()
            .map_err(|e| IoError::Io(e.into_error()))
    }
}

impl StreamingWriterSink<std::fs::File> {
    /// Create (truncating) an edge-list file at `path` and stream into it.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, IoError> {
        Ok(StreamingWriterSink::new(std::fs::File::create(path)?))
    }
}

impl<W: Write> EdgeSink for StreamingWriterSink<W> {
    type Output = Result<u64, IoError>;

    fn accept(&mut self, _t: Time, _chunk: u32, edges: &[TemporalEdge]) {
        if self.err.is_some() {
            return;
        }
        for e in edges {
            if let Err(err) = writeln!(self.writer, "{e}") {
                self.err = Some(err);
                return;
            }
            self.n_written += 1;
        }
    }

    fn finish(mut self) -> Result<u64, IoError> {
        if let Some(e) = self.err {
            return Err(IoError::Io(e));
        }
        self.writer.flush()?;
        Ok(self.n_written)
    }
}

/// Concatenate shard edge-list files, in order, into `out` — a streaming
/// byte copy with O(buffer) memory. When the inputs are the per-shard
/// outputs of [`StreamingWriterSink`] over a partition of the shard
/// manifest, the merged file is byte-identical to the single-process
/// streamed output. A newline is inserted after any non-empty input that
/// does not end with one (hand-edited files), so records never splice
/// across file boundaries. The merge is committed with [`commit_atomic`]:
/// a failed or interrupted merge leaves any earlier `out` as it was.
/// Returns the number of bytes written.
pub fn merge_edge_lists(
    inputs: &[impl AsRef<Path>],
    out: impl AsRef<Path>,
) -> Result<u64, IoError> {
    commit_atomic(out.as_ref(), |f| {
        let mut w = BufWriter::new(f);
        let mut total = 0u64;
        let mut buf = vec![0u8; 64 << 10];
        for p in inputs {
            let mut r = std::fs::File::open(p)?;
            let mut last = b'\n';
            loop {
                let n = r.read(&mut buf)?;
                if n == 0 {
                    break;
                }
                w.write_all(&buf[..n])?;
                total += n as u64;
                last = buf[n - 1];
            }
            if last != b'\n' {
                w.write_all(b"\n")?;
                total += 1;
            }
        }
        w.flush()?;
        Ok(total)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_list() {
        let text = "# comment\n0 1 10\n1 2 20\n\n% also comment\n2 0 10\n";
        let g = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.n_timestamps(), 2); // raw times 10 & 20 compact to 0 & 1
        assert_eq!(g.edges_at(0).len(), 2);
    }

    #[test]
    fn parse_with_sparse_ids() {
        let text = "1000 2000 5\n2000 3000 7\n";
        let g = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_timestamps(), 2);
    }

    #[test]
    fn parse_float_timestamps() {
        // some dumps carry float epoch seconds
        let text = "0 1 100.5\n1 0 200.7\n";
        let g = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(g.n_edges(), 2);
    }

    #[test]
    fn bucketing_compresses_timestamps() {
        let text = "0 1 0\n0 1 10\n0 1 20\n0 1 30\n0 1 40\n0 1 50\n";
        let g = read_edge_list(text.as_bytes(), NonZeroUsize::new(3)).unwrap();
        assert_eq!(g.n_timestamps(), 3);
        assert_eq!(g.n_edges(), 6);
        assert_eq!(g.edges_at(0).len(), 2);
    }

    #[test]
    fn roundtrip_write_read() {
        let text = "0 1 0\n1 2 1\n2 0 1\n";
        let g = read_edge_list(text.as_bytes(), None).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice(), None).unwrap();
        assert_eq!(g.n_nodes(), g2.n_nodes());
        assert_eq!(g.edges(), g2.edges());
    }

    #[test]
    fn tmp_sibling_stays_in_directory() {
        let p = Path::new("/some/dir/model.json");
        let t = tmp_sibling(p);
        assert_eq!(t, Path::new("/some/dir/model.json.tmp"));
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("tgx-io-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("artifact.bin");
        std::fs::write(&target, b"old contents").unwrap();
        atomic_write_bytes(&target, b"new contents").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"new contents");
        assert!(!tmp_sibling(&target).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_edge_list_atomic_roundtrips() {
        let text = "0 1 0\n1 2 1\n2 0 1\n";
        let g = read_edge_list(text.as_bytes(), None).unwrap();
        let dir = std::env::temp_dir().join(format!("tgx-io-atomic-el-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("observed.edges");
        save_edge_list_atomic(&g, &target).unwrap();
        let g2 = load_edge_list(&target, None).unwrap();
        assert_eq!(g.edges(), g2.edges());
        assert!(!tmp_sibling(&target).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_on_garbage() {
        let text = "0 1 notanumber\n";
        let err = read_edge_list(text.as_bytes(), None).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }), "{err}");
    }

    /// `text` fails to parse, on the 1-based `line`.
    fn assert_rejected_on(text: &str, line: usize) {
        let err = read_edge_list(text.as_bytes(), None).unwrap_err();
        assert!(
            matches!(err, IoError::Parse { line: l, .. } if l == line),
            "{text:?}: {err}"
        );
    }

    #[test]
    fn error_on_negative_id() {
        // a float parse cast this to node 0
        assert_rejected_on("0 2 0\n-1 2 0\n", 2);
        assert_rejected_on("2 -1 0\n", 1);
    }

    #[test]
    fn error_on_non_finite_id() {
        // a float parse cast `nan` to node 0
        assert_rejected_on("nan 3 1\n", 1);
        assert_rejected_on("0 inf 1\n", 1);
    }

    #[test]
    fn error_on_fractional_id() {
        // a float parse cast this to node 1
        assert_rejected_on("0 1 0\n1.9 2 1\n", 2);
    }

    #[test]
    fn error_on_negative_timestamp() {
        assert_rejected_on("0 1 3\n0 1 -5\n", 2);
        assert_rejected_on("0 1 -0.5\n", 1);
    }

    #[test]
    fn error_on_non_finite_timestamp() {
        assert_rejected_on("0 1 nan\n", 1);
        assert_rejected_on("0 1 inf\n", 1);
        assert_rejected_on("0 1 -inf\n", 1);
    }

    #[test]
    fn error_on_missing_column() {
        let text = "0 1\n";
        assert!(matches!(
            read_edge_list(text.as_bytes(), None),
            Err(IoError::Parse { .. })
        ));
    }

    #[test]
    fn error_on_a_fourth_column() {
        // a KONECT temporal `out.*` file: `%` headers, then `u v weight t`;
        // taking the third token as the time loads one snapshot keyed by
        // the weight column
        assert_rejected_on("% konect\n1 2 1 1000\n2 3 1 2000\n", 2);
    }

    #[test]
    fn error_on_empty() {
        assert!(matches!(
            read_edge_list("#nope\n".as_bytes(), None),
            Err(IoError::Empty)
        ));
    }

    #[test]
    fn exact_reader_keeps_ids_dense() {
        // node 2 and timestamp 1 never appear; the compacting reader
        // would relabel, the exact reader must not
        let text = "0 1 0\n1 0 2\n";
        let g = read_edge_list_exact(text.as_bytes(), 4, 3).unwrap();
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_timestamps(), 3);
        assert_eq!(
            g.edges(),
            &[TemporalEdge::new(0, 1, 0), TemporalEdge::new(1, 0, 2)]
        );
    }

    #[test]
    fn exact_reader_rejects_out_of_range() {
        assert!(matches!(
            read_edge_list_exact("0 9 0\n".as_bytes(), 3, 1),
            Err(IoError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_edge_list_exact("0 1 7\n".as_bytes(), 3, 1),
            Err(IoError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn exact_reader_rejects_a_shape_without_timestamps() {
        // an empty input used to reach `TemporalGraph::from_edges`, which
        // panics on a zero-timestamp shape
        for text in ["", "0 1 0\n"] {
            match read_edge_list_exact(text.as_bytes(), 3, 0) {
                Err(e @ IoError::NoTimestamps { n_nodes: 3 }) => {
                    assert!(e.to_string().contains("3 nodes x 0 timestamps"), "{e}")
                }
                Err(e) => panic!("{text:?}: wrong error {e}"),
                Ok(_) => panic!("{text:?}: a zero-timestamp shape loaded"),
            }
        }
    }

    #[test]
    fn streaming_sink_matches_write_edge_list() {
        let edges = vec![
            TemporalEdge::new(0, 1, 0),
            TemporalEdge::new(1, 2, 0),
            TemporalEdge::new(2, 0, 1),
        ];
        let g = TemporalGraph::from_edges(3, 2, edges.clone());
        let mut via_writer = Vec::new();
        write_edge_list(&g, &mut via_writer).unwrap();

        let mut sink = StreamingWriterSink::new(Vec::new());
        // emit in sorted order (what the engine's plan order gives for a
        // graph whose edges are already sorted)
        sink.accept(0, 0, &edges[..2]);
        sink.accept(1, 0, &edges[2..]);
        assert_eq!(sink.n_written(), 3);
        let buf = sink.into_inner().unwrap();
        assert_eq!(buf, via_writer);
    }

    #[test]
    fn dropped_sink_flushes_buffered_edges() {
        // The explicit-finish contract: finish() is where errors surface,
        // but a sink dropped without it must still flush its buffer — a
        // worker that early-returns after accepting edges must not leave a
        // file truncated at a BufWriter boundary.
        let dir = std::env::temp_dir().join(format!("tg_drop_flush_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dropped.edges");
        {
            let mut sink = StreamingWriterSink::create(&path).unwrap();
            // few edges: far below BufWriter's default 8 KiB buffer, so
            // without the drop-flush nothing would reach the file
            sink.accept(0, 0, &[TemporalEdge::new(0, 1, 0)]);
            sink.accept(1, 0, &[TemporalEdge::new(1, 0, 1)]);
            assert_eq!(sink.n_written(), 2);
            // dropped here — no finish(), no into_inner()
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "0 1 0\n1 0 1\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exact_reader_rejects_trailing_tokens() {
        // a spliced line (missing newline between records) must not parse
        // as a single edge that silently drops the trailing tokens
        assert!(matches!(
            read_edge_list_exact("5 6 01 2 0\n".as_bytes(), 10, 5),
            Err(IoError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn merge_inserts_newline_for_unterminated_input() {
        let dir = std::env::temp_dir().join(format!("tg_merge_nl_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.txt");
        let b = dir.join("b.txt");
        let out = dir.join("merged.txt");
        std::fs::write(&a, "0 1 0").unwrap(); // no trailing newline
        std::fs::write(&b, "1 0 1\n").unwrap();
        merge_edge_lists(&[&a, &b], &out).unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap(), "0 1 0\n1 0 1\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_concatenates_in_order() {
        let dir = std::env::temp_dir().join(format!("tg_merge_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.txt");
        let b = dir.join("b.txt");
        let out = dir.join("merged.txt");
        std::fs::write(&a, "0 1 0\n").unwrap();
        std::fs::write(&b, "1 0 1\n").unwrap();
        let bytes = merge_edge_lists(&[&a, &b], &out).unwrap();
        let merged = std::fs::read_to_string(&out).unwrap();
        assert_eq!(merged, "0 1 0\n1 0 1\n");
        assert_eq!(bytes as usize, merged.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
