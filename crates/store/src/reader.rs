//! Chunked, timestamp-windowed TGES reads.
//!
//! [`StoreReader::open`] validates the header/index (magic, version,
//! exact file length, header checksum, index monotonicity) in `O(T)` and
//! holds only the index resident. [`StoreReader::window`] then serves any
//! timestamp range as a stream of per-timestamp edge chunks through a
//! [`WindowCursor`]: one SoA block and one decoded batch buffer are
//! allocated on the first chunk and reused for every subsequent one, so
//! steady-state reading allocates nothing and resident memory is
//! `O(block + max_chunk)` however many edges the window covers.

use crate::error::StoreError;
use crate::format::{encode_index, Fnv1a, Header, BLOCK_CHECKSUM_BYTES, EDGE_BYTES, HEADER_BYTES};
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use tg_graph::{TemporalEdge, Time};

/// Read block `k`'s data bytes (checksum-verified against its trailer)
/// into `buf`. Shared by windowed reads and `verify_payload`.
fn read_block_verified(
    file: &mut std::fs::File,
    header: &Header,
    k: u64,
    buf: &mut Vec<u8>,
) -> Result<(), StoreError> {
    tg_faults::fail_point!(STORE_READ_BLOCK, format!("block:{k}"));
    let data_len = header.block_len(k) as usize * EDGE_BYTES as usize;
    buf.resize(data_len + BLOCK_CHECKSUM_BYTES as usize, 0);
    file.seek(SeekFrom::Start(header.block_offset(k)))?;
    file.read_exact(buf)?;
    #[expect(
        clippy::expect_used,
        reason = "`buf` was resized to `data_len` + the 8 checksum bytes"
    )]
    let expected = u64::from_le_bytes(buf[data_len..].try_into().expect("8 bytes"));
    let mut fnv = Fnv1a::new();
    fnv.update(&buf[..data_len]);
    let actual = fnv.finish();
    if actual != expected {
        return Err(StoreError::BlockChecksum {
            block: k,
            expected,
            actual,
        });
    }
    buf.truncate(data_len);
    Ok(())
}

/// One yielded unit of a [`WindowCursor`]: `(timestamp, chunk index
/// within the timestamp, edges)` — the same coordinates
/// [`EdgeSink::accept`](tg_graph::sink::EdgeSink::accept) speaks on the
/// emit side. The edge slice borrows the cursor's reused batch buffer.
pub type Chunk<'a> = (Time, u32, &'a [TemporalEdge]);

/// An open, header-validated TGES store file.
pub struct StoreReader {
    file: std::fs::File,
    header: Header,
    /// Cumulative edge offsets: edges at `t` occupy `[index[t], index[t+1])`.
    index: Vec<u64>,
}

impl StoreReader {
    /// Open a store file, validating magic, version, shape, exact file
    /// length, and the header/index checksum. Fails with the precise
    /// [`StoreError`] variant for each kind of damage.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let mut file = std::fs::File::open(path)?;
        let mut header_bytes = [0u8; HEADER_BYTES as usize];
        let actual_len = file.metadata()?.len();
        if actual_len < HEADER_BYTES {
            return Err(StoreError::Truncated {
                expected: HEADER_BYTES,
                actual: actual_len,
            });
        }
        file.read_exact(&mut header_bytes)?;
        let header = Header::decode(&header_bytes)?;
        let expected_len = header.expected_file_len();
        if actual_len != expected_len {
            return Err(StoreError::Truncated {
                expected: expected_len,
                actual: actual_len,
            });
        }
        let mut index_bytes = vec![0u8; 8 * (header.n_timestamps as usize + 1)];
        file.read_exact(&mut index_bytes)?;
        let computed = header.compute_header_checksum(&index_bytes);
        if computed != header.header_checksum {
            return Err(StoreError::HeaderChecksum {
                expected: header.header_checksum,
                actual: computed,
            });
        }
        #[expect(clippy::expect_used, reason = "`chunks_exact(8)` yields 8-byte slices")]
        let index: Vec<u64> = index_bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "the index has `n_timestamps + 1 >= 2` entries; `decode` rejects a zero shape"
        )]
        if index[0] != 0 || *index.last().expect("non-empty") != header.n_edges {
            return Err(StoreError::Corrupt {
                what: format!(
                    "index bounds [{}, {}] disagree with edge count {}",
                    index[0],
                    index.last().expect("non-empty"),
                    header.n_edges
                ),
            });
        }
        if index.windows(2).any(|w| w[0] > w[1]) {
            return Err(StoreError::Corrupt {
                what: "index offsets are not monotone".into(),
            });
        }
        Ok(StoreReader {
            file,
            header,
            index,
        })
    }

    /// Number of nodes of the stored graph.
    pub fn n_nodes(&self) -> usize {
        self.header.n_nodes as usize
    }

    /// Number of timestamps `T`.
    pub fn n_timestamps(&self) -> usize {
        self.header.n_timestamps as usize
    }

    /// Total stored edges.
    pub fn n_edges(&self) -> u64 {
        self.header.n_edges
    }

    /// Edges at each timestamp, straight from the index — the generation
    /// budgets [`SimulationPlan`] needs, available without touching the
    /// payload.
    ///
    /// [`SimulationPlan`]: https://docs.rs/tgae
    pub fn edge_counts_per_timestamp(&self) -> Vec<usize> {
        self.index
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .collect()
    }

    /// The decoded header (shape, block capacity, checksums).
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Stream edges with `t` in `[t_begin, t_end)` as per-timestamp
    /// chunks of at most `max_chunk` edges. The cursor borrows the
    /// reader; buffers are reused across chunks.
    pub fn window(&mut self, t_begin: Time, t_end: Time, max_chunk: usize) -> WindowCursor<'_> {
        let t_end = (t_end as usize).min(self.n_timestamps()) as Time;
        let t_begin = t_begin.min(t_end);
        let pos = self.index[t_begin as usize];
        let end = self.index[t_end as usize];
        WindowCursor {
            reader: self,
            pos,
            end,
            max_chunk: max_chunk.max(1),
            cur_t: t_begin,
            chunk_in_t: 0,
            loaded_block: None,
            block_bytes: Vec::new(),
            batch: Vec::new(),
        }
    }

    /// Walk every block, verifying each block's trailer checksum, and
    /// compare the accumulated data hash against the header's payload
    /// checksum — the full-scan integrity check (windowed reads only
    /// verify the blocks they touch). Block damage surfaces as
    /// [`StoreError::BlockChecksum`] naming the block; a payload-hash
    /// mismatch with every block intact means the header itself lies.
    pub fn verify_payload(&mut self) -> Result<(), StoreError> {
        let header = self.header;
        let mut fnv = Fnv1a::new();
        let mut buf = Vec::new();
        for k in 0..header.n_blocks() {
            read_block_verified(&mut self.file, &header, k, &mut buf)?;
            fnv.update(&buf);
        }
        let actual = fnv.finish();
        if actual != header.payload_checksum {
            return Err(StoreError::PayloadChecksum {
                expected: header.payload_checksum,
                actual,
            });
        }
        Ok(())
    }

    /// The serialized index bytes (test/tooling hook).
    pub fn index_bytes(&self) -> Vec<u8> {
        encode_index(&self.index)
    }

    /// Best-effort recovery of a damaged store file.
    ///
    /// Unlike [`open`](StoreReader::open), which refuses a file with any
    /// invalid region, `salvage` walks the payload block by block and
    /// hands every block whose trailer checksum validates (and whose
    /// decoded edges pass the structural checks: endpoints and
    /// timestamps in shape, `(t, u, v)` order preserved across emitted
    /// blocks) to `emit`, in file order. Damaged, truncated, or
    /// out-of-order blocks are skipped and reported. Only an unreadable
    /// header (bad magic, wrong version, nonsense shape) or an I/O /
    /// emit failure is fatal — a corrupt index or payload never is.
    pub fn salvage(
        path: impl AsRef<Path>,
        mut emit: impl FnMut(&Header, &[TemporalEdge]) -> Result<(), StoreError>,
    ) -> Result<SalvageReport, StoreError> {
        let mut file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_BYTES {
            return Err(StoreError::Truncated {
                expected: HEADER_BYTES,
                actual: file_len,
            });
        }
        let mut header_bytes = [0u8; HEADER_BYTES as usize];
        file.read_exact(&mut header_bytes)?;
        let header = Header::decode(&header_bytes)?;

        // The index is advisory for salvage (block offsets are pure
        // arithmetic); just record whether it survived.
        let index_len = 8 * (header.n_timestamps as usize + 1);
        let index_valid = if file_len >= HEADER_BYTES + index_len as u64 {
            let mut index_bytes = vec![0u8; index_len];
            file.read_exact(&mut index_bytes)?;
            header.compute_header_checksum(&index_bytes) == header.header_checksum
        } else {
            false
        };

        let mut report = SalvageReport {
            header,
            file_len,
            n_blocks: header.n_blocks(),
            bad_blocks: Vec::new(),
            recovered_edges: 0,
            lost_edges: 0,
            index_valid,
        };
        let mut buf = Vec::new();
        let mut edges = Vec::new();
        let mut last_emitted: Option<TemporalEdge> = None;
        for k in 0..header.n_blocks() {
            let len = header.block_len(k);
            let end = header.block_offset(k) + len * EDGE_BYTES + BLOCK_CHECKSUM_BYTES;
            let intact = end <= file_len
                && match read_block_verified(&mut file, &header, k, &mut buf) {
                    Ok(()) => true,
                    Err(StoreError::BlockChecksum { .. }) => false,
                    Err(e) => return Err(e),
                }
                && decode_block_checked(&header, &buf, len, last_emitted, &mut edges);
            if !intact {
                report.bad_blocks.push(k);
                report.lost_edges += len;
                continue;
            }
            last_emitted = edges.last().copied().or(last_emitted);
            emit(&header, &edges)?;
            report.recovered_edges += len;
        }
        Ok(report)
    }
}

/// Decode one verified block's SoA bytes into `out`, checking shape and
/// `(t, u, v)` order (within the block and against the last edge emitted
/// from an earlier block). Returns false if any record is inconsistent —
/// a checksum collision over garbage, treated the same as block damage.
fn decode_block_checked(
    header: &Header,
    data: &[u8],
    len: u64,
    last_emitted: Option<TemporalEdge>,
    out: &mut Vec<TemporalEdge>,
) -> bool {
    let len = len as usize;
    #[expect(clippy::expect_used, reason = "a 4-byte slice")]
    let col_at =
        |col: &[u8], i: usize| u32::from_le_bytes(col[i * 4..i * 4 + 4].try_into().expect("4 B"));
    let (u_col, rest) = data.split_at(len * 4);
    let (v_col, t_col) = rest.split_at(len * 4);
    out.clear();
    out.reserve(len);
    let mut prev = last_emitted;
    for i in 0..len {
        let e = TemporalEdge::new(col_at(u_col, i), col_at(v_col, i), col_at(t_col, i));
        if e.u as u64 >= header.n_nodes
            || e.v as u64 >= header.n_nodes
            || e.t as u64 >= header.n_timestamps
            || prev.is_some_and(|p| p > e)
        {
            return false;
        }
        prev = Some(e);
        out.push(e);
    }
    true
}

/// What [`StoreReader::salvage`] recovered from a damaged store.
#[derive(Clone, Debug)]
pub struct SalvageReport {
    /// The decoded header (trusted shape — it passed its structural
    /// checks, though its checksums may not cover what's on disk).
    pub header: Header,
    /// Actual on-disk byte length.
    pub file_len: u64,
    /// Blocks the header implies.
    pub n_blocks: u64,
    /// Blocks skipped: truncated away, trailer checksum mismatch, or
    /// structurally inconsistent records.
    pub bad_blocks: Vec<u64>,
    /// Edges handed to `emit`.
    pub recovered_edges: u64,
    /// Edges in skipped blocks.
    pub lost_edges: u64,
    /// Whether the header/index checksum validated (salvage proceeds
    /// either way — block offsets are arithmetic).
    pub index_valid: bool,
}

impl SalvageReport {
    /// True when nothing was lost: every block validated and the index
    /// checksum held.
    pub fn is_clean(&self) -> bool {
        self.bad_blocks.is_empty() && self.index_valid
    }
}

/// Streaming cursor over one timestamp window of a store; see
/// [`StoreReader::window`].
///
/// Not a std `Iterator` — each yielded chunk borrows the cursor's reused
/// batch buffer (a lending iterator), which is exactly what keeps the
/// steady state allocation-free. Drive it with a `while let` loop:
///
/// ```ignore
/// let mut cur = reader.window(0, t_count, 4096);
/// while let Some((t, chunk, edges)) = cur.next_chunk()? {
///     // edges all carry timestamp t, in (u, v) order
/// }
/// ```
pub struct WindowCursor<'r> {
    reader: &'r mut StoreReader,
    /// Next global edge position to yield.
    pos: u64,
    /// One past the last edge position of the window.
    end: u64,
    max_chunk: usize,
    cur_t: Time,
    chunk_in_t: u32,
    /// Block currently decoded in `block_bytes`.
    loaded_block: Option<u64>,
    /// Raw bytes of the loaded block (SoA: u column, v column, t column).
    block_bytes: Vec<u8>,
    /// Reused output buffer; `next_chunk` returns a borrow of it.
    batch: Vec<TemporalEdge>,
}

impl WindowCursor<'_> {
    /// Yield the next per-timestamp chunk, or `None` at the end of the
    /// window. Chunks honor the `EdgeSource` contract: at most
    /// `max_chunk` edges, single timestamp, plan order, chunk indices
    /// restarting at each timestamp.
    pub fn next_chunk(&mut self) -> Result<Option<Chunk<'_>>, StoreError> {
        if self.pos >= self.end {
            return Ok(None);
        }
        let header = self.reader.header;
        // advance to the timestamp owning `pos` (skipping empty ones)
        while self.reader.index[self.cur_t as usize + 1] <= self.pos {
            self.cur_t += 1;
            self.chunk_in_t = 0;
        }
        let t = self.cur_t;
        // load (and checksum-verify) the block holding `pos` if it isn't
        // resident yet
        let block = self.pos / header.block_edges;
        if self.loaded_block != Some(block) {
            read_block_verified(&mut self.reader.file, &header, block, &mut self.block_bytes)?;
            self.loaded_block = Some(block);
        }
        let block_start = block * header.block_edges;
        let block_len = header.block_len(block);
        // chunk ends at the first of: timestamp boundary, window end,
        // block boundary, max_chunk edges
        let chunk_end = self.reader.index[t as usize + 1]
            .min(self.end)
            .min(block_start + block_len)
            .min(self.pos + self.max_chunk as u64);
        let n = (chunk_end - self.pos) as usize;
        debug_assert!(n > 0);
        let off = (self.pos - block_start) as usize;
        let u_col = &self.block_bytes[..block_len as usize * 4];
        let v_col = &self.block_bytes[block_len as usize * 4..block_len as usize * 8];
        let t_col = &self.block_bytes[block_len as usize * 8..];
        #[expect(clippy::expect_used, reason = "a 4-byte slice")]
        let col_at = |col: &[u8], i: usize| {
            u32::from_le_bytes(col[i * 4..i * 4 + 4].try_into().expect("4 bytes"))
        };
        self.batch.clear();
        self.batch.reserve(n);
        for i in off..off + n {
            let (u, v, et) = (col_at(u_col, i), col_at(v_col, i), col_at(t_col, i));
            // lazy integrity cross-check against the index and shape: a
            // flipped payload bit in the touched window surfaces as a
            // typed error instead of a silently wrong graph
            if et != t {
                return Err(StoreError::CorruptPayload {
                    what: format!(
                        "edge {} carries t={et} but the index places it at t={t}",
                        block_start + i as u64
                    ),
                });
            }
            if u as u64 >= header.n_nodes || v as u64 >= header.n_nodes {
                return Err(StoreError::CorruptPayload {
                    what: format!(
                        "edge {} endpoint {u}->{v} out of range (< {})",
                        block_start + i as u64,
                        header.n_nodes
                    ),
                });
            }
            self.batch.push(TemporalEdge::new(u, v, et));
        }
        self.pos = chunk_end;
        let chunk = self.chunk_in_t;
        self.chunk_in_t += 1;
        Ok(Some((t, chunk, &self.batch)))
    }
}
