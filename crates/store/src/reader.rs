//! TGES reads: one header-and-index read, one block decoder, one cursor.
//!
//! [`StoreReader::open`] validates the header/index (magic, version,
//! exact file length, header checksum, index bounds and monotonicity) in
//! `O(T)` and holds only the index resident. [`StoreSource`] then streams
//! the whole store block by block: one raw block and its decoded edges
//! are allocated on the first block and reused for every later one, so
//! resident memory is `O(block)` however many edges the store holds.
//! [`StoreReader::salvage`] reads the same header and index and decodes
//! the same blocks, but skips what [`open`](StoreReader::open) and the
//! stream would refuse.
//!
//! [`StoreSource`]: crate::StoreSource

use crate::error::StoreError;
use crate::format::{Fnv1a, Header, BLOCK_CHECKSUM_BYTES, EDGE_BYTES, HEADER_BYTES};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use tg_graph::source::check_edge;
use tg_graph::{TemporalEdge, Time};

/// The front of a store file as [`read_front`] found it.
struct Front {
    header: Header,
    /// Actual on-disk byte length.
    file_len: u64,
    /// The timestamp index, or why it cannot be trusted: a file too
    /// short to hold it, a header checksum mismatch, or offsets out of
    /// bounds or order.
    index: Result<Vec<u64>, StoreError>,
}

/// Read and decode the header, then the timestamp index, from the front
/// of `file`. A file too short for a header or a header that does not
/// decode is an error; a bad index is reported in [`Front::index`] so
/// that [`StoreReader::salvage`] can walk the blocks without it. The
/// index is only allocated once the file is known to hold it.
fn read_front(file: &mut File) -> Result<Front, StoreError> {
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
    let index = if file_len < header.payload_start() {
        Err(StoreError::Truncated {
            expected: header.expected_file_len(),
            actual: file_len,
        })
    } else {
        let mut index_bytes = vec![0u8; header.payload_start() as usize - HEADER_BYTES as usize];
        file.read_exact(&mut index_bytes)?;
        decode_index(&header, &index_bytes)
    };
    Ok(Front {
        header,
        file_len,
        index,
    })
}

/// Check the header checksum over `index_bytes` and decode the offsets,
/// which must run from 0 to the edge count without decreasing.
fn decode_index(header: &Header, index_bytes: &[u8]) -> Result<Vec<u64>, StoreError> {
    let computed = header.compute_header_checksum(index_bytes);
    if computed != header.header_checksum {
        return Err(StoreError::HeaderChecksum {
            expected: header.header_checksum,
            actual: computed,
        });
    }
    let (words, _) = index_bytes.as_chunks::<8>();
    let index: Vec<u64> = words.iter().map(|&w| u64::from_le_bytes(w)).collect();
    let (first, last) = (index.first().copied(), index.last().copied());
    if first != Some(0) || last != Some(header.n_edges) {
        return Err(StoreError::Corrupt {
            what: format!(
                "index bounds [{first:?}, {last:?}] disagree with edge count {}",
                header.n_edges
            ),
        });
    }
    if index.windows(2).any(|w| w[0] > w[1]) {
        return Err(StoreError::Corrupt {
            what: "index offsets are not monotone".into(),
        });
    }
    Ok(index)
}

/// Read block `k`'s data bytes (checksum-verified against its trailer)
/// into `buf`. Shared by the stream, `verify_payload` and `salvage`.
fn read_block_verified(
    file: &mut File,
    header: &Header,
    k: u64,
    buf: &mut Vec<u8>,
) -> Result<(), StoreError> {
    tg_faults::fail_point!(STORE_READ_BLOCK, format!("block:{k}"));
    buf.resize((header.block_len(k) * EDGE_BYTES) as usize, 0);
    file.seek(SeekFrom::Start(header.block_offset(k)))?;
    file.read_exact(buf)?;
    let mut trailer = [0u8; BLOCK_CHECKSUM_BYTES as usize];
    file.read_exact(&mut trailer)?;
    let expected = u64::from_le_bytes(trailer);
    let mut fnv = Fnv1a::new();
    fnv.update(buf);
    let actual = fnv.finish();
    if actual != expected {
        return Err(StoreError::BlockChecksum {
            block: k,
            expected,
            actual,
        });
    }
    Ok(())
}

/// Decode one block's SoA data bytes (the `u`, `v` and `t` columns of
/// little-endian `u32`s) into `out`. The one block decoder: the stream
/// and `salvage` both call it, and check the edges it yields.
fn decode_block(data: &[u8], out: &mut Vec<TemporalEdge>) {
    let (words, _) = data.as_chunks::<4>();
    let (u, rest) = words.split_at(words.len() / 3);
    let (v, t) = rest.split_at(u.len());
    out.clear();
    out.extend(u.iter().zip(v).zip(t).map(|((&u, &v), &t)| {
        TemporalEdge::new(
            u32::from_le_bytes(u),
            u32::from_le_bytes(v),
            u32::from_le_bytes(t),
        )
    }));
}

/// An open, header-validated TGES store file.
pub struct StoreReader {
    file: File,
    header: Header,
    /// Cumulative edge offsets: edges at `t` occupy `[index[t], index[t+1])`.
    index: Vec<u64>,
}

impl StoreReader {
    /// Open a store file, validating magic, version, shape, exact file
    /// length, and the header/index checksum. Fails with the precise
    /// [`StoreError`] variant for each kind of damage.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let mut file = File::open(path)?;
        let front = read_front(&mut file)?;
        let expected = front.header.expected_file_len();
        if front.file_len != expected {
            return Err(StoreError::Truncated {
                expected,
                actual: front.file_len,
            });
        }
        Ok(StoreReader {
            file,
            header: front.header,
            index: front.index?,
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

    /// Stream every edge as per-timestamp chunks of at most `max_chunk`
    /// edges, in the [`EdgeSource`](tg_graph::source::EdgeSource) chunk
    /// contract; a chunk never spans a block. Each block is
    /// checksum-verified as it is loaded, and each edge must sit at the
    /// timestamp the index places it at and pass [`check_edge`], so a
    /// damaged payload surfaces as a typed error instead of a silently
    /// wrong graph.
    pub(crate) fn for_each_chunk(
        &mut self,
        max_chunk: usize,
        f: &mut dyn FnMut(Time, u32, &[TemporalEdge]),
    ) -> Result<(), StoreError> {
        let header = self.header;
        let (n_nodes, n_timestamps) = (self.n_nodes(), self.n_timestamps());
        let max_chunk = max_chunk.max(1);
        let mut bytes = Vec::new();
        let mut block = Vec::new();
        let mut last: Option<TemporalEdge> = None;
        // the timestamp the index places the next edge at, and the
        // chunks yielded for it so far
        let mut t = 0usize;
        let mut chunk_in_t = 0u32;
        for k in 0..header.n_blocks() {
            read_block_verified(&mut self.file, &header, k, &mut bytes)?;
            decode_block(&bytes, &mut block);
            let start = k * header.block_edges;
            let mut off = 0;
            while off < block.len() {
                let pos = start + off as u64;
                while self.index[t + 1] <= pos {
                    t += 1;
                    chunk_in_t = 0;
                }
                // the edges of this block the index places at `t`
                let end = ((self.index[t + 1] - start) as usize).min(block.len());
                let run = &block[off..end];
                for (pos, &e) in (pos..).zip(run) {
                    if e.t as usize != t {
                        return Err(StoreError::CorruptPayload {
                            what: format!(
                                "edge {pos} carries t={} but the index places it at t={t}",
                                e.t
                            ),
                        });
                    }
                    check_edge(last, e, n_nodes, n_timestamps).map_err(|err| {
                        StoreError::CorruptPayload {
                            what: format!("edge {pos}: {err}"),
                        }
                    })?;
                    last = Some(e);
                }
                for chunk in run.chunks(max_chunk) {
                    f(t as Time, chunk_in_t, chunk);
                    chunk_in_t += 1;
                }
                off = end;
            }
        }
        Ok(())
    }

    /// Walk every block, verifying each block's trailer checksum, and
    /// compare the accumulated data hash against the header's payload
    /// checksum — the full-scan integrity check (streaming reads verify
    /// each block as they load it). Block damage surfaces as
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

    /// Best-effort recovery of a damaged store file.
    ///
    /// Unlike [`open`](StoreReader::open), which refuses a file with any
    /// invalid region, `salvage` walks the payload block by block and
    /// hands every block whose trailer checksum validates (and whose
    /// decoded edges pass [`check_edge`], against the last edge emitted
    /// from an earlier block too) to `emit`, in file order. Damaged,
    /// truncated, or out-of-order blocks are skipped and reported; past
    /// the end of the file the walk stops (see
    /// [`SalvageReport::bad_blocks`]). Only
    /// an unreadable header (bad magic, wrong version, nonsense shape) or
    /// an I/O / emit failure is fatal — a corrupt index or payload never
    /// is.
    pub fn salvage(
        path: impl AsRef<Path>,
        mut emit: impl FnMut(&Header, &[TemporalEdge]) -> Result<(), StoreError>,
    ) -> Result<SalvageReport, StoreError> {
        let mut file = File::open(path)?;
        // The index is advisory for salvage (block offsets are pure
        // arithmetic); just record whether it survived.
        let Front {
            header,
            file_len,
            index,
        } = read_front(&mut file)?;
        let (n_nodes, n_timestamps) = (header.n_nodes as usize, header.n_timestamps as usize);
        let mut report = SalvageReport {
            header,
            n_blocks: header.n_blocks(),
            bad_blocks: Vec::new(),
            intact_blocks: 0,
            recovered_edges: 0,
            lost_edges: 0,
            index_valid: index.is_ok(),
        };
        let mut bytes = Vec::new();
        let mut edges = Vec::new();
        let mut last_emitted: Option<TemporalEdge> = None;
        let listable = file_len / (EDGE_BYTES + BLOCK_CHECKSUM_BYTES);
        for k in 0..header.n_blocks() {
            let len = header.block_len(k);
            let end = header.block_offset(k) + len * EDGE_BYTES + BLOCK_CHECKSUM_BYTES;
            if end > file_len {
                // this block and every later one lie past the end of the
                // file: all of them are lost, few enough of them listed
                let room = listable.saturating_sub(report.bad_blocks.len() as u64);
                report
                    .bad_blocks
                    .extend((k..header.n_blocks()).take(room as usize));
                report.lost_edges += header.n_edges - k * header.block_edges;
                break;
            }
            let verified = match read_block_verified(&mut file, &header, k, &mut bytes) {
                Ok(()) => true,
                Err(StoreError::BlockChecksum { .. }) => false,
                Err(e) => return Err(e),
            };
            let mut last = last_emitted;
            let intact = verified && {
                decode_block(&bytes, &mut edges);
                edges.iter().all(|&e| {
                    let ok = check_edge(last, e, n_nodes, n_timestamps).is_ok();
                    last = Some(e);
                    ok
                })
            };
            if !intact {
                report.bad_blocks.push(k);
                report.lost_edges += len;
                continue;
            }
            last_emitted = last;
            emit(&header, &edges)?;
            report.intact_blocks += 1;
            report.recovered_edges += len;
        }
        Ok(report)
    }
}

/// What [`StoreReader::salvage`] recovered from a damaged store.
#[derive(Clone, Debug)]
pub struct SalvageReport {
    /// The decoded header (trusted shape — it passed its structural
    /// checks, though its checksums may not cover what's on disk).
    pub header: Header,
    /// Blocks the header implies.
    pub n_blocks: u64,
    /// Blocks skipped: truncated away, trailer checksum mismatch, or
    /// structurally inconsistent records. Never longer than the number of
    /// blocks the file could hold (one edge and its trailer each): blocks
    /// past the end of the file beyond that count in
    /// [`SalvageReport::lost_edges`] without an entry here, so a header
    /// claiming 2^40 blocks costs neither 2^40 entries nor 2^40 steps.
    pub bad_blocks: Vec<u64>,
    /// Blocks handed to `emit`.
    pub intact_blocks: u64,
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
