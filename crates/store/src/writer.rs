//! Streaming TGES writer.
//!
//! [`StoreWriter`] consumes a `(t, u, v)`-sorted edge stream in any chunk
//! granularity (single edges, per-timestamp chunks, whole graphs) and
//! writes the columnar payload incrementally: edges accumulate in one
//! SoA block buffer that is flushed to disk as it fills, so resident
//! memory is `O(block + T)` regardless of edge count. The header and
//! timestamp index are back-patched on [`StoreWriter::finish`] (their
//! sizes are known up front, so placeholder bytes reserve the space).

use crate::error::StoreError;
use crate::format::{encode_index, Fnv1a, Header, DEFAULT_BLOCK_EDGES, HEADER_BYTES};
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;
use tg_graph::io::commit_atomic;
use tg_graph::source::{check_edge, EdgeSource, InMemorySource};
use tg_graph::{TemporalEdge, TemporalGraph};

/// Summary returned by [`StoreWriter::finish`].
#[derive(Clone, Copy, Debug)]
pub struct StoreStats {
    /// Nodes declared for the stored graph.
    pub n_nodes: usize,
    /// Timestamps declared for the stored graph.
    pub n_timestamps: usize,
    /// Edges written.
    pub n_edges: u64,
    /// SoA payload blocks written.
    pub n_blocks: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
}

impl StoreStats {
    /// Bytes per stored edge including header/index overhead.
    pub fn bytes_per_edge(&self) -> f64 {
        if self.n_edges == 0 {
            return 0.0;
        }
        self.file_bytes as f64 / self.n_edges as f64
    }
}

/// Incremental TGES writer over any `Write + Seek` target.
pub struct StoreWriter<W: Write + Seek> {
    w: W,
    n_nodes: usize,
    n_timestamps: usize,
    block_edges: usize,
    /// Edges per timestamp (turned into cumulative offsets at finish).
    counts: Vec<u64>,
    /// Current (unflushed) SoA block columns.
    block_u: Vec<u32>,
    block_v: Vec<u32>,
    block_t: Vec<u32>,
    n_edges: u64,
    n_blocks: u64,
    payload_hash: Fnv1a,
    last: Option<TemporalEdge>,
}

impl StoreWriter<BufWriter<File>> {
    /// Create (truncating) a store file for a graph of the given shape
    /// with the default block capacity.
    pub fn create(
        path: impl AsRef<Path>,
        n_nodes: usize,
        n_timestamps: usize,
    ) -> Result<Self, StoreError> {
        let file = File::create(path)?;
        Self::new(
            BufWriter::new(file),
            n_nodes,
            n_timestamps,
            DEFAULT_BLOCK_EDGES,
        )
    }
}

impl<W: Write + Seek> StoreWriter<W> {
    /// Start a store over any seekable writer. Reserves the header+index
    /// region with placeholder bytes immediately.
    pub fn new(
        mut w: W,
        n_nodes: usize,
        n_timestamps: usize,
        block_edges: usize,
    ) -> Result<Self, StoreError> {
        if n_timestamps == 0 {
            return Err(StoreError::BadWrite {
                what: "a store needs at least one timestamp".into(),
            });
        }
        if block_edges == 0 {
            return Err(StoreError::BadWrite {
                what: "block capacity must be > 0 edges".into(),
            });
        }
        if n_nodes > u32::MAX as usize || n_timestamps > u32::MAX as usize {
            return Err(StoreError::BadWrite {
                what: format!("shape {n_nodes}x{n_timestamps} exceeds the dense u32 id space"),
            });
        }
        // Placeholder header + index; finish() seeks back and fills them.
        let reserve = HEADER_BYTES as usize + 8 * (n_timestamps + 1);
        w.write_all(&vec![0u8; reserve])?;
        Ok(StoreWriter {
            w,
            n_nodes,
            n_timestamps,
            block_edges,
            counts: vec![0; n_timestamps],
            block_u: Vec::with_capacity(block_edges),
            block_v: Vec::with_capacity(block_edges),
            block_t: Vec::with_capacity(block_edges),
            n_edges: 0,
            n_blocks: 0,
            payload_hash: Fnv1a::new(),
            last: None,
        })
    }

    /// Append one edge. Edges must arrive in `(t, u, v)` order with
    /// endpoints and timestamps inside the declared shape.
    pub fn push(&mut self, e: TemporalEdge) -> Result<(), StoreError> {
        check_edge(self.last, e, self.n_nodes, self.n_timestamps).map_err(|err| {
            StoreError::BadWrite {
                what: err.to_string(),
            }
        })?;
        self.last = Some(e);
        self.counts[e.t as usize] += 1;
        self.block_u.push(e.u);
        self.block_v.push(e.v);
        self.block_t.push(e.t);
        self.n_edges += 1;
        if self.block_u.len() == self.block_edges {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Append a slice of edges (same contract as [`StoreWriter::push`]).
    pub fn push_chunk(&mut self, edges: &[TemporalEdge]) -> Result<(), StoreError> {
        for &e in edges {
            self.push(e)?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), StoreError> {
        if self.block_u.is_empty() {
            return Ok(());
        }
        tg_faults::fail_point!(STORE_WRITE_BLOCK, format!("block:{}", self.n_blocks));
        let mut bytes: Vec<u8> = Vec::with_capacity(self.block_u.len() * 12);
        for col in [&self.block_u, &self.block_v, &self.block_t] {
            for &x in col.iter() {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
        }
        self.payload_hash.update(&bytes);
        // per-block trailer: FNV over this block's data bytes, so damage
        // is localizable (and salvageable) without a full-file scan
        let mut block_hash = Fnv1a::new();
        block_hash.update(&bytes);
        bytes.extend_from_slice(&block_hash.finish().to_le_bytes());
        self.w.write_all(&bytes)?;
        self.block_u.clear();
        self.block_v.clear();
        self.block_t.clear();
        self.n_blocks += 1;
        Ok(())
    }

    /// Flush the trailing block, back-patch the header and index, and
    /// sync the stream. Returns the final file statistics.
    pub fn finish(mut self) -> Result<StoreStats, StoreError> {
        self.flush_block()?;
        let mut index: Vec<u64> = Vec::with_capacity(self.n_timestamps + 1);
        let mut acc = 0u64;
        index.push(0);
        for &c in &self.counts {
            acc += c;
            index.push(acc);
        }
        debug_assert_eq!(acc, self.n_edges);
        let index_bytes = encode_index(&index);
        let mut header = Header {
            n_nodes: self.n_nodes as u64,
            n_timestamps: self.n_timestamps as u64,
            n_edges: self.n_edges,
            block_edges: self.block_edges as u64,
            payload_checksum: self.payload_hash.finish(),
            header_checksum: 0,
        };
        header.header_checksum = header.compute_header_checksum(&index_bytes);
        self.w.seek(SeekFrom::Start(0))?;
        self.w.write_all(&header.encode())?;
        self.w.write_all(&index_bytes)?;
        self.w.flush()?;
        Ok(StoreStats {
            n_nodes: self.n_nodes,
            n_timestamps: self.n_timestamps,
            n_edges: self.n_edges,
            n_blocks: header.n_blocks(),
            file_bytes: header.expected_file_len(),
        })
    }
}

/// Write an in-memory graph to a store file (edges are already in the
/// canonical order, so this is one sequential pass): [`write_source`] over
/// the graph with the default block capacity.
pub fn write_graph(g: &TemporalGraph, path: impl AsRef<Path>) -> Result<StoreStats, StoreError> {
    write_source(&mut InMemorySource::new(g), path, DEFAULT_BLOCK_EDGES)
}

/// Stream any [`EdgeSource`] into a store file with `O(chunk)` resident
/// memory — store-to-store copies and text-to-store conversion both land
/// here. The store is committed with [`commit_atomic`], so a failure or
/// crash never leaves a half-written store at `path`.
pub fn write_source<S: EdgeSource>(
    source: &mut S,
    path: impl AsRef<Path>,
    block_edges: usize,
) -> Result<StoreStats, StoreError> {
    commit_atomic(path.as_ref(), |f| {
        let mut w = StoreWriter::new(
            BufWriter::new(f),
            source.n_nodes(),
            source.n_timestamps(),
            block_edges,
        )?;
        let mut failed: Option<StoreError> = None;
        source
            .for_each_chunk(block_edges.max(1), &mut |_t, _c, edges| {
                if failed.is_none() {
                    if let Err(e) = w.push_chunk(edges) {
                        failed = Some(e);
                    }
                }
            })
            .map_err(|e| StoreError::Source {
                what: e.to_string(),
            })?;
        if let Some(e) = failed {
            return Err(e);
        }
        w.finish()
    })
}
