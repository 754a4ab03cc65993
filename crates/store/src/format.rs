//! The TGES ("Temporal Graph Edge Store") v2 on-disk layout.
//!
//! A TGES file is a timestamp-sorted temporal edge list in columnar
//! (struct-of-arrays) blocks, fronted by a checksummed header and a
//! per-timestamp offset index. All integers are little-endian.
//!
//! ```text
//! offset  size            field
//! 0       4               magic  b"TGES"
//! 4       4               version (u32, = 2)
//! 8       8               n_nodes (u64)
//! 16      8               n_timestamps (u64)
//! 24      8               n_edges (u64)
//! 32      8               block_edges B (u64): SoA block capacity
//! 40      8               payload checksum (FNV-1a 64 over the edge data
//!                         bytes of all blocks, excluding the per-block
//!                         checksum trailers)
//! 48      8               header checksum (FNV-1a 64 over bytes [0, 48)
//!                         with this field zeroed, then the index bytes)
//! 56      8·(T+1)         index: cumulative edge offsets per timestamp —
//!                         edges at t live at positions [index[t], index[t+1])
//! 56+8(T+1)  12·m + 8·⌈m/B⌉   payload: ⌈m/B⌉ self-checksummed SoA blocks
//! ```
//!
//! Block `k` holds edges `[k·B, min((k+1)·B, m))` — every block except
//! the last has exactly `B` edges — followed by an 8-byte FNV-1a 64
//! checksum of that block's data bytes, so the byte offset of any block
//! (and of any *edge*, via the index) is computable without a block
//! table:
//!
//! ```text
//! block k:  u[len]  v[len]  t[len]  fnv64   (u32 columns + u64 trailer)
//! offset  = payload_start + k·(B·12 + 8)
//! ```
//!
//! Edges are sorted by `(t, u, v)` — [`TemporalGraph`]'s canonical order —
//! which is what makes the timestamp index a pair of binary-search-free
//! bounds per snapshot.
//!
//! Integrity is layered by access cost: the header checksum (covering
//! header + index) and an exact file-length check are verified on every
//! [`open`](crate::StoreReader::open) at `O(T)` cost; each block's
//! trailer checksum is verified when the stream loads the block, so
//! damage is caught at block granularity before any edge is decoded; the
//! payload checksum plus every block trailer are verified by the optional
//! [`verify_payload`](crate::StoreReader::verify_payload) full scan; and
//! decoded edges are cross-checked against the index (timestamp match)
//! and the edge-stream contract
//! ([`check_edge`](tg_graph::source::check_edge): endpoints and timestamp
//! in shape, `(t, u, v)` order) as they stream. The per-block
//! trailers are also what makes [`salvage`](crate::StoreReader::salvage)
//! possible: a damaged file can be walked block by block and every block
//! whose checksummed region still validates is recoverable.
//!
//! Version history: v1 had no per-block trailers (payload was a bare
//! 12·m-byte run, damage only detectable by a full-file scan). This
//! build reads and writes v2 only.
//!
//! [`TemporalGraph`]: tg_graph::TemporalGraph

use crate::error::StoreError;

/// File magic: the first four bytes of every TGES store.
pub const MAGIC: [u8; 4] = *b"TGES";

/// Format version this build writes and reads.
pub const VERSION: u32 = 2;

/// Serialized header size in bytes.
pub const HEADER_BYTES: u64 = 56;

/// Bytes per edge in the payload (three u32 columns).
pub const EDGE_BYTES: u64 = 12;

/// Bytes of the FNV-1a 64 trailer appended to every SoA block.
pub const BLOCK_CHECKSUM_BYTES: u64 = 8;

/// Default SoA block capacity in edges (8192 edges = 96 KiB payload per
/// block): large enough to amortise syscalls, small enough that a
/// reader's resident block stays cache-friendly and streaming ingest
/// memory stays negligible.
pub const DEFAULT_BLOCK_EDGES: usize = 8192;

/// FNV-1a 64-bit running hash (the checksum primitive of the format —
/// not cryptographic, just cheap bit-rot detection).
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Decoded TGES header fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Number of nodes of the stored graph.
    pub n_nodes: u64,
    /// Number of timestamps `T`.
    pub n_timestamps: u64,
    /// Total temporal edges.
    pub n_edges: u64,
    /// SoA block capacity `B`.
    pub block_edges: u64,
    /// FNV-1a 64 over the payload bytes.
    pub payload_checksum: u64,
    /// FNV-1a 64 over the zero-checksum header bytes plus the index bytes.
    pub header_checksum: u64,
}

impl Header {
    /// Serialize, with `header_checksum` as stored (pass 0 while
    /// computing the checksum itself).
    pub fn encode(&self) -> [u8; HEADER_BYTES as usize] {
        let mut out = [0u8; HEADER_BYTES as usize];
        out[0..4].copy_from_slice(&MAGIC);
        out[4..8].copy_from_slice(&VERSION.to_le_bytes());
        out[8..16].copy_from_slice(&self.n_nodes.to_le_bytes());
        out[16..24].copy_from_slice(&self.n_timestamps.to_le_bytes());
        out[24..32].copy_from_slice(&self.n_edges.to_le_bytes());
        out[32..40].copy_from_slice(&self.block_edges.to_le_bytes());
        out[40..48].copy_from_slice(&self.payload_checksum.to_le_bytes());
        out[48..56].copy_from_slice(&self.header_checksum.to_le_bytes());
        out
    }

    /// Parse and structurally validate a header block (magic, version,
    /// non-degenerate shape, an implied file length that fits in a
    /// `u64`). Checksum and length validation need the index and file
    /// size and happen in the reader.
    pub fn decode(bytes: &[u8; HEADER_BYTES as usize]) -> Result<Header, StoreError> {
        let [m0, m1, m2, m3, v0, v1, v2, v3, fields @ ..] = *bytes;
        let magic = [m0, m1, m2, m3];
        if magic != MAGIC {
            return Err(StoreError::BadMagic { found: magic });
        }
        let version = u32::from_le_bytes([v0, v1, v2, v3]);
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let mut words = [0u64; 6];
        for (w, chunk) in words.iter_mut().zip(fields.as_chunks::<8>().0) {
            *w = u64::from_le_bytes(*chunk);
        }
        let [n_nodes, n_timestamps, n_edges, block_edges, payload_checksum, header_checksum] =
            words;
        let h = Header {
            n_nodes,
            n_timestamps,
            n_edges,
            block_edges,
            payload_checksum,
            header_checksum,
        };
        if h.n_timestamps == 0 {
            return Err(StoreError::Corrupt {
                what: "zero timestamps".into(),
            });
        }
        if h.block_edges == 0 {
            return Err(StoreError::Corrupt {
                what: "zero block capacity".into(),
            });
        }
        if h.n_nodes > u32::MAX as u64 || h.n_timestamps > u32::MAX as u64 {
            return Err(StoreError::Corrupt {
                what: format!(
                    "shape {}x{} exceeds the dense u32 id space",
                    h.n_nodes, h.n_timestamps
                ),
            });
        }
        if h.checked_file_len().is_none() {
            return Err(StoreError::Corrupt {
                what: format!(
                    "{} edges in blocks of {} imply a file longer than 2^64 bytes",
                    h.n_edges, h.block_edges
                ),
            });
        }
        Ok(h)
    }

    /// Byte offset where the payload begins.
    pub fn payload_start(&self) -> u64 {
        HEADER_BYTES + 8 * (self.n_timestamps + 1)
    }

    /// Exact file size this header implies (edge data plus one checksum
    /// trailer per block). [`Header::decode`] refuses a header whose
    /// length does not fit in a `u64`; for any other this saturates.
    pub fn expected_file_len(&self) -> u64 {
        self.checked_file_len().unwrap_or(u64::MAX)
    }

    /// [`Header::expected_file_len`], or `None` when it overflows a `u64`.
    fn checked_file_len(&self) -> Option<u64> {
        EDGE_BYTES
            .checked_mul(self.n_edges)?
            .checked_add(BLOCK_CHECKSUM_BYTES.checked_mul(self.n_blocks())?)?
            .checked_add(self.payload_start())
    }

    /// Number of payload blocks.
    pub fn n_blocks(&self) -> u64 {
        self.n_edges.div_ceil(self.block_edges)
    }

    /// Edge count of block `k` (all blocks are full except the last).
    pub fn block_len(&self, k: u64) -> u64 {
        debug_assert!(k < self.n_blocks());
        (self.n_edges - k * self.block_edges).min(self.block_edges)
    }

    /// Byte offset of block `k`. Every block before `k` is full, so the
    /// stride is constant: `B·12` data bytes plus the checksum trailer.
    /// Summed as `k·B` edges plus `k` trailers, so for `k < n_blocks()`
    /// no term exceeds the file length (`B` alone may be any `u64`).
    pub fn block_offset(&self, k: u64) -> u64 {
        self.payload_start() + k * self.block_edges * EDGE_BYTES + k * BLOCK_CHECKSUM_BYTES
    }

    /// Checksum over the header (with a zeroed checksum field) plus the
    /// serialized index — the value stored in `header_checksum`.
    pub fn compute_header_checksum(&self, index_bytes: &[u8]) -> u64 {
        let zeroed = Header {
            header_checksum: 0,
            ..*self
        };
        let mut fnv = Fnv1a::new();
        fnv.update(&zeroed.encode());
        fnv.update(index_bytes);
        fnv.finish()
    }
}

/// Serialize the timestamp index (cumulative offsets) to bytes.
pub fn encode_index(index: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(index.len() * 8);
    for &v in index {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut f = Fnv1a::new();
        assert_eq!(f.finish(), 0xcbf2_9ce4_8422_2325);
        f.update(b"a");
        assert_eq!(f.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut f = Fnv1a::new();
        f.update(b"foobar");
        assert_eq!(f.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn header_round_trips() {
        let h = Header {
            n_nodes: 100,
            n_timestamps: 12,
            n_edges: 5000,
            block_edges: 512,
            payload_checksum: 0xdead_beef,
            header_checksum: 0x1234,
        };
        let decoded = Header::decode(&h.encode()).unwrap();
        assert_eq!(decoded, h);
        assert_eq!(h.payload_start(), 56 + 8 * 13);
        assert_eq!(h.n_blocks(), 5000u64.div_ceil(512));
        assert_eq!(
            h.expected_file_len(),
            h.payload_start() + 12 * 5000 + 8 * h.n_blocks()
        );
        assert_eq!(h.block_len(0), 512);
        assert_eq!(h.block_len(h.n_blocks() - 1), 5000 % 512);
        assert_eq!(h.block_offset(1), h.payload_start() + 512 * 12 + 8);
    }

    #[test]
    fn decode_rejects_bad_magic_and_version() {
        let h = Header {
            n_nodes: 1,
            n_timestamps: 1,
            n_edges: 0,
            block_edges: 1,
            payload_checksum: 0,
            header_checksum: 0,
        };
        let mut bytes = h.encode();
        bytes[0] = b'X';
        assert!(matches!(
            Header::decode(&bytes),
            Err(StoreError::BadMagic { .. })
        ));
        let mut bytes = h.encode();
        bytes[4] = 99;
        assert!(matches!(
            Header::decode(&bytes),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn decode_rejects_degenerate_shapes() {
        let mut h = Header {
            n_nodes: 1,
            n_timestamps: 0,
            n_edges: 0,
            block_edges: 8,
            payload_checksum: 0,
            header_checksum: 0,
        };
        assert!(matches!(
            Header::decode(&h.encode()),
            Err(StoreError::Corrupt { .. })
        ));
        h.n_timestamps = 1;
        h.block_edges = 0;
        assert!(matches!(
            Header::decode(&h.encode()),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn header_checksum_covers_index() {
        let h = Header {
            n_nodes: 3,
            n_timestamps: 2,
            n_edges: 4,
            block_edges: 8,
            payload_checksum: 7,
            header_checksum: 0,
        };
        let a = h.compute_header_checksum(&encode_index(&[0, 2, 4]));
        let b = h.compute_header_checksum(&encode_index(&[0, 3, 4]));
        assert_ne!(a, b);
        // independent of what the stored checksum field currently holds
        let h2 = Header {
            header_checksum: 999,
            ..h
        };
        assert_eq!(a, h2.compute_header_checksum(&encode_index(&[0, 2, 4])));
    }
}
