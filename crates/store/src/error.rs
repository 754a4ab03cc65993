//! Typed errors for the TGES store.
//!
//! Every way a store file can be unusable gets its own variant, so
//! callers (the `tgx-cli ingest`/`train --store` paths in particular) can
//! print "this file is truncated" instead of a generic parse failure —
//! and tests can assert the *kind* of corruption detected.

/// Everything that can go wrong writing or reading a TGES store.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with the TGES magic — not a store at all.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file is a TGES store of a format version this build can't read.
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u32,
        /// Version this build reads.
        supported: u32,
    },
    /// The file is shorter (or longer) than the header says it must be —
    /// an interrupted write or a truncated copy.
    Truncated {
        /// Byte length the header implies.
        expected: u64,
        /// Byte length actually on disk.
        actual: u64,
    },
    /// The header/index checksum does not match: the metadata block was
    /// corrupted (bit rot, partial overwrite).
    HeaderChecksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum recomputed from the bytes on disk.
        actual: u64,
    },
    /// The payload checksum does not match (only detected by
    /// [`StoreReader::verify_payload`](crate::StoreReader::verify_payload),
    /// which streams the whole file).
    PayloadChecksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum recomputed from the payload bytes.
        actual: u64,
    },
    /// One SoA block's trailer checksum does not match its data bytes —
    /// detected the moment the block is loaded (a streaming read,
    /// [`verify_payload`](crate::StoreReader::verify_payload), or
    /// [`salvage`](crate::StoreReader::salvage)).
    BlockChecksum {
        /// Which block is damaged.
        block: u64,
        /// Checksum recorded in the block trailer.
        expected: u64,
        /// Checksum recomputed from the block's data bytes.
        actual: u64,
    },
    /// Header or timestamp index is internally inconsistent (offsets not
    /// monotone, totals disagreeing, zero-sized blocks, …).
    Corrupt {
        /// What was inconsistent.
        what: String,
    },
    /// A payload record contradicts the index (edge carrying the wrong
    /// timestamp) or breaks the edge-stream contract (endpoint out of
    /// range, `(t, u, v)` order) — detected while streaming the block
    /// that holds it.
    CorruptPayload {
        /// What was inconsistent.
        what: String,
    },
    /// The writer was fed edges out of `(t, u, v)` order or out of the
    /// declared shape — the input, not the file, is at fault.
    BadWrite {
        /// What the caller did wrong.
        what: String,
    },
    /// The [`EdgeSource`](tg_graph::source::EdgeSource) feeding
    /// [`write_source`](crate::write_source) failed mid-stream (its own
    /// I/O or corruption error) — a read-side failure, distinct from
    /// [`StoreError::BadWrite`]'s caller-input faults. The message
    /// carries the source's own diagnosis.
    Source {
        /// The source's error, rendered.
        what: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::BadMagic { found } => {
                write!(f, "not a TGES store (magic bytes {found:?})")
            }
            StoreError::UnsupportedVersion { found, supported } => {
                write!(f, "TGES format v{found} (this build reads v{supported})")
            }
            StoreError::Truncated { expected, actual } => write!(
                f,
                "store file truncated or padded: header implies {expected} bytes, file has {actual}"
            ),
            StoreError::HeaderChecksum { expected, actual } => write!(
                f,
                "header/index checksum mismatch: recorded {expected:#018x}, computed {actual:#018x}"
            ),
            StoreError::PayloadChecksum { expected, actual } => write!(
                f,
                "payload checksum mismatch: recorded {expected:#018x}, computed {actual:#018x}"
            ),
            StoreError::BlockChecksum {
                block,
                expected,
                actual,
            } => write!(
                f,
                "block {block} checksum mismatch: recorded {expected:#018x}, computed {actual:#018x}"
            ),
            StoreError::Corrupt { what } => write!(f, "corrupt store metadata: {what}"),
            StoreError::CorruptPayload { what } => write!(f, "corrupt store payload: {what}"),
            StoreError::BadWrite { what } => write!(f, "invalid write: {what}"),
            StoreError::Source { what } => write!(f, "edge source failed mid-stream: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<tg_faults::FaultError> for StoreError {
    fn from(e: tg_faults::FaultError) -> Self {
        StoreError::Io(e.into())
    }
}
