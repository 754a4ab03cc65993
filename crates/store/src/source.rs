//! [`EdgeSource`] over a TGES store — the out-of-core twin of
//! [`InMemorySource`](tg_graph::source::InMemorySource).
//!
//! Everything downstream of the [`EdgeSource`] trait (graph assembly,
//! sampler-population construction, [`StoreSource::load_graph`] feeding
//! `Session::builder`, store-to-store copies) runs unchanged whether the observed graph
//! lives in RAM or on disk; the two paths are regression-tested to be
//! bit-identical.

use crate::error::StoreError;
use crate::reader::StoreReader;
use std::path::Path;
use tg_graph::source::EdgeSource;
use tg_graph::{TemporalEdge, TemporalGraph, Time};

/// Streams a TGES store file as per-timestamp edge chunks. Resident
/// memory while streaming is `O(block)`, independent of the stored edge
/// count.
pub struct StoreSource {
    reader: StoreReader,
}

impl StoreSource {
    /// Open a store file (header/index validation happens here; see
    /// [`StoreReader::open`]).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Ok(StoreSource {
            reader: StoreReader::open(path)?,
        })
    }

    /// The underlying reader (header, payload verification).
    pub fn reader_mut(&mut self) -> &mut StoreReader {
        &mut self.reader
    }

    /// Edges at each timestamp, from the index alone.
    pub fn edge_counts_per_timestamp(&self) -> Vec<usize> {
        self.reader.edge_counts_per_timestamp()
    }

    /// Materialise the full graph by streaming chunks through a
    /// [`GraphAssembler`](tg_graph::source::GraphAssembler) — peak
    /// memory above the finished graph is `O(block)`.
    pub fn load_graph(&mut self) -> Result<TemporalGraph, StoreError> {
        tg_graph::source::read_graph(self, tg_graph::source::DEFAULT_CHUNK_EDGES).map_err(|e| {
            match e {
                tg_graph::source::SourceError::Source(e) => e,
                tg_graph::source::SourceError::Assemble(e) => StoreError::CorruptPayload {
                    what: format!("stream violated the chunk contract: {e}"),
                },
            }
        })
    }
}

impl EdgeSource for StoreSource {
    type Error = StoreError;

    fn n_nodes(&self) -> usize {
        self.reader.n_nodes()
    }

    fn n_timestamps(&self) -> usize {
        self.reader.n_timestamps()
    }

    fn n_edges(&self) -> u64 {
        self.reader.n_edges()
    }

    fn for_each_chunk(
        &mut self,
        max_chunk: usize,
        f: &mut dyn FnMut(Time, u32, &[TemporalEdge]),
    ) -> Result<(), Self::Error> {
        self.reader.for_each_chunk(max_chunk, f)
    }
}
