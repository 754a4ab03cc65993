#![warn(missing_docs)]
#![forbid(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]
//! `tg-store`: an out-of-core columnar store for temporal edge lists.
//!
//! PR 3 lifted the *output*-side memory ceiling (the simulation engine
//! streams generated edges through an
//! [`EdgeSink`](tg_graph::sink::EdgeSink) with bounded in-flight memory);
//! this crate lifts the *input* side. Observed graphs land once in a
//! compact on-disk format — the **TGES** layout of [`mod@format`]: a
//! checksummed header, a per-timestamp offset index, and timestamp-sorted
//! struct-of-arrays `u/v/t` blocks — and every downstream consumer reads
//! them back as bounded per-timestamp chunks through the
//! [`EdgeSource`](tg_graph::source::EdgeSource) trait:
//!
//! ```text
//!  text edge list ──ingest──▶ ┌───────────────────────────────┐
//!  (24+ B/edge staged in RAM) │ store.tgs                     │
//!                             │  header ─ checksummed, 56 B   │
//!                             │  index  ─ 8·(T+1) B           │
//!  TemporalGraph ──write_graph│  blocks ─ 12 B/edge SoA u,v,t │
//!                             └──────────────┬────────────────┘
//!                                StoreSource │ O(block) resident
//!                                            ▼
//!                  GraphAssembler / StoreSource::load_graph /
//!                  write_source (copy)
//! ```
//!
//! The key properties, in the order the acceptance tests check them:
//!
//! - **Round-trip fidelity**: text → store → read reproduces the exact
//!   edge sequence (the canonical `(t, u, v)` order), proptested across
//!   random multigraphs, chunk sizes, and block capacities.
//! - **Bit-identical training**: a `Session` over the graph
//!   [`StoreSource::load_graph`] assembles trains to the same
//!   losses/parameters and generates the same edges as one over the
//!   in-memory graph the store was written from.
//! - **Bounded ingest memory**: reading a store holds one SoA block and
//!   its decoded edges, so peak heap above the final structure is a
//!   function of the block size, not the edge count.
//! - **Typed failure**: corrupt headers, truncated files, checksum
//!   mismatches, and payload damage each surface as their own
//!   [`StoreError`] variant.

pub mod error;
pub mod format;
pub mod reader;
pub mod source;
pub mod writer;

pub use error::StoreError;
pub use format::{Header, DEFAULT_BLOCK_EDGES};
pub use reader::{SalvageReport, StoreReader};
pub use source::StoreSource;
pub use writer::{write_graph, write_source, StoreStats, StoreWriter};

#[cfg(test)]
mod tests {
    use super::*;
    use tg_graph::source::{EdgeSource, InMemorySource};
    use tg_graph::{TemporalEdge, TemporalGraph};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("tg_store_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn toy() -> TemporalGraph {
        TemporalGraph::from_edges(
            5,
            4,
            vec![
                TemporalEdge::new(0, 1, 0),
                TemporalEdge::new(0, 1, 0), // multiplicity
                TemporalEdge::new(3, 2, 0),
                TemporalEdge::new(2, 4, 1),
                // t=2 empty
                TemporalEdge::new(4, 0, 3),
                TemporalEdge::new(4, 1, 3),
            ],
        )
    }

    #[test]
    fn write_read_round_trip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("toy.tgs");
        let g = toy();
        let stats = write_graph(&g, &path).unwrap();
        assert_eq!(stats.n_edges, 6);
        assert_eq!(stats.file_bytes, std::fs::metadata(&path).unwrap().len());

        let mut src = StoreSource::open(&path).unwrap();
        assert_eq!(src.n_nodes(), 5);
        assert_eq!(src.n_timestamps(), 4);
        assert_eq!(src.n_edges(), 6);
        assert_eq!(
            src.edge_counts_per_timestamp(),
            g.edge_counts_per_timestamp()
        );
        let rebuilt = src.load_graph().unwrap();
        assert_eq!(rebuilt.edges(), g.edges());
        src.reader_mut().verify_payload().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiny_blocks_split_chunks_but_preserve_the_stream() {
        let dir = tmpdir("tinyblocks");
        let path = dir.join("toy.tgs");
        let g = toy();
        let stats = writer::write_source(&mut InMemorySource::new(&g), &path, 2).unwrap();
        assert_eq!(stats.n_blocks, 3);
        let mut src = StoreSource::open(&path).unwrap();
        // stream with a max_chunk larger than the block: chunks still cap
        // at block boundaries, order and content are unchanged
        let mut flat = Vec::new();
        let mut last_key = None;
        src.for_each_chunk(100, &mut |t, c, edges| {
            assert!(edges.len() <= 2);
            assert!(edges.iter().all(|e| e.t == t));
            let key = (t, c);
            if let Some(prev) = last_key {
                assert!(key > prev, "{key:?} after {prev:?}");
            }
            last_key = Some(key);
            flat.extend_from_slice(edges);
        })
        .unwrap();
        assert_eq!(flat, g.edges());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_graph_store_round_trips() {
        let dir = tmpdir("empty");
        let path = dir.join("empty.tgs");
        let g = TemporalGraph::from_edges(3, 2, Vec::new());
        write_graph(&g, &path).unwrap();
        let mut src = StoreSource::open(&path).unwrap();
        assert_eq!(src.n_edges(), 0);
        let rebuilt = src.load_graph().unwrap();
        assert_eq!(rebuilt.n_edges(), 0);
        assert_eq!(rebuilt.n_timestamps(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_rejects_disorder_and_out_of_shape() {
        let dir = tmpdir("badwrite");
        let path = dir.join("bad.tgs");
        let mut w = StoreWriter::create(&path, 3, 2).unwrap();
        w.push(TemporalEdge::new(1, 2, 1)).unwrap();
        assert!(matches!(
            w.push(TemporalEdge::new(0, 1, 0)),
            Err(StoreError::BadWrite { .. })
        ));
        assert!(matches!(
            w.push(TemporalEdge::new(0, 9, 1)),
            Err(StoreError::BadWrite { .. })
        ));
        assert!(matches!(
            w.push(TemporalEdge::new(0, 1, 7)),
            Err(StoreError::BadWrite { .. })
        ));
        assert!(matches!(
            StoreWriter::create(dir.join("z.tgs"), 3, 0),
            Err(StoreError::BadWrite { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_copy_is_byte_identical() {
        // store -> StoreSource -> write_source -> identical bytes (same
        // block size): the format is canonical for a given input.
        let dir = tmpdir("copy");
        let a = dir.join("a.tgs");
        let b = dir.join("b.tgs");
        let g = toy();
        write_graph(&g, &a).unwrap();
        let mut src = StoreSource::open(&a).unwrap();
        writer::write_source(&mut src, &b, DEFAULT_BLOCK_EDGES).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
