//! The edge-stream contract has one definition,
//! `tg_graph::source::check_edge`, and every ingest consumer calls it.
//!
//! The same malformed streams — an endpoint out of range, a timestamp
//! out of range, a `(t, u, v)` order violation — go to all four
//! consumers: `read_graph` over a source, `StoreWriter::push`,
//! `StoreSource::load_graph` and `StoreReader::salvage`. Each must
//! answer with its own typed error (or skipped block), never a panic and
//! never a graph. The store-side cases write the bad edges into a block
//! whose trailer checksum is valid, so only the edge check can catch
//! them.

use tg_graph::source::{read_graph, AssembleError, EdgeSource, InMemorySource, SourceError};
use tg_graph::{TemporalEdge, TemporalGraph, Time};
use tg_store::format::Fnv1a;
use tg_store::{writer, StoreError, StoreReader, StoreSource, StoreWriter};

const N_NODES: usize = 4;
const N_TIMESTAMPS: usize = 2;

/// A source that yields its edges as given, one chunk per edge.
struct Stream(Vec<TemporalEdge>);

impl EdgeSource for Stream {
    type Error = std::convert::Infallible;

    fn n_nodes(&self) -> usize {
        N_NODES
    }

    fn n_timestamps(&self) -> usize {
        N_TIMESTAMPS
    }

    fn n_edges(&self) -> u64 {
        self.0.len() as u64
    }

    fn for_each_chunk(
        &mut self,
        _max_chunk: usize,
        f: &mut dyn FnMut(Time, u32, &[TemporalEdge]),
    ) -> Result<(), Self::Error> {
        for e in &self.0 {
            f(e.t, 0, std::slice::from_ref(e));
        }
        Ok(())
    }
}

fn e(u: u32, v: u32, t: u32) -> TemporalEdge {
    TemporalEdge::new(u, v, t)
}

/// Write `edges` as a one-edge-per-block store with valid trailers. The
/// index comes from a well-formed stream whose edges sit at the same
/// timestamps position by position (`clean`); the payload is then
/// overwritten with `edges` and every trailer recomputed.
fn store_with_payload(
    dir: &std::path::Path,
    clean: &[TemporalEdge],
    edges: &[TemporalEdge],
) -> std::path::PathBuf {
    let path = dir.join("bad.tgs");
    let g = TemporalGraph::from_edges(N_NODES, N_TIMESTAMPS, clean.to_vec());
    writer::write_source(&mut InMemorySource::new(&g), &path, 1).unwrap();
    let header = *StoreReader::open(&path).unwrap().header();
    let mut bytes = std::fs::read(&path).unwrap();
    for (k, e) in edges.iter().enumerate() {
        let at = header.block_offset(k as u64) as usize;
        let mut block = Vec::new();
        for x in [e.u, e.v, e.t] {
            block.extend_from_slice(&x.to_le_bytes());
        }
        let mut fnv = Fnv1a::new();
        fnv.update(&block);
        block.extend_from_slice(&fnv.finish().to_le_bytes());
        bytes[at..at + block.len()].copy_from_slice(&block);
    }
    std::fs::write(&path, &bytes).unwrap();
    path
}

#[test]
fn every_consumer_rejects_the_same_malformed_streams() {
    let dir = std::env::temp_dir().join(format!("tg_store_contract_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean = [e(0, 1, 0), e(2, 3, 0), e(1, 2, 1)];
    // (case, malformed stream, the error `check_edge` gives, bad block)
    let cases = [
        (
            "endpoint out of range",
            [e(0, 1, 0), e(2, 9, 0), e(1, 2, 1)],
            AssembleError::NodeOutOfRange {
                node: 9,
                n_nodes: N_NODES,
            },
            1u64,
        ),
        (
            "timestamp out of range",
            [e(0, 1, 0), e(2, 3, 0), e(1, 2, 7)],
            AssembleError::TimeOutOfRange {
                t: 7,
                n_timestamps: N_TIMESTAMPS,
            },
            2,
        ),
        (
            "order violation",
            [e(2, 3, 0), e(0, 1, 0), e(1, 2, 1)],
            AssembleError::OutOfOrder {
                what: format!("edge {:?} after {:?}", e(0, 1, 0), e(2, 3, 0)),
            },
            1,
        ),
    ];
    for (case, edges, want, bad_block) in cases {
        // 1. graph assembly over a source
        match read_graph(&mut Stream(edges.to_vec()), 8) {
            Err(SourceError::Assemble(got)) => assert_eq!(got, want, "{case}"),
            other => panic!("{case}: read_graph gave {other:?}"),
        }

        // 2. the store writer
        let mut w = StoreWriter::create(dir.join("w.tgs"), N_NODES, N_TIMESTAMPS).unwrap();
        match edges.iter().try_for_each(|&e| w.push(e)) {
            Err(StoreError::BadWrite { what }) => assert_eq!(what, want.to_string(), "{case}"),
            other => panic!("{case}: push gave {other:?}"),
        }

        // 3. the streaming store read; the index already places the
        // out-of-range timestamp elsewhere, so that case names the index
        let path = store_with_payload(&dir, &clean, &edges);
        match StoreSource::open(&path).unwrap().load_graph() {
            Err(StoreError::CorruptPayload { what }) => {
                let expected = match want {
                    AssembleError::TimeOutOfRange { .. } => "the index places it at t=1".into(),
                    _ => want.to_string(),
                };
                assert!(what.contains(&expected), "{case}: {what}");
            }
            other => panic!("{case}: load_graph gave {other:?}"),
        }

        // 4. salvage skips exactly the block holding the bad edge
        let mut recovered = Vec::new();
        let report = StoreReader::salvage(&path, |_, edges| {
            recovered.extend_from_slice(edges);
            Ok(())
        })
        .unwrap();
        assert_eq!(report.bad_blocks, vec![bad_block], "{case}");
        assert!(report.index_valid, "{case}");
        let mut kept = edges.to_vec();
        kept.remove(bad_block as usize);
        assert_eq!(recovered, kept, "{case}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
