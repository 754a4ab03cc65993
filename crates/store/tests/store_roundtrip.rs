//! Acceptance tests for the PR-5 edge store:
//!
//! - **round-trip fidelity** (proptest): random multigraph → store →
//!   chunked read reproduces the exact canonical edge order, across
//!   random block capacities and chunk sizes;
//! - **corruption surfaces as typed errors**: corrupt header bytes,
//!   truncated files, flipped index bytes, and flipped payload bytes each
//!   map to their own `StoreError` variant, never a panic or a silently
//!   wrong graph;
//! - **training bit-identity**: a `Session` built from a `StoreSource`
//!   trains to the same losses/parameters and generates the same edges as
//!   one borrowing the in-memory graph — the ISSUE-5 acceptance
//!   criterion.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tg_graph::sink::GraphSink;
use tg_graph::source::EdgeSource;
use tg_graph::{TemporalEdge, TemporalGraph};
use tg_store::{writer, StoreError, StoreReader, StoreSource};
use tgae::{Session, TgaeConfig};

fn tmp(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tg_store_accept_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `u v t` text → compacted graph → store file → streamed read.
fn text_to_store_roundtrip(text: &str, dir: &std::path::Path) -> (TemporalGraph, TemporalGraph) {
    let g = tg_graph::io::read_edge_list(text.as_bytes(), None).unwrap();
    let path = dir.join("roundtrip.tgs");
    writer::write_graph(&g, &path).unwrap();
    let mut src = StoreSource::open(&path).unwrap();
    let rebuilt = src.load_graph().unwrap();
    (g, rebuilt)
}

#[test]
fn text_to_store_to_graph_preserves_order() {
    let dir = tmp("text");
    // deliberately unsorted text with comments, duplicates, sparse ids
    let text = "# header\n9 4 20\n4 9 10\n9 4 10\n9 4 10\n% more\n7 9 20\n4 7 10\n";
    let (g, rebuilt) = text_to_store_roundtrip(text, &dir);
    assert_eq!(g.edges(), rebuilt.edges());
    assert_eq!(g.n_nodes(), rebuilt.n_nodes());
    assert_eq!(g.n_timestamps(), rebuilt.n_timestamps());
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random multigraphs round-trip through the store in canonical
    /// order for arbitrary (block, chunk) geometry.
    #[test]
    fn prop_store_roundtrip_preserves_canonical_order(
        case in (2usize..12, 1u32..6)
            .prop_flat_map(|(n, t)| {
                (
                    Just(n),
                    Just(t),
                    proptest::collection::vec(
                        (0u32..n as u32, 0u32..n as u32, 0u32..t),
                        0..120,
                    ),
                    1usize..40,
                    1usize..40,
                )
            })
    ) {
        let (n_nodes, t_count, edges, block, chunk) = case;
        let dir = tmp("prop");
        let path = dir.join(format!("case_{block}_{chunk}.tgs"));
        let edges: Vec<TemporalEdge> = edges
            .into_iter()
            .map(|(u, v, t)| TemporalEdge::new(u, v, t))
            .collect();
        let g = TemporalGraph::from_edges(n_nodes, t_count as usize, edges);
        writer::write_source(
            &mut tg_graph::source::InMemorySource::new(&g),
            &path,
            block,
        )
        .unwrap();
        let mut src = StoreSource::open(&path).unwrap();
        let rebuilt =
            tg_graph::source::read_graph(&mut src, chunk).unwrap();
        prop_assert_eq!(rebuilt.edges(), g.edges());
        prop_assert_eq!(
            rebuilt.edge_counts_per_timestamp(),
            g.edge_counts_per_timestamp()
        );
        // the on-disk index alone must already know the per-t counts
        prop_assert_eq!(
            StoreSource::open(&path).unwrap().edge_counts_per_timestamp(),
            g.edge_counts_per_timestamp()
        );
        src.reader_mut().verify_payload().unwrap();
        std::fs::remove_file(&path).ok();
    }
}

fn sample_store(dir: &std::path::Path) -> std::path::PathBuf {
    let mut edges = Vec::new();
    for t in 0..4u32 {
        for u in 0..20u32 {
            edges.push(TemporalEdge::new(u, (u + 1 + t) % 20, t));
        }
    }
    let g = TemporalGraph::from_edges(20, 4, edges);
    let path = dir.join("sample.tgs");
    writer::write_graph(&g, &path).unwrap();
    path
}

#[test]
fn corrupt_magic_is_a_typed_error() {
    let dir = tmp("magic");
    let path = sample_store(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] = b'Z';
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        StoreReader::open(&path),
        Err(StoreError::BadMagic { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_header_field_is_a_checksum_error() {
    let dir = tmp("header");
    let path = sample_store(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    // flip a bit inside n_nodes — keeps the file structurally plausible
    // (length check still passes), so only the checksum can catch it
    bytes[8] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        StoreReader::open(&path),
        Err(StoreError::HeaderChecksum { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_index_is_a_checksum_error() {
    let dir = tmp("index");
    let path = sample_store(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[60] ^= 0x10; // inside the timestamp index
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        StoreReader::open(&path),
        Err(StoreError::HeaderChecksum { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_file_is_a_typed_error() {
    let dir = tmp("trunc");
    let path = sample_store(&dir);
    let bytes = std::fs::read(&path).unwrap();
    // cut mid-payload
    std::fs::write(&path, &bytes[..bytes.len() - 30]).unwrap();
    match StoreReader::open(&path).err() {
        Some(StoreError::Truncated { expected, actual }) => {
            assert_eq!(expected, bytes.len() as u64);
            assert_eq!(actual, bytes.len() as u64 - 30);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    // cut mid-header
    std::fs::write(&path, &bytes[..20]).unwrap();
    assert!(matches!(
        StoreReader::open(&path),
        Err(StoreError::Truncated { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn flipped_payload_fails_verify_and_windowed_read() {
    let dir = tmp("payload");
    let path = sample_store(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    // header (56) + index (8*5 = 40) = 96; corrupt the first u-column
    // entry — the block's trailer checksum catches it on load
    bytes[96] = 0xFF;
    bytes[97] = 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    // open succeeds: header and index are intact
    let mut src = StoreSource::open(&path).unwrap();
    assert!(matches!(
        src.reader_mut().verify_payload(),
        Err(StoreError::BlockChecksum { block: 0, .. })
    ));
    // the streaming read refuses the block before yielding any of it
    let mut yielded = 0;
    let streamed = src.for_each_chunk(64, &mut |_, _, edges| yielded += edges.len());
    assert!(
        matches!(streamed, Err(StoreError::BlockChecksum { block: 0, .. })),
        "{streamed:?}"
    );
    assert_eq!(
        yielded, 0,
        "streaming read yielded edges of a corrupt block"
    );
    assert!(matches!(
        src.load_graph(),
        Err(StoreError::BlockChecksum { block: 0, .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v1_store_is_rejected_with_version_error() {
    let dir = tmp("v1");
    let path = sample_store(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4] = 1; // rewrite the version field to v1
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        StoreReader::open(&path),
        Err(StoreError::UnsupportedVersion {
            found: 1,
            supported: 2
        })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn session_from_store_is_bit_identical_to_in_memory() {
    // The ISSUE-5 acceptance criterion, at the store level: train from
    // the on-disk store and from the in-memory graph with the same seed;
    // losses, parameters, and generated edges must all be bit-identical.
    let dir = tmp("session");
    let cfg = tg_datasets::SyntheticConfig {
        nodes: 40,
        edges: 400,
        timestamps: 5,
        ..Default::default()
    };
    let g = tg_datasets::generate(&cfg, &mut SmallRng::seed_from_u64(3));
    let path = dir.join("observed.tgs");
    writer::write_graph(&g, &path).unwrap();

    let mut tcfg = TgaeConfig::tiny();
    tcfg.epochs = 5;
    let master = 777u64;

    let mut mem = Session::builder(&g)
        .config(tcfg.clone())
        .seed(9)
        .build()
        .unwrap();
    let report_mem = mem.train().unwrap();

    let loaded = StoreSource::open(&path).unwrap().load_graph().unwrap();
    let mut stored = Session::builder(&loaded)
        .config(tcfg)
        .seed(9)
        .build()
        .unwrap();
    assert_eq!(stored.observed().edges(), g.edges());
    let report_store = stored.train().unwrap();

    assert_eq!(report_mem.losses, report_store.losses);
    assert_eq!(
        serde_json::to_string(&mem.model().store).unwrap(),
        serde_json::to_string(&stored.model().store).unwrap(),
        "trained parameters diverged between in-memory and store paths"
    );
    let sink = || GraphSink::new(g.n_nodes(), g.n_timestamps());
    let edges_mem = mem.into_shared().simulate_seeded(master, sink()).unwrap();
    let edges_store = stored
        .into_shared()
        .simulate_seeded(master, sink())
        .unwrap();
    assert_eq!(edges_mem.edges(), edges_store.edges());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn opening_a_missing_or_damaged_store_through_session_is_typed() {
    let dir = tmp("typed");
    let path = sample_store(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.truncate(bytes.len() - 5);
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        StoreSource::open(&path),
        Err(StoreError::Truncated { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}
