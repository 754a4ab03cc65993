//! Acceptance tests for `StoreReader::salvage` (ISSUE 6): block-by-block
//! recovery of damaged TGES files.
//!
//! The proptest is the load-bearing one: under random payload damage
//! (byte flips and truncation), salvage must (a) never emit an edge that
//! fails the structural checks, and (b) recover *every* block outside
//! the damaged byte ranges, exactly.

use proptest::prelude::*;
use tg_graph::{TemporalEdge, TemporalGraph};
use tg_store::{writer, StoreError, StoreReader};

fn tmp(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tg_store_salvage_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn sample_graph(n_nodes: usize, t_count: usize, m: usize) -> TemporalGraph {
    let mut edges = Vec::with_capacity(m);
    for i in 0..m {
        let t = (i * t_count / m) as u32;
        let u = (i * 7 % n_nodes) as u32;
        let v = (i * 13 % n_nodes) as u32;
        edges.push(TemporalEdge::new(u, v, t));
    }
    TemporalGraph::from_edges(n_nodes, t_count, edges)
}

/// Collect everything salvage emits.
fn run_salvage(path: &std::path::Path) -> (tg_store::SalvageReport, Vec<TemporalEdge>) {
    let mut got = Vec::new();
    let report = StoreReader::salvage(path, |_h, edges| {
        got.extend_from_slice(edges);
        Ok(())
    })
    .unwrap();
    (report, got)
}

#[test]
fn salvage_of_a_clean_store_recovers_everything() {
    let dir = tmp("clean");
    let path = dir.join("clean.tgs");
    let g = sample_graph(30, 5, 200);
    writer::write_source(&mut tg_graph::source::InMemorySource::new(&g), &path, 16).unwrap();
    let (report, got) = run_salvage(&path);
    assert!(report.is_clean());
    assert!(report.index_valid);
    assert_eq!(report.recovered_edges, 200);
    assert_eq!(report.lost_edges, 0);
    assert_eq!(got, g.edges());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn salvage_skips_exactly_the_damaged_block() {
    let dir = tmp("oneblock");
    let path = dir.join("dmg.tgs");
    let g = sample_graph(30, 5, 200);
    writer::write_source(&mut tg_graph::source::InMemorySource::new(&g), &path, 16).unwrap();
    let header = *StoreReader::open(&path).unwrap().header();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[header.block_offset(3) as usize] ^= 0xA5; // damage block 3
    std::fs::write(&path, &bytes).unwrap();

    // the damaged block is unreadable through the normal path...
    let mut reader = StoreReader::open(&path).unwrap();
    assert!(matches!(
        reader.verify_payload(),
        Err(StoreError::BlockChecksum { block: 3, .. })
    ));
    // ...but salvage recovers all the others
    let (report, got) = run_salvage(&path);
    assert_eq!(report.bad_blocks, vec![3]);
    assert_eq!(report.lost_edges, 16);
    assert_eq!(report.recovered_edges, 200 - 16);
    let expected: Vec<TemporalEdge> = g
        .edges()
        .iter()
        .enumerate()
        .filter(|(i, _)| !(48..64).contains(i))
        .map(|(_, &e)| e)
        .collect();
    assert_eq!(got, expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn salvage_of_a_truncated_file_recovers_the_prefix() {
    let dir = tmp("trunc");
    let path = dir.join("trunc.tgs");
    let g = sample_graph(30, 5, 200);
    writer::write_source(&mut tg_graph::source::InMemorySource::new(&g), &path, 16).unwrap();
    let header = *StoreReader::open(&path).unwrap().header();
    let bytes = std::fs::read(&path).unwrap();
    // keep the first 5 blocks plus a few bytes of block 5
    let cut = header.block_offset(5) as usize + 7;
    std::fs::write(&path, &bytes[..cut]).unwrap();

    assert!(matches!(
        StoreReader::open(&path),
        Err(StoreError::Truncated { .. })
    ));
    let (report, got) = run_salvage(&path);
    assert_eq!(report.recovered_edges, 5 * 16);
    assert_eq!(report.bad_blocks.len() as u64, report.n_blocks - 5);
    assert_eq!(got, &g.edges()[..80]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn salvage_with_a_corrupt_index_still_walks_the_blocks() {
    let dir = tmp("index");
    let path = dir.join("idx.tgs");
    let g = sample_graph(30, 5, 200);
    writer::write_source(&mut tg_graph::source::InMemorySource::new(&g), &path, 16).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[60] ^= 0x10; // inside the timestamp index
    std::fs::write(&path, &bytes).unwrap();

    assert!(matches!(
        StoreReader::open(&path),
        Err(StoreError::HeaderChecksum { .. })
    ));
    let (report, got) = run_salvage(&path);
    assert!(!report.index_valid);
    assert!(!report.is_clean());
    assert_eq!(report.recovered_edges, 200);
    assert_eq!(got, g.edges());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn salvage_refuses_files_that_are_not_stores() {
    let dir = tmp("notastore");
    let path = dir.join("garbage.bin");
    std::fs::write(
        &path,
        b"this is not a TGES store, not even close -- padded well past the 56-byte header",
    )
    .unwrap();
    assert!(matches!(
        StoreReader::salvage(&path, |_, _| Ok(())),
        Err(StoreError::BadMagic { .. })
    ));
    std::fs::write(&path, b"shrt").unwrap();
    assert!(matches!(
        StoreReader::salvage(&path, |_, _| Ok(())),
        Err(StoreError::Truncated { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A file of `len` bytes: `header` encoded, then zeros.
fn hostile_store(path: &std::path::Path, header: tg_store::Header, len: usize) {
    let mut bytes = header.encode().to_vec();
    bytes.resize(len, 0);
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn a_header_whose_file_length_overflows_is_refused() {
    let dir = tmp("overflow");
    let path = dir.join("huge.tgs");
    let header = tg_store::Header {
        n_nodes: 4,
        n_timestamps: 2,
        n_edges: u64::MAX / 4,
        block_edges: 8,
        payload_checksum: 0,
        header_checksum: 0,
    };
    hostile_store(&path, header, 100);
    let corrupt = |r: Result<(), StoreError>| match r {
        Err(StoreError::Corrupt { what }) => assert!(what.contains("2^64"), "{what}"),
        other => panic!("expected Corrupt, got {other:?}"),
    };
    corrupt(StoreReader::open(&path).map(drop));
    corrupt(StoreReader::salvage(&path, |_, _| Ok(())).map(drop));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn salvage_of_a_short_file_claiming_2_pow_40_blocks_is_bounded() {
    let dir = tmp("manyblocks");
    let path = dir.join("claims.tgs");
    let header = tg_store::Header {
        n_nodes: 4,
        n_timestamps: 2,
        n_edges: 1 << 40,
        block_edges: 1,
        payload_checksum: 0,
        header_checksum: 0,
    };
    let len = 300;
    hostile_store(&path, header, len);
    let (report, got) = run_salvage(&path);
    assert!(got.is_empty());
    assert_eq!(report.n_blocks, 1 << 40);
    assert_eq!((report.recovered_edges, report.lost_edges), (0, 1 << 40));
    // one entry per block the file could hold (an edge and its trailer)
    assert!(
        report.bad_blocks.len() <= len / 20,
        "{} entries",
        report.bad_blocks.len()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random damage (byte flips in the payload region, optional tail
    /// truncation) never makes salvage emit a bad edge, and every block
    /// outside the damaged byte ranges is recovered exactly.
    #[test]
    fn prop_salvage_recovers_all_undamaged_blocks(
        case in (2usize..20, 1usize..5, 0usize..150, 2usize..24)
            .prop_flat_map(|shape| {
                (
                    Just(shape),
                    proptest::collection::vec((0usize..1000, 0u8..255), 0..6),
                    0usize..3,
                )
            })
    ) {
        let ((n_nodes, t_count, m, block), flips, truncate_blocks) = case;
        let dir = tmp("prop");
        let path = dir.join(format!("case_{block}_{m}.tgs"));
        let g = sample_graph(n_nodes, t_count, m);
        writer::write_source(
            &mut tg_graph::source::InMemorySource::new(&g),
            &path,
            block,
        ).unwrap();
        let header = *StoreReader::open(&path).unwrap().header();
        let mut bytes = std::fs::read(&path).unwrap();
        let payload_start = header.payload_start() as usize;

        // apply damage, tracking which blocks each flip lands in
        let mut damaged = std::collections::BTreeSet::new();
        for (pos, mask) in flips {
            if bytes.len() == payload_start { break; }
            let pos = payload_start + pos % (bytes.len() - payload_start);
            if mask == 0 { continue; } // XOR by 0 is no damage
            bytes[pos] ^= mask;
            let k = ((pos - payload_start) as u64)
                / (header.block_edges * 12 + 8);
            damaged.insert(k.min(header.n_blocks().saturating_sub(1)));
        }
        let truncate_blocks = truncate_blocks.min(header.n_blocks() as usize);
        if truncate_blocks > 0 {
            let first_cut = header.n_blocks() - truncate_blocks as u64;
            // cut into (not at) the first truncated block so it is damaged
            bytes.truncate(header.block_offset(first_cut) as usize + 1);
            for k in first_cut..header.n_blocks() {
                damaged.insert(k);
            }
        }
        std::fs::write(&path, &bytes).unwrap();

        let (report, got) = run_salvage(&path);
        // every undamaged block recovered, in order, bit-exact
        let mut expected = Vec::new();
        let mut expected_lost = 0u64;
        for k in 0..header.n_blocks() {
            let a = (k * header.block_edges) as usize;
            let b = (a as u64 + header.block_len(k)) as usize;
            if damaged.contains(&k) {
                expected_lost += header.block_len(k);
            } else {
                expected.extend_from_slice(&g.edges()[a..b]);
            }
        }
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(report.recovered_edges + report.lost_edges,
            header.n_edges);
        prop_assert_eq!(report.lost_edges, expected_lost);
        // structural soundness of everything emitted: in shape + sorted
        prop_assert!(got.iter().all(|e| (e.u as usize) < n_nodes
            && (e.v as usize) < n_nodes
            && (e.t as usize) < t_count));
        prop_assert!(got.windows(2).all(|w| w[0] <= w[1]));
        std::fs::remove_file(&path).ok();
    }
}
