//! Every durable writer goes through `tg_graph::io::commit_atomic`, so a
//! failure before the rename leaves the previous file byte-identical and
//! no `<name>.tmp` beside it.

use std::path::Path;
use tg_faults::registry::{PERSIST_ATOMIC_START, PERSIST_ATOMIC_UNRENAMED};
use tg_graph::io::{atomic_write_bytes, save_edge_list_atomic, tmp_sibling};
use tg_graph::{TemporalEdge, TemporalGraph};

type Writer = fn(&TemporalGraph, &Path) -> Result<(), String>;

const WRITERS: [(&str, Writer); 3] = [
    ("atomic_write_bytes", |_, p| {
        atomic_write_bytes(p, b"new bytes").map_err(|e| e.to_string())
    }),
    ("save_edge_list_atomic", |g, p| {
        save_edge_list_atomic(g, p).map_err(|e| e.to_string())
    }),
    ("write_graph", |g, p| {
        tg_store::write_graph(g, p)
            .map(drop)
            .map_err(|e| e.to_string())
    }),
];

#[test]
fn every_durable_writer_fails_cleanly() {
    if !tg_faults::is_compiled() {
        return;
    }
    let dir = std::env::temp_dir().join(format!("tg_durable_writes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let g = TemporalGraph::from_edges(
        3,
        2,
        vec![TemporalEdge::new(0, 1, 0), TemporalEdge::new(2, 1, 1)],
    );
    for point in [&PERSIST_ATOMIC_START, &PERSIST_ATOMIC_UNRENAMED] {
        for (name, write) in WRITERS {
            let at = format!("{name} at {}", point.name());
            let dest = dir.join(format!("{name}.out"));
            std::fs::write(&dest, b"old contents").unwrap();
            {
                let _armed = tg_faults::arm(point, "err").unwrap();
                let err = write(&g, &dest).unwrap_err();
                assert!(err.contains(point.name()), "{at}: {err}");
            }
            assert_eq!(std::fs::read(&dest).unwrap(), b"old contents", "{at}");
            assert!(!tmp_sibling(&dest).exists(), "{at}: tmp left behind");
            // disarmed, the same write commits
            write(&g, &dest).unwrap();
            assert_ne!(std::fs::read(&dest).unwrap(), b"old contents", "{at}");
            assert!(!tmp_sibling(&dest).exists(), "{at}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
