//! `tgx-cli ingest`: convert an observed graph into a TGES edge store —
//! or salvage a damaged one.
//!
//! ```text
//! tgx-cli ingest --out FILE (--edges FILE [--buckets T] [--exact]
//!                            [--n-nodes N] [--n-timestamps T]
//!                            | --preset NAME [--scale F] [--data-seed S]
//!                            | --salvage DAMAGED_STORE)
//!                [--block-edges N] [--verify] [--quiet]
//! ```
//!
//! Text edge lists are parsed once (id/timestamp compaction as in
//! `train --edges`, or `--exact` for already-dense files, with the shape
//! taken from `--n-nodes`/`--n-timestamps` or inferred from the data) and
//! written as the columnar, checksummed TGES format. From then on every
//! consumer — `train --store`, `StoreSource::load_graph`, benchmark
//! harnesses — streams the store in bounded per-timestamp chunks instead
//! of re-parsing and re-sorting text: the one-time conversion is what
//! buys the `O(chunk)` training-ingest memory profile.
//!
//! `--verify` re-opens the finished store, checks the full payload
//! checksum, and streams it back against the in-memory graph — a
//! belt-and-braces round-trip proof before the text original is archived.
//!
//! `--salvage DAMAGED_STORE` is the disaster path: it block-scans a
//! store that `open` refuses (torn tail, flipped bits, smashed index)
//! with [`tg_store::StoreReader::salvage`], streams every checksummed-valid block
//! into a fresh clean store at `--out`, and reports exactly which blocks
//! — and how many edges — were lost. Exit code 3 when the damaged file
//! is beyond recognition (bad magic/unreadable header).

use crate::args::Args;
use crate::errors::CliError;
use std::io::BufRead;
use tg_graph::io::load_edge_list_exact;
use tg_graph::source::EdgeSource;
use tg_graph::TemporalGraph;
use tg_store::{StoreSource, StoreStats, StoreWriter, DEFAULT_BLOCK_EDGES};

/// Infer a dense file's shape (`max id + 1`, `max t + 1`) for `--exact`
/// without materialising anything: one pass over the text.
fn infer_exact_shape(path: &str) -> Result<(usize, usize), String> {
    let f = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut max_node = 0u64;
    let mut max_t = 0u64;
    let mut any = false;
    for (idx, line) in std::io::BufReader::new(f).lines().enumerate() {
        let line = line.map_err(|e| format!("read {path}: {e}"))?;
        let s = line.trim();
        if s.is_empty() || s.starts_with('#') || s.starts_with('%') {
            continue;
        }
        let mut it = s.split_whitespace();
        let mut next = |what: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("{path}:{}: missing {what}", idx + 1))?
                .parse::<u64>()
                .map_err(|e| format!("{path}:{}: bad {what}: {e}", idx + 1))
        };
        max_node = max_node.max(next("src")?).max(next("dst")?);
        max_t = max_t.max(next("timestamp")?);
        any = true;
    }
    if !any {
        return Err(format!("{path}: no edges to ingest"));
    }
    Ok((max_node as usize + 1, max_t as usize + 1))
}

/// Resolve the graph to store from `--edges`/`--preset` options.
fn load_input(args: &Args) -> Result<(TemporalGraph, String), String> {
    match (args.get("edges"), args.get("preset")) {
        (Some(path), None) => {
            let path = path.to_string();
            if args.flag("exact") {
                let n_nodes: usize = args.get_parsed("n-nodes", 0)?;
                let n_timestamps: usize = args.get_parsed("n-timestamps", 0)?;
                let (n, t) = match (n_nodes, n_timestamps) {
                    (n, t) if n > 0 && t > 0 => (n, t),
                    (0, 0) => infer_exact_shape(&path)?,
                    // Half-specified shapes must not be silently replaced
                    // by inference — the given bound would be dropped and
                    // the store written with a different shape than asked.
                    _ => {
                        return Err(
                            "--exact needs both --n-nodes and --n-timestamps (or neither, \
                             to infer the shape from the data)"
                                .into(),
                        )
                    }
                };
                let g =
                    load_edge_list_exact(&path, n, t).map_err(|e| format!("load {path}: {e}"))?;
                Ok((g, format!("file:{path} (exact)")))
            } else {
                crate::input::load_text_edges(args, &path)
            }
        }
        (None, Some(name)) => crate::input::load_preset(args, name),
        (Some(_), Some(_)) => Err("give either --edges or --preset, not both".into()),
        (None, None) => Err("need an input: --edges FILE or --preset NAME".into()),
    }
}

fn print_stats(g: &TemporalGraph, stats: &StoreStats, out: &str, source: &str) {
    let counts = g.edge_counts_per_timestamp();
    let (min, max) = counts
        .iter()
        .fold((usize::MAX, 0usize), |(lo, hi), &c| (lo.min(c), hi.max(c)));
    let mean = if counts.is_empty() {
        0.0
    } else {
        stats.n_edges as f64 / counts.len() as f64
    };
    eprintln!(
        "ingested: {} nodes, {} timestamps, {} edges ({source})",
        stats.n_nodes, stats.n_timestamps, stats.n_edges
    );
    eprintln!(
        "store: {out} — {} bytes ({:.2} B/edge), {} blocks",
        stats.file_bytes,
        stats.bytes_per_edge(),
        stats.n_blocks
    );
    eprintln!("edges per timestamp: min {min} / mean {mean:.1} / max {max}");
}

/// Run the subcommand.
pub fn run(args: &Args) -> Result<(), CliError> {
    let out: String = args.require("out").map_err(CliError::Usage)?;
    if let Some(damaged) = args.get("salvage").map(str::to_string) {
        let quiet = args.flag("quiet");
        args.reject_unused().map_err(CliError::Usage)?;
        return salvage_store(&damaged, &out, quiet);
    }
    let block_edges: usize = args
        .get_parsed("block-edges", DEFAULT_BLOCK_EDGES)
        .map_err(CliError::Usage)?;
    let verify = args.flag("verify");
    let quiet = args.flag("quiet");
    let (g, source) = load_input(args)?;
    args.reject_unused().map_err(CliError::Usage)?;

    let stats = tg_store::write_source(
        &mut tg_graph::source::InMemorySource::new(&g),
        &out,
        block_edges,
    )
    .map_err(|e| format!("write {out}: {e}"))?;
    if !quiet {
        print_stats(&g, &stats, &out, &source);
    }

    if verify {
        let mut src = StoreSource::open(&out)
            .map_err(|e| CliError::Corruption(format!("re-open {out}: {e}")))?;
        src.reader_mut()
            .verify_payload()
            .map_err(|e| CliError::Corruption(format!("verify {out}: {e}")))?;
        let mut pos = 0usize;
        let mut mismatch = false;
        src.for_each_chunk(block_edges.max(1), &mut |_t, _c, edges| {
            if !mismatch && g.edges()[pos..].starts_with(edges) {
                pos += edges.len();
            } else {
                mismatch = true;
            }
        })
        .map_err(|e| CliError::Corruption(format!("re-read {out}: {e}")))?;
        if mismatch || pos != g.n_edges() {
            return Err(CliError::Corruption(format!(
                "VERIFY FAILED: store stream diverges from the ingested graph at edge {pos}"
            )));
        }
        if !quiet {
            eprintln!(
                "verified: payload checksum ok, streamed edges identical to the ingested graph"
            );
        }
    }
    println!("{out}");
    Ok(())
}

/// `--salvage`: block-scan a damaged store and rewrite every recoverable
/// block into a fresh clean store at `out` (built at a temp sibling and
/// renamed into place, so a crash mid-salvage never leaves a half store
/// under the target name).
fn salvage_store(damaged: &str, out: &str, quiet: bool) -> Result<(), CliError> {
    let tmp = tg_graph::io::tmp_sibling(std::path::Path::new(out));
    let mut writer: Option<StoreWriter<std::io::BufWriter<std::fs::File>>> = None;
    let result = tg_store::StoreReader::salvage(damaged, |header, edges| {
        if writer.is_none() {
            writer = Some(StoreWriter::create_with_block(
                &tmp,
                header.n_nodes as usize,
                header.n_timestamps as usize,
                header.block_edges as usize,
            )?);
        }
        // the insert above makes this infallible; stay typed rather
        // than panicking on an impossible state
        let w = writer.as_mut().ok_or_else(|| {
            tg_store::StoreError::Io(std::io::Error::other(
                "salvage writer vanished after initialisation",
            ))
        })?;
        w.push_chunk(edges)
    });
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            // unreadable header / I/O failure: nothing could be recovered
            return Err(CliError::Corruption(format!("salvage {damaged}: {e}")));
        }
    };
    // Every block may have been damaged; the salvage still yields a
    // valid (empty) clean store with the original shape.
    let writer = match writer {
        Some(w) => w,
        None => StoreWriter::create_with_block(
            &tmp,
            report.header.n_nodes as usize,
            report.header.n_timestamps as usize,
            report.header.block_edges as usize,
        )
        .map_err(|e| format!("create {}: {e}", tmp.display()))?,
    };
    let stats = writer
        .finish()
        .map_err(|e| format!("finalise {}: {e}", tmp.display()))?;
    let f = std::fs::File::open(&tmp).map_err(|e| format!("reopen {}: {e}", tmp.display()))?;
    f.sync_all()
        .map_err(|e| format!("sync {}: {e}", tmp.display()))?;
    drop(f);
    std::fs::rename(&tmp, out).map_err(|e| format!("rename into {out}: {e}"))?;

    if !quiet {
        let intact = report.n_blocks - report.bad_blocks.len() as u64;
        eprintln!(
            "salvaged {damaged}: {intact} of {} blocks intact, {} edges recovered, {} lost{}",
            report.n_blocks,
            report.recovered_edges,
            report.lost_edges,
            if report.index_valid {
                ""
            } else {
                " (index was damaged; rebuilt)"
            }
        );
        if !report.bad_blocks.is_empty() {
            eprintln!("  damaged blocks: {:?}", report.bad_blocks);
        }
        eprintln!(
            "clean store: {out} — {} bytes, {} edges, {} blocks",
            stats.file_bytes, stats.n_edges, stats.n_blocks
        );
    }
    println!("{out}");
    Ok(())
}
