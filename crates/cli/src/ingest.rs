//! `tgx-cli ingest`: convert an observed graph into a TGES edge store —
//! or salvage a damaged one.
//!
//! ```text
//! tgx-cli ingest --out FILE ((--edges FILE [--buckets T] [--exact]
//!                             [--n-nodes N] [--n-timestamps T]
//!                             | --preset NAME [--scale F] [--data-seed S])
//!                            [--block-edges N]
//!                            | --salvage DAMAGED_STORE)
//!                [--verify] [--quiet]
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
use crate::input::Input;
use std::fs::File;
use std::io::BufWriter;
use tg_graph::source::EdgeSource;
use tg_graph::TemporalGraph;
use tg_store::{Header, StoreError, StoreSource, StoreStats, StoreWriter, DEFAULT_BLOCK_EDGES};

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
    let out: String = args.require("out")?;
    let quiet = args.flag("quiet");
    let verify = args.flag("verify");
    if let Some(damaged) = args.get("salvage").map(str::to_string) {
        args.reject_unused()?;
        salvage_store(&damaged, &out, quiet)?;
        if verify {
            open_verified(&out)?;
            if !quiet {
                eprintln!("verified: payload checksum ok");
            }
        }
        println!("{out}");
        return Ok(());
    }
    let block_edges: usize = args.get_parsed("block-edges", DEFAULT_BLOCK_EDGES)?;
    let input = Input::read(args, false)?;
    args.reject_unused()?;
    let (g, source) = input.load()?;

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
        let mut src = open_verified(&out)?;
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

/// `--verify`'s first half: re-open the store at `out` and check its
/// full payload checksum.
fn open_verified(out: &str) -> Result<StoreSource, CliError> {
    let mut src =
        StoreSource::open(out).map_err(|e| CliError::Corruption(format!("re-open {out}: {e}")))?;
    src.reader_mut()
        .verify_payload()
        .map_err(|e| CliError::Corruption(format!("verify {out}: {e}")))?;
    Ok(src)
}

/// `--salvage`: block-scan a damaged store and rewrite every recoverable
/// block into a fresh clean store at `out`, committed with
/// [`tg_graph::io::commit_atomic`] so a crash mid-salvage never leaves a
/// half store under the target name.
fn salvage_store(damaged: &str, out: &str, quiet: bool) -> Result<(), CliError> {
    // Whether the failure, if any, came from reading the damaged store.
    let mut unreadable = false;
    let committed = tg_graph::io::commit_atomic(std::path::Path::new(out), |f| {
        let mut file = Some(f);
        let mut writer = None;
        let report = tg_store::StoreReader::salvage(damaged, |header, edges| {
            if writer.is_none() {
                writer = Some(store_over(file.take(), header)?);
            }
            writer.as_mut().map_or(Ok(()), |w| w.push_chunk(edges))
        })
        .inspect_err(|_| unreadable = true)?;
        // Every block may have been damaged; the salvage still yields a
        // valid (empty) clean store with the original shape.
        let writer = match writer {
            Some(w) => w,
            None => store_over(file.take(), &report.header)?,
        };
        Ok::<_, StoreError>((report, writer.finish()?))
    });
    let (report, stats) = committed.map_err(|e| {
        if unreadable {
            // unreadable header / I/O failure: nothing could be recovered
            CliError::Corruption(format!("salvage {damaged}: {e}"))
        } else {
            CliError::Other(format!("write {out}: {e}"))
        }
    })?;

    if !quiet {
        eprintln!(
            "salvaged {damaged}: {} of {} blocks intact, {} edges recovered, {} lost{}",
            report.intact_blocks,
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
    Ok(())
}

/// A store writer of `header`'s shape over the salvage's tmp file, which
/// is handed out once.
fn store_over<'f>(
    file: Option<&'f mut File>,
    header: &Header,
) -> Result<StoreWriter<BufWriter<&'f mut File>>, StoreError> {
    let file = file
        .ok_or_else(|| StoreError::Io(std::io::Error::other("salvage store file opened twice")))?;
    StoreWriter::new(
        BufWriter::new(file),
        header.n_nodes as usize,
        header.n_timestamps as usize,
        header.block_edges as usize,
    )
}
