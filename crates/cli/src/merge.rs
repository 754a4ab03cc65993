//! `tgx-cli merge`: combine per-shard artifacts outside the driver (e.g.
//! when shards ran on different machines and were copied together).
//!
//! ```text
//! edge lists:  tgx-cli merge --out merged.edges shard_0.edges shard_1.edges …
//! statistics:  tgx-cli merge --stats --out merged.stats.json s0.json s1.json …
//! ```
//!
//! Edge lists are merged with [`merge_edge_lists`] (streaming byte
//! concatenation — byte-identical to a single-process stream when the
//! inputs are a shard partition in shard order); statistics are merged
//! with the public `GenerationStats::merge`.
//!
//! [`merge_edge_lists`]: tg_graph::io::merge_edge_lists

use crate::args::Args;
use tg_graph::io::{atomic_write_bytes, merge_edge_lists};
use tg_graph::sink::GenerationStats;

/// Run the subcommand.
pub fn run(args: &Args) -> Result<(), String> {
    let out: String = args.require("out")?;
    let stats = args.flag("stats");
    args.reject_unused()?;
    let inputs = args.positional();
    if inputs.is_empty() {
        return Err("nothing to merge: pass shard files as positional arguments".into());
    }
    if stats {
        let mut acc = GenerationStats::default();
        for path in inputs {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let s: GenerationStats =
                serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
            acc.merge(&s);
        }
        let json = serde_json::to_string_pretty(&acc).map_err(|e| e.to_string())?;
        atomic_write_bytes(&out, json.as_bytes()).map_err(|e| format!("write {out}: {e}"))?;
        eprintln!(
            "merged {} stats files: {} edges across {} timestamps -> {out}",
            inputs.len(),
            acc.n_edges(),
            acc.per_timestamp.len()
        );
    } else {
        let bytes = merge_edge_lists(inputs, &out).map_err(|e| format!("merge edge lists: {e}"))?;
        eprintln!(
            "merged {} edge files ({bytes} bytes) -> {out}",
            inputs.len()
        );
    }
    println!("{out}");
    Ok(())
}
