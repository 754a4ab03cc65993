//! The observed-graph input of `train` and `ingest`: `--preset …` or
//! `--edges …`, and `train`'s `--store FILE` or `ingest`'s `--exact`.
//! [`Input::read`] reads the choice into a value, so a subcommand checks
//! its whole command line before [`Input::load`] does any work; one
//! reader means the two CLIs cannot drift apart.

use crate::args::Args;
use crate::errors::CliError;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fs::File;
use std::num::NonZeroUsize;
use tg_datasets::SyntheticConfig;
use tg_graph::io::{for_each_record, load_edge_list, load_edge_list_exact, IoError};
use tg_graph::TemporalGraph;
use tg_store::StoreSource;

/// The observed graph a command line names, read but not yet loaded.
#[derive(Debug)]
pub enum Input {
    /// `--preset NAME [--scale F] [--data-seed S]`, `config` at `scale`.
    Preset {
        name: String,
        config: SyntheticConfig,
        scale: f64,
        data_seed: u64,
    },
    /// `--edges FILE [--buckets T]`: ids and timestamps compacted.
    Edges {
        path: String,
        buckets: Option<NonZeroUsize>,
    },
    /// `ingest --edges FILE --exact [--n-nodes N --n-timestamps T]`: ids
    /// and timestamps as they are, the shape inferred when `None`.
    Exact {
        path: String,
        shape: Option<(usize, usize)>,
    },
    /// `train --store FILE`: a TGES edge store, streamed.
    Store(String),
}

impl Input {
    /// Read the one input the command line names: `--preset` or
    /// `--edges`, plus `train`'s `--store` (with `store`) or `ingest`'s
    /// `--exact` (without). A contradictory choice, an unknown preset or
    /// a `--scale` that is not finite and greater than 0 (one the preset
    /// would clamp to its smallest graph) is a usage error.
    pub fn read(args: &Args, store: bool) -> Result<Input, CliError> {
        let store_path = if store { args.get("store") } else { None };
        let input = match (args.get("preset"), args.get("edges"), store_path) {
            (Some(name), None, None) => {
                let preset = tg_datasets::by_name(name);
                let unknown = || format!("unknown preset `{name}` (try: dblp, email, msg, …)");
                let config = preset.ok_or_else(unknown).map_err(CliError::Usage)?.config;
                let scale: f64 = args.get_parsed("scale", 1.0)?;
                if !(scale.is_finite() && scale > 0.0) {
                    let msg = format!("--scale must be finite and greater than 0, got `{scale}`");
                    return Err(CliError::Usage(msg));
                }
                Input::Preset {
                    name: name.to_string(),
                    config: config.scaled(scale),
                    scale,
                    data_seed: args.get_parsed("data-seed", 7)?,
                }
            }
            (None, Some(path), None) => Input::Edges {
                path: path.to_string(),
                buckets: args.get_opt("buckets")?,
            },
            (None, None, Some(path)) => return Ok(Input::Store(path.to_string())),
            _ => {
                let third = if store { ", --store FILE" } else { "" };
                let msg = format!("give exactly one of --preset NAME, --edges FILE{third}");
                return Err(CliError::Usage(msg));
            }
        };
        if store || !args.flag("exact") {
            return Ok(input);
        }
        let n: usize = args.get_parsed("n-nodes", 0)?;
        let t: usize = args.get_parsed("n-timestamps", 0)?;
        match input {
            // a half-given shape is refused, not inferred: the store
            // would have another shape than asked
            Input::Edges { path, buckets } if buckets.is_none() && (n > 0) == (t > 0) => {
                let shape = (n > 0).then_some((n, t));
                Ok(Input::Exact { path, shape })
            }
            _ => {
                let msg = "--exact takes --edges FILE without --buckets, and both of \
                           --n-nodes and --n-timestamps or neither";
                Err(CliError::Usage(msg.into()))
            }
        }
    }

    /// Build the graph, with its provenance for the run manifest.
    pub fn load(&self) -> Result<(TemporalGraph, String), CliError> {
        Ok(match self {
            Input::Preset {
                name,
                config,
                scale,
                data_seed,
            } => {
                let g = tg_datasets::generate(config, &mut SmallRng::seed_from_u64(*data_seed));
                (g, format!("preset:{name}@{scale}x_seed{data_seed}"))
            }
            Input::Edges { path, buckets } => {
                let g = load_edge_list(path, *buckets).map_err(|e| format!("load {path}: {e}"))?;
                (g, format!("file:{path}"))
            }
            Input::Exact { path, shape } => {
                let (n, t) = shape.map_or_else(|| infer_exact_shape(path), Ok)?;
                let g =
                    load_edge_list_exact(path, n, t).map_err(|e| format!("load {path}: {e}"))?;
                (g, format!("file:{path} (exact)"))
            }
            Input::Store(path) => {
                let mut src = StoreSource::open(path).map_err(|e| format!("open {path}: {e}"))?;
                let g = src
                    .load_graph()
                    .map_err(|e| format!("stream {path}: {e}"))?;
                (g, format!("store:{path}"))
            }
        })
    }
}

/// Infer a dense file's shape (`max id + 1`, `max t + 1`) for `--exact`
/// without materialising anything: one pass over the text.
fn infer_exact_shape(path: &str) -> Result<(usize, usize), String> {
    let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut max_node = 0u64;
    let mut max_t = 0u64;
    let mut any = false;
    for_each_record(f, |line, [src, dst, time]| {
        let num = |tok: &str, what: &str| {
            tok.parse::<u64>().map_err(|e| IoError::Parse {
                line,
                msg: format!("bad {what}: {e}"),
            })
        };
        max_node = max_node.max(num(src, "src")?).max(num(dst, "dst")?);
        max_t = max_t.max(num(time, "timestamp")?);
        any = true;
        Ok(())
    })
    .map_err(|e| format!("{path}: {e}"))?;
    if !any {
        return Err(format!("{path}: no edges to ingest"));
    }
    Ok((max_node as usize + 1, max_t as usize + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_buckets_is_a_bad_value_not_a_panic() {
        for bad in ["0", "x"] {
            let argv = ["--edges", "unread.edges", "--buckets", bad].map(String::from);
            let args = Args::parse(&argv).unwrap();
            let err = Input::read(&args, false).unwrap_err();
            assert_eq!(err.exit_code(), 2, "--buckets {bad}: {err}");
            assert_eq!(err.to_string(), format!("--buckets: cannot parse `{bad}`"));
        }
    }
}
