//! Shared observed-graph input resolution for `train` and `ingest`.
//!
//! Both subcommands accept the same `--preset …` / `--edges …` inputs;
//! keeping the flag semantics (scale/data-seed/n-timestamps overrides,
//! bucket parsing, error wording) in one place means the two CLIs cannot
//! drift apart.

use crate::args::Args;
use crate::errors::CliError;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::num::NonZeroUsize;
use tg_graph::io::load_edge_list;
use tg_graph::TemporalGraph;

/// Generate a synthetic preset observed graph: `--preset NAME`
/// honoring `--scale`, `--data-seed`, and `--n-timestamps`. A `--scale`
/// that does not parse, or is not finite and greater than 0, is a usage
/// error (a scale the preset would clamp to its smallest graph).
pub fn load_preset(args: &Args, name: &str) -> Result<(TemporalGraph, String), CliError> {
    let preset = tg_datasets::presets::by_name(name)
        .ok_or_else(|| format!("unknown preset `{name}` (try: dblp, email, msg, …)"))?;
    let scale: f64 = args.get_parsed("scale", 1.0).map_err(CliError::Usage)?;
    if !(scale.is_finite() && scale > 0.0) {
        let msg = format!("--scale must be finite and greater than 0, got `{scale}`");
        return Err(CliError::Usage(msg));
    }
    let data_seed: u64 = args.get_parsed("data-seed", 7)?;
    let mut cfg = preset.config.scaled(scale);
    if let Some(t) = args.get("n-timestamps") {
        cfg.timestamps = t.parse().map_err(|_| "--n-timestamps: bad value")?;
    }
    let g = tg_datasets::generate(&cfg, &mut SmallRng::seed_from_u64(data_seed));
    Ok((g, format!("preset:{name}@{scale}x_seed{data_seed}")))
}

/// Load a `u v t` text edge list with id/timestamp compaction:
/// `--edges FILE` honoring `--buckets`.
pub fn load_text_edges(args: &Args, path: &str) -> Result<(TemporalGraph, String), String> {
    let buckets: Option<NonZeroUsize> = args
        .get("buckets")
        .map(|b| b.parse())
        .transpose()
        .map_err(|_| "--buckets: bad value")?;
    let g = load_edge_list(path, buckets).map_err(|e| format!("load {path}: {e}"))?;
    Ok((g, format!("file:{path}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_buckets_is_a_bad_value_not_a_panic() {
        for bad in ["0", "x"] {
            let args = Args::parse(&["--buckets".to_string(), bad.to_string()]).unwrap();
            let err = load_text_edges(&args, "unread.edges").unwrap_err();
            assert_eq!(err, "--buckets: bad value", "--buckets {bad}");
        }
    }
}
