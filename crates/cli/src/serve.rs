//! `tgx-cli serve`: run the resident simulation daemon over a root
//! directory of `tgx-cli train` run directories.
//!
//! ```text
//! tgx-cli serve --root DIR [--addr HOST:PORT | --socket PATH]
//!               [--cache N] [--max-cost C] [--quiet]
//! ```
//!
//! Each protocol `run_id` names one run directory under `--root`. Models
//! are loaded lazily on first request and kept resident in an LRU cache
//! (`--cache` entries), so repeated requests skip the load entirely;
//! admission control bounds concurrent in-flight work by plan cost
//! (`--max-cost`), refusing the excess with typed `busy` errors (client
//! exit code 6).
//!
//! The daemon prints exactly one startup line —
//! `tgx-serve listening on <endpoint>` — so scripts can bind an
//! ephemeral port (`--addr 127.0.0.1:0`) and parse the real one.
//! `SIGTERM`/`SIGINT` (or a protocol `shutdown` request) drain it: new
//! work is refused, in-flight requests finish, exit code 0.

use crate::args::Args;
use crate::errors::CliError;
use crate::rundir::RunDir;
use std::io::Write;
use std::path::PathBuf;
use tg_serve::{Loader, ServeConfig, Server};

/// A protocol run-id must be a plain directory name — anything
/// path-like is refused before it touches the filesystem.
fn safe_run_id(id: &str) -> Result<(), String> {
    if id.is_empty() {
        return Err("empty run_id".into());
    }
    if id == "." || id == ".." || id.contains('/') || id.contains('\\') {
        return Err(format!("run_id `{id}` is not a plain directory name"));
    }
    Ok(())
}

/// Build the cache-miss loader: `run_id` → run directory under `root` →
/// [`RunDir::load_run`].
fn run_loader(root: PathBuf) -> Loader {
    Box::new(move |run_id: &str| {
        safe_run_id(run_id)?;
        RunDir::open(root.join(run_id)).load_run()
    })
}

/// Run the subcommand.
pub fn run(args: &Args) -> Result<(), CliError> {
    let root: String = args.require("root")?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:0").to_string();
    let socket = args.get("socket").map(PathBuf::from);
    let mut cfg = ServeConfig::default();
    cfg.cache_capacity = args.get_parsed("cache", cfg.cache_capacity)?;
    cfg.max_cost = args.get_parsed("max-cost", cfg.max_cost)?;
    let quiet = args.flag("quiet");
    args.reject_unused()?;
    if cfg.cache_capacity == 0 {
        return Err(CliError::Usage("--cache must be >= 1".into()));
    }

    let loader = run_loader(PathBuf::from(root));
    tg_serve::signal::install_handlers();
    let server = match &socket {
        Some(path) => Server::bind_unix(path, loader, cfg)
            .map_err(|e| CliError::Other(format!("bind {}: {e}", path.display())))?,
        None => Server::bind_tcp(&addr, loader, cfg)
            .map_err(|e| CliError::Other(format!("bind {addr}: {e}")))?,
    };

    // The one line scripts depend on: parseable even with --quiet, and
    // flushed so a parent polling our stdout sees it immediately.
    println!("tgx-serve listening on {}", server.endpoint());
    let _ = std::io::stdout().flush();

    let report = server
        .run()
        .map_err(|e| CliError::Other(format!("serve loop failed: {e}")))?;
    if !quiet {
        println!(
            "tgx-serve drained: {} request(s) served",
            report.requests_served
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rundir::{RunManifest, RUN_VERSION};

    /// A model whose parameter reads `1e999` never becomes a resident
    /// model: the daemon's loader answers the cache miss with the typed
    /// load error.
    #[test]
    fn the_loader_refuses_a_non_finite_parameter() {
        let root = std::env::temp_dir().join(format!("tgx_serve_nonfinite_{}", std::process::id()));
        let dir = RunDir::create(root.join("run")).unwrap();
        let cfg = tgae::TgaeConfig::tiny();
        tgae::persist::save(&tgae::Tgae::new(4, 3, cfg.clone()), dir.model_path()).unwrap();
        let ring: String = (0..3u32)
            .flat_map(|t| (0..4u32).map(move |u| format!("{u} {} {t}\n", (u + 1) % 4)))
            .collect();
        std::fs::write(dir.observed_path(), ring).unwrap();
        dir.save_manifest(&RunManifest {
            version: RUN_VERSION,
            n_nodes: 4,
            n_timestamps: 3,
            n_edges: 12,
            seed: 5,
            config: cfg,
            source: "ring".into(),
            store: None,
        })
        .unwrap();
        let loader = run_loader(root.clone());
        assert!(loader("run").is_ok());

        let json = std::fs::read_to_string(dir.model_path()).unwrap();
        let start = json.find(r#""data":["#).unwrap() + r#""data":["#.len();
        let end = start + json[start..].find([',', ']']).unwrap();
        let poisoned = format!("{}1e999{}", &json[..start], &json[end..]);
        std::fs::write(dir.model_path(), poisoned).unwrap();
        let Err(err) = loader("run") else {
            panic!("the daemon loaded a model with an infinite parameter")
        };
        assert!(err.contains("checkpoint value error"), "{err}");
        assert!(err.contains("NaN or an infinity"), "{err}");
        std::fs::remove_dir_all(&root).ok();
    }
}
