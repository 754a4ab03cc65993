//! `tgx-cli eval`: score a generated edge list against the observed graph
//! (Eq. 10 — mean/median relative error of the seven Table III
//! statistics over accumulated snapshots).
//!
//! ```text
//! tgx-cli eval --run-dir DIR [--generated FILE]
//! tgx-cli eval --observed FILE --generated FILE --n-nodes N --n-timestamps T
//! ```
//!
//! With `--run-dir` the observed graph and shape come from the run
//! manifest, and `--generated` defaults to `simulate`'s
//! `simulated.edges`. Raw mode takes two dense edge-list files plus the
//! shape explicitly.

use crate::args::Args;
use crate::errors::CliError;
use crate::rundir::RunDir;
use std::path::PathBuf;
use tg_graph::io::load_edge_list_exact;
use tg_metrics::MetricScore;

/// Run the subcommand. The command line is checked before the run or
/// any edge list is loaded.
pub fn run(args: &Args) -> Result<(), CliError> {
    let scores: Vec<MetricScore> = match args.get("run-dir") {
        Some(dir) => {
            let run_dir = RunDir::open(dir.to_string());
            let generated_path: Option<PathBuf> = args.get_opt("generated")?;
            args.reject_unused()?;
            let run = run_dir.load_run()?;
            let generated_path = generated_path.unwrap_or_else(|| run_dir.simulated_path());
            let observed = run.observed();
            let generated =
                load_edge_list_exact(&generated_path, observed.n_nodes(), observed.n_timestamps())
                    .map_err(|e| format!("load {}: {e}", generated_path.display()))?;
            run.evaluate(&generated).map_err(|e| e.to_string())?
        }
        None => {
            let observed_path: String = args.require("observed")?;
            let generated_path: String = args.require("generated")?;
            let n_nodes: usize = args.require("n-nodes")?;
            let n_timestamps: usize = args.require("n-timestamps")?;
            args.reject_unused()?;
            let observed = load_edge_list_exact(&observed_path, n_nodes, n_timestamps)
                .map_err(|e| format!("load {observed_path}: {e}"))?;
            let generated = load_edge_list_exact(&generated_path, n_nodes, n_timestamps)
                .map_err(|e| format!("load {generated_path}: {e}"))?;
            tg_metrics::evaluate(&observed, &generated)
        }
    };
    print_scores(&scores);
    Ok(())
}

/// The Eq. 10 score table, one row per metric — the same text whether
/// the scores came from a file (`eval`) or a daemon (`client eval`).
pub fn print_scores(scores: &[MetricScore]) {
    println!("{:<16} {:>10} {:>10}", "metric", "f_avg", "f_med");
    for score in scores {
        println!(
            "{:<16} {:>10.4} {:>10.4}",
            score.kind.name(),
            score.avg,
            score.med
        );
    }
}
