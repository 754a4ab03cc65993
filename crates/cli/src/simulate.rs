//! `tgx-cli simulate`: generate a trained run's synthetic graph.
//!
//! ```text
//! tgx-cli simulate --run-dir DIR [--master M] [--stats] [--trace] [--quiet]
//! ```
//!
//! One in-process call: [`SharedRun::simulate_seeded`] streams every
//! generation unit, in plan order, through a [`StreamingWriterSink`] into
//! `simulated.edges`, committed with [`commit_atomic`] — a failed run
//! leaves an earlier `simulated.edges` as it was. The engine runs the
//! units on the thread pool, and its bytes are the same at any width.
//! `--stats` feeds the same units to a [`StatsSink`] as well and writes
//! its series — per-timestamp edge volume and the Table III statistics of
//! every accumulated snapshot — to `simulated.stats.json`;
//! `--trace` records this process's spans to `trace.jsonl` and renders
//! them as `trace.json` (Chrome `trace_event`).
//!
//! [`SharedRun::simulate_seeded`]: tgae::SharedRun::simulate_seeded

use crate::args::Args;
use crate::errors::CliError;
use crate::rundir::RunDir;
use tg_graph::io::{atomic_write_bytes, commit_atomic, StreamingWriterSink};
use tg_metrics::StatsSink;

/// Run the subcommand.
pub fn run(args: &Args) -> Result<(), CliError> {
    let run_dir = RunDir::open(args.require::<String>("run-dir")?);
    let master: Option<u64> = args.get_opt("master")?;
    let stats = args.flag("stats");
    let trace = args.flag("trace");
    let quiet = args.flag("quiet");
    args.reject_unused()?;

    let tracing = trace && crate::obs::install_trace(&run_dir);
    let result = {
        let _span = tg_obs::trace::span("simulate");
        simulate(&run_dir, master, stats, quiet)
    };
    if tracing {
        crate::obs::flush_trace(&run_dir.trace_spans_path());
        crate::obs::render_trace(&run_dir, quiet);
    }
    result
}

/// Stream the run's synthetic graph to `simulated.edges` (and, with
/// `stats`, its statistics to `simulated.stats.json`).
fn simulate(
    run_dir: &RunDir,
    master: Option<u64>,
    stats: bool,
    quiet: bool,
) -> Result<(), CliError> {
    let run = run_dir.load_run()?;
    let master = master.unwrap_or_else(|| run.seed_policy().simulation_master(0));
    let out = run_dir.simulated_path();
    let observed = run.observed();
    let stats = stats.then(|| StatsSink::new(observed.n_nodes(), observed.n_timestamps()));
    let (n_edges, series) = commit_atomic(&out, |f| {
        let (written, series) = run
            .simulate_seeded(master, (StreamingWriterSink::new(f), stats))
            .map_err(|e| CliError::Other(e.to_string()))?;
        let n_edges =
            written.map_err(|e| CliError::Other(format!("stream {}: {e}", out.display())))?;
        Ok::<_, CliError>((n_edges, series))
    })?;
    if let Some(series) = series {
        let json = serde_json::to_string_pretty(&series).map_err(|e| e.to_string())?;
        let path = run_dir.simulated_stats_path();
        atomic_write_bytes(&path, json.as_bytes())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if !quiet {
        eprintln!("master seed {master}: {n_edges} edges -> {}", out.display());
    }
    println!("{}", out.display());
    Ok(())
}
