//! `tgx-cli client`: talk to a running `tgx-cli serve` daemon.
//!
//! ```text
//! tgx-cli client simulate (--addr HOST:PORT | --socket PATH)
//!                 --run-id ID [--seed S] [--out FILE] [--stats] [--quiet]
//! tgx-cli client eval     (--addr ... | --socket ...) --run-id ID [--seed S]
//! tgx-cli client status   (--addr ... | --socket ...)
//! tgx-cli client metrics  (--addr ... | --socket ...)
//! tgx-cli client ping     (--addr ... | --socket ...)
//! tgx-cli client shutdown (--addr ... | --socket ...)
//! ```
//!
//! `status` prints the daemon's introspection report (resident models,
//! in-flight cost vs budget, cache and per-run counters); `metrics`
//! dumps the raw Prometheus exposition of the daemon's metrics registry
//! to stdout, ready for a scraper or `grep`.
//!
//! `simulate` streams the server's edge list into `--out` (default
//! `simulated.edges`; `-` for stdout) — byte-identical to what
//! `tgx-cli simulate --master S` writes locally for the same
//! run. The file is committed only once the whole answer is in, so a
//! failed request leaves an earlier `--out` as it was. With `--stats` the
//! daemon streams nothing and `--out` (default `simulated.stats.json`,
//! the name `tgx-cli simulate --stats` uses) gets the JSON series that
//! command writes. A `busy` rejection
//! from admission control exits with code 6 so schedulers can back off
//! and retry.

use crate::args::Args;
use crate::errors::CliError;
use std::io::Write;
use tg_serve::{Client, ClientError};

fn map_client_err(e: ClientError) -> CliError {
    match e {
        ClientError::Busy(m) => CliError::Busy(m),
        other => CliError::Other(other.to_string()),
    }
}

/// Read `--addr`/`--socket` and check the command line, which the
/// operation has read by now, before connecting.
fn connect(args: &Args) -> Result<Client, CliError> {
    let (addr, socket) = (args.get("addr"), args.get("socket"));
    args.reject_unused()?;
    match (addr, socket) {
        (Some(addr), None) => Client::connect_tcp(addr).map_err(map_client_err),
        (None, Some(path)) => {
            Client::connect_unix(std::path::Path::new(path)).map_err(map_client_err)
        }
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--addr and --socket are mutually exclusive".into(),
        )),
        (None, None) => Err(CliError::Usage("--addr or --socket is required".into())),
    }
}

/// Run the subcommand.
pub fn run(args: &Args) -> Result<(), CliError> {
    let [operation] = args.positional() else {
        let msg = "client takes one operation: simulate|eval|status|metrics|ping|shutdown";
        return Err(CliError::Usage(msg.into()));
    };
    match operation.as_str() {
        "simulate" => simulate(args),
        "eval" => eval(args),
        "status" => status(args),
        "metrics" => {
            let text = connect(args)?.metrics().map_err(map_client_err)?;
            print!("{text}");
            Ok(())
        }
        "ping" => {
            connect(args)?.ping().map_err(map_client_err)?;
            println!("pong");
            Ok(())
        }
        "shutdown" => {
            connect(args)?.shutdown().map_err(map_client_err)?;
            println!("server is draining");
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown client operation `{other}`"
        ))),
    }
}

fn simulate(args: &Args) -> Result<(), CliError> {
    let run_id: String = args.require("run-id")?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let stats = args.flag("stats");
    let default_out = if stats {
        "simulated.stats.json"
    } else {
        "simulated.edges"
    };
    let out = args.get("out").unwrap_or(default_out).to_string();
    let quiet = args.flag("quiet");
    let mut client = connect(args)?;

    if stats {
        let outcome = client
            .simulate_stats(&run_id, seed)
            .map_err(map_client_err)?;
        let json = serde_json::to_string(&outcome.stats)
            .map_err(|e| CliError::Other(format!("encode stats: {e}")))?;
        if out == "-" {
            println!("{json}");
        } else {
            tg_graph::io::atomic_write_bytes(&out, format!("{json}\n").as_bytes())
                .map_err(|e| CliError::Other(format!("write {out}: {e}")))?;
        }
        if !quiet {
            eprintln!(
                "simulated {} edges (stats only, cache {}, cost {})",
                outcome.stats.n_edges(),
                outcome.cache,
                outcome.cost.cost
            );
        }
        return Ok(());
    }

    let outcome = if out == "-" {
        let stdout = std::io::stdout();
        let mut w = std::io::BufWriter::new(stdout.lock());
        let outcome = client
            .simulate(&run_id, seed, &mut w)
            .map_err(map_client_err)?;
        w.flush()
            .map_err(|e| CliError::Other(format!("write stdout: {e}")))?;
        outcome
    } else {
        tg_graph::io::commit_atomic(std::path::Path::new(&out), |file| {
            let mut w = std::io::BufWriter::new(file);
            let outcome = client
                .simulate(&run_id, seed, &mut w)
                .map_err(map_client_err)?;
            w.flush()
                .map_err(|e| CliError::Other(format!("write {out}: {e}")))?;
            Ok::<_, CliError>(outcome)
        })?
    };
    if !quiet {
        eprintln!(
            "simulated {} edges -> {} (cache {}, cost {})",
            outcome.n_edges, out, outcome.cache, outcome.cost.cost
        );
    }
    Ok(())
}

fn status(args: &Args) -> Result<(), CliError> {
    let mut client = connect(args)?;
    let report = client.status().map_err(map_client_err)?;
    println!(
        "server: {} ({} served, {} active)",
        if report.draining { "draining" } else { "up" },
        report.requests_served,
        report.active_requests
    );
    println!(
        "admission: {}/{} cost in flight ({} requests, {} rejected)",
        report.inflight_cost, report.max_cost, report.inflight_requests, report.admission_rejected
    );
    println!(
        "cache: {}/{} resident ({} hits, {} misses, {} evictions, {} saturations)",
        report.resident.len(),
        report.cache_capacity,
        report.cache.hits,
        report.cache.misses,
        report.cache.evictions,
        report.cache.saturations
    );
    for model in &report.resident {
        println!(
            "  {} ({})",
            model.run_id,
            if model.pinned { "in use" } else { "idle" }
        );
    }
    if !report.runs.is_empty() {
        println!("{:<24} {:>10} {:>14}", "run", "requests", "bytes");
        for run in &report.runs {
            println!("{:<24} {:>10} {:>14}", run.run_id, run.requests, run.bytes);
        }
    }
    Ok(())
}

fn eval(args: &Args) -> Result<(), CliError> {
    let run_id: String = args.require("run-id")?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let mut client = connect(args)?;
    let scores = client.eval(&run_id, seed).map_err(map_client_err)?;
    crate::eval::print_scores(&scores);
    Ok(())
}
