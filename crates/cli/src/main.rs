//! `tgx-cli` — the command-line front end of the TGAE simulation
//! pipeline: ingest → train → simulate → eval, plus a resident daemon.
//!
//! ```text
//! tgx-cli train    --run-dir DIR --preset dblp --scale 0.05 [--epochs N]
//! tgx-cli simulate --run-dir DIR [--master M] [--stats]
//! tgx-cli eval     --run-dir DIR [--generated FILE]
//! ```
//!
//! `train` fits a model through the `tgae::Session` API (progress
//! observer, optional resumable checkpoints) and persists a **run
//! directory**; `simulate` loads it as a `SharedRun` and streams one
//! synthetic graph to `simulated.edges` in this process, the engine
//! running its work units on the thread pool; `eval` scores any
//! generated edge list with the paper's Eq. 10 harness; `serve` keeps
//! runs resident for `client` requests.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::exit)]
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

mod args;
mod client;
mod errors;
mod eval;
mod ingest;
mod input;
mod obs;
mod rundir;
mod serve;
mod simulate;
mod train;

use args::Args;
use errors::CliError;

/// Byte-accounting allocator from `tg-obs`: it is what makes the heap
/// fields of `train --telemetry` real numbers instead of zeros.
/// Allocation itself is delegated to `System` untouched.
#[global_allocator]
static ALLOC: tg_obs::memtrack::TrackingAllocator = tg_obs::memtrack::TrackingAllocator;

const USAGE: &str = "\
tgx-cli — command-line driver for the TGAE temporal-graph simulator

USAGE:
  tgx-cli ingest   --out FILE ((--edges FILE [--buckets T] [--exact]
                                [--n-nodes N] [--n-timestamps T]
                                | --preset NAME [--scale F] [--data-seed S])
                               [--block-edges N]
                               | --salvage DAMAGED_STORE)
                   [--verify] [--quiet]
  tgx-cli train    --run-dir DIR (--preset NAME [--scale F] [--data-seed S]
                                  | --edges FILE [--buckets T]
                                  | --store FILE)
                   [--epochs N] [--batch-centers N] [--seed S] [--full]
                   [--checkpoint-every N] [--checkpoint-keep K] [--resume]
                   [--telemetry] [--quiet]
  tgx-cli simulate --run-dir DIR [--master M] [--stats] [--trace] [--quiet]
  tgx-cli eval     --run-dir DIR [--generated FILE]
  tgx-cli eval     --observed FILE --generated FILE --n-nodes N --n-timestamps T
  tgx-cli serve    --root DIR [--addr HOST:PORT | --socket PATH]
                   [--cache N] [--max-cost C] [--quiet]
  tgx-cli client   (simulate --run-id ID [--seed S] [--out FILE] [--stats]
                             [--quiet]
                    | eval --run-id ID [--seed S]
                    | status | metrics | ping | shutdown)
                   (--addr HOST:PORT | --socket PATH)

Each command line is checked whole before anything runs: an unknown flag,
a stray operand, or a flag value that does not parse or is refused exits 2
before anything is written.

OBSERVABILITY:
  train --telemetry   per-epoch loss/wall/heap -> DIR/telemetry.jsonl
  simulate --trace    spans -> DIR/trace.json (chrome://tracing)
  simulate --stats    per-timestamp edge volume and the Table III statistics
                      of every accumulated snapshot, from the same pass
                      -> DIR/simulated.stats.json (client simulate --stats:
                      the daemon's series -> --out, default
                      simulated.stats.json)
  client status       daemon residency, admission, and cache report
  client metrics      Prometheus text exposition of the daemon's registry

The smoke pipeline (also run in CI):
  tgx-cli ingest   --out /tmp/obs.tgs --preset dblp --scale 0.04 --verify
  tgx-cli train    --run-dir /tmp/run --store /tmp/obs.tgs --epochs 8
  tgx-cli simulate --run-dir /tmp/run --stats
  tgx-cli eval     --run-dir /tmp/run
";

/// `--help`: the usage text, then the exit-code table.
fn usage() -> String {
    format!("{USAGE}{}", errors::exit_codes_help())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("tgx-cli: {e}");
            e.exit_code()
        }
    };
    std::process::exit(code);
}

fn run(argv: &[String]) -> Result<(), CliError> {
    let Some(cmd) = argv.first() else {
        eprint!("{}", usage());
        return Err(CliError::Usage("missing subcommand".into()));
    };
    if cmd == "--help" || cmd == "-h" || cmd == "help" {
        print!("{}", usage());
        return Ok(());
    }
    let args = Args::parse(&argv[1..])?;
    match cmd.as_str() {
        "ingest" => ingest::run(&args),
        "train" => train::run(&args),
        "simulate" => simulate::run(&args),
        "eval" => eval::run(&args),
        "serve" => serve::run(&args),
        "client" => client::run(&args),
        other => {
            eprint!("{}", usage());
            Err(CliError::Usage(format!("unknown subcommand `{other}`")))
        }
    }
}
