//! `tgx-cli simulate`: the ROADMAP's **multi-process shard driver**.
//!
//! ```text
//! driver:  tgx-cli simulate --run-dir DIR [--shards K] [--master M]
//!                           [--stats] [--in-process] [--verify]
//!                           [--retries N] [--shard-timeout SECS]
//!                           [--backoff-base-ms MS] [--degrade partial]
//!                           [--keep-shards] [--quiet]
//! worker:  tgx-cli simulate --run-dir DIR --shard-index I [--stats] [--quiet]
//! ```
//!
//! The driver loads the trained run, partitions the simulation plan into
//! `K` timestamp-range [`ShardSpec`]s, serialises them to `shards.json`,
//! and **fork/execs one worker process per shard** (`current_exe
//! simulate --shard-index i`). Each worker independently loads the
//! checkpointed model + observed graph, re-derives the plan from its
//! spec, and streams its shard to `shard_<i>.edges`. The driver then
//! collects the shard files with [`merge_edge_lists`] — and, because
//! per-unit RNG streams depend only on `(master, t, chunk)`, the merged
//! file is **byte-identical** to what a single in-process run would
//! stream (`--verify` asserts exactly that).
//!
//! `--stats` additionally runs a `StatsSink` pass per worker and merges
//! the shard statistics with the public `GenerationStats::merge`.
//!
//! # Supervision, retry, and graceful degradation
//!
//! Workers are **supervised**, not just awaited: the driver polls every
//! child and, with `--shard-timeout SECS`, kills any worker that
//! overruns its wall-clock budget (a hung worker would otherwise stall
//! the whole run forever). After each round the driver **excludes**
//! every shard whose worker exited cleanly and — up to `--retries N`
//! extra rounds — re-spawns only the failed ones, sleeping an
//! exponential backoff (`--backoff-base-ms`, with deterministic jitter
//! derived from the master seed) between rounds so a struggling host
//! gets breathing room. Because each shard's output is a pure function
//! of `(model, observed, ShardSpec)`, re-running a shard produces the
//! identical file, so a retried run merges byte-identically to an
//! undisturbed one (`--verify` still holds).
//!
//! Every attempt (exit code, kill signal, timeout flag, wall time) plus
//! the per-round failure history, backoff schedule, and the final
//! quarantined set are recorded in `retry_log.json` — the bookkeeping a
//! cross-machine scheduler needs to resume a half-finished simulation.
//!
//! When shards are still failing after the budget, the default is to
//! exit 4 leaving the run dir intact. `--degrade partial` instead
//! merges the shards that *did* complete, records the gap in a
//! machine-readable `partial_manifest.json`, and exits 5: downstream
//! tooling gets a usable (if incomplete) edge list and an exact recipe
//! for re-running the missing shards.
//!
//! For testing the failure paths end to end, the worker entry is a
//! `tg-faults` fault point (`worker.entry`, arg `shard:<i>`): seeded
//! `TG_FAULTS` specs can abort, fail, or hang selected workers
//! deterministically — see `crates/faults`.
//!
//! [`ShardSpec`]: tgae::ShardSpec
//! [`merge_edge_lists`]: tg_graph::io::merge_edge_lists

use crate::args::Args;
use crate::errors::CliError;
use crate::rundir::RunDir;
use serde::Serialize;
use std::process::Command;
use std::time::{Duration, Instant};
use tg_graph::io::{merge_edge_lists, StreamingWriterSink};
use tg_graph::sink::{GenerationStats, StatsSink};
use tgae::{generate_shard_with_sink, ShardSpec, SharedRun};

/// One worker process's outcome, as observed by the supervisor.
#[derive(Serialize)]
struct AttemptRecord {
    /// Shard the worker was running.
    shard: u32,
    /// Spawn round (0 = first attempt).
    round: usize,
    /// Whether the worker exited 0.
    success: bool,
    /// Exit code, when the worker exited on its own.
    exit_code: Option<i32>,
    /// Signal that terminated the worker (Unix), e.g. 9 after a
    /// timeout kill.
    signal: Option<i32>,
    /// Whether the supervisor killed this worker for overrunning
    /// `--shard-timeout`.
    timed_out: bool,
    /// Wall-clock from spawn to reap, in milliseconds.
    wall_ms: u64,
}

/// On-disk record of a supervised driver run (`retry_log.json`): every
/// attempt, which shards failed in each round, the backoff schedule,
/// and which shards were quarantined (still failing) at the end.
#[derive(Serialize)]
struct RetryLog {
    /// Extra rounds the driver was allowed (`--retries`).
    retries: usize,
    /// Shard ids that failed, per spawn round (round 0 = first attempt).
    failed_per_round: Vec<Vec<u32>>,
    /// Shards that completed and were excluded from later rounds.
    excluded: Vec<u32>,
    /// Whether the run ultimately produced every shard.
    completed: bool,
    /// Every worker attempt, in (round, shard) order.
    attempts: Vec<AttemptRecord>,
    /// Backoff actually slept before each retry round, in milliseconds.
    backoff_ms: Vec<u64>,
    /// Shards still failing when the retry budget ran out.
    quarantined: Vec<u32>,
}

/// `partial_manifest.json`: what a `--degrade partial` run delivered
/// and what is missing — everything needed to re-run the gap.
#[derive(Serialize)]
struct PartialManifest {
    /// Shards the plan called for.
    n_shards: usize,
    /// Shards whose output made it into the merge, in shard order.
    completed: Vec<u32>,
    /// Quarantined shards absent from the merge.
    missing: Vec<u32>,
    /// Master seed (re-running a missing shard with it reproduces the
    /// exact bytes the full merge would have contained).
    master: u64,
    /// Retry budget that was exhausted.
    retries: usize,
}

/// Supervision knobs shared by every spawn round.
struct Supervisor {
    stats: bool,
    quiet: bool,
    /// Export the trace handshake (`TG_TRACE`/`TG_TRACE_PARENT`) to every
    /// worker so its spans stitch under this driver's supervision spans.
    trace: bool,
    /// Kill a worker after this wall-clock budget (None = wait forever).
    timeout: Option<Duration>,
    /// Base of the exponential backoff between retry rounds (0 = none).
    backoff_base_ms: u64,
    /// Master seed — also salts the deterministic backoff jitter.
    master: u64,
}

/// Run the subcommand (dispatches to driver or worker mode).
pub fn run(args: &Args) -> Result<(), CliError> {
    let run_dir = RunDir::open(args.require::<String>("run-dir").map_err(CliError::Usage)?);
    match args.get("shard-index") {
        Some(idx) => {
            let idx: u32 = idx
                .parse()
                .map_err(|_| CliError::Usage("--shard-index: bad value".into()))?;
            let stats = args.flag("stats");
            let quiet = args.flag("quiet");
            args.reject_unused().map_err(CliError::Usage)?;
            worker(&run_dir, idx, stats, quiet).map_err(CliError::from)
        }
        None => driver(args, &run_dir),
    }
}

/// Worker mode: execute one shard of the serialised manifest.
fn worker(run_dir: &RunDir, shard_index: u32, stats: bool, quiet: bool) -> Result<(), String> {
    // Deterministic failure injection for the supervision/retry paths:
    // a seeded TG_FAULTS spec can fail, abort, or hang (sleep) selected
    // shard workers right here, before any real work starts.
    tg_faults::fail_point!(WORKER_ENTRY, format!("shard:{shard_index}"));
    // A traced driver exports TG_TRACE/TG_TRACE_PARENT on our
    // environment; adopt its supervision span as this process's root
    // parent so the merged view stitches driver and workers together.
    let traced = crate::obs::install_worker_trace(shard_index);
    let result = {
        let _span = match tg_obs::trace::env_parent() {
            Some(parent) => tg_obs::trace::span_with_parent("worker.shard", parent),
            None => tg_obs::trace::span("worker.shard"),
        };
        worker_inner(run_dir, shard_index, stats, quiet)
    };
    if traced {
        crate::obs::flush_trace(&format!("shard {shard_index}"));
    }
    result
}

/// The worker's actual shard execution, separated so its root span is
/// closed before the trace buffers flush.
fn worker_inner(
    run_dir: &RunDir,
    shard_index: u32,
    stats: bool,
    quiet: bool,
) -> Result<(), String> {
    let run = run_dir.load_run()?;
    let specs = load_shard_manifest(run_dir)?;
    let spec = specs
        .iter()
        .find(|s| s.shard == shard_index)
        .ok_or_else(|| {
            format!(
                "shard index {shard_index} not in shards.json ({} shards)",
                specs.len()
            )
        })?;
    run_shard(&run, run_dir, spec, stats, quiet)
}

/// Stream one shard's edges (and optionally stats) to its run-dir files
/// through an already-loaded run — shared by worker processes and the
/// driver's `--in-process` path (which would otherwise reload the model
/// and observed graph once per shard).
fn run_shard(
    run: &SharedRun,
    run_dir: &RunDir,
    spec: &ShardSpec,
    stats: bool,
    quiet: bool,
) -> Result<(), String> {
    let out = run_dir.shard_edges_path(spec.shard);
    let (model, observed) = (run.model(), run.observed());
    let sink = StreamingWriterSink::create(&out).map_err(|e| format!("create shard file: {e}"))?;
    let n = generate_shard_with_sink(model, observed, spec, sink)
        .map_err(|e| format!("stream shard: {e}"))?;
    if stats {
        let sink = StatsSink::new(observed.n_timestamps());
        let s = generate_shard_with_sink(model, observed, spec, sink);
        let json = serde_json::to_string(&s).map_err(|e| e.to_string())?;
        tg_graph::io::atomic_write_bytes(run_dir.shard_stats_path(spec.shard), json.as_bytes())
            .map_err(|e| format!("write shard stats: {e}"))?;
    }
    if !quiet {
        eprintln!(
            "  shard {}: t in [{}, {}), {n} edges -> {}",
            spec.shard,
            spec.t_begin,
            spec.t_end,
            out.display()
        );
    }
    Ok(())
}

/// Remove a stale bookkeeping file from an earlier driver run. A missing
/// file is the normal case; any *other* failure (permissions, I/O) must
/// abort — otherwise this run would finish with a leftover log that
/// describes a different run.
fn remove_stale(path: &std::path::Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot remove stale {}: {e}", path.display())),
    }
}

/// Driver mode: plan, serialise the manifest, supervise workers, merge.
fn driver(args: &Args, run_dir: &RunDir) -> Result<(), CliError> {
    let n_shards: usize = args.get_parsed("shards", 2).map_err(CliError::Usage)?;
    let retries: usize = args.get_parsed("retries", 0).map_err(CliError::Usage)?;
    let timeout_secs: f64 = args
        .get_parsed("shard-timeout", 0.0)
        .map_err(CliError::Usage)?;
    let backoff_base_ms: u64 = args
        .get_parsed("backoff-base-ms", 100)
        .map_err(CliError::Usage)?;
    let degrade_partial = match args.get("degrade") {
        None | Some("fail") => false,
        Some("partial") => true,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "--degrade: expected `fail` or `partial`, got `{other}`"
            )))
        }
    };
    if !timeout_secs.is_finite() || timeout_secs < 0.0 {
        return Err(CliError::Usage(
            "--shard-timeout: must be a non-negative number of seconds".into(),
        ));
    }
    let stats = args.flag("stats");
    let verify = args.flag("verify");
    let in_process = args.flag("in-process");
    let keep_shards = args.flag("keep-shards");
    let quiet = args.flag("quiet");
    let trace = args.flag("trace");
    let run = run_dir.load_run()?;
    let master: u64 = args
        .get_parsed("master", run.seed_policy().simulation_master(0))
        .map_err(CliError::Usage)?;
    args.reject_unused().map_err(CliError::Usage)?;
    if n_shards == 0 {
        return Err(CliError::Other(
            "invalid configuration: n_shards must be > 0".into(),
        ));
    }
    if in_process && (retries > 0 || degrade_partial || timeout_secs > 0.0) {
        // the supervision machinery is process-level (kill/re-spawn
        // workers); silently ignoring the flags would promise
        // resilience the in-process path can't give
        return Err(CliError::Usage(
            "--retries/--shard-timeout/--degrade are not supported with --in-process".into(),
        ));
    }
    // A retry log / partial manifest describes exactly one driver run; a
    // stale one from an earlier failed run must not outlive the run it
    // documents.
    remove_stale(&run_dir.retry_log_path())?;
    remove_stale(&run_dir.partial_manifest_path())?;

    // --trace: install this process's span sink and open the run's root
    // span. Worker spans land in their own trace_shard_<i>.jsonl via the
    // env handshake; everything merges to trace.json at the end. The
    // guard is held in an Option so it provably closes before the flush.
    let tracing = trace && crate::obs::install_driver_trace(run_dir);
    let mut root_span = Some(tg_obs::trace::span("simulate.driver"));

    // 1. Plan and serialise the shard manifest.
    let specs = run.plan(master).shards(n_shards);
    let manifest_json = serde_json::to_string_pretty(&specs).map_err(|e| e.to_string())?;
    tg_graph::io::atomic_write_bytes(run_dir.shard_manifest_path(), manifest_json.as_bytes())
        .map_err(|e| format!("write shards.json: {e}"))?;
    if !quiet {
        eprintln!(
            "plan: master seed {master}, {} edges over {} shards -> {}",
            run.observed().n_edges(),
            specs.len(),
            run_dir.shard_manifest_path().display()
        );
    }

    // 2. One worker per shard: supervised processes by default (the
    //    point of the driver), in-process execution with --in-process
    //    (useful under debuggers and on exotic platforms). Failed or
    //    hung workers are killed/retried in shard-only rounds up to
    //    --retries times; completed shards are excluded from re-runs
    //    (their files are already final — shard output is a pure
    //    function of the spec).
    let quarantined: Vec<u32> = if in_process {
        for spec in &specs {
            run_shard(&run, run_dir, spec, stats, quiet)?;
        }
        Vec::new()
    } else {
        let sup = Supervisor {
            stats,
            quiet,
            trace: tracing,
            timeout: (timeout_secs > 0.0).then(|| Duration::from_secs_f64(timeout_secs)),
            backoff_base_ms,
            master,
        };
        let log = run_workers_with_retries(run_dir, &specs, retries, &sup)?;
        if !log.completed && !degrade_partial {
            if tracing {
                // The failed run's trace is the most interesting one:
                // flush and merge what the completed workers wrote
                // before bailing out.
                drop(root_span.take());
                crate::obs::flush_trace("driver");
                crate::obs::merge_run_traces(run_dir, &log.excluded, quiet);
            }
            return Err(CliError::WorkerFailure(format!(
                "shard worker(s) {:?} still failing after {retries} retr{} (see {})",
                log.quarantined,
                if retries == 1 { "y" } else { "ies" },
                run_dir.retry_log_path().display()
            )));
        }
        log.quarantined
    };
    let completed_specs: Vec<&ShardSpec> = specs
        .iter()
        .filter(|s| !quarantined.contains(&s.shard))
        .collect();

    // 3. Collect the completed shard files in shard order (all of them,
    //    unless a --degrade partial run is carrying missing shards).
    let shard_paths: Vec<std::path::PathBuf> = completed_specs
        .iter()
        .map(|s| run_dir.shard_edges_path(s.shard))
        .collect();
    let merged = run_dir.simulated_path();
    let bytes =
        merge_edge_lists(&shard_paths, &merged).map_err(|e| format!("merge shard files: {e}"))?;
    if !quiet {
        eprintln!(
            "merged {} shard files ({bytes} bytes) -> {}",
            completed_specs.len(),
            merged.display()
        );
    }
    if stats {
        let mut acc = GenerationStats::default();
        for spec in &completed_specs {
            let text = std::fs::read_to_string(run_dir.shard_stats_path(spec.shard))
                .map_err(|e| format!("read shard stats: {e}"))?;
            let s: GenerationStats = serde_json::from_str(&text).map_err(|e| e.to_string())?;
            acc.merge(&s);
        }
        let json = serde_json::to_string_pretty(&acc).map_err(|e| e.to_string())?;
        tg_graph::io::atomic_write_bytes(run_dir.simulated_stats_path(), json.as_bytes())
            .map_err(|e| format!("write merged stats: {e}"))?;
    }

    // 4. --verify: the bit-identical-merge invariant, asserted at the
    //    byte level against an in-process single-run stream. A partial
    //    merge can't pass it by construction, so it is skipped (loudly)
    //    when shards are missing.
    if verify && quarantined.is_empty() {
        let reference = run_dir.root().join("reference.edges");
        run.simulate_seeded(
            master,
            StreamingWriterSink::create(&reference)
                .map_err(|e| format!("create reference file: {e}"))?,
        )
        .map_err(|e| e.to_string())?
        .map_err(|e| format!("stream reference: {e}"))?;
        let a = std::fs::read(&merged).map_err(|e| e.to_string())?;
        let b = std::fs::read(&reference).map_err(|e| e.to_string())?;
        if a != b {
            return Err(CliError::Other(format!(
                "VERIFY FAILED: merged {}-process output differs from in-process generation \
                 ({} vs {} bytes)",
                completed_specs.len(),
                a.len(),
                b.len()
            )));
        }
        if stats {
            let text = std::fs::read_to_string(run_dir.simulated_stats_path())
                .map_err(|e| e.to_string())?;
            let merged_stats: GenerationStats =
                serde_json::from_str(&text).map_err(|e| e.to_string())?;
            let reference_stats = run
                .simulate_seeded(master, StatsSink::new(run.observed().n_timestamps()))
                .map_err(|e| e.to_string())?;
            if merged_stats != reference_stats {
                return Err(CliError::Other(
                    "VERIFY FAILED: merged shard stats differ from in-process stats".into(),
                ));
            }
        }
        std::fs::remove_file(&reference).ok();
        if !quiet {
            eprintln!(
                "verified: {}-process sharded output is byte-identical to in-process generation",
                completed_specs.len()
            );
        }
    } else if verify && !quiet {
        eprintln!(
            "skipping --verify: {} shard(s) missing, a partial merge cannot match \
             the in-process reference",
            quarantined.len()
        );
    }
    if !keep_shards {
        for p in &shard_paths {
            std::fs::remove_file(p).ok();
        }
        for spec in &completed_specs {
            std::fs::remove_file(run_dir.shard_stats_path(spec.shard)).ok();
        }
    }
    if tracing {
        // Close the root span, flush this process's buffers, and merge
        // driver + worker span files into the Chrome trace_event view.
        // (In-process runs have no worker files; the merger skips
        // whatever is absent.)
        drop(root_span.take());
        crate::obs::flush_trace("driver");
        let traced_shards: Vec<u32> = if in_process {
            Vec::new()
        } else {
            completed_specs.iter().map(|s| s.shard).collect()
        };
        crate::obs::merge_run_traces(run_dir, &traced_shards, quiet);
    }
    drop(root_span);
    println!("{}", merged.display());

    // 5. A partial run delivers its merge but still reports the gap:
    //    partial_manifest.json for machines, exit code 5 for schedulers.
    if !quarantined.is_empty() {
        let pm = PartialManifest {
            n_shards: specs.len(),
            completed: completed_specs.iter().map(|s| s.shard).collect(),
            missing: quarantined.clone(),
            master,
            retries,
        };
        let json = serde_json::to_string_pretty(&pm).map_err(|e| e.to_string())?;
        tg_graph::io::atomic_write_bytes(run_dir.partial_manifest_path(), json.as_bytes())
            .map_err(|e| format!("write partial_manifest.json: {e}"))?;
        return Err(CliError::Partial(format!(
            "degraded completion: {} of {} shards merged, missing {:?} (see {})",
            completed_specs.len(),
            specs.len(),
            quarantined,
            run_dir.partial_manifest_path().display()
        )));
    }
    Ok(())
}

/// Drive supervised worker rounds until every shard has completed or the
/// retry budget is exhausted. Round 0 spawns every shard; each later
/// round spawns **only the shards that failed the previous one**
/// (everything else is excluded — its output file is already final),
/// after an exponential, deterministically-jittered backoff. A
/// `retry_log.json` documenting the rounds is written whenever any
/// failure occurred.
fn run_workers_with_retries(
    run_dir: &RunDir,
    specs: &[ShardSpec],
    retries: usize,
    sup: &Supervisor,
) -> Result<RetryLog, String> {
    let mut log = RetryLog {
        retries,
        failed_per_round: Vec::new(),
        excluded: Vec::new(),
        completed: false,
        attempts: Vec::new(),
        backoff_ms: Vec::new(),
        quarantined: Vec::new(),
    };
    let mut pending: Vec<ShardSpec> = specs.to_vec();
    for round in 0..=retries {
        let records = supervise_round(run_dir, &pending, round, sup)?;
        let failed: Vec<u32> = records
            .iter()
            .filter(|r| !r.success)
            .map(|r| r.shard)
            .collect();
        log.excluded.extend(
            pending
                .iter()
                .map(|s| s.shard)
                .filter(|s| !failed.contains(s)),
        );
        log.attempts.extend(records);
        if failed.is_empty() {
            log.completed = true;
            break;
        }
        log.failed_per_round.push(failed.clone());
        pending.retain(|s| failed.contains(&s.shard));
        if round < retries {
            // Exponential backoff before the retry round, jittered
            // deterministically from the master seed so two drivers on
            // the same host don't re-spawn in lockstep — yet a given
            // run's schedule is reproducible.
            let base = sup.backoff_base_ms;
            let backoff = if base == 0 {
                0
            } else {
                let exp = base.saturating_mul(1u64 << round.min(16));
                exp + splitmix64(sup.master ^ (round as u64 + 1)) % base
            };
            log.backoff_ms.push(backoff);
            if !sup.quiet {
                eprintln!(
                    "  retrying {} failed shard(s) {:?} after {backoff} ms (round {}/{}; \
                     {} excluded as complete)",
                    failed.len(),
                    failed,
                    round + 1,
                    retries,
                    log.excluded.len()
                );
            }
            if backoff > 0 {
                std::thread::sleep(Duration::from_millis(backoff));
            }
        } else {
            log.quarantined = failed;
        }
    }
    log.excluded.sort_unstable();
    log.quarantined.sort_unstable();
    if !log.failed_per_round.is_empty() || !log.completed {
        let json = serde_json::to_string_pretty(&log).map_err(|e| e.to_string())?;
        tg_graph::io::atomic_write_bytes(run_dir.retry_log_path(), json.as_bytes())
            .map_err(|e| format!("write retry_log.json: {e}"))?;
    }
    Ok(log)
}

/// Spawn one worker per pending shard and supervise them to completion:
/// poll every child, kill any that overruns the wall-clock budget, and
/// record each outcome (exit code, signal, timeout, wall time). Letting
/// siblings finish — rather than failing fast — means partial output
/// files are never silently half-written by an aborted round.
/// Infrastructure errors (failing to spawn or wait at all) abort instead
/// of counting as shard failures.
fn supervise_round(
    run_dir: &RunDir,
    specs: &[ShardSpec],
    round: usize,
    sup: &Supervisor,
) -> Result<Vec<AttemptRecord>, String> {
    struct Live {
        shard: u32,
        child: std::process::Child,
        start: Instant,
        timed_out: bool,
        /// Supervision span covering spawn-to-reap; the worker adopts
        /// its id as root parent via `TG_TRACE_PARENT`. Inert unless the
        /// driver installed a trace sink.
        _span: tg_obs::trace::SpanGuard,
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut live = Vec::new();
    for spec in specs {
        let mut cmd = Command::new(&exe);
        cmd.arg("simulate")
            .arg("--run-dir")
            .arg(run_dir.root())
            .arg("--shard-index")
            .arg(spec.shard.to_string());
        if sup.stats {
            cmd.arg("--stats");
        }
        if sup.quiet {
            cmd.arg("--quiet");
        }
        let span = tg_obs::trace::span("shard.supervise");
        if sup.trace {
            cmd.env(
                tg_obs::trace::ENV_TRACE_FILE,
                run_dir.trace_shard_path(spec.shard),
            );
            if let Some(id) = span.id() {
                cmd.env(tg_obs::trace::ENV_TRACE_PARENT, id.to_string());
            }
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn worker for shard {}: {e}", spec.shard))?;
        #[expect(
            clippy::disallowed_methods,
            reason = "supervisor retry/timeout bookkeeping; never reaches seeded output"
        )]
        live.push(Live {
            shard: spec.shard,
            child,
            start: Instant::now(),
            timed_out: false,
            _span: span,
        });
    }
    let mut records = Vec::new();
    while !live.is_empty() {
        let mut i = 0;
        while i < live.len() {
            let w = &mut live[i];
            match w.child.try_wait() {
                Ok(Some(status)) => {
                    let rec = AttemptRecord {
                        shard: w.shard,
                        round,
                        success: status.success() && !w.timed_out,
                        exit_code: status.code(),
                        signal: unix_signal(&status),
                        timed_out: w.timed_out,
                        wall_ms: w.start.elapsed().as_millis() as u64,
                    };
                    if !rec.success && !sup.quiet {
                        eprintln!(
                            "  shard {} worker {} ({} ms)",
                            rec.shard,
                            if rec.timed_out {
                                format!("killed after --shard-timeout (signal {:?})", rec.signal)
                            } else {
                                format!("exited with {status}")
                            },
                            rec.wall_ms
                        );
                    }
                    records.push(rec);
                    live.swap_remove(i);
                }
                Ok(None) => {
                    if let Some(budget) = sup.timeout {
                        if !w.timed_out && w.start.elapsed() >= budget {
                            w.timed_out = true;
                            // SIGKILL; the outcome is reaped by the next
                            // try_wait sweep like any other exit
                            let _ = w.child.kill();
                        }
                    }
                    i += 1;
                }
                Err(e) => return Err(format!("wait for shard {}: {e}", w.shard)),
            }
        }
        if !live.is_empty() {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    records.sort_by_key(|r| r.shard);
    Ok(records)
}

/// The signal that terminated a worker, on Unix; `None` elsewhere or on
/// a normal exit.
fn unix_signal(status: &std::process::ExitStatus) -> Option<i32> {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        status.signal()
    }
    #[cfg(not(unix))]
    {
        let _ = status;
        None
    }
}

/// SplitMix64 — the backoff jitter's deterministic mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Read back `shards.json`.
fn load_shard_manifest(run_dir: &RunDir) -> Result<Vec<ShardSpec>, String> {
    let text = std::fs::read_to_string(run_dir.shard_manifest_path()).map_err(|e| {
        format!("missing shards.json (driver writes it before spawning workers): {e}")
    })?;
    serde_json::from_str(&text).map_err(|e| format!("corrupt shards.json: {e}"))
}
