//! `suite`: the standing benchmark of the TGAE pipeline.
//!
//! Five seeded workloads at the paper's Table II sizes, each timed stage
//! by stage with the default model configuration at pool width 1, plus a
//! traced mode that attributes the same stages to the crate that spends
//! the time. `README.md` next to this file has the workload and metric
//! tables, how the metrics interact, and the measured baseline.
//!
//! ```text
//! suite [run] --workload W [--seed 7] [--seconds 20] [--trace 0|1] [--result FILE]
//! suite [run] --all [--sets 2] [--trace 0|1] [--out FILE]
//! suite trace --workload W            (same as --trace 1)
//! suite compare BASE.json NEW.json
//! ```
//!
//! A single-workload run prints every metric with its unit and ends its
//! standard output with one JSON line,
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`; it exits
//! non-zero if any operation or output check failed.

mod layers;
mod report;
mod serve;
mod spans;
mod stats;
mod workloads;

use report::{Document, Env, WorkloadResult, END_TO_END, SCHEMA};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use tg_bench::TrackingAllocator;
use tg_tensor::parallel::ThreadPin;
use workloads::{Spec, NOMINAL_SECONDS, SPECS};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Pool split factor every workload is pinned to (see the README's
/// "threads: 1" section for why).
const THREADS: usize = 1;

/// Why the suite stopped.
#[derive(Debug)]
pub enum SuiteError {
    /// Bad command line.
    Usage(String),
    /// Anything else: I/O, a refused comparison, a failed run.
    Failed(String),
}

impl Display for SuiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuiteError::Usage(m) => write!(f, "usage error: {m}"),
            SuiteError::Failed(m) => write!(f, "{m}"),
        }
    }
}

/// Result alias of the suite.
pub type Res<T> = Result<T, SuiteError>;

/// `map_err` adapter: any displayable error becomes a [`SuiteError`]
/// saying what was being done.
pub fn fail<E: Display>(what: impl Display) -> impl FnOnce(E) -> SuiteError {
    move |e| SuiteError::Failed(format!("{what}: {e}"))
}

/// Parsed command line: a subcommand, `--key value` options, bare flags
/// and positional arguments.
struct Args {
    command: String,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Res<Args> {
        let mut args = Args {
            command: "run".to_string(),
            options: BTreeMap::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut raw = raw.peekable();
        if let Some(first) = raw.peek() {
            if !first.starts_with("--") {
                args.command = raw.next().unwrap_or_default();
            }
        }
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some("all") => args.flags.push("all".to_string()),
                Some(key) => {
                    let value = raw
                        .next()
                        .ok_or_else(|| SuiteError::Usage(format!("--{key} needs a value")))?;
                    args.options.insert(key.to_string(), value);
                }
                None => args.positional.push(arg),
            }
        }
        Ok(args)
    }

    fn number(&self, key: &str, default: u64) -> Res<u64> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| SuiteError::Usage(format!("--{key} {v}: not a whole number"))),
        }
    }
}

/// The directory the binary was built into (`target/release`, or the
/// driver's `CARGO_TARGET_DIR`): scratch files and results live under
/// it, inside the checkout and out of git's sight.
fn build_dir() -> Res<PathBuf> {
    let exe = std::env::current_exe().map_err(fail("locate the suite binary"))?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| SuiteError::Failed("the suite binary has no parent directory".into()))
}

/// A scratch directory removed again when the run ends, however it ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Res<Scratch> {
        let dir = build_dir()?.join(format!("suite-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(fail(dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn out_dir() -> Res<PathBuf> {
    let dir = build_dir()?.join("suite-out");
    std::fs::create_dir_all(&dir).map_err(fail(dir.display()))?;
    Ok(dir)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn environment(seed: u64, seconds: u64) -> Env {
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    Env {
        threads: THREADS,
        nproc: nproc(),
        active_microkernel: tg_tensor::matrix::active_microkernel().name().to_string(),
        faults_compiled: tg_faults::is_compiled(),
        commit,
        seed,
        seconds,
    }
}

/// The last line of a single-workload run's standard output.
#[derive(Serialize)]
struct ContractLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, ContractMetric>,
}

#[derive(Serialize)]
struct ContractMetric {
    value: f64,
    unit: String,
}

fn print_metrics(title: &str, metrics: &BTreeMap<String, stats::Stat>, order: &[&str]) {
    println!("{title}");
    println!(
        "  {:<40} {:>14} {:<8} {:>14} {:>14} {:>14} {:>6}",
        "metric", "value", "unit", "p10", "p50", "p90", "n"
    );
    for name in order {
        if let Some(s) = metrics.get(*name) {
            println!(
                "  {:<40} {:>14.6} {:<8} {:>14.6} {:>14.6} {:>14.6} {:>6}",
                name, s.value, s.unit, s.p10, s.p50, s.p90, s.n
            );
        }
    }
}

/// Run one workload in this process and print it; `Ok(true)` when every
/// operation and output check passed.
fn run_one(spec: &'static Spec, seed: u64, seconds: u64, traced: bool, args: &Args) -> Res<bool> {
    if tg_faults::is_compiled() {
        return Err(SuiteError::Failed(
            "fault injection is compiled in: build the suite without the faults feature".into(),
        ));
    }
    let env = environment(seed, seconds);
    println!(
        "suite {} (schema {SCHEMA}) seed {seed} seconds {seconds} trace {} | threads {} nproc {} microkernel {} faults_compiled {} commit {}",
        spec.name,
        u8::from(traced),
        env.threads,
        env.nproc,
        env.active_microkernel,
        env.faults_compiled,
        env.commit
    );
    println!("why: {}", spec.why);
    if !spec.in_benchmark_json {
        println!("not listed in BENCHMARK.json: run by `--all` and by hand, not by the driver");
    }
    let _pin = ThreadPin::new(THREADS);
    let scratch = Scratch::create()?;
    let result = if traced {
        layers::run_traced(spec, seed, seconds, &scratch.0, &out_dir()?)?
    } else {
        workloads::run_end_to_end(spec, seed, seconds, &scratch.0)?
    };
    drop(scratch);

    let (title, metrics, order): (&str, _, Vec<&str>) = if traced {
        let order = layers::PER_LAYER.iter().map(|(n, _)| *n).collect();
        ("per-layer metrics (traced run)", &result.per_layer, order)
    } else {
        let order = END_TO_END.iter().map(|d| d.name).collect();
        (
            "end-to-end metrics (untraced run)",
            &result.end_to_end,
            order,
        )
    };
    print_metrics(title, metrics, &order);
    let complete = order.iter().all(|name| metrics.contains_key(*name));
    println!(
        "ops attempted {} failed {} failed_share {} | fingerprint {} | wall {:.2} s",
        result.ops_attempted,
        result.ops_failed,
        result.failed_share,
        result.fingerprint,
        result.wall_s
    );

    if let Some(path) = args.options.get("result") {
        let doc = Document {
            schema: SCHEMA,
            env,
            sets: vec![BTreeMap::from([(spec.name.to_string(), result.clone())])],
        };
        doc.save(Path::new(path))?;
    }
    let correct = result.ops_failed == 0 && complete;
    let line = ContractLine {
        correct,
        attempted: result.ops_attempted,
        failed: result.ops_failed,
        metrics: metrics
            .iter()
            .map(|(name, s)| {
                let metric = ContractMetric {
                    value: s.value,
                    unit: s.unit.clone(),
                };
                (name.clone(), metric)
            })
            .collect(),
    };
    println!(
        "{}",
        serde_json::to_string(&line).map_err(fail("serialise the result line"))?
    );
    Ok(correct)
}

/// Run every workload, each in a child process of its own (tracing and
/// the metrics registry are one-way process switches, and peak heap is
/// per process), `sets` times over, alternating the order.
fn run_all(seed: u64, seconds: u64, traced: bool, sets: u64, args: &Args) -> Res<bool> {
    let exe = std::env::current_exe().map_err(fail("locate the suite binary"))?;
    let out = out_dir()?;
    let mut doc = Document {
        schema: SCHEMA,
        env: environment(seed, seconds),
        sets: Vec::new(),
    };
    let mut all_correct = true;
    for set in 0..sets {
        let mut order: Vec<&Spec> = SPECS.iter().collect();
        if set % 2 == 1 {
            order.reverse();
        }
        let mut results: BTreeMap<String, WorkloadResult> = BTreeMap::new();
        for spec in order {
            let result_path = out.join(format!("{}.set{set}.json", spec.name));
            let status = Command::new(&exe)
                .args(["--workload", spec.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--result")
                .arg(&result_path)
                .status()
                .map_err(fail("spawn a workload process"))?;
            all_correct &= status.success();
            if let Ok(child_doc) = Document::load(&result_path) {
                for set in child_doc.sets {
                    results.extend(set);
                }
            }
            let _ = std::fs::remove_file(&result_path);
        }
        doc.sets.push(results);
    }
    let default_out = out.join("suite.json");
    let out_path = args.options.get("out").map_or(default_out, PathBuf::from);
    doc.save(&out_path)?;
    println!("wrote {}", out_path.display());
    if let [first, second, ..] = &doc.sets[..] {
        // the agreement check: two sets of one commit must agree within
        // the suite's own bounds
        let side = |set: &BTreeMap<String, WorkloadResult>| Document {
            schema: SCHEMA,
            env: doc.env.clone(),
            sets: vec![set.clone()],
        };
        let (table, bad) = report::compare(&side(first), &side(second))?;
        println!("self-comparison, set 0 as base against set 1:\n{table}");
        all_correct &= bad == 0;
    }
    Ok(all_correct)
}

fn dispatch(args: &Args) -> Res<bool> {
    match args.command.as_str() {
        "run" | "trace" => {
            let seed = args.number("seed", 7)?;
            let seconds = args.number("seconds", NOMINAL_SECONDS)?.max(1);
            let traced = args.command == "trace" || args.number("trace", 0)? != 0;
            if args.flags.iter().any(|f| f == "all") {
                return run_all(seed, seconds, traced, args.number("sets", 1)?.max(1), args);
            }
            let name = args
                .options
                .get("workload")
                .ok_or_else(|| SuiteError::Usage("--workload NAME or --all".into()))?;
            let spec = workloads::spec(name).ok_or_else(|| {
                let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                SuiteError::Usage(format!("unknown workload `{name}` (have {known:?})"))
            })?;
            run_one(spec, seed, seconds, traced, args)
        }
        "compare" => {
            let [base, new] = &args.positional[..] else {
                return Err(SuiteError::Usage("compare BASE.json NEW.json".into()));
            };
            let base = Document::load(Path::new(base))?;
            let new = Document::load(Path::new(new))?;
            let (table, bad) = report::compare(&base, &new)?;
            print!("{table}");
            Ok(bad == 0)
        }
        layers::PAR_CHILD => layers::par_child(&args.options),
        other => Err(SuiteError::Usage(format!(
            "unknown command `{other}` (run, trace, compare)"
        ))),
    }
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| dispatch(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("suite: {e}");
            ExitCode::from(2)
        }
    }
}
