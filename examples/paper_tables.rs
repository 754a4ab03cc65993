//! Reproduces the paper's tables and figures from [`tgx::paper`]: prints
//! each paper-style table to stdout and writes its CSV under `results/`.
//!
//! Usage: `cargo run --release --example paper_tables -- <table> [flags]`
//!
//! | table | reproduces | flags (default) |
//! |-------|------------|-----------------|
//! | `table2` | Table II, dataset statistics | `--scale` (per dataset), `--seed 42` |
//! | `table4_5` | Tables IV & V, f_med / f_avg over the seven Table III metrics | `--datasets DBLP,MATH,UBUNTU`, `--methods` (all eleven), `--scale`, `--epochs 60`, `--seed 42`, `--budget-mb 1024` |
//! | `table6` | Table VI, temporal-motif MMD | `--datasets` (all seven), `--methods`, `--scale`, `--epochs 60`, `--seed 42`, `--budget-mb 1024`, `--sigma 1`, `--chunks 4`, `--delta` (a tenth of T) |
//! | `table7` | Table VII, the ablation variants | `--datasets MSG,BITCOIN-A,BITCOIN-O`, `--scale`, `--epochs 60`, `--seed 42`, `--sigma 1`, `--chunks 4` |
//! | `fig5` | Fig. 5, metric curves over timestamps | `--dataset DBLP`, `--methods` (the learned nine), `--scale`, `--epochs 60`, `--seed 42` |
//! | `fig6` | Fig. 6, time and peak heap over the scalability grid | `--sweep nodes\|timestamps\|density\|all` (all), `--points 5`, `--methods` (the learned nine), `--epochs 30`, `--seed 42`, `--budget-mb 4096` |
//!
//! `--methods` and `--datasets` take comma-separated names. A method whose
//! tracked peak heap goes over `--budget-mb` is an OOM cell, as in the
//! paper. An unknown table, flag or name, a flag without a value, a value
//! that does not parse, a zero `--epochs` / `--chunks`, or a `--scale`
//! that is not finite and greater than 0 exits 2 with a message before
//! anything runs.

use std::error::Error;
use std::fmt::Display;
use std::str::FromStr;
use tg_obs::memtrack::{fmt_bytes, TrackingAllocator};
use tgx::metrics::{MetricKind, MetricSeries};
use tgx::paper::{self, MotifMmd, RunOutcome, Setup, FIG5_METRICS};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

type Printer = fn(&Flags) -> Result<(), Box<dyn Error>>;

/// Each table, the flags it takes and its printer.
const TABLES: [(&str, &str, Printer); 6] = [
    ("table2", "scale seed", table2),
    (
        "table4_5",
        "datasets methods scale epochs seed budget-mb",
        table4_5,
    ),
    (
        "table6",
        "datasets methods scale epochs seed budget-mb sigma chunks delta",
        table6,
    ),
    ("table7", "datasets scale epochs seed sigma chunks", table7),
    ("fig5", "dataset methods scale epochs seed", fig5),
    ("fig6", "sweep points methods epochs seed budget-mb", fig6),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&argv) {
        eprintln!("paper_tables: {e}\nusage: paper_tables <table> [--flag value]...");
        std::process::exit(2);
    }
}

/// Every error it returns is a bad argument, found before anything runs.
fn run(argv: &[String]) -> Result<(), Box<dyn Error>> {
    let names = TABLES.map(|(name, ..)| name).join(", ");
    let (table, rest) = argv
        .split_first()
        .ok_or(format!("no table named (one of: {names})"))?;
    let (_, known, print) = TABLES
        .iter()
        .find(|(name, ..)| name == table)
        .ok_or(format!("unknown table `{table}` (known: {names})"))?;
    print(&Flags::parse(rest, known)?)
}

fn table2(flags: &Flags) -> Result<(), Box<dyn Error>> {
    let header = concat!(
        "Network,#Nodes (paper),#Edges (paper),#Timestamps (paper),",
        "#Nodes (run),#Edges (run),#Timestamps (run),scale"
    );
    let mut rows = vec![split(header)];
    for r in paper::table2(flags.scale()?, flags.get("seed", 42)?) {
        let ((n, m, t), (n_run, m_run, t_run)) = (r.preset.paper_stats(), r.generated);
        let (name, scale) = (r.preset.name, r.scale);
        rows.push(split(&format!(
            "{name},{n},{m},{t},{n_run},{m_run},{t_run},{scale}"
        )));
    }
    println!("Table II — dataset statistics (paper vs this run)\n");
    print_and_write(&rows, "table2.csv");
    println!("wrote results/table2.csv");
    Ok(())
}

fn table4_5(flags: &Flags) -> Result<(), Box<dyn Error>> {
    let datasets = flags.list("datasets", "DBLP,MATH,UBUNTU");
    let (scale, methods) = (flags.scale()?, flags.str("methods"));
    let scores = paper::table4_5(&datasets, scale, methods, &flags.setup(60, 1024)?)?;
    let mut med = vec![columns(&["Dataset", "Metric"], &scores.methods)];
    let mut avg = med.clone();
    for row in &scores.rows {
        log_cells(&row.dataset, &row.cells);
        for (i, kind) in MetricKind::ALL.iter().enumerate() {
            let label = [row.dataset.clone(), kind.name().to_string()];
            med.push(cells(&label, &row.cells, |_, s| sci(s[i].med)));
            avg.push(cells(&label, &row.cells, |_, s| sci(s[i].avg)));
        }
    }
    println!("\nTable IV — median score f_med (smaller is better)\n");
    print_and_write(&med, "table4_median.csv");
    println!("\nTable V — average score f_avg (smaller is better)\n");
    print_and_write(&avg, "table5_average.csv");
    println!("wrote results/table4_median.csv, results/table5_average.csv");
    Ok(())
}

fn table6(flags: &Flags) -> Result<(), Box<dyn Error>> {
    let datasets = flags.list("datasets", "DBLP,MSG,BITCOIN-A,BITCOIN-O,EMAIL,MATH,UBUNTU");
    let (scale, mmd) = (flags.scale()?, flags.motif_mmd()?);
    let setup = flags.setup(60, 1024)?;
    let mmds = paper::table6(&datasets, scale, flags.str("methods"), &mmd, &setup)?;
    let mut rows = vec![columns(&["Dataset"], &mmds.methods)];
    for row in &mmds.rows {
        log_cells(&row.dataset, &row.cells);
        let label = [row.dataset.clone()];
        rows.push(cells(&label, &row.cells, |_, &m| sci(m)));
    }
    let sigma = mmd.sigma;
    println!("\nTable VI — temporal-motif MMD (smaller is better, sigma={sigma})\n");
    print_and_write(&rows, "table6_motif_mmd.csv");
    println!("wrote results/table6_motif_mmd.csv");
    Ok(())
}

fn table7(flags: &Flags) -> Result<(), Box<dyn Error>> {
    let datasets = flags.list("datasets", "MSG,BITCOIN-A,BITCOIN-O");
    let (scale, mmd) = (flags.scale()?, flags.motif_mmd()?);
    let ablation = paper::table7(&datasets, scale, &mmd, &flags.setup(60, usize::MAX)?)?;
    let mut rows = vec![columns(&["Dataset", "Metric"], &ablation.methods)];
    for row in &ablation.rows {
        log_cells(&row.dataset, &row.cells);
        let label = |metric: &str| [row.dataset.clone(), metric.to_string()];
        rows.push(cells(&label("Degree"), &row.cells, |_, a| sci(a.degree)));
        rows.push(cells(&label("Motif"), &row.cells, |_, a| sci(a.motif)));
    }
    println!("\nTable VII — ablation study (smaller is better)\n");
    print_and_write(&rows, "table7_ablation.csv");
    println!("wrote results/table7_ablation.csv");
    Ok(())
}

fn fig5(flags: &Flags) -> Result<(), Box<dyn Error>> {
    let dataset = flags.str("dataset").unwrap_or("DBLP");
    let methods = Some(flags.str("methods").unwrap_or(paper::FIG5_METHODS));
    let setup = flags.setup(60, usize::MAX)?;
    let fig = paper::fig5(dataset, flags.scale()?, methods, &setup)?;
    log_cells(dataset, &fig.cells);
    let mut csv = String::from("metric,method,timestamp,value,log_value\n");
    let mut push_series = |method: &str, series: &[MetricSeries]| {
        for s in series {
            for (t, v) in s.values.iter().enumerate() {
                let log_v = if *v > 0.0 { v.ln() } else { 0.0 };
                csv += &format!("{},{method},{t},{v},{log_v}\n", s.kind.name());
            }
        }
    };
    push_series("Origin", &fig.origin);
    for cell in &fig.cells {
        if let Some(curves) = &cell.output {
            push_series(&cell.method, &curves.series);
        }
    }
    let methods: Vec<&str> = fig.cells.iter().map(|c| c.method.as_str()).collect();
    let mut rows = vec![columns(&["Metric"], &methods)];
    for (i, kind) in FIG5_METRICS.iter().enumerate() {
        let label = [kind.name().to_string()];
        rows.push(cells(&label, &fig.cells, |_, c| {
            format!("{:.3}", c.error[i])
        }));
    }
    println!("\nFigure 5 — mean |log(gen) − log(origin)| curve-tracking error on {dataset}");
    println!("(smaller = the method's curve hugs the original graph's curve)\n");
    print_and_write(&rows, "fig5_tracking_error.csv");
    write_results("fig5_timeseries.csv", &csv);
    println!("wrote results/fig5_timeseries.csv, results/fig5_tracking_error.csv");
    Ok(())
}

fn fig6(flags: &Flags) -> Result<(), Box<dyn Error>> {
    let which = flags.str("sweep").unwrap_or("all");
    let sweeps = paper::fig6_sweeps(which, flags.get("points", 5)?)?;
    let methods = Some(flags.str("methods").unwrap_or(paper::FIG6_METHODS));
    let setup = flags.setup(30, 4096)?;
    let mut csv =
        String::from("sweep,label,nodes,timestamps,density,method,seconds,peak_bytes,oom\n");
    for (sweep, points) in &sweeps {
        println!("\nFigure 6 — {sweep} sweep (time / peak memory)\n");
        let fig = paper::fig6(points, methods, &setup)?;
        let mut time = vec![columns(&["Point"], &fig.methods)];
        let mut mem = time.clone();
        for (p, row) in points.iter().zip(&fig.rows) {
            let label = std::slice::from_ref(&row.dataset);
            log_cells(&row.dataset, &row.cells);
            for c in &row.cells {
                let (secs, peak, oom) = (c.wall.as_secs_f64(), c.peak_bytes, c.is_oom());
                let point = format!("{},{},{},{}", row.dataset, p.nodes, p.timestamps, p.density);
                csv += &format!("{sweep},{point},{},{secs:.4},{peak},{oom}\n", c.method);
            }
            time.push(cells(label, &row.cells, |c, _| {
                format!("{:.2}s", c.wall.as_secs_f64())
            }));
            mem.push(cells(label, &row.cells, |c, _| fmt_bytes(c.peak_bytes)));
        }
        println!("time:\n{}", render(&time));
        println!("peak heap:\n{}", render(&mem));
    }
    write_results("fig6_scalability.csv", &csv);
    println!("wrote results/fig6_scalability.csv");
    Ok(())
}

/// The label columns followed by a column per method.
fn columns(labels: &[&str], methods: &[&str]) -> Vec<String> {
    split(&[labels, methods].concat().join(","))
}

/// The cells of a CSV line; no cell of these tables holds a comma.
fn split(csv_line: &str) -> Vec<String> {
    csv_line.split(',').map(String::from).collect()
}

/// `label` followed by a cell per run: `OOM`, or `cell` of the run and its
/// output.
fn cells<T>(
    label: &[String],
    runs: &[RunOutcome<T>],
    cell: impl Fn(&RunOutcome<T>, &T) -> String,
) -> Vec<String> {
    let outputs = runs
        .iter()
        .map(|r| r.output.as_ref().map_or("OOM".into(), |out| cell(r, out)));
    label.iter().cloned().chain(outputs).collect()
}

fn log_cells<T>(label: &str, runs: &[RunOutcome<T>]) {
    for r in runs {
        let oom = if r.is_oom() { " (OOM)" } else { "" };
        let (wall, peak) = (r.wall, fmt_bytes(r.peak_bytes));
        eprintln!("[{label}] {:<8} {wall:>8.2?} peak={peak}{oom}", r.method);
    }
}

/// A score the way the paper prints a table cell, e.g. `2.41E-3`.
fn sci(x: f64) -> String {
    if !x.is_finite() {
        return "inf".to_string();
    }
    if x == 0.0 {
        return "0.00E+0".to_string();
    }
    let exp = x.abs().log10().floor() as i32;
    let mant = x / 10f64.powi(exp);
    format!("{mant:.2}E{exp:+}")
}

/// `rows` (the first is the header) as a column-aligned markdown table.
fn render(rows: &[Vec<String>]) -> String {
    let mut widths = vec![0; rows.first().map_or(0, Vec::len)];
    for row in rows {
        for (w, c) in widths.iter_mut().zip(row) {
            *w = (*w).max(c.len());
        }
    }
    let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        for (c, w) in row.iter().zip(&widths) {
            out += &format!("| {c:<w$} ");
        }
        out += "|\n";
        if i == 0 {
            out += &format!("|-{}-|\n", rule.join("-|-"));
        }
    }
    out
}

fn to_csv(rows: &[Vec<String>]) -> String {
    rows.iter().map(|r| r.join(",") + "\n").collect()
}

/// Print `rows` as a table and write them as CSV to `results/<name>`.
fn print_and_write(rows: &[Vec<String>], name: &str) {
    println!("{}", render(rows));
    write_results(name, &to_csv(rows));
}

fn write_results(name: &str, content: &str) {
    std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(format!("results/{name}"), content))
        .unwrap_or_else(|e| panic!("writing results/{name}: {e}"));
}

/// `--key value` pairs; the last of a repeated key wins.
struct Flags(Vec<(String, String)>);

impl Flags {
    /// Every key must be one of `known` (space-separated) and have a value.
    fn parse(argv: &[String], known: &str) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut args = argv.iter();
        while let Some(arg) = args.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or(format!("unexpected argument `{arg}`"))?;
            if !known.split(' ').any(|k| k == key) {
                let known = known.replace(' ', ", --");
                return Err(format!("unknown flag `--{key}` (known here: --{known})"));
            }
            let value = args
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or(format!("flag `--{key}` needs a value"))?;
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn str(&self, key: &str) -> Option<&str> {
        let pair = self.0.iter().rev().find(|(k, _)| k == key);
        pair.map(|(_, v)| v.as_str())
    }

    fn opt<T: FromStr<Err: Display>>(&self, key: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|e| format!("flag `--{key}`: cannot read `{v}`: {e}"))
        };
        self.str(key).map(parse).transpose()
    }

    fn get<T: FromStr<Err: Display>>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// `--scale`, which must be finite and greater than 0: the presets
    /// would clamp any other value to their smallest graph.
    fn scale(&self) -> Result<Option<f64>, String> {
        match self.opt::<f64>("scale")? {
            Some(s) if !(s.is_finite() && s > 0.0) => Err(format!(
                "flag `--scale` must be finite and greater than 0, got `{s}`"
            )),
            scale => Ok(scale),
        }
    }

    /// A comma-separated list, each name trimmed.
    fn list<'a>(&'a self, key: &str, default: &'a str) -> Vec<&'a str> {
        let list = self.str(key).unwrap_or(default);
        list.split(',').map(str::trim).collect()
    }

    fn setup(&self, epochs: usize, budget_mb: usize) -> Result<Setup, String> {
        let budget_mb: usize = self.get("budget-mb", budget_mb)?;
        let (seed, epochs) = (self.get("seed", 42)?, self.count("epochs", epochs)?);
        let budget_bytes = budget_mb.saturating_mul(1 << 20);
        Ok(Setup {
            seed,
            epochs,
            budget_bytes,
        })
    }

    fn motif_mmd(&self) -> Result<MotifMmd, String> {
        let (sigma, delta) = (self.get("sigma", 1.0)?, self.opt("delta")?);
        let chunks = self.count("chunks", 4)?;
        Ok(MotifMmd {
            sigma,
            chunks,
            delta,
        })
    }

    /// A count that must be at least 1.
    fn count(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key, default)? {
            0 => Err(format!("flag `--{key}` must be at least 1")),
            n => Ok(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage_error(args: &[&str]) -> String {
        let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        run(&argv).expect_err("refused").to_string()
    }

    #[test]
    fn sci_formatting_matches_paper_style() {
        assert_eq!(sci(2.41e-3), "2.41E-3");
        assert_eq!(sci(1.08), "1.08E+0");
        assert_eq!(sci(23.2), "2.32E+1");
        assert_eq!(sci(0.0), "0.00E+0");
    }

    #[test]
    fn table_printer_renders_and_csvs() {
        let rows = vec![columns(&["a", "bb"], &[]), columns(&["1", "2"], &[])];
        assert_eq!(render(&rows), "| a | bb |\n|---|----|\n| 1 | 2  |\n");
        assert_eq!(to_csv(&rows), "a,bb\n1,2\n");
    }

    #[test]
    fn bad_arguments_are_refused_before_anything_runs() {
        assert!(usage_error(&[]).contains("no table"));
        assert!(usage_error(&["table9"]).contains("unknown table `table9`"));
        assert!(usage_error(&["table4_5", "--seed", "x"]).contains("`--seed`"));
        assert!(usage_error(&["table4_5", "--seed"]).contains("needs a value"));
        assert!(usage_error(&["table4_5", "--seed", "--epochs", "5"]).contains("needs a value"));
        assert!(usage_error(&["table2", "--epochs", "5"]).contains("unknown flag `--epochs`"));
        assert!(usage_error(&["table2", "stray"]).contains("unexpected argument"));
        assert!(usage_error(&["table6", "--chunks", "0"]).contains("at least 1"));
        assert!(usage_error(&["table4_5", "--epochs", "0"]).contains("at least 1"));
        assert!(usage_error(&["fig6", "--sweep", "node"]).contains("unknown sweep"));
        for table in ["table2", "table4_5", "table6", "table7", "fig5"] {
            for bad in ["-1", "0", "nan", "inf"] {
                let msg = usage_error(&[table, "--scale", bad]);
                assert!(
                    msg.contains("`--scale` must be finite"),
                    "{table} {bad}: {msg}"
                );
            }
        }
        let msg = usage_error(&["table4_5", "--methods", "NOPE"]);
        assert!(
            msg.contains("unknown method `NOPE`") && msg.contains("TGAE"),
            "{msg}"
        );
        let msg = usage_error(&["table4_5", "--datasets", "DBLP, NOPE"]);
        assert!(
            msg.contains("unknown dataset `NOPE`") && msg.contains("MATH"),
            "{msg}"
        );
    }
}
