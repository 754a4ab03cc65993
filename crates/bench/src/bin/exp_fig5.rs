//! Figure 5: temporal-tendency curves on DBLP — six metrics (LCC, wedge,
//! claw, triangle, PLE, N-component) of the accumulated snapshots at each
//! of the 15 timestamps, for the original graph and each generator.
//!
//! Output: one CSV row per (metric, method, timestamp) with the log-scale
//! value the paper plots, plus a compact per-metric summary table of mean
//! |log10(gen) - log10(origin)| tracking error (how well each curve hugs
//! the original).
//!
//! Usage:
//! `cargo run -p tg-bench --release --bin exp_fig5 \
//!    [--dataset DBLP] [--scale f] [--epochs n] [--seed s] [--methods ...]`

use tg_bench::datasets;
use tg_bench::methods::{all_methods, filter_methods};
use tg_bench::runner::{run_method, write_results, Args, TablePrinter};
use tg_metrics::{metric_timeseries, MetricKind};

#[global_allocator]
static ALLOC: tg_obs::memtrack::TrackingAllocator = tg_obs::memtrack::TrackingAllocator;

/// The six metrics Fig. 5 plots (mean degree is skipped by the paper).
const FIG5_METRICS: [MetricKind; 6] = [
    MetricKind::Lcc,
    MetricKind::WedgeCount,
    MetricKind::ClawCount,
    MetricKind::TriangleCount,
    MetricKind::Ple,
    MetricKind::NComponents,
];

fn main() {
    let args = Args::parse();
    let seed = args.get_u64("seed", 42);
    let epochs = args.get_usize("epochs", 60);
    let scale = args.get("scale").and_then(|s| s.parse::<f64>().ok());
    let ds = args.get("dataset").unwrap_or("DBLP").to_string();

    let (_, observed) = datasets::load(&ds, scale, seed);
    eprintln!(
        "[{}] n={} m={} T={}",
        ds,
        observed.n_nodes(),
        observed.n_edges(),
        observed.n_timestamps()
    );
    let mut csv = String::from("metric,method,timestamp,value,log_value\n");
    let origin_series = metric_timeseries(&observed);
    let push_series = |name: &str, series: &[tg_metrics::MetricSeries], csv: &mut String| {
        for s in series {
            if !FIG5_METRICS.contains(&s.kind) {
                continue;
            }
            for (t, v) in s.values.iter().enumerate() {
                let log_v = if *v > 0.0 { v.ln() } else { 0.0 };
                csv.push_str(&format!(
                    "{},{},{},{},{}\n",
                    s.kind.name(),
                    name,
                    t,
                    v,
                    log_v
                ));
            }
        }
    };
    push_series("Origin", &origin_series, &mut csv);

    // Fig. 5's method lineup (no E-R/B-A — the paper plots the learned ones)
    let default_methods = "TGAE,TIGGER,DYMOND,TGGAN,TagGen,NetGAN,VGAE,Graphite,SBMGNN";
    let filter = args.get("methods").unwrap_or(default_methods).to_string();
    let methods = filter_methods(all_methods(epochs, seed), Some(&filter));

    let mut headers = vec!["Metric".to_string()];
    let mut tracking: Vec<(String, Vec<f64>)> = Vec::new();
    for mut m in methods {
        let t0 = std::time::Instant::now();
        let outcome = run_method(m.as_mut(), &observed, seed, usize::MAX);
        let generated = outcome.generated.expect("no budget for fig5");
        let series = metric_timeseries(&generated);
        push_series(&outcome.method, &series, &mut csv);
        // tracking error per metric: mean |log(gen) - log(origin)|
        let mut errs = Vec::new();
        for kind in FIG5_METRICS {
            let o = origin_series
                .iter()
                .find(|s| s.kind == kind)
                .expect("origin metric");
            let g = series
                .iter()
                .find(|s| s.kind == kind)
                .expect("generated metric");
            let e: f64 = o
                .values
                .iter()
                .zip(&g.values)
                .map(|(a, b)| {
                    let la = a.max(1e-9).ln();
                    let lb = b.max(1e-9).ln();
                    (la - lb).abs()
                })
                .sum::<f64>()
                / o.values.len() as f64;
            errs.push(e);
        }
        eprintln!("  {:<8} {:>8.2?}", outcome.method, t0.elapsed());
        headers.push(outcome.method.clone());
        tracking.push((outcome.method, errs));
    }

    let mut table = TablePrinter::new(headers);
    for (i, kind) in FIG5_METRICS.iter().enumerate() {
        let mut row = vec![kind.name().to_string()];
        for (_, errs) in &tracking {
            row.push(format!("{:.3}", errs[i]));
        }
        table.row(row);
    }
    println!("\nFigure 5 — mean |log(gen) − log(origin)| curve-tracking error on {ds}");
    println!("(smaller = the method's curve hugs the original graph's curve)\n");
    println!("{}", table.render());
    write_results("fig5_timeseries.csv", &csv).expect("write fig5 csv");
    write_results("fig5_tracking_error.csv", &table.to_csv()).expect("write fig5 summary");
    println!("wrote results/fig5_timeseries.csv, results/fig5_tracking_error.csv");
}
