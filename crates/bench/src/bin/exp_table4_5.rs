//! Tables IV & V: f_med / f_avg comparison across the seven Table III
//! metrics, eleven methods, on DBLP / MATH / UBUNTU.
//!
//! Each method trains on the observed synthetic dataset and generates a
//! temporal graph with the observed per-timestamp edge budget; the
//! accumulated snapshots are compared metric-by-metric (Eq. 10). Methods
//! whose tracked peak heap exceeds the budget are reported as OOM, the
//! paper's convention.
//!
//! Usage:
//! `cargo run -p tg-bench --release --bin exp_table4_5 \
//!    [--datasets DBLP,MATH,UBUNTU] [--scale f] [--epochs n] [--seed s]
//!    [--budget-mb m] [--methods tgae,tigger,...]`

use tg_bench::datasets;
use tg_bench::methods::{all_methods, filter_methods};
use tg_bench::runner::{run_method, sci, write_results, Args, TablePrinter};
use tg_metrics::{evaluate_against, CumulativeStats, GraphStats, MetricKind};

#[global_allocator]
static ALLOC: tg_obs::memtrack::TrackingAllocator = tg_obs::memtrack::TrackingAllocator;

fn main() {
    let args = Args::parse();
    let seed = args.get_u64("seed", 42);
    let epochs = args.get_usize("epochs", 60);
    let scale = args.get("scale").and_then(|s| s.parse::<f64>().ok());
    let budget = args.get_usize("budget-mb", 1024) * (1 << 20);
    let dataset_list = args
        .get("datasets")
        .unwrap_or("DBLP,MATH,UBUNTU")
        .to_string();

    let mut med_table = TablePrinter::new(header(&args, seed, epochs));
    let mut avg_table = TablePrinter::new(header(&args, seed, epochs));

    for ds in dataset_list.split(',') {
        let ds = ds.trim();
        let (_, observed) = datasets::load(ds, scale, seed);
        eprintln!(
            "[{}] n={} m={} T={}",
            ds,
            observed.n_nodes(),
            observed.n_edges(),
            observed.n_timestamps()
        );
        // the observed side of Eq. 10 is the same for every method
        let observed_stats: Vec<GraphStats> = CumulativeStats::new(&observed).collect();
        let methods = filter_methods(all_methods(epochs, seed), args.get("methods"));
        // scores[metric][method] as strings
        let mut med_cells: Vec<Vec<String>> = vec![Vec::new(); 7];
        let mut avg_cells: Vec<Vec<String>> = vec![Vec::new(); 7];
        let mut names = Vec::new();
        for mut m in methods {
            let t0 = std::time::Instant::now();
            let outcome = run_method(m.as_mut(), &observed, seed, budget);
            names.push(outcome.method.clone());
            match &outcome.generated {
                Some(generated) => {
                    let generated: Vec<GraphStats> = CumulativeStats::new(generated)
                        .take(observed_stats.len())
                        .collect();
                    let scores = evaluate_against(&observed_stats, &generated);
                    for (i, s) in scores.iter().enumerate() {
                        med_cells[i].push(sci(s.med));
                        avg_cells[i].push(sci(s.avg));
                    }
                }
                None => {
                    for i in 0..7 {
                        med_cells[i].push("OOM".into());
                        avg_cells[i].push("OOM".into());
                    }
                }
            }
            eprintln!(
                "  {:<8} {:>8.2?} peak={}",
                outcome.method,
                t0.elapsed(),
                tg_obs::memtrack::fmt_bytes(outcome.peak_bytes)
            );
        }
        for (i, kind) in MetricKind::ALL.iter().enumerate() {
            let mut med_row = vec![ds.to_string(), kind.name().to_string()];
            med_row.extend(med_cells[i].clone());
            med_table.row(med_row);
            let mut avg_row = vec![ds.to_string(), kind.name().to_string()];
            avg_row.extend(avg_cells[i].clone());
            avg_table.row(avg_row);
        }
    }

    println!("\nTable IV — median score f_med (smaller is better)\n");
    println!("{}", med_table.render());
    println!("\nTable V — average score f_avg (smaller is better)\n");
    println!("{}", avg_table.render());
    write_results("table4_median.csv", &med_table.to_csv()).expect("write table4");
    write_results("table5_average.csv", &avg_table.to_csv()).expect("write table5");
    println!("wrote results/table4_median.csv, results/table5_average.csv");
}

fn header(args: &Args, seed: u64, epochs: usize) -> Vec<String> {
    let methods = filter_methods(all_methods(epochs, seed), args.get("methods"));
    let mut h = vec!["Dataset".to_string(), "Metric".to_string()];
    h.extend(methods.iter().map(|m| m.name().to_string()));
    h
}
