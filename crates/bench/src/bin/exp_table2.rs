//! Table II: statistics of the network datasets.
//!
//! Prints the paper's reference counts next to the generated synthetic
//! stand-in at the harness scale, so every later experiment's operating
//! point is explicit.
//!
//! Usage: `cargo run -p tg-bench --release --bin exp_table2 [--scale f] [--seed s]`

use tg_bench::datasets;
use tg_bench::runner::{write_results, Args, TablePrinter};

#[global_allocator]
static ALLOC: tg_obs::memtrack::TrackingAllocator = tg_obs::memtrack::TrackingAllocator;

fn main() {
    let args = Args::parse();
    let seed = args.get_u64("seed", 42);
    let scale = args.get("scale").and_then(|s| s.parse::<f64>().ok());

    let mut table = TablePrinter::new(vec![
        "Network".into(),
        "#Nodes (paper)".into(),
        "#Edges (paper)".into(),
        "#Timestamps (paper)".into(),
        "#Nodes (run)".into(),
        "#Edges (run)".into(),
        "#Timestamps (run)".into(),
        "scale".into(),
    ]);
    for preset in tg_datasets::all_presets() {
        let (p, g) = datasets::load(preset.name, scale, seed);
        let (n, m, t) = p.paper_stats();
        let used_scale = scale.unwrap_or_else(|| datasets::default_scale(p.name));
        table.row(vec![
            p.name.to_string(),
            n.to_string(),
            m.to_string(),
            t.to_string(),
            g.n_nodes().to_string(),
            g.n_edges().to_string(),
            g.n_timestamps().to_string(),
            format!("{used_scale}"),
        ]);
    }
    println!("Table II — dataset statistics (paper vs this run)\n");
    println!("{}", table.render());
    write_results("table2.csv", &table.to_csv()).expect("write results/table2.csv");
    println!("wrote results/table2.csv");
}
