//! Figure 6: scalability & efficiency — wall-clock time and peak heap
//! memory of inferring a new graph across three sweeps (nodes,
//! timestamps, edge density), axis labels `n*T*density` as in the paper.
//!
//! The paper reports GPU memory; the CPU analogue here is tracked peak
//! heap (see `memtrack`). E-R and B-A are included for time but, as in
//! the paper, not meaningful for "model memory".
//!
//! Usage:
//! `cargo run -p tg-bench --release --bin exp_fig6 \
//!    [--sweep nodes|timestamps|density|all] [--points k] [--epochs n]
//!    [--seed s] [--methods ...] [--budget-mb m]`

use tg_bench::methods::{all_methods, filter_methods};
use tg_bench::runner::{run_method, write_results, Args, TablePrinter};
use tg_datasets::{density_sweep, node_sweep, timestamp_sweep, GridPoint};
use tg_obs::memtrack::fmt_bytes;

#[global_allocator]
static ALLOC: tg_obs::memtrack::TrackingAllocator = tg_obs::memtrack::TrackingAllocator;

fn main() {
    let args = Args::parse();
    let seed = args.get_u64("seed", 42);
    let epochs = args.get_usize("epochs", 30);
    let points = args.get_usize("points", 5);
    let budget = args.get_usize("budget-mb", 4096) * (1 << 20);
    let sweep = args.get("sweep").unwrap_or("all").to_string();
    // Fig. 6's lineup: the learning-based methods (plus simple models for time)
    let default_methods = "TGAE,TGGAN,TagGen,NetGAN,TIGGER,DYMOND,VGAE,Graphite,SBMGNN";
    let filter = args.get("methods").unwrap_or(default_methods).to_string();

    let sweeps: Vec<(&str, Vec<GridPoint>)> = [
        ("nodes", node_sweep()),
        ("timestamps", timestamp_sweep()),
        ("density", density_sweep()),
    ]
    .into_iter()
    .filter(|(name, _)| sweep == "all" || sweep == *name)
    .map(|(name, pts)| (name, pts.into_iter().take(points).collect()))
    .collect();

    let mut csv =
        String::from("sweep,label,nodes,timestamps,density,method,seconds,peak_bytes,oom\n");
    for (sweep_name, pts) in &sweeps {
        println!("\nFigure 6 — {sweep_name} sweep (time / peak memory)\n");
        let probe = filter_methods(all_methods(epochs, seed), Some(&filter));
        let mut headers = vec!["Point".to_string()];
        headers.extend(probe.iter().map(|m| m.name().to_string()));
        let mut time_table = TablePrinter::new(headers.clone());
        let mut mem_table = TablePrinter::new(headers);
        for p in pts {
            let g = p.generate(seed);
            eprintln!(
                "[{}] n={} m={} T={}",
                p.label(),
                g.n_nodes(),
                g.n_edges(),
                g.n_timestamps()
            );
            let mut time_row = vec![p.label()];
            let mut mem_row = vec![p.label()];
            for mut m in filter_methods(all_methods(epochs, seed), Some(&filter)) {
                let outcome = run_method(m.as_mut(), &g, seed, budget);
                let secs = outcome.wall.as_secs_f64();
                eprintln!(
                    "  {:<8} {:>9.2}s peak={}{}",
                    outcome.method,
                    secs,
                    fmt_bytes(outcome.peak_bytes),
                    if outcome.is_oom() { " (OOM)" } else { "" }
                );
                csv.push_str(&format!(
                    "{},{},{},{},{},{},{:.4},{},{}\n",
                    sweep_name,
                    p.label(),
                    p.nodes,
                    p.timestamps,
                    p.density,
                    outcome.method,
                    secs,
                    outcome.peak_bytes,
                    outcome.is_oom()
                ));
                if outcome.is_oom() {
                    time_row.push("OOM".into());
                    mem_row.push("OOM".into());
                } else {
                    time_row.push(format!("{secs:.2}s"));
                    mem_row.push(fmt_bytes(outcome.peak_bytes));
                }
            }
            time_table.row(time_row);
            mem_table.row(mem_row);
        }
        println!("time:\n{}", time_table.render());
        println!("peak heap:\n{}", mem_table.render());
    }
    write_results("fig6_scalability.csv", &csv).expect("write fig6 csv");
    println!("wrote results/fig6_scalability.csv");
}
