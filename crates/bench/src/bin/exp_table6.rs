//! Table VI: Maximum Mean Discrepancy between the δ-temporal motif
//! distributions (all 2-/3-node 3-edge motifs) of the raw and generated
//! temporal networks, on all seven datasets.
//!
//! Motif censuses are taken per time chunk; the resulting per-chunk
//! distributions are the sample sets of the Gaussian-TV MMD (Eq. 1).
//!
//! Usage:
//! `cargo run -p tg-bench --release --bin exp_table6 \
//!    [--scale f] [--epochs n] [--seed s] [--budget-mb m] [--sigma v]
//!    [--delta d] [--chunks c] [--methods ...] [--datasets ...]`

use rand::{rngs::SmallRng, SeedableRng};
use tg_bench::datasets;
use tg_bench::methods::{all_methods, filter_methods};
use tg_bench::runner::{run_method, sci, write_results, Args, TablePrinter};
use tg_metrics::{census_per_chunk_sampled, mmd2_tv};

#[global_allocator]
static ALLOC: tg_obs::memtrack::TrackingAllocator = tg_obs::memtrack::TrackingAllocator;

fn main() {
    let args = Args::parse();
    let seed = args.get_u64("seed", 42);
    let epochs = args.get_usize("epochs", 60);
    let scale = args.get("scale").and_then(|s| s.parse::<f64>().ok());
    let budget = args.get_usize("budget-mb", 1024) * (1 << 20);
    let sigma = args.get_f64("sigma", 1.0);
    let chunks = args.get_usize("chunks", 4);
    let dataset_list = args
        .get("datasets")
        .unwrap_or("DBLP,MSG,BITCOIN-A,BITCOIN-O,EMAIL,MATH,UBUNTU")
        .to_string();

    let probe = filter_methods(all_methods(epochs, seed), args.get("methods"));
    let mut headers = vec!["Dataset".to_string()];
    headers.extend(probe.iter().map(|m| m.name().to_string()));
    let mut table = TablePrinter::new(headers);

    for ds in dataset_list.split(',') {
        let ds = ds.trim();
        let (_, observed) = datasets::load(ds, scale, seed);
        // δ scales with the time axis so every dataset has motif mass
        let delta = args.get_u64("delta", (observed.n_timestamps() as u64 / 10).max(2));
        let real_census = census_per_chunk_sampled(
            &observed,
            delta,
            chunks,
            20_000,
            &mut SmallRng::seed_from_u64(seed),
        );
        let real_dists: Vec<Vec<f64>> = real_census.iter().map(|c| c.distribution()).collect();
        eprintln!(
            "[{}] n={} m={} T={} delta={} (real motifs: {})",
            ds,
            observed.n_nodes(),
            observed.n_edges(),
            observed.n_timestamps(),
            delta,
            real_census.iter().map(|c| c.total()).sum::<u64>()
        );
        let methods = filter_methods(all_methods(epochs, seed), args.get("methods"));
        let mut row = vec![ds.to_string()];
        for mut m in methods {
            let t0 = std::time::Instant::now();
            let outcome = run_method(m.as_mut(), &observed, seed, budget);
            let cell = match &outcome.generated {
                Some(generated) => {
                    let gen_census = census_per_chunk_sampled(
                        generated,
                        delta,
                        chunks,
                        20_000,
                        &mut SmallRng::seed_from_u64(seed),
                    );
                    let gen_dists: Vec<Vec<f64>> =
                        gen_census.iter().map(|c| c.distribution()).collect();
                    sci(mmd2_tv(&real_dists, &gen_dists, sigma))
                }
                None => "OOM".to_string(),
            };
            eprintln!("  {:<8} {:>8.2?} -> {}", outcome.method, t0.elapsed(), cell);
            row.push(cell);
        }
        table.row(row);
    }

    println!("\nTable VI — temporal-motif MMD (smaller is better, sigma={sigma})\n");
    println!("{}", table.render());
    write_results("table6_motif_mmd.csv", &table.to_csv()).expect("write table6");
    println!("wrote results/table6_motif_mmd.csv");
}
