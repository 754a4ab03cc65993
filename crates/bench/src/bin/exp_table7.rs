//! Table VII: ablation study — TGAE vs its four variants (TGAE-g random
//! walks, TGAE-t no truncation, TGAE-n uniform sampling, TGAE-p
//! non-probabilistic) on MSG / BITCOIN-A / BITCOIN-O, reporting the
//! Degree score (f_avg of mean degree) and the Motif MMD.
//!
//! Usage:
//! `cargo run -p tg-bench --release --bin exp_table7 \
//!    [--scale f] [--epochs n] [--seed s] [--sigma v] [--chunks c]`

use rand::{rngs::SmallRng, SeedableRng};
use tg_bench::datasets;
use tg_bench::methods::ablation_methods;
use tg_bench::runner::{run_method, sci, write_results, Args, TablePrinter};
use tg_metrics::{
    census_per_chunk_sampled, evaluate_against, mmd2_tv, CumulativeStats, GraphStats, MetricKind,
};

#[global_allocator]
static ALLOC: tg_obs::memtrack::TrackingAllocator = tg_obs::memtrack::TrackingAllocator;

fn main() {
    let args = Args::parse();
    let seed = args.get_u64("seed", 42);
    let epochs = args.get_usize("epochs", 60);
    let scale = args.get("scale").and_then(|s| s.parse::<f64>().ok());
    let sigma = args.get_f64("sigma", 1.0);
    let chunks = args.get_usize("chunks", 4);
    let dataset_list = args
        .get("datasets")
        .unwrap_or("MSG,BITCOIN-A,BITCOIN-O")
        .to_string();

    let mut headers = vec!["Dataset".to_string(), "Metric".to_string()];
    headers.extend(
        ablation_methods(1, seed)
            .iter()
            .map(|m| m.name().to_string()),
    );
    let mut table = TablePrinter::new(headers);

    for ds in dataset_list.split(',') {
        let ds = ds.trim();
        let (_, observed) = datasets::load(ds, scale, seed);
        // the observed side of Eq. 10 is the same for every variant
        let observed_stats: Vec<GraphStats> = CumulativeStats::new(&observed).collect();
        let delta = (observed.n_timestamps() as u64 / 10).max(2);
        let real_dists: Vec<Vec<f64>> = census_per_chunk_sampled(
            &observed,
            delta,
            chunks,
            20_000,
            &mut SmallRng::seed_from_u64(seed),
        )
        .iter()
        .map(|c| c.distribution())
        .collect();
        eprintln!(
            "[{}] n={} m={} T={}",
            ds,
            observed.n_nodes(),
            observed.n_edges(),
            observed.n_timestamps()
        );
        let mut degree_row = vec![ds.to_string(), "Degree".to_string()];
        let mut motif_row = vec![ds.to_string(), "Motif".to_string()];
        for mut m in ablation_methods(epochs, seed) {
            let t0 = std::time::Instant::now();
            let outcome = run_method(m.as_mut(), &observed, seed, usize::MAX);
            let generated = outcome.generated.expect("no budget set");
            let generated_stats: Vec<GraphStats> = CumulativeStats::new(&generated)
                .take(observed_stats.len())
                .collect();
            let scores = evaluate_against(&observed_stats, &generated_stats);
            let degree = scores
                .iter()
                .find(|s| s.kind == MetricKind::MeanDegree)
                .expect("mean degree present")
                .avg;
            let gen_dists: Vec<Vec<f64>> = census_per_chunk_sampled(
                &generated,
                delta,
                chunks,
                20_000,
                &mut SmallRng::seed_from_u64(seed),
            )
            .iter()
            .map(|c| c.distribution())
            .collect();
            let motif = mmd2_tv(&real_dists, &gen_dists, sigma);
            eprintln!(
                "  {:<8} {:>8.2?} degree={} motif={}",
                outcome.method,
                t0.elapsed(),
                sci(degree),
                sci(motif)
            );
            degree_row.push(sci(degree));
            motif_row.push(sci(motif));
        }
        table.row(degree_row);
        table.row(motif_row);
    }

    println!("\nTable VII — ablation study (smaller is better)\n");
    println!("{}", table.render());
    write_results("table7_ablation.csv", &table.to_csv()).expect("write table7");
    println!("wrote results/table7_ablation.csv");
}
