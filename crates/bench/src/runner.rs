//! Shared experiment runner: executes one generator on one dataset under
//! wall-clock and peak-memory measurement, with a memory budget that
//! reproduces the paper's OOM cells.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use tg_baselines::TemporalGraphGenerator;
use tg_graph::sink::GraphSink;
use tg_graph::TemporalGraph;
use tg_obs::memtrack;
use tgae::{Session, TgaeConfig};

/// TGAE wrapped as a [`TemporalGraphGenerator`] so the harness treats it
/// uniformly with the baselines. Internally drives a [`Session`] and hands
/// off to its `SharedRun`; training derives from `cfg.seed` and the
/// simulation master seed is the one `u64` drawn from the harness RNG.
pub struct TgaeMethod {
    pub cfg: TgaeConfig,
    name: &'static str,
}

impl TgaeMethod {
    pub fn new(cfg: TgaeConfig) -> Self {
        TgaeMethod {
            name: cfg.variant.name(),
            cfg,
        }
    }
}

impl TemporalGraphGenerator for TgaeMethod {
    fn name(&self) -> &'static str {
        self.name
    }

    #[expect(
        clippy::expect_used,
        reason = "`fit_generate` has no error channel; a graph or config the session rejects is a harness bug"
    )]
    fn fit_generate(
        &mut self,
        observed: &TemporalGraph,
        rng: &mut dyn rand::RngCore,
    ) -> TemporalGraph {
        let mut session = Session::builder(observed)
            .config(self.cfg.clone())
            .build()
            .expect("benchmark graph/config must be valid");
        session.train().expect("training failed");
        let master = rng.next_u64();
        session
            .into_shared()
            .simulate_seeded(
                master,
                GraphSink::new(observed.n_nodes(), observed.n_timestamps()),
            )
            .expect("simulation failed")
    }
}

/// Outcome of running one method on one dataset.
pub struct RunOutcome {
    pub method: String,
    pub wall: Duration,
    pub peak_bytes: usize,
    /// `None` = exceeded the memory budget (reported as OOM).
    pub generated: Option<TemporalGraph>,
}

impl RunOutcome {
    pub fn is_oom(&self) -> bool {
        self.generated.is_none()
    }
}

/// Run `method` on `observed` with a fresh seeded RNG; if the tracked peak
/// heap exceeds `mem_budget_bytes` the result is discarded and marked OOM
/// (the paper's out-of-memory cells).
pub fn run_method(
    method: &mut dyn TemporalGraphGenerator,
    observed: &TemporalGraph,
    seed: u64,
    mem_budget_bytes: usize,
) -> RunOutcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    memtrack::reset_peak();
    let start = Instant::now();
    let generated = method.fit_generate(observed, &mut rng);
    let wall = start.elapsed();
    let peak = memtrack::peak_bytes();
    let over_budget = peak > mem_budget_bytes;
    RunOutcome {
        method: method.name().to_string(),
        wall,
        peak_bytes: peak,
        generated: if over_budget { None } else { Some(generated) },
    }
}

/// Format a score the way the paper prints table cells, e.g. `2.41E-3`.
pub fn sci(x: f64) -> String {
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

/// Simple fixed-width markdown-ish table printer.
pub struct TablePrinter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    pub fn new(headers: Vec<String>) -> Self {
        TablePrinter {
            headers,
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with column alignment.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {:<w$} |", c, w = w));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        let _ = ncols;
        out
    }

    /// Emit CSV with the same content.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Write a result artifact under `results/`.
pub fn write_results(name: &str, content: &str) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    std::fs::write(format!("results/{name}"), content)
}

/// Tiny CLI parser: `--key value` pairs.
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    pub fn parse() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            if let Some(key) = argv[i].strip_prefix("--") {
                let val = argv.get(i + 1).cloned().unwrap_or_default();
                pairs.push((key.to_string(), val));
                i += 2;
            } else {
                i += 1;
            }
        }
        Args { pairs }
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_baselines::ErGenerator;
    use tg_graph::TemporalEdge;

    fn toy() -> TemporalGraph {
        let edges: Vec<TemporalEdge> = (0..20)
            .map(|i| TemporalEdge::new(i % 5, (i + 1) % 5, i % 4))
            .collect();
        TemporalGraph::from_edges(5, 4, edges)
    }

    #[test]
    fn run_method_produces_outcome() {
        let g = toy();
        let mut er = ErGenerator;
        let out = run_method(&mut er, &g, 1, usize::MAX);
        assert_eq!(out.method, "E-R");
        assert!(!out.is_oom());
        assert_eq!(out.generated.unwrap().n_edges(), g.n_edges());
    }

    #[test]
    fn zero_budget_forces_oom() {
        let g = toy();
        let mut er = ErGenerator;
        let out = run_method(&mut er, &g, 1, 0);
        // with the tracking allocator not installed in tests peak may be 0;
        // either way the API contract holds
        if out.peak_bytes > 0 {
            assert!(out.is_oom());
        }
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
        let mut t = TablePrinter::new(vec!["a".into(), "b".into()]);
        t.row(vec!["1".into(), "2".into()]);
        let rendered = t.render();
        assert!(rendered.contains("| a | b |"));
        assert!(rendered.contains("| 1 | 2 |"));
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn tgae_method_wraps_model() {
        let g = toy();
        let mut cfg = TgaeConfig::tiny();
        cfg.epochs = 3;
        let mut m = TgaeMethod::new(cfg);
        assert_eq!(m.name(), "TGAE");
        let out = run_method(&mut m, &g, 2, usize::MAX);
        assert!(!out.is_oom());
        let gen = out.generated.unwrap();
        assert_eq!(gen.n_nodes(), 5);
    }
}
