//! The versioned result schema, the end-to-end metric catalogue with its
//! regression bounds, and `suite compare`.

use crate::stats::{median, Stat};
use crate::{fail, Res, SuiteError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Version of the result files this build reads and writes.
pub const SCHEMA: u32 = 1;

/// One end-to-end metric: name, unit and the share of the base median
/// by which it may get worse before `compare` calls it a regression.
/// Every end-to-end metric is lower-is-better.
pub struct MetricDef {
    /// Metric name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Regression bound, a share of the base value.
    pub bound: f64,
}

/// The end-to-end metrics, in report order. `BENCHMARK.json` lists the
/// same names, units and bounds (a unit test keeps them in step).
///
/// Fresh-connection and cache-miss request latencies and the warm tail
/// are not here but among the per-layer metrics
/// (`tg-serve.connect_p50_ms`, `tg-serve.cold_p50_ms`,
/// `tg-serve.warm_p99_ms`): on the shared host the benchmark is checked
/// on, their run-to-run spread did not stay inside the widest bound a
/// benchmark may state (the README's "Steadiness" has the numbers).
pub const END_TO_END: [MetricDef; 7] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    MetricDef {
        name: "ingest_s",
        unit: "s",
        bound: 0.25,
    },
    MetricDef {
        name: "train_s",
        unit: "s",
        bound: 0.25,
    },
    MetricDef {
        name: "generate_s",
        unit: "s",
        bound: 0.25,
    },
    MetricDef {
        name: "evaluate_s",
        unit: "s",
        bound: 0.25,
    },
    MetricDef {
        name: "serve_warm_ms",
        unit: "ms",
        bound: 0.25,
    },
    MetricDef {
        name: "peak_heap_mib",
        unit: "MiB",
        bound: 0.20,
    },
];

/// Where and how a result was measured. `compare` refuses two files
/// that differ in anything here but `commit`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Env {
    /// Pool split factor the run was pinned to.
    pub threads: usize,
    /// `available_parallelism()` of the box.
    pub nproc: usize,
    /// The gemm microkernel runtime dispatch picked.
    pub active_microkernel: String,
    /// Whether fault injection was compiled in (must be `false`).
    pub faults_compiled: bool,
    /// `git rev-parse --short HEAD`, or `unknown` outside a repository.
    pub commit: String,
    /// Workload seed.
    pub seed: u64,
    /// `--seconds` the repeat counts were scaled to.
    pub seconds: u64,
}

/// Everything one run of one workload reports.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// End-to-end metrics (untraced run).
    pub end_to_end: BTreeMap<String, Stat>,
    /// Per-layer metrics (traced run).
    pub per_layer: BTreeMap<String, Stat>,
    /// Operations attempted, output checks included.
    pub ops_attempted: u64,
    /// Operations that panicked, returned an error or failed a check.
    pub ops_failed: u64,
    /// `ops_failed / ops_attempted`.
    pub failed_share: f64,
    /// 64-bit FNV-1a over the loss bits of every train block and the
    /// bytes of the first generation: seeded outputs, not timings.
    pub fingerprint: String,
    /// Wall time of the whole run, setup included, in seconds.
    pub wall_s: f64,
}

impl WorkloadResult {
    /// The fields that repeat exactly between runs of one commit (the
    /// attempted count does not: a run on a slow box stops early).
    fn exact(&self) -> [(&'static str, String); 2] {
        [
            ("fingerprint", self.fingerprint.clone()),
            ("ops_failed", self.ops_failed.to_string()),
        ]
    }
}

/// A result file: the environment plus one or more sets of workload
/// results (one set per pass of `--sets`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Document {
    /// Schema version, [`SCHEMA`].
    pub schema: u32,
    /// Measurement environment.
    pub env: Env,
    /// Result sets, each keyed by workload name.
    pub sets: Vec<BTreeMap<String, WorkloadResult>>,
}

impl Document {
    /// Read a result file.
    pub fn load(path: &Path) -> Res<Document> {
        let text = std::fs::read_to_string(path).map_err(fail(path.display()))?;
        let doc: Document = serde_json::from_str(&text).map_err(fail(path.display()))?;
        if doc.schema != SCHEMA {
            return Err(SuiteError::Failed(format!(
                "{}: schema {} (this build reads schema {SCHEMA})",
                path.display(),
                doc.schema
            )));
        }
        Ok(doc)
    }

    /// Write a result file (pretty JSON).
    pub fn save(&self, path: &Path) -> Res<()> {
        let json = serde_json::to_string_pretty(self).map_err(fail("serialise result"))?;
        std::fs::write(path, json).map_err(fail(path.display()))
    }

    /// Every set's value of one end-to-end metric of one workload.
    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.sets
            .iter()
            .filter_map(|set| set.get(workload)?.end_to_end.get(metric))
            .map(|s| s.value)
            .collect()
    }

    fn workloads(&self) -> Vec<&String> {
        let mut names: Vec<&String> = self.sets.iter().flat_map(|s| s.keys()).collect();
        names.sort();
        names.dedup();
        names
    }
}

/// Outcome of comparing one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the bound allows.
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// The spread between runs of one side is wider than the bound and
    /// the sides overlap, so the pair decides nothing.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Run-to-run spread of one side: (max − min) / median over its sets.
fn spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    match median(values) {
        Some(m) if m > 0.0 && values.len() > 1 => (hi - lo) / m,
        _ => 0.0,
    }
}

/// Judge a lower-is-better metric: `base` and `new` hold one value per
/// run. Returns the ratio new/base of the medians with the verdict.
pub fn judge(base: &[f64], new: &[f64], bound: f64) -> Option<(f64, Verdict)> {
    let (b, n) = (median(base)?, median(new)?);
    let ratio = if b > 0.0 { n / b } else { f64::INFINITY };
    let every_new_run_is_better = new.iter().all(|&x| base.iter().all(|&y| x < y));
    let verdict = if spread(base).max(spread(new)) > bound && !every_new_run_is_better {
        Verdict::Unresolved
    } else if ratio > 1.0 + bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Some((ratio, verdict))
}

/// Compare two result documents pair by pair. Returns the printed table
/// and how many pairs regressed or disagreed exactly.
pub fn compare(base: &Document, new: &Document) -> Res<(String, usize)> {
    let (a, b) = (&base.env, &new.env);
    let same_env = a.threads == b.threads
        && a.nproc == b.nproc
        && a.active_microkernel == b.active_microkernel
        && a.seed == b.seed
        && a.seconds == b.seconds;
    if !same_env {
        return Err(SuiteError::Failed(format!(
            "refusing to compare results taken in different environments:\n  base {a:?}\n  new  {b:?}"
        )));
    }
    let mut out = format!(
        "base {} ({} set(s))  vs  new {} ({} set(s))\n{:<13} {:<21} {:>12} {:>12} {:>14} {:>6}  verdict\n",
        a.commit,
        base.sets.len(),
        b.commit,
        new.sets.len(),
        "workload",
        "metric",
        "base",
        "new",
        "new/base",
        "bound"
    );
    let mut bad = 0usize;
    for workload in base.workloads() {
        for def in &END_TO_END {
            let base_values = base.values(workload, def.name);
            let new_values = new.values(workload, def.name);
            let Some((ratio, verdict)) = judge(&base_values, &new_values, def.bound) else {
                continue;
            };
            if verdict == Verdict::Regressed {
                bad += 1;
            }
            out.push_str(&format!(
                "{:<13} {:<21} {:>12.5} {:>12.5} {:>7.3}x of base {:>5.0}%  {}\n",
                workload,
                def.name,
                median(&base_values).unwrap_or(f64::NAN),
                median(&new_values).unwrap_or(f64::NAN),
                ratio,
                def.bound * 100.0,
                verdict.as_str()
            ));
        }
        bad += exact_mismatches(base, new, workload, &mut out);
    }
    Ok((out, bad))
}

/// Counts and fingerprints must repeat exactly; print and count the
/// ones that do not.
fn exact_mismatches(base: &Document, new: &Document, workload: &str, out: &mut String) -> usize {
    let distinct = |doc: &Document, field: usize| -> Vec<String> {
        let mut v: Vec<String> = doc
            .sets
            .iter()
            .filter_map(|set| set.get(workload))
            .map(|r| r.exact()[field].1.clone())
            .collect();
        v.sort();
        v.dedup();
        v
    };
    let mut bad = 0;
    for (field, (what, _)) in WorkloadResult::default().exact().iter().enumerate() {
        let (x, y) = (distinct(base, field), distinct(new, field));
        if y.is_empty() {
            continue;
        }
        let same = x == y && x.len() == 1;
        if !same {
            bad += 1;
        }
        out.push_str(&format!(
            "{:<13} {:<21} {:>12} {:>12} {:>28}  {}\n",
            workload,
            what,
            x.join("|"),
            y.join("|"),
            "exact",
            if same { "ok" } else { "differs" }
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_the_bound_is_ok_beyond_it_regressed() {
        let base = [1.00, 1.02];
        assert_eq!(judge(&base, &[1.05, 1.07], 0.10).unwrap().1, Verdict::Ok);
        let (ratio, verdict) = judge(&base, &[1.20, 1.22], 0.10).unwrap();
        assert_eq!(verdict, Verdict::Regressed);
        assert!((ratio - 1.21 / 1.01).abs() < 1e-9);
        // an improvement is never a regression
        assert_eq!(judge(&base, &[0.5, 0.6], 0.10).unwrap().1, Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        // base runs disagree by 30 % with a 10 % bound
        let noisy = [1.0, 1.3];
        assert_eq!(
            judge(&noisy, &[1.1, 1.2], 0.10).unwrap().1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[2.0, 2.1], 0.10).unwrap().1,
            Verdict::Unresolved
        );
        // every new run beats every base run: resolved, and ok
        assert_eq!(judge(&noisy, &[0.8, 0.9], 0.10).unwrap().1, Verdict::Ok);
        // a single run per side has no spread to speak of
        assert_eq!(judge(&[1.0], &[1.5], 0.10).unwrap().1, Verdict::Regressed);
        assert!(judge(&[], &[1.0], 0.10).is_none());
    }

    fn doc(values: &[f64], fingerprint: &str) -> Document {
        let sets = values
            .iter()
            .map(|&v| {
                let mut r = WorkloadResult {
                    fingerprint: fingerprint.to_string(),
                    ops_attempted: 10,
                    ..Default::default()
                };
                r.end_to_end
                    .insert("train_s".to_string(), Stat::single(v, "s"));
                BTreeMap::from([("dblp_dense".to_string(), r)])
            })
            .collect();
        Document {
            schema: SCHEMA,
            env: Env {
                threads: 1,
                nproc: 2,
                active_microkernel: "avx2".into(),
                faults_compiled: false,
                commit: "abc".into(),
                seed: 7,
                seconds: 20,
            },
            sets,
        }
    }

    #[test]
    fn compare_counts_regressions_and_exact_mismatches() {
        let base = doc(&[1.0, 1.01], "00ff");
        let (table, bad) = compare(&base, &doc(&[1.02, 1.03], "00ff")).unwrap();
        assert_eq!(bad, 0, "{table}");
        assert!(table.contains("train_s") && table.contains("ok"));
        let (table, bad) = compare(&base, &doc(&[1.5, 1.51], "00ff")).unwrap();
        assert_eq!(bad, 1, "{table}");
        assert!(table.contains("regressed"));
        let (table, bad) = compare(&base, &doc(&[1.0, 1.0], "beef")).unwrap();
        assert_eq!(bad, 1, "{table}");
        assert!(table.contains("differs"));
    }

    #[test]
    fn compare_refuses_a_different_environment() {
        let base = doc(&[1.0], "00ff");
        let mut other = doc(&[1.0], "00ff");
        other.env.commit = "def".into();
        assert!(compare(&base, &other).is_ok(), "commits may differ");
        other.env.threads = 2;
        assert!(compare(&base, &other).is_err());
    }

    #[test]
    fn documents_round_trip_through_json() {
        let d = doc(&[1.25, 1.5], "00ff");
        let json = serde_json::to_string_pretty(&d).unwrap();
        let back: Document = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }

    /// `BENCHMARK.json` is written by hand; this keeps its workloads
    /// and end-to-end metrics in step with the code.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        while !dir.join("BENCHMARK.json").exists() {
            assert!(dir.pop(), "BENCHMARK.json not found above the manifest");
        }
        let text = std::fs::read_to_string(dir.join("BENCHMARK.json")).unwrap();
        let v = serde_json::parse_value(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            v.get(key)
                .and_then(|x| x.as_seq())
                .unwrap()
                .iter()
                .map(|m| match m.get("name") {
                    Some(serde::Value::Str(s)) => s.clone(),
                    other => panic!("bad name {other:?}"),
                })
                .collect()
        };
        let listed: Vec<String> = END_TO_END.iter().map(|d| d.name.to_string()).collect();
        assert_eq!(names("end_to_end"), listed);
        let workloads: Vec<String> = crate::workloads::SPECS
            .iter()
            .filter(|s| s.in_benchmark_json)
            .map(|s| s.name.to_string())
            .collect();
        assert_eq!(names("workloads"), workloads);
        let mut per_layer = names("per_layer");
        per_layer.sort();
        let mut known: Vec<String> = crate::layers::PER_LAYER
            .iter()
            .map(|(name, _)| name.to_string())
            .collect();
        known.sort();
        assert_eq!(per_layer, known);
        for (entry, def) in v
            .get("end_to_end")
            .unwrap()
            .as_seq()
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(entry.get("unit"), Some(&serde::Value::Str(def.unit.into())));
            assert_eq!(entry.get("bound"), Some(&serde::Value::Float(def.bound)));
        }
    }
}
