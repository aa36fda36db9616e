//! Machine-readable bench results and the regression-gate comparison.
//!
//! Each ablation bench emits its headline numbers as one JSON file under
//! [`results_dir`] (`target/bench_results/` by default, overridable with
//! `BENCH_RESULTS_DIR`). The `bench_gate` binary merges those files,
//! compares them against the committed `BENCH_baseline.json`, and fails
//! when a tracked metric moves the wrong way by more than the tolerance.
//!
//! The simulation is deterministic in virtual time, so metric values are
//! bit-stable across hosts and runs at a given scale; the gate's
//! tolerance only absorbs *intended* drift small enough not to need a
//! baseline refresh. Results record the `BRIDGE_SCALE` they were measured
//! at, and the gate refuses to compare across scales.

use bridge_trace::json::{self, Json};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One tracked number from a bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, unique within its bench (e.g. `"sstf.ops_per_s"`).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Whether a larger value is an improvement (throughput) or a
    /// regression (latency, message counts).
    pub higher_is_better: bool,
}

impl Metric {
    /// A higher-is-better metric (throughput, speedup, reduction factor).
    pub fn higher(name: impl Into<String>, value: f64) -> Self {
        Metric {
            name: name.into(),
            value,
            higher_is_better: true,
        }
    }

    /// A lower-is-better metric (latency, elapsed time, message count).
    pub fn lower(name: impl Into<String>, value: f64) -> Self {
        Metric {
            name: name.into(),
            value,
            higher_is_better: false,
        }
    }
}

/// The results of one bench at one scale.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResults {
    /// Bench name (the `[[bench]]` target).
    pub bench: String,
    /// The scale the numbers were measured at (`full` or `quick`).
    pub scale: String,
    /// Tracked metrics.
    pub metrics: Vec<Metric>,
}

/// The scale label for the current run (mirrors [`crate::scale`]).
pub fn scale_label() -> &'static str {
    if crate::scale() == 1 {
        "full"
    } else {
        "quick"
    }
}

/// Where result files go: `BENCH_RESULTS_DIR`, or the workspace's
/// `target/bench_results/`.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("BENCH_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    // CARGO_MANIFEST_DIR is crates/bench; the workspace root is two up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("target")
        .join("bench_results")
}

fn render_bench(out: &mut String, bench: &str, scale: &str, metrics: &[Metric]) {
    out.push_str("{\"bench\": ");
    json::write_str(out, bench);
    out.push_str(", \"scale\": ");
    json::write_str(out, scale);
    out.push_str(", \"metrics\": [");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("\n  {\"name\": ");
        json::write_str(out, &m.name);
        write!(
            out,
            ", \"value\": {}, \"better\": \"{}\"}}",
            m.value,
            if m.higher_is_better {
                "higher"
            } else {
                "lower"
            }
        )
        .unwrap();
    }
    out.push_str("\n]}");
}

/// Writes `metrics` as `<results_dir>/<bench>.json` for the gate to pick
/// up. Emission failures print a warning instead of failing the bench —
/// the numbers already went to stdout.
pub fn emit(bench: &str, metrics: &[Metric]) {
    let dir = results_dir();
    if let Err(err) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {err}", dir.display());
        return;
    }
    let mut out = String::new();
    render_bench(&mut out, bench, scale_label(), metrics);
    out.push('\n');
    let path = dir.join(format!("{bench}.json"));
    match std::fs::write(&path, out) {
        Ok(()) => println!("\n[bench_results: {}]", path.display()),
        Err(err) => eprintln!("warning: cannot write {}: {err}", path.display()),
    }
}

fn parse_metrics(value: &Json, origin: &Path) -> Result<Vec<Metric>, String> {
    let arr = value
        .get("metrics")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no metrics array", origin.display()))?;
    let mut metrics = Vec::new();
    for m in arr {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: metric without name", origin.display()))?;
        let value = m.num("value", format_args!("{}: metric {name}", origin.display()))?;
        let better = m.get("better").and_then(Json::as_str).unwrap_or("higher");
        metrics.push(Metric {
            name: name.to_string(),
            value,
            higher_is_better: better == "higher",
        });
    }
    Ok(metrics)
}

fn parse_bench(value: &Json, origin: &Path) -> Result<BenchResults, String> {
    let bench = value
        .get("bench")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{}: no bench name", origin.display()))?
        .to_string();
    let scale = value
        .get("scale")
        .and_then(Json::as_str)
        .unwrap_or("full")
        .to_string();
    Ok(BenchResults {
        bench,
        scale,
        metrics: parse_metrics(value, origin)?,
    })
}

/// Reads every `<bench>.json` in `dir` (the per-bench emission format).
///
/// # Errors
///
/// Fails on unreadable directory or malformed files.
pub fn load_results(dir: &Path) -> Result<Vec<BenchResults>, String> {
    let mut results = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let value = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        results.push(parse_bench(&value, &path)?);
    }
    Ok(results)
}

/// Reads a committed baseline file: `{"benches": [<bench results>...]}`.
///
/// # Errors
///
/// Fails on unreadable or malformed input.
pub fn load_baseline(path: &Path) -> Result<Vec<BenchResults>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let value = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let arr = value
        .get("benches")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no benches array", path.display()))?;
    arr.iter().map(|b| parse_bench(b, path)).collect()
}

/// Renders a baseline file from a set of bench results.
pub fn render_baseline(benches: &[BenchResults]) -> String {
    let mut out = String::from("{\"benches\": [\n");
    for (i, b) in benches.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        render_bench(&mut out, &b.bench, &b.scale, &b.metrics);
    }
    out.push_str("\n]}\n");
    out
}

/// One metric's comparison against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// `bench/metric` label.
    pub label: String,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub current: f64,
    /// Relative change in the *bad* direction, as a fraction; positive
    /// means worse. (A throughput gain or latency drop is negative.)
    pub worsening: f64,
}

/// Compares current results against a baseline with a relative
/// `tolerance` (0.15 = 15%). Returns `(all deltas, failures)`; failures
/// are regressions beyond tolerance, metrics that disappeared, and scale
/// mismatches.
pub fn compare(
    baseline: &[BenchResults],
    current: &[BenchResults],
    tolerance: f64,
) -> (Vec<Delta>, Vec<String>) {
    let mut deltas = Vec::new();
    let mut failures = Vec::new();
    for base_bench in baseline {
        let Some(cur_bench) = current.iter().find(|c| c.bench == base_bench.bench) else {
            failures.push(format!(
                "bench {} produced no results (expected {} metrics)",
                base_bench.bench,
                base_bench.metrics.len()
            ));
            continue;
        };
        if cur_bench.scale != base_bench.scale {
            failures.push(format!(
                "bench {}: scale mismatch (baseline {}, current {}) — \
                 regenerate the baseline at the CI scale",
                base_bench.bench, base_bench.scale, cur_bench.scale
            ));
            continue;
        }
        for metric in &base_bench.metrics {
            let label = format!("{}/{}", base_bench.bench, metric.name);
            let Some(cur) = cur_bench.metrics.iter().find(|m| m.name == metric.name) else {
                failures.push(format!("{label}: metric disappeared"));
                continue;
            };
            let change = if metric.value.abs() < f64::EPSILON {
                0.0
            } else {
                (cur.value - metric.value) / metric.value.abs()
            };
            let worsening = if metric.higher_is_better {
                -change
            } else {
                change
            };
            if worsening > tolerance {
                failures.push(format!(
                    "{label}: {:.4} -> {:.4} is {:.1}% worse (tolerance {:.0}%)",
                    metric.value,
                    cur.value,
                    worsening * 100.0,
                    tolerance * 100.0
                ));
            }
            deltas.push(Delta {
                label,
                base: metric.value,
                current: cur.value,
                worsening,
            });
        }
    }
    (deltas, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(name: &str, metrics: Vec<Metric>) -> BenchResults {
        BenchResults {
            bench: name.to_string(),
            scale: "quick".to_string(),
            metrics,
        }
    }

    #[test]
    fn roundtrip_through_baseline_format() {
        let benches = vec![
            bench(
                "alpha",
                vec![
                    Metric::higher("ops_per_s", 42.5),
                    Metric::lower("p99_ns", 1.9e7),
                ],
            ),
            bench("beta", vec![Metric::higher("speedup", 3.0)]),
        ];
        let text = render_baseline(&benches);
        let dir = std::env::temp_dir().join("bench_results_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_baseline.json");
        std::fs::write(&path, &text).unwrap();
        assert_eq!(load_baseline(&path).unwrap(), benches);
    }

    #[test]
    fn compare_flags_only_bad_moves() {
        let base = vec![bench(
            "b",
            vec![
                Metric::higher("throughput", 100.0),
                Metric::lower("latency", 100.0),
            ],
        )];
        // Throughput up, latency down: both good, however large.
        let good = vec![bench(
            "b",
            vec![
                Metric::higher("throughput", 250.0),
                Metric::lower("latency", 10.0),
            ],
        )];
        let (deltas, failures) = compare(&base, &good, 0.15);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(deltas.len(), 2);
        assert!(deltas.iter().all(|d| d.worsening < 0.0));

        // Throughput down 20%, latency up 20%: both beyond 15%.
        let bad = vec![bench(
            "b",
            vec![
                Metric::higher("throughput", 80.0),
                Metric::lower("latency", 120.0),
            ],
        )];
        let (_, failures) = compare(&base, &bad, 0.15);
        assert_eq!(failures.len(), 2, "{failures:?}");

        // Within tolerance: passes.
        let meh = vec![bench(
            "b",
            vec![
                Metric::higher("throughput", 90.0),
                Metric::lower("latency", 110.0),
            ],
        )];
        let (_, failures) = compare(&base, &meh, 0.15);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn compare_fails_on_missing_and_mismatched() {
        let base = vec![
            bench("gone", vec![Metric::higher("x", 1.0)]),
            bench(
                "shrunk",
                vec![Metric::higher("x", 1.0), Metric::higher("y", 2.0)],
            ),
        ];
        let current = vec![bench("shrunk", vec![Metric::higher("x", 1.0)])];
        let (_, failures) = compare(&base, &current, 0.15);
        assert_eq!(failures.len(), 2, "{failures:?}");

        let mut rescaled = vec![bench("gone", vec![Metric::higher("x", 1.0)])];
        rescaled[0].scale = "full".to_string();
        let (_, failures) = compare(&base[..1], &rescaled, 0.15);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("scale mismatch"), "{failures:?}");
    }
}
