//! bridgebench — the two-clock, layer-by-layer benchmark of the Bridge
//! reproduction. See `README.md` beside `Cargo.toml` for the metrics,
//! the workloads and why each was chosen.
//!
//! Two ways to run it:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process — `--trace 0` the end-to-end pass (tracing
//!   off, allocator disarmed), `--trace 1` the layers pass — and prints
//!   one JSON result as the last line of standard output.
//! * Without `--trace` it runs the end-to-end pass and then the layers
//!   pass over every workload (or the one named), each in a fresh child
//!   process of this binary, one after another, and prints every metric.

mod gen;
mod host;
mod json;
mod layers;
mod spec;
mod stats;
mod workload;

use json::Json;
use layers::{Kernel, Metrics, Round, Tally};
use spec::Spec;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Inputs, Kind};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

const USAGE: &str = "\
usage: bridgebench [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>]
                   [--e2e-only | --layers-only] [--repeat-check] [--smoke] [--json <path>]

  --workload <name>  copy_p32 | sort_p8 | naive_p32 | churn_p8 | copy_p1024 (default: all)
  --seed <u64>       seed of the input generator (default 1)
  --seconds <n>      how long one end-to-end run measures (default: run_seconds of BENCHMARK.json)
  --trace <0|1>      run one workload in this process: 0 = end-to-end pass, 1 = layers pass;
                     the last line of output is the JSON result (needs --workload)
  --e2e-only         full run: skip the layers pass
  --layers-only      full run: skip the end-to-end pass
  --repeat-check     run the end-to-end pass twice; fail if any metric disagrees beyond its bound
  --smoke            sizes / 16, one round, half a second per workload
  --json <path>      also write the results to <path>";

/// Rounds (fresh machine, timed set-up, warm-up, samples) per end-to-end
/// run; `--smoke` does one.
const ROUNDS: usize = 5;
/// Machines a round sets up at least after the one it measures. They
/// only add samples to the set-up figure, spread evenly over the run
/// because the host's speed moves in phases that last seconds; a round
/// keeps building them for a third as long as it measured.
const MIN_EXTRA_SETUPS: usize = 2;
/// Samples (timed iterations) a round takes at least.
const MIN_SAMPLES: usize = 4;
/// What `--smoke` divides every size by.
const SMOKE_SHRINK: u64 = 16;

#[derive(Debug, Clone, Default)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    e2e_only: bool,
    layers_only: bool,
    repeat_check: bool,
    smoke: bool,
    /// Layers pass without the ledger: the full run asks this of every
    /// child but the first, since the ledger does not depend on the
    /// workload.
    skip_ledger: bool,
    json: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Kind::from_name(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                });
            }
            "--json" => args.json = Some(PathBuf::from(value("a path")?)),
            "--e2e-only" => args.e2e_only = true,
            "--layers-only" => args.layers_only = true,
            "--repeat-check" => args.repeat_check = true,
            "--smoke" => args.smoke = true,
            "--skip-ledger" => args.skip_ledger = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    if args.e2e_only && args.layers_only {
        return Err("--e2e-only and --layers-only exclude each other".to_string());
    }
    Ok(args)
}

/// What one run reports: the contract's result line, as data.
#[derive(Debug, Clone, PartialEq)]
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl RunResult {
    fn new(tally: Tally, metrics: Metrics) -> RunResult {
        RunResult {
            correct: tally.failed == 0,
            attempted: tally.attempted.max(1),
            failed: tally.failed,
            metrics,
        }
    }

    fn to_json(&self, spec: &Spec) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Num(*value)),
                        ("unit".to_string(), Json::Str(spec.unit(name).to_string())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }

    fn from_json(doc: &Json) -> Option<RunResult> {
        Some(RunResult {
            correct: matches!(doc.get("correct")?, Json::Bool(true)),
            attempted: doc.get("attempted")?.as_f64()? as u64,
            failed: doc.get("failed")?.as_f64()? as u64,
            metrics: doc
                .get("metrics")?
                .members()
                .iter()
                .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect::<Option<Metrics>>()?,
        })
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// The end-to-end pass for one workload, in this process: tracing off,
/// allocator disarmed, host cost on the thread CPU clock.
fn run_end_to_end(kind: Kind, args: &Args, spec: &Spec) -> RunResult {
    assert!(!host::allocs_armed(), "end-to-end runs do not count allocs");
    let clock = host::CpuClock::for_this_thread();
    let (rounds, min_extra, shrink) = if args.smoke {
        (1, 0, SMOKE_SHRINK)
    } else {
        (ROUNDS, MIN_EXTRA_SETUPS, 1)
    };
    let seconds = args.seconds.unwrap_or(if args.smoke {
        0.5
    } else {
        spec.run_seconds as f64
    });
    let budget = Duration::from_secs_f64(seconds / rounds as f64);
    let inputs = Arc::new(Inputs::generate(kind, args.seed, shrink));

    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut samples = Vec::new();
    // Set-up is everything a round does before it can be measured: build
    // the machine, write the inputs, and one discarded warm-up iteration
    // (checked like any other) that fills the caches.
    let set_up = |tally: &mut Tally, setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let mut round = Round::setup(kind, Arc::clone(&inputs), false);
        tally.absorb(round.warm_up());
        setup_s.push(t0.elapsed().as_secs_f64());
        round
    };
    let tear_down = |mut round: Round, tally: &mut Tally| {
        if kind == Kind::ChurnP8 {
            tally.note(round.fsck_clean());
        }
        drop(round);
        host::release_freed_memory();
    };
    // The first measured iteration of each round, which every round must
    // reproduce bit for bit: (virtual ns, units, kernel counters after).
    let mut reference: Option<(u64, u64, Kernel)> = None;
    let mut deterministic = true;
    let mut peak_rss_mb = None;
    for _ in 0..rounds {
        let mut round = set_up(&mut tally, &mut setup_s);
        let started = Instant::now();
        let mut taken = 0;
        while taken < MIN_SAMPLES || started.elapsed() < budget {
            let (it, ns) = clock.time(|| round.iterate());
            samples.push(ns as f64 / 1e9);
            if taken == 0 {
                let seen = (it.virt_ns, it.units, round.kernel());
                deterministic &= *reference.get_or_insert(seen) == seen;
            }
            taken += 1;
            tally.absorb(round.verify(&it));
            // The high-water mark after a fixed amount of work, so the
            // figure does not depend on how many samples the host fits
            // into the run.
            if taken == MIN_SAMPLES {
                peak_rss_mb.get_or_insert_with(host::peak_rss_mb);
            }
        }
        tear_down(round, &mut tally);

        let started = Instant::now();
        let mut extra = 0;
        while extra < min_extra || (min_extra > 0 && started.elapsed() < budget / 3) {
            let round = set_up(&mut tally, &mut setup_s);
            tear_down(round, &mut tally);
            extra += 1;
        }
    }
    if !deterministic {
        eprintln!(
            "bridgebench: {}: rounds disagree on virtual time or kernel counters",
            kind.name()
        );
    }
    tally.note(deterministic);

    let (virt_ns, units, _) = reference.expect("at least one round ran");
    let values = [
        stats::min(&setup_s),
        stats::min(&samples),
        units as f64 / (virt_ns.max(1) as f64 / 1e9),
        peak_rss_mb.unwrap_or(0.0),
    ];
    let metrics: Metrics = spec::END_TO_END
        .iter()
        .map(|name| name.to_string())
        .zip(values)
        .collect();
    println!(
        "# {} seed={} trace=0 clock={} rounds={} virt_s={} units={}",
        kind.name(),
        args.seed,
        clock.kind(),
        rounds,
        virt_ns as f64 / 1e9,
        units,
    );
    for (name, sample) in [("setup_s", &setup_s), ("host_cpu_s", &samples)] {
        let (q1, q3) = stats::quartiles(sample);
        println!(
            "#   {name}: min {:.6} q1 {q1:.6} median {:.6} q3 {q3:.6} n {}",
            stats::min(sample),
            stats::median(sample),
            sample.len()
        );
    }
    RunResult::new(tally, metrics)
}

/// The layers pass for one workload, in this process: the ledger, the
/// layers' own counters around one iteration, and the traced iteration's
/// critical-path categories.
fn run_layers(kind: Kind, args: &Args) -> RunResult {
    let clock = host::CpuClock::for_this_thread();
    let shrink = if args.smoke { SMOKE_SHRINK } else { 1 };
    let mut tally = Tally::default();
    let mut found: Metrics = Vec::new();
    let mut expected = Vec::new();
    if !args.skip_ledger {
        found.extend(layers::ledger(&clock, args.seed, shrink));
        expected.extend(spec::ledger_names());
    }
    let inputs = Arc::new(Inputs::generate(kind, args.seed, shrink));
    let (m, t) = layers::counters(kind, inputs, &clock);
    found.extend(m);
    tally.absorb(t);
    let traced = Arc::new(Inputs::generate(
        kind,
        args.seed,
        shrink * layers::TRACE_SHRINK,
    ));
    let (m, t) = layers::categories(kind, traced);
    let shares: f64 = m
        .iter()
        .filter(|(name, _)| name.starts_with("share."))
        .map(|(_, v)| v)
        .sum();
    tally.note((shares - 1.0).abs() < 1e-9);
    found.extend(m);
    tally.absorb(t);
    expected.extend(spec::workload_layer_names());

    let mut by_name: HashMap<String, f64> = found.into_iter().collect();
    // At smoke size the rows are mostly fixed costs and prove nothing.
    if !args.skip_ledger && !args.smoke {
        // Each row prices its boundary and everything beneath it, so the
        // sequential-read rows can only grow going up the stack; if they
        // do not, the rows are not comparable and no difference between
        // them means anything.
        let ns = |row: &str| by_name.get(&format!("ledger.{row}.ns_per_block")).copied();
        let stack = ["bridge.seq_read", "lfs.read", "efs.read", "simdisk.read"].map(ns);
        let monotone = stack.windows(2).all(|w| w[0] >= w[1]);
        if !monotone {
            eprintln!("bridgebench: read ledger is not monotone down the stack: {stack:?}");
        }
        tally.note(monotone);
    }
    // Report exactly the declared names, in the declared order.
    let mut metrics = Vec::with_capacity(expected.len());
    for name in expected {
        match by_name.remove(&name) {
            Some(value) => metrics.push((name, value)),
            None => {
                eprintln!("bridgebench: layer metric {name} was not produced");
                tally.note(false);
            }
        }
    }
    for name in by_name.keys() {
        eprintln!("bridgebench: layer metric {name} is not declared");
        tally.note(false);
    }
    println!(
        "# {} seed={} trace=1 clock={}",
        kind.name(),
        args.seed,
        clock.kind()
    );
    RunResult::new(tally, metrics)
}

fn print_metrics(result: &RunResult, spec: &Spec) {
    for (name, value) in &result.metrics {
        println!("{name:<44} {value:>18.6} {}", spec.unit(name));
    }
}

/// Runs one pass of one workload in a fresh child process of this binary
/// and returns its result, echoing its report.
fn run_child(kind: Kind, trace: bool, args: &Args, skip_ledger: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    if skip_ledger {
        cmd.arg("--skip-ledger");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{report}");
    let result = json::parse(last)
        .ok()
        .and_then(|doc| RunResult::from_json(&doc))
        .ok_or(format!(
            "{}: child printed no result (exit {:?})",
            kind.name(),
            out.status.code()
        ))?;
    Ok(result)
}

/// One pass (end-to-end or layers) over `kinds`, one child after another.
fn run_pass(kinds: &[Kind], trace: bool, args: &Args) -> Result<Vec<(Kind, RunResult)>, String> {
    let started = Instant::now();
    let mut results = Vec::new();
    for (i, &kind) in kinds.iter().enumerate() {
        let result = run_child(kind, trace, args, trace && i > 0)?;
        if !result.correct {
            eprintln!(
                "bridgebench: {}: {} of {} calls failed",
                kind.name(),
                result.failed,
                result.attempted
            );
        }
        results.push((kind, result));
    }
    println!(
        "# {} pass: {:.1} s wall\n",
        if trace { "layers" } else { "end-to-end" },
        started.elapsed().as_secs_f64()
    );
    Ok(results)
}

/// Compares two end-to-end passes of the same code: host metrics within
/// their bound of each other, virtual ones bit-identical. Returns the
/// disagreements, each naming its workload and metric.
fn disagreements(
    spec: &Spec,
    first: &[(Kind, RunResult)],
    second: &[(Kind, RunResult)],
) -> Vec<String> {
    let mut out = Vec::new();
    for ((kind, a), (_, b)) in first.iter().zip(second) {
        for m in &spec.end_to_end {
            let (Some(x), Some(y)) = (a.value(&m.name), b.value(&m.name)) else {
                out.push(format!("{} {}: missing", kind.name(), m.name));
                continue;
            };
            let virt = m.name.starts_with("virt_");
            let gap = (x - y).abs() / x.abs().min(y.abs()).max(f64::MIN_POSITIVE);
            if (virt && x != y) || gap > m.bound.unwrap_or(0.0) {
                out.push(format!(
                    "{} {}: {x} vs {y} ({:.2} % apart, bound {})",
                    kind.name(),
                    m.name,
                    gap * 100.0,
                    if virt {
                        "exact".to_string()
                    } else {
                        format!("{:.0} %", m.bound.unwrap_or(0.0) * 100.0)
                    }
                ));
            }
        }
    }
    out
}

fn export(path: &PathBuf, spec: &Spec, args: &Args, passes: &[(&str, &[(Kind, RunResult)])]) {
    // A string: a u64 seed need not fit a JSON number.
    let mut doc = vec![("seed".to_string(), Json::Str(args.seed.to_string()))];
    for (pass, results) in passes {
        let body = results
            .iter()
            .map(|(kind, r)| (kind.name().to_string(), r.to_json(spec)))
            .collect();
        doc.push((pass.to_string(), Json::Obj(body)));
    }
    write_line(path, &Json::Obj(doc).to_line());
}

fn write_line(path: &PathBuf, line: &str) {
    if let Err(e) = std::fs::write(path, format!("{line}\n")) {
        eprintln!("bridgebench: cannot write {}: {e}", path.display());
    }
}

/// The full run: end-to-end pass, then layers pass, children one after
/// another from this single thread.
fn run_all(args: &Args, spec: &Spec) -> Result<bool, String> {
    let kinds: Vec<Kind> = args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    for (name, why) in &spec.workloads {
        if kinds.iter().any(|k| k.name() == name) {
            println!("# {name}: {why}");
        }
    }
    println!();
    let mut ok = true;
    let mut e2e = Vec::new();
    let mut layer = Vec::new();
    if !args.layers_only {
        e2e = run_pass(&kinds, false, args)?;
        if args.repeat_check {
            let again = run_pass(&kinds, false, args)?;
            let diffs = disagreements(spec, &e2e, &again);
            for d in &diffs {
                eprintln!("bridgebench: repeat-check: {d}");
            }
            println!(
                "# repeat-check: {}",
                if diffs.is_empty() {
                    "two passes agree within the bounds".to_string()
                } else {
                    format!("{} disagreement(s)", diffs.len())
                }
            );
            ok &= diffs.is_empty() && again.iter().all(|(_, r)| r.correct);
        }
    }
    if !args.e2e_only {
        layer = run_pass(&kinds, true, args)?;
    }
    ok &= e2e.iter().chain(&layer).all(|(_, r)| r.correct);
    if let Some(path) = &args.json {
        export(
            path,
            spec,
            args,
            &[("end_to_end", &e2e), ("per_layer", &layer)],
        );
    }
    println!("# {}", if ok { "all outputs verified" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("bridgebench: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    let ok = match (args.workload, args.trace) {
        (Some(kind), Some(trace)) => {
            let result = if trace {
                run_layers(kind, &args)
            } else {
                run_end_to_end(kind, &args, &spec)
            };
            print_metrics(&result, &spec);
            let line = result.to_json(&spec).to_line();
            if let Some(path) = &args.json {
                write_line(path, &line);
            }
            println!("{line}");
            result.correct
        }
        _ => match run_all(&args, &spec) {
            Ok(ok) => ok,
            Err(msg) => {
                eprintln!("bridgebench: {msg}");
                false
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "churn_p8",
            "--seed",
            "18446744073709551615",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workload, Some(Kind::ChurnP8));
        assert_eq!(a.seed, u64::MAX);
        assert_eq!(a.seconds, Some(10.0));
        assert_eq!(a.trace, Some(true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&["--trace", "0"]).is_err(), "trace needs a workload");
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--e2e-only", "--layers-only"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn result_line_round_trips_with_units() {
        let spec = Spec::load();
        let result = RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                ("setup_s".to_string(), 0.071_234_5),
                ("host_cpu_s".to_string(), 0.034_5),
            ],
        };
        let doc = result.to_json(&spec);
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let unit = doc
            .get("metrics")
            .unwrap()
            .get("setup_s")
            .unwrap()
            .get("unit");
        assert_eq!(unit.and_then(Json::as_str), Some("s"));
        let back = RunResult::from_json(&json::parse(&doc.to_line()).unwrap()).unwrap();
        assert_eq!(back, result);
    }

    #[test]
    fn repeat_check_names_workload_and_metric() {
        let spec = Spec::load();
        let run = |cpu: f64, rate: f64| {
            vec![(
                Kind::SortP8,
                RunResult {
                    correct: true,
                    attempted: 1,
                    failed: 0,
                    metrics: vec![
                        ("setup_s".to_string(), 0.05),
                        ("host_cpu_s".to_string(), cpu),
                        ("virt_rate".to_string(), rate),
                        ("peak_rss_mb".to_string(), 100.0),
                    ],
                },
            )]
        };
        assert!(disagreements(&spec, &run(0.40, 16.5), &run(0.41, 16.5)).is_empty());
        let host = disagreements(&spec, &run(0.40, 16.5), &run(0.80, 16.5));
        assert_eq!(host.len(), 1);
        assert!(host[0].starts_with("sort_p8 host_cpu_s"), "{host:?}");
        // A virtual metric must match to the last bit.
        let virt = disagreements(&spec, &run(0.40, 16.5), &run(0.40, 16.500_000_1));
        assert_eq!(virt.len(), 1);
        assert!(virt[0].starts_with("sort_p8 virt_rate"), "{virt:?}");
    }
}
