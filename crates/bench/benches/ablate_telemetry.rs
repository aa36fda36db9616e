//! Ablation A16 — what always-on telemetry costs: the live health
//! registry (per-instance counters, per-op latency histogram, event
//! journal) armed but never polled, against the same machine with the
//! registry disarmed (p = 4, Wren disks, WAL + 2PC + parity — every
//! counter family in the hot path).
//!
//! Telemetry is observation-only by construction: counter updates
//! happen host-side between events and consume no virtual time, so the
//! armed run *must* return bit-identical `RunStats` — asserted here,
//! not just tested. What arming can cost is host compute (per-batch
//! counter flushes and histogram records), and that is the gate:
//! armed-but-unpolled may cost at most 1.05x the disarmed run.
//!
//! The cost is measured in on-CPU time, not wall-clock. The default
//! engine runs the whole simulation as fibers on the calling thread,
//! so the thread's scheduler runtime (`/proc/thread-self/schedstat` on
//! Linux) prices exactly the work under test while staying immune to
//! the preemption noise that makes wall-clock swing ±10% on a shared
//! CI host; where that clock is unavailable the bench falls back to
//! wall time. The regimes run interleaved and the gate compares the
//! ratio of per-regime medians. A sampler-polled run (one snapshot per
//! 10 virtual ms) is measured alongside, ungated — it prices the
//! dashboard itself.

use bridge_bench::report::{secs, Table};
use bridge_bench::results::{emit, Metric};
use bridge_bench::{file_blocks, records_per_second};
use bridge_core::{BridgeClient, BridgeConfig, BridgeMachine, CreateSpec, Redundancy};
use parsim::{RunStats, SimDuration};
use std::time::Instant;

const BREADTH: u32 = 4;
/// Interleaved disarmed/armed pairs feeding the gate; the estimator is
/// the ratio of per-regime medians, so its noise shrinks roughly with
/// the square root of the pair count.
const PAIRS: usize = 21;
/// Repetitions of the sampler-polled regime (ungated, so a few suffice).
const POLL_REPS: usize = 3;

fn stream_blocks() -> u64 {
    // 4x the scaled file so each run is long enough (~0.3 CPU-seconds
    // at quick scale) that per-run cache and frequency transients stay
    // small against the quantity under test.
    file_blocks() * 4
}

/// The measured machine: everything armed counters watch — WAL rings,
/// 2PC, parity redundancy — so every counter family is on the hot path.
fn config(telemetry: bool) -> BridgeConfig {
    let mut c = BridgeConfig::paper(BREADTH)
        .with_2pc()
        .with_redundancy(Redundancy::parity());
    c.telemetry = telemetry;
    c
}

/// One run: append-heavy traffic through the server (every block lands
/// on data plus parity columns, under 2PC-backed creates), then a full
/// read-back. Returns the kernel counters and the virtual elapsed time.
fn run_once(config: &BridgeConfig, poll: bool) -> (RunStats, SimDuration) {
    let (mut sim, machine) = BridgeMachine::build(config);
    if poll {
        let registry = machine.telemetry.clone().expect("polled run is armed");
        sim.set_sampler(SimDuration::from_millis(10), move |at, stats| {
            // The dashboard's cost: assemble the full frame each poll.
            let snap = registry.snapshot(at, Some(*stats));
            std::hint::black_box(&snap);
        });
    }
    let server = machine.server;
    let blocks = stream_blocks();
    let elapsed = sim.block_on(machine.frontend, "bench", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let t0 = ctx.now();
        let file = bridge.create(ctx, CreateSpec::default()).expect("create");
        for i in 0..blocks {
            bridge
                .seq_write(ctx, file, vec![i as u8; 256])
                .expect("append");
        }
        bridge.open(ctx, file).expect("open");
        while bridge.seq_read(ctx, file).expect("read").is_some() {}
        ctx.now() - t0
    });
    (sim.stats(), elapsed)
}

/// On-CPU seconds consumed so far by the calling thread, from the
/// scheduler's own ledger (`sum_exec_runtime`, nanosecond resolution).
/// The run-to-completion engine executes the entire simulation on this
/// thread, so deltas of this clock price exactly the work under test
/// and exclude time spent preempted. `None` off Linux or when the
/// kernel does not expose schedstats.
fn thread_cpu_seconds() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let on_cpu_nanos: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(on_cpu_nanos as f64 * 1e-9)
}

/// One cost sample around `f`: on-CPU seconds when available, else
/// wall-clock seconds. Never mixes the two within a process — if the
/// CPU clock worked for the first read it works for the second.
fn time_cost<T>(f: impl FnOnce() -> T) -> (T, f64) {
    match thread_cpu_seconds() {
        Some(cpu0) => {
            let value = f();
            let cpu1 = thread_cpu_seconds().expect("schedstat disappeared mid-run");
            (value, cpu1 - cpu0)
        }
        None => {
            let t0 = Instant::now();
            let value = f();
            (value, t0.elapsed().as_secs_f64())
        }
    }
}

/// Median of a small sample (averages the middle pair when even).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// One full measurement round: interleaved disarmed/armed pairs (plus a
/// few ungated polled reps), so slow drift in the host — turbo states,
/// cache warmth, noisy neighbours — lands on both gated regimes alike.
/// Returns per-regime median costs and the last run of each regime.
fn measure_round(with_polled: bool) -> ([f64; 3], [Option<(RunStats, SimDuration)>; 3]) {
    let mut host: [Vec<f64>; 3] = Default::default();
    let mut runs: [Option<(RunStats, SimDuration)>; 3] = [None, None, None];
    for rep in 0..PAIRS {
        let mut regimes = vec![(0usize, false, false), (1, true, false)];
        if with_polled && rep < POLL_REPS {
            regimes.push((2, true, true));
        }
        for (i, telemetry, poll) in regimes {
            let cfg = config(telemetry);
            let (run, cost) = time_cost(|| run_once(&cfg, poll));
            host[i].push(cost);
            runs[i] = Some(run);
        }
    }
    if std::env::var("BRIDGE_BENCH_DEBUG").is_ok() {
        for (name, xs) in [
            ("disarmed", &host[0]),
            ("armed", &host[1]),
            ("polled", &host[2]),
        ] {
            let line: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
            eprintln!("{name}: {}", line.join(" "));
        }
    }
    let medians = [
        median(host[0].clone()),
        median(host[1].clone()),
        if host[2].is_empty() {
            0.0
        } else {
            median(host[2].clone())
        },
    ];
    (medians, runs)
}

fn main() {
    println!(
        "## Ablation A16 — telemetry overhead (p = {BREADTH}, {} blocks, \
         ratio of medians over {PAIRS} interleaved pairs)\n",
        stream_blocks()
    );

    // One discarded warmup: the first run pays one-time costs (page
    // faults, branch and cache warmup) that no regime should inherit.
    let _ = run_once(&config(false), false);

    // The per-regime medians still carry a few percent of environmental
    // noise on a shared host, and the true overhead sits near 1.0x, so a
    // single round can breach the 1.05x gate spuriously. A breach
    // therefore triggers a full re-measure (up to two): interference
    // does not repeat three rounds running, while a genuine regression
    // past the budget fails every round.
    const ROUNDS: usize = 3;
    let (mut medians, mut runs) = measure_round(true);
    let (polled_median, polled_run) = (medians[2], runs[2]);
    for round in 1..ROUNDS {
        if medians[1] / medians[0] <= 1.05 {
            break;
        }
        println!(
            "round {round}: armed overhead {:.3}x breached the gate; re-measuring\n",
            medians[1] / medians[0]
        );
        (medians, runs) = measure_round(false);
        medians[2] = polled_median;
        runs[2] = polled_run;
    }
    let (disarmed, armed, polled) = (
        runs[0].expect("ran"),
        runs[1].expect("ran"),
        runs[2].expect("ran"),
    );

    // The contract before the cost: observation never changes the run.
    assert_eq!(
        disarmed.0, armed.0,
        "arming telemetry changed the kernel's RunStats"
    );
    assert_eq!(
        disarmed.0, polled.0,
        "sampler polling changed the kernel's RunStats"
    );

    // Ratio of medians, not median of per-rep ratios: single reps on a
    // shared host swing ±10%, and pairing adjacent runs does not cancel
    // that — the medians themselves are what converge.
    let armed_overhead = medians[1] / medians[0];
    let polled_overhead = medians[2] / medians[0];

    let clock = if thread_cpu_seconds().is_some() {
        "cpu"
    } else {
        "wall"
    };
    let mut t = Table::new(["regime", "virtual", "cost (median)", "overhead"]);
    for (name, i, overhead) in [
        ("disarmed", 0usize, 1.0),
        ("armed, unpolled", 1, armed_overhead),
        ("armed + sampler", 2, polled_overhead),
    ] {
        t.row([
            name.to_string(),
            secs(disarmed.1),
            format!("{:.3} {clock}-s", medians[i]),
            format!("{overhead:.3}x"),
        ]);
    }
    t.print();

    // The acceptance gate: always-on telemetry may cost at most 5%.
    assert!(
        armed_overhead <= 1.05,
        "armed-but-unpolled overhead {armed_overhead:.3}x exceeds the 1.05x budget"
    );

    println!(
        "\narmed overhead: {armed_overhead:.3}x (budget 1.05x); \
         polled overhead: {polled_overhead:.3}x"
    );

    emit(
        "ablate_telemetry",
        &[
            Metric::lower("telemetry.virt_secs", disarmed.1.as_secs_f64()),
            Metric::higher(
                "telemetry.blocks_per_s",
                records_per_second(stream_blocks(), disarmed.1),
            ),
            Metric::lower("telemetry.armed_overhead", armed_overhead),
            Metric::lower("telemetry.polled_overhead", polled_overhead),
        ],
    );
}
