//! Ablation A4 — serial vs binary-tree startup/completion (paper §4.5,
//! §5.1).
//!
//! Two serial-startup costs exist in the system, and the paper proposes a
//! binary tree for both:
//!
//! 1. **Create**: "the initiation and termination are sequential, leading
//!    to an almost linear increase in overhead for additional processors.
//!    Performance could be improved somewhat by sending startup and
//!    completion messages through an embedded binary tree." The fan-out
//!    is one routine with an arity; the first table sweeps it, and is what
//!    `BridgeServerConfig::default()`'s arity rests on.
//! 2. **Tool worker startup**: the copy tool's O(n/p + log p) bound
//!    assumes tree-structured worker creation. The same shape — one
//!    routine, `ToolOptions::start_arity` — and the second table sweeps
//!    it.
//!
//! On a 2PC machine a Create is a transaction whose PREPAREs and votes
//! ride the same fan-out; a third table sets the stock arity against the
//! serial sequence there.
//!
//! The sweeps hold the defaults to account: at every p ≥ 8 the default
//! arity is no slower than any arity swept, and at every p no arity is
//! slower than the serial sequence. The default Create at p = 1024, plain
//! and 2PC, and the default startup-bound copy at p = 64 go to the bench
//! gate.

use bridge_bench::profile::Profiler;
use bridge_bench::report::Table;
use bridge_bench::results::{emit, Metric};
use bridge_bench::write_workload;
use bridge_core::{
    BridgeClient, BridgeConfig, BridgeMachine, BridgeServerConfig, CreateSpec, SERIAL_ARITY,
};
use bridge_tools::{copy, ToolOptions};
use parsim::{SimDuration, TracerHandle};

/// Create's arities swept, the serial sequence last.
const ARITIES: [u32; 5] = [2, 3, 4, 8, SERIAL_ARITY];
/// The tools' worker-start arities swept, the serial start last.
const START_ARITIES: [u32; 4] = [2, 4, 8, SERIAL_ARITY];
/// What "no slower" forgives: at p = 8 arity 3's first relay carries one
/// target fewer than the binomial tree's (16 bytes) and lands 0.8 µs
/// sooner. The tables print whole milliseconds.
const SLACK: SimDuration = SimDuration::from_micros(10);

/// The two asserts over one row of a sweep — `times` by `arities`, the
/// serial sequence last: from p = 8 up the default is no slower than any
/// arity, and no arity is ever slower than serial.
fn check_row(sweep: &str, p: u32, arities: &[u32], times: &[SimDuration], default: u32) {
    let at = |arity| times[arities.iter().position(|&a| a == arity).expect("swept")];
    let (ours, serial) = (at(default), at(SERIAL_ARITY));
    for (&arity, &time) in arities.iter().zip(times) {
        assert!(
            p < 8 || ours <= time + SLACK,
            "{sweep} p = {p}: the default arity {default} ({ours:?}) is slower than {arity} ({time:?})"
        );
        assert!(
            time <= serial,
            "{sweep} p = {p}: arity {arity} ({time:?}) is slower than serial ({serial:?})"
        );
    }
}

fn create_time(p: u32, arity: u32) -> SimDuration {
    let mut config = BridgeConfig::paper(p);
    config.server.create_arity = arity;
    creates(&config)
}

/// [`create_time`] on the 2PC machine: a Create is a transaction whose
/// PREPAREs and votes ride the fan-out.
fn create_2pc_time(p: u32, arity: u32) -> SimDuration {
    let mut config = BridgeConfig::paper(p).with_2pc();
    config.server.create_arity = arity;
    creates(&config)
}

/// The mean virtual time of four Creates on a fresh `config` machine.
fn creates(config: &BridgeConfig) -> SimDuration {
    let (mut sim, machine) = BridgeMachine::build(config);
    let server = machine.server;
    sim.block_on(machine.frontend, "bench", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        // Average a few creates.
        let t0 = ctx.now();
        for _ in 0..4 {
            bridge.create(ctx, CreateSpec::default()).expect("create");
        }
        (ctx.now() - t0) / 4
    })
}

fn copy_time(
    p: u32,
    blocks: u64,
    create_arity: u32,
    start_arity: u32,
    tracer: Option<TracerHandle>,
) -> SimDuration {
    let mut config = BridgeConfig::paper(p);
    config.server.create_arity = create_arity;
    config.tracer = tracer;
    let (mut sim, machine) = BridgeMachine::build(&config);
    let server = machine.server;
    sim.block_on(machine.frontend, "bench", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let src = write_workload(ctx, &mut bridge, blocks, 23);
        let opts = ToolOptions {
            start_arity,
            ..ToolOptions::default()
        };
        let (_, stats) = copy(ctx, &mut bridge, src, &opts).expect("copy");
        stats.elapsed
    })
}

fn main() {
    println!("## Ablation A4 — serial vs embedded-binary-tree startup\n");
    let mut profiler = Profiler::new("ablate_tree_start");

    // The stock machine's arity, which the sweep has to justify.
    let stock = BridgeServerConfig::default().create_arity;
    let stock_at = ARITIES.iter().position(|&a| a == stock).expect("swept");
    let mut metrics = Vec::new();
    let name = |arity: u32| match arity {
        SERIAL_ARITY => "serial".to_string(),
        arity => arity.to_string(),
    };
    println!("### Create, virtual ms, by fan-out arity (serial = Table 2's 145 + 17.5p)");
    let mut header = vec!["p".to_string()];
    header.extend(ARITIES.map(name));
    header.extend(["best".to_string(), format!("serial / {stock}")]);
    let mut t = Table::new(header);
    // p = 4 rides along: the widest file the sort tool's merge passes
    // create before the final one, where a relay hop is all overhead.
    for &p in &[4u32, 8, 32, 64, 256, 1024] {
        let times = ARITIES.map(|arity| create_time(p, arity));
        check_row("Create", p, &ARITIES, &times, stock);
        if p == 1024 {
            metrics.push(Metric::lower(
                "create_p1024.virt_secs",
                times[stock_at].as_secs_f64(),
            ));
        }
        let best = (0..ARITIES.len())
            .min_by_key(|&i| times[i])
            .expect("arities");
        let mut row = vec![p.to_string()];
        row.extend(times.iter().map(|d| format!("{:.0}", d.as_millis_f64())));
        row.push(name(ARITIES[best]));
        let serial = times[ARITIES.len() - 1];
        row.push(format!(
            "{:.2}x",
            serial.as_secs_f64() / times[stock_at].as_secs_f64()
        ));
        t.row(row);
    }
    t.print();

    println!(
        "\n### 2PC Create, virtual ms: PREPAREs and votes down the tree at arity {stock}, \
         against the serial sequence"
    );
    let arities = [stock, SERIAL_ARITY];
    let mut t = Table::new([
        "p".to_string(),
        name(stock),
        name(SERIAL_ARITY),
        format!("serial / {stock}"),
    ]);
    for &p in &[8u32, 32, 256, 1024] {
        let times = arities.map(|arity| create_2pc_time(p, arity));
        check_row("2PC Create", p, &arities, &times, stock);
        if p == 1024 {
            metrics.push(Metric::lower(
                "create_2pc_p1024.virt_secs",
                times[0].as_secs_f64(),
            ));
        }
        t.row([
            p.to_string(),
            format!("{:.0}", times[0].as_millis_f64()),
            format!("{:.0}", times[1].as_millis_f64()),
            format!("{:.2}x", times[1].as_secs_f64() / times[0].as_secs_f64()),
        ]);
    }
    t.print();

    // The tools' default, which this PR's sweep reports on and leaves alone.
    let default_start = ToolOptions::default().start_arity;
    println!(
        "\n### Copy tool, startup-dominated (one block per node), virtual ms, by worker-start \
         arity (Create at {stock}); all-serial = both at serial"
    );
    let mut header = vec!["p".to_string()];
    header.extend(START_ARITIES.map(name));
    header.extend([
        "all-serial".to_string(),
        format!("all-serial / {default_start}"),
    ]);
    let mut t = Table::new(header);
    for &p in &[8u32, 16, 32, 64] {
        let mut row = vec![p.to_string()];
        let mut at_default = SimDuration::ZERO;
        let mut times = Vec::new();
        for arity in START_ARITIES {
            // Under --profile, attribute the widest default-arity copy.
            let tracer = (p == 64 && arity == default_start)
                .then(|| profiler.arm("copy_start_p64_tree"))
                .flatten();
            let time = copy_time(p, u64::from(p), stock, arity, tracer);
            profiler.capture();
            if arity == default_start {
                at_default = time;
            }
            times.push(time);
            row.push(format!("{:.0}", time.as_millis_f64()));
        }
        check_row("copy start", p, &START_ARITIES, &times, default_start);
        if p == 64 {
            metrics.push(Metric::lower(
                "copy_start_p64.virt_secs",
                at_default.as_secs_f64(),
            ));
        }
        let tracer = (p == 64)
            .then(|| profiler.arm("copy_start_p64_serial"))
            .flatten();
        let serial = copy_time(p, u64::from(p), SERIAL_ARITY, SERIAL_ARITY, tracer);
        profiler.capture();
        row.push(format!("{:.0}", serial.as_millis_f64()));
        row.push(format!(
            "{:.2}x",
            serial.as_secs_f64() / at_default.as_secs_f64()
        ));
        t.row(row);
    }
    t.print();

    println!("\n### Copy tool, I/O-dominated (2048-block file): startup is in the noise");
    let mut t = Table::new(["p", "all-serial", "all-tree", "advantage"]);
    for &p in &[8u32, 32] {
        let serial = copy_time(p, 2048, SERIAL_ARITY, SERIAL_ARITY, None);
        let tree = copy_time(p, 2048, stock, default_start, None);
        t.row([
            p.to_string(),
            format!("{:.1} s", serial.as_secs_f64()),
            format!("{:.1} s", tree.as_secs_f64()),
            format!("{:.2}x", serial.as_secs_f64() / tree.as_secs_f64()),
        ]);
    }
    t.print();
    println!(
        "\nCreate's O(p) serial term becomes O(log p) through the agent tree, and the\n\
         tool's O(p) worker startup likewise — decisive for small per-node work,\n\
         invisible once the O(n/p) streaming term dominates."
    );
    emit("ablate_tree_start", &metrics);
}
