//! Fault-tolerance ablation: what the timeout/retry protocol costs when
//! idle, and what riding out a fault storm costs end to end.
//!
//! Three runs of the same sequential write-then-read workload on the
//! paper machine:
//!
//! 1. **fault-free** — no fault plan, retries disabled: the pre-fault
//!    protocol, bit-for-bit.
//! 2. **retry-armed** — no fault plan, retries enabled everywhere. The
//!    phase durations must equal run 1's *exactly*: arming timeouts is
//!    free until a fault actually fires.
//! 3. **storm** — drops, duplicates, delays, and transient disk errors at
//!    aggressive rates with retries enabled. The read-back must still be
//!    byte-identical; throughput degrades and the trace's recovery
//!    histogram prices the availability cost.

use bridge_bench::profile::Profiler;
use bridge_bench::report::{secs, Table};
use bridge_bench::results::{emit, Metric};
use bridge_bench::{file_blocks, records_per_second};
use bridge_core::{BridgeClient, BridgeConfig, BridgeMachine, CreateSpec, RetryPolicy};
use bridge_trace::{Histogram, TraceCollector};
use parsim::{DiskFaults, FaultPlan, MsgFaults, SimDuration};

const BREADTH: u32 = 4;

fn blocks() -> u64 {
    file_blocks() / 4
}

/// The storm: every transient fault class at once, all bounded.
fn storm_plan() -> FaultPlan {
    FaultPlan {
        seed: 0x57A0_0001,
        msg: MsgFaults {
            drop_per_mille: 150,
            dup_per_mille: 100,
            delay_per_mille: 150,
            delay_max: SimDuration::from_millis(20),
            max_consecutive_drops: 4,
        },
        disk: DiskFaults {
            error_per_mille: 100,
            max_consecutive: 4,
            targets: Vec::new(),
        },
        ..FaultPlan::none()
    }
}

/// FNV-1a over the read-back stream: the convergence witness.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

struct RunOutcome {
    write: SimDuration,
    read: SimDuration,
    hash: u64,
}

fn run(config: &BridgeConfig, retry: RetryPolicy) -> RunOutcome {
    let n = blocks();
    let (mut sim, machine) = BridgeMachine::build(config);
    let server = machine.server;
    sim.block_on(machine.frontend, "bench", move |ctx| {
        let mut bridge = BridgeClient::with_retry(server, retry);
        let file = bridge
            .create(ctx, CreateSpec::default())
            .expect("create bench file");
        let t0 = ctx.now();
        for record in bridge_bench::workload::records(n, 42) {
            bridge.seq_write(ctx, file, record).expect("write");
        }
        let write = ctx.now() - t0;
        bridge.open(ctx, file).expect("open");
        let t0 = ctx.now();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut read = 0u64;
        while let Some(block) = bridge.seq_read(ctx, file).expect("read") {
            fnv(&mut hash, &block);
            read += 1;
        }
        assert_eq!(read, n, "every block read back");
        RunOutcome {
            write,
            read: ctx.now() - t0,
            hash,
        }
    })
}

fn main() {
    let n = blocks();
    println!("## Fault-tolerance ablation — {n} blocks written + read back, p = {BREADTH}\n");

    let fault_free = run(&BridgeConfig::paper(BREADTH), RetryPolicy::none());

    let mut armed_config = BridgeConfig::paper(BREADTH);
    armed_config.server.lfs_retry = RetryPolicy::standard();
    let armed = run(&armed_config, RetryPolicy::standard());

    let collector = TraceCollector::install();
    let mut storm_config = BridgeConfig::paper(BREADTH).with_faults(storm_plan());
    storm_config.tracer = Some(collector.as_tracer());
    let storm = run(&storm_config, RetryPolicy::standard());
    let data = collector.take();
    // Under --profile, the storm trace also yields a causal profile
    // (retry backoff shows up as its own attribution category).
    Profiler::new("ablate_faults").report("storm", &data);
    let named = |name: &'static str| data.instants.iter().filter(move |i| i.name == name);
    let count = |name| named(name).count();
    let mut recovery = Histogram::default();
    for i in named("retry.recovered") {
        recovery.record(i.arg("latency_nanos").expect("recovery latency"));
    }
    let disk_transients: u64 = named("fault.disk_transient")
        .map(|i| i.arg("retries").expect("transient retries"))
        .sum();
    let resends = count("retry.resend");

    // Correctness bars: arming retries without faults is free, and the
    // storm changes nothing the client can observe except timing.
    assert_eq!(
        (armed.write, armed.read),
        (fault_free.write, fault_free.read),
        "idle retry protocol must not change virtual timings"
    );
    assert_eq!(armed.hash, fault_free.hash, "armed read-back identical");
    assert_eq!(storm.hash, fault_free.hash, "storm read-back identical");
    assert_eq!(
        count("retry.exhausted"),
        0,
        "bounded storm never spends the budget"
    );
    assert!(resends > 0, "the storm actually dropped messages");

    let mut table = Table::new(["run", "write", "w/s", "read", "r/s"]);
    for (label, r) in [
        ("fault-free", &fault_free),
        ("retry-armed", &armed),
        ("storm", &storm),
    ] {
        table.row([
            label.to_string(),
            secs(r.write),
            format!("{:.1}", records_per_second(n, r.write)),
            secs(r.read),
            format!("{:.1}", records_per_second(n, r.read)),
        ]);
    }
    table.print();
    println!(
        "\nstorm recovery: {} resends, {} recovered, {} reply replays; \
         recovery latency mean {:.1} ms, p99 <= {:.1} ms",
        resends,
        recovery.count(),
        count("retry.replay"),
        recovery.mean().as_nanos() as f64 / 1e6,
        recovery.quantile_bound(0.99) as f64 / 1e6,
    );
    println!(
        "faults injected: {} drops, {} dups, {} delays, {} disk transients",
        count("fault.msg_drop"),
        count("fault.msg_dup"),
        count("fault.msg_delay"),
        disk_transients,
    );
    let slowdown = (storm.write + storm.read).as_secs_f64()
        / (fault_free.write + fault_free.read).as_secs_f64();
    println!(
        "\nHeadline: the storm costs {slowdown:.2}x wall-clock; contents and replies are unchanged"
    );

    emit(
        "ablate_faults",
        &[
            Metric::higher(
                "fault_free.writes_per_s",
                records_per_second(n, fault_free.write),
            ),
            Metric::higher(
                "fault_free.reads_per_s",
                records_per_second(n, fault_free.read),
            ),
            Metric::higher("storm.writes_per_s", records_per_second(n, storm.write)),
            Metric::higher("storm.reads_per_s", records_per_second(n, storm.read)),
            Metric::lower("storm.resends", resends as f64),
            Metric::lower(
                "storm.recovery_p99_ns",
                recovery.quantile_bound(0.99) as f64,
            ),
        ],
    );
}
