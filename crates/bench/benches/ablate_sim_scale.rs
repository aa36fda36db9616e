//! Simulator-scale ablation: how fast does the simulator itself run, and
//! how far past the paper's p = 32 does it reach?
//!
//! Two sweeps:
//!
//! 1. **Scale** — the fiber engine copies a fixed file on machines of
//!    p ∈ {32, 64, 256, 1024}, reporting host wall-clock for machine build
//!    and for the run phase, the resident set each node adds at build,
//!    simulator events/second, and the workload's virtual time.
//! 2. **Dispatch rate** — a 256-node token ring whose per-event work is
//!    one receive and one send: the purest measure of what one event
//!    dispatch costs the host, and what makes the >32-processor curves in
//!    EXPERIMENTS.md §A12 tractable at all.
//!
//! Virtual-time metrics go to the regression gate as exact values; the
//! resident set is reported only. The
//! dispatch rate is emitted too, but its committed baseline is a
//! deliberate *floor* (far below any healthy host) so the gate only trips
//! on an order-of-magnitude engine regression, never on host noise.

use bridge_bench::report::{count, secs, Table};
use bridge_bench::results::{emit, Metric};
use bridge_bench::{write_workload, SCALE_PROCESSORS};
use bridge_core::{BridgeClient, BridgeConfig, BridgeMachine};
use bridge_tools::{copy, ToolOptions};
use parsim::{ProcId, RunStats, SimConfig, SimDuration, Simulation};
use std::time::Instant;

/// Copy-workload size in blocks — fixed (not `BRIDGE_SCALE`-dependent) so
/// the virtual-time metrics below are identical at every scale.
const BLOCKS: u64 = 1024;

/// Ring breadth and laps for the dispatch-rate sweep.
const RING_P: usize = 256;
const RING_LAPS: u64 = 200;

struct Row {
    build_wall: f64,
    /// Resident-set growth across the machine build, in KB; `None` where
    /// `/proc/self/status` is unavailable.
    build_rss_kb: Option<u64>,
    run_wall: f64,
    virt: SimDuration,
    stats: RunStats,
}

impl Row {
    /// Simulator events retired per host second, run phase only. Machine
    /// build (allocating p disks and EFS instances) is reported
    /// separately.
    fn events_per_sec(&self) -> f64 {
        self.stats.events as f64 / self.run_wall.max(1e-9)
    }
}

/// Write-then-copy of [`BLOCKS`] records on the stock machine
/// ([`BridgeConfig::paper`], Create fanned out through the agents) at
/// breadth `p`, with host wall-clock split into machine build and run
/// phases.
fn run_copy(p: u32) -> Row {
    let rss0 = vm_rss_kb();
    let t0 = Instant::now();
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::paper(p));
    let build_wall = t0.elapsed().as_secs_f64();
    let build_rss_kb = rss0.zip(vm_rss_kb()).map(|(a, b)| b.saturating_sub(a));
    let server = machine.server;
    let t0 = Instant::now();
    let virt = sim.block_on(machine.frontend, "bench", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let src = write_workload(ctx, &mut bridge, BLOCKS, 42);
        let (_, stats) = copy(ctx, &mut bridge, src, &ToolOptions::default()).expect("copy");
        assert_eq!(stats.blocks, BLOCKS);
        stats.elapsed
    });
    let run_wall = t0.elapsed().as_secs_f64();
    Row {
        build_wall,
        build_rss_kb,
        run_wall,
        virt,
        stats: sim.stats(),
    }
}

/// This process's resident set (`VmRSS`) in KB, `None` off Linux.
fn vm_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Token ring across [`RING_P`] nodes: every event is one receive plus
/// one send, so events/second here is raw engine dispatch rate.
fn run_ring() -> Row {
    let t0 = Instant::now();
    let mut sim = Simulation::new(SimConfig::default());
    let nodes: Vec<_> = (0..RING_P).map(|i| sim.add_node(format!("n{i}"))).collect();
    let hops = RING_LAPS * RING_P as u64;
    let mut pids: Vec<ProcId> = Vec::with_capacity(RING_P);
    for (i, &node) in nodes.iter().enumerate() {
        pids.push(sim.spawn(node, format!("r{i}"), move |ctx| loop {
            let (_, (hop, ring)) = ctx.recv_as::<(u64, Vec<ProcId>)>();
            if hop >= hops {
                break;
            }
            let dst = ring[(hop as usize + 1) % ring.len()];
            ctx.send(dst, (hop + 1, ring));
        }));
    }
    let build_wall = t0.elapsed().as_secs_f64();
    let ring = pids.clone();
    let first = pids[0];
    let t0 = Instant::now();
    sim.block_on(nodes[0], "kick", move |ctx| {
        ctx.send(first, (0u64, ring));
    });
    let run_wall = t0.elapsed().as_secs_f64();
    let stats = sim.stats();
    Row {
        build_wall,
        build_rss_kb: None,
        run_wall,
        virt: stats.end_time - parsim::SimTime::ZERO,
        stats,
    }
}

fn main() {
    println!("## Simulator-scale ablation — run-to-completion engine ({BLOCKS}-block copy)\n");

    println!("### Sweep 1 — fiber engine vs machine breadth\n");
    let mut metrics = Vec::new();
    let mut table = Table::new([
        "Processors",
        "Build (host)",
        "Resident (host)",
        "Run (host)",
        "Events",
        "Events/s (host)",
        "Dispatches",
        "Copy Time (virtual)",
    ]);
    for &p in &SCALE_PROCESSORS {
        let row = run_copy(p);
        table.row([
            p.to_string(),
            format!("{:.3} s", row.build_wall),
            row.build_rss_kb.map_or("n/a".into(), |kb| {
                format!("{:.1} KB/node", kb as f64 / f64::from(p))
            }),
            format!("{:.3} s", row.run_wall),
            count(row.stats.events),
            format!("{:.0}", row.events_per_sec()),
            count(row.stats.dispatches),
            secs(row.virt),
        ]);
        metrics.push(Metric::lower(
            format!("p{p}.virt_secs"),
            row.virt.as_secs_f64(),
        ));
        metrics.push(Metric::lower(
            format!("p{p}.events"),
            row.stats.events as f64,
        ));
    }
    table.print();

    println!("\n### Sweep 2 — dispatch rate ({RING_P}-node token ring, {RING_LAPS} laps)\n");
    let ring = run_ring();
    let mut table = Table::new(["Run (host)", "Events", "Events/s (host)"]);
    table.row([
        format!("{:.3} s", ring.run_wall),
        count(ring.stats.events),
        format!("{:.0}", ring.events_per_sec()),
    ]);
    table.print();
    metrics.push(Metric::higher(
        "p256.fiber_dispatch_events_per_s",
        ring.events_per_sec(),
    ));

    emit("ablate_sim_scale", &metrics);
}
