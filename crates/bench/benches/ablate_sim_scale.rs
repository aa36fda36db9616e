//! Engine-scaling ablation: how fast does the simulator itself run, and
//! how far past the paper's p = 32 does it now reach?
//!
//! Three sweeps:
//!
//! 1. **Scale** — the run-to-completion fiber engine copies a fixed file
//!    on machines of p ∈ {32, 64, 256, 1024}, reporting host wall-clock
//!    for machine build and for the run phase, simulator events/second,
//!    and the workload's virtual time.
//! 2. **Copy head-to-head** — the same copy on both engines at p ∈
//!    {32, 256}. The engines must agree bit-for-bit on virtual time and
//!    event count (the engine contract, also pinned by the
//!    `engine_equivalence` tests). The events/second ratio here is
//!    Amdahl-limited: every event carries the simulated file system's own
//!    compute (block memcpys, EFS B-tree walks), identical on both
//!    engines, so even an infinitely fast dispatcher could not push this
//!    ratio past common-cost ÷ nothing.
//! 3. **Dispatch rate** — a 256-node token ring whose per-event work is
//!    one receive and one send: the purest measure of what the engine
//!    rework changed. Here the fiber engine must clear
//!    [`REQUIRED_DISPATCH_SPEEDUP`] over the threaded engine, which is
//!    what makes the >32-processor curves in EXPERIMENTS.md §A12
//!    tractable at all.
//!
//! Virtual-time metrics go to the regression gate as exact values. The
//! wall-clock metrics are emitted too, but their committed baselines are
//! deliberate *floors* (far below any healthy host) so the gate only
//! trips on an order-of-magnitude engine regression — e.g. silently
//! falling back to the threaded engine — never on host noise.

use bridge_bench::report::{count, secs, Table};
use bridge_bench::results::{emit, Metric};
use bridge_bench::{write_workload, SCALE_PROCESSORS};
use bridge_core::{BridgeClient, BridgeConfig, BridgeMachine};
use bridge_tools::{copy, ToolOptions};
use parsim::{Engine, ProcId, RunStats, SimConfig, SimDuration, Simulation};
use std::time::Instant;

/// Copy-workload size in blocks — fixed (not `BRIDGE_SCALE`-dependent) so
/// the virtual-time metrics below are identical at every scale and the
/// threaded head-to-head stays tractable.
const BLOCKS: u64 = 1024;

/// Breadths for the copy head-to-head. The threaded engine is already
/// painfully slow at p = 256 (which is the point); p = 1024 on it is
/// intractable, which is why the scale sweep is fiber-only.
const HEAD_TO_HEAD: [u32; 2] = [32, 256];

/// Ring breadth and laps for the dispatch-rate sweep.
const RING_P: usize = 256;
const RING_LAPS: u64 = 200;

/// Acceptance bar from the engine rework: dispatch-rate events/second on
/// the fiber engine at p = 256 must be at least this multiple of the
/// threaded engine's. (Measured locally: ~20x.)
const REQUIRED_DISPATCH_SPEEDUP: f64 = 10.0;

struct Row {
    build_wall: f64,
    run_wall: f64,
    virt: SimDuration,
    stats: RunStats,
}

impl Row {
    /// Simulator events retired per host second, run phase only. Machine
    /// build (allocating p disks and EFS instances — and, on the
    /// threaded engine, spawning p·k OS threads) is reported separately.
    fn events_per_sec(&self) -> f64 {
        self.stats.events as f64 / self.run_wall.max(1e-9)
    }
}

/// Write-then-copy of [`BLOCKS`] records on the stock machine
/// ([`BridgeConfig::paper`], Create fanned out through the agents) at
/// breadth `p`, pinned to `engine`, with host wall-clock split into
/// machine build and run phases.
fn run_copy(p: u32, engine: Engine) -> Row {
    let t0 = Instant::now();
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::paper(p).with_engine(engine));
    let build_wall = t0.elapsed().as_secs_f64();
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
        run_wall,
        virt,
        stats: sim.stats(),
    }
}

/// Token ring across [`RING_P`] nodes: every event is one receive plus
/// one send, so events/second here is raw engine dispatch rate.
fn run_ring(engine: Engine) -> Row {
    let t0 = Instant::now();
    let mut sim = Simulation::new(SimConfig {
        engine,
        ..SimConfig::default()
    });
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
        run_wall,
        virt: stats.end_time - parsim::SimTime::ZERO,
        stats,
    }
}

fn main() {
    println!("## Simulator-scale ablation — run-to-completion engine ({BLOCKS}-block copy)\n");

    println!("### Sweep 1 — fiber engine vs machine breadth\n");
    let mut metrics = Vec::new();
    let mut fiber_rows: Vec<(u32, Row)> = Vec::new();
    let mut table = Table::new([
        "Processors",
        "Build (host)",
        "Run (host)",
        "Events",
        "Events/s (host)",
        "Dispatches",
        "Copy Time (virtual)",
    ]);
    for &p in &SCALE_PROCESSORS {
        let row = run_copy(p, Engine::RunToCompletion);
        table.row([
            p.to_string(),
            format!("{:.3} s", row.build_wall),
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
        fiber_rows.push((p, row));
    }
    table.print();

    println!("\n### Sweep 2 — copy head-to-head (same workload, both engines)\n");
    let mut table = Table::new([
        "Processors",
        "Engine",
        "Run (host)",
        "Events/s (host)",
        "Fiber Speedup",
    ]);
    for &p in &HEAD_TO_HEAD {
        let threaded = run_copy(p, Engine::Threaded);
        let (_, fiber) = fiber_rows
            .iter()
            .find(|(fp, _)| *fp == p)
            .expect("head-to-head breadth is in the scale sweep");
        // The engine contract: identical simulation, different host cost.
        assert_eq!(
            (fiber.virt, fiber.stats.events),
            (threaded.virt, threaded.stats.events),
            "p={p}: engines disagree on the simulation itself"
        );
        let speedup = fiber.events_per_sec() / threaded.events_per_sec();
        table.row([
            p.to_string(),
            "threaded".to_string(),
            format!("{:.3} s", threaded.run_wall),
            format!("{:.0}", threaded.events_per_sec()),
            String::new(),
        ]);
        table.row([
            String::new(),
            "fiber".to_string(),
            format!("{:.3} s", fiber.run_wall),
            format!("{:.0}", fiber.events_per_sec()),
            format!("{speedup:.1}x"),
        ]);
    }
    table.print();
    println!(
        "\n(Copy events carry the simulated file system's own compute, identical on \
         both engines; the dispatch sweep below isolates what the engine changed.)"
    );

    println!("\n### Sweep 3 — dispatch rate ({RING_P}-node token ring, {RING_LAPS} laps)\n");
    let ring_fiber = run_ring(Engine::RunToCompletion);
    let ring_threaded = run_ring(Engine::Threaded);
    assert_eq!(
        (ring_fiber.virt, ring_fiber.stats.events),
        (ring_threaded.virt, ring_threaded.stats.events),
        "ring: engines disagree on the simulation itself"
    );
    let dispatch_speedup = ring_fiber.events_per_sec() / ring_threaded.events_per_sec();
    let mut table = Table::new(["Engine", "Run (host)", "Events", "Events/s (host)"]);
    table.row([
        "threaded".to_string(),
        format!("{:.3} s", ring_threaded.run_wall),
        count(ring_threaded.stats.events),
        format!("{:.0}", ring_threaded.events_per_sec()),
    ]);
    table.row([
        "fiber".to_string(),
        format!("{:.3} s", ring_fiber.run_wall),
        count(ring_fiber.stats.events),
        format!("{:.0}", ring_fiber.events_per_sec()),
    ]);
    table.print();
    println!(
        "\nFiber engine dispatch rate at p={RING_P}: {dispatch_speedup:.1}x the threaded \
         engine (required: {REQUIRED_DISPATCH_SPEEDUP:.0}x)"
    );
    metrics.push(Metric::higher("p256.dispatch_speedup", dispatch_speedup));
    metrics.push(Metric::higher(
        "p256.fiber_dispatch_events_per_s",
        ring_fiber.events_per_sec(),
    ));
    assert!(
        dispatch_speedup >= REQUIRED_DISPATCH_SPEEDUP,
        "run-to-completion engine must dispatch at least \
         {REQUIRED_DISPATCH_SPEEDUP:.0}x faster than the threaded engine at \
         p={RING_P}, measured {dispatch_speedup:.1}x"
    );

    emit("ablate_sim_scale", &metrics);
}
