//! CI smoke for the scaling claim: a p = 256 paper machine must build and
//! copy a file within a fixed host wall-clock budget. With one OS thread
//! per simulated process this took minutes; on fibers it is sub-second in
//! release builds. The budget is generous — it exists to catch an
//! order-of-magnitude regression in the engine, not to benchmark; CI runs
//! this in release with a tighter `BRIDGE_SMOKE_BUDGET_SECS`.
//!
//! Beside it, the breadth claim in *virtual* time, which is bit-stable and
//! so an exact budget: on the stock machine at p = 1024 the same copy,
//! start-up fan-outs included, stays under one virtual second (it was
//! 17.5 s while Create said hello to every node in turn).

use bridge_bench::{paper_machine, write_workload};
use bridge_core::{BridgeClient, BridgeConfig, BridgeMachine};
use bridge_tools::{copy, ToolOptions};
use parsim::SimDuration;
use std::time::{Duration, Instant};

const BLOCKS: u64 = 512;

fn budget() -> Duration {
    let secs = std::env::var("BRIDGE_SMOKE_BUDGET_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120);
    Duration::from_secs(secs)
}

#[test]
fn p256_copy_fits_the_wall_clock_budget() {
    let budget = budget();
    let t0 = Instant::now();
    let (mut sim, machine) = paper_machine(256);
    let server = machine.server;
    let elapsed = sim.block_on(machine.frontend, "smoke", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let src = write_workload(ctx, &mut bridge, BLOCKS, 42);
        let (_, stats) = copy(ctx, &mut bridge, src, &ToolOptions::default()).expect("copy");
        assert_eq!(stats.blocks, BLOCKS);
        stats.elapsed
    });
    let wall = t0.elapsed();
    assert!(!elapsed.is_zero(), "copy advanced no virtual time");
    assert!(
        wall <= budget,
        "p=256 copy of {BLOCKS} blocks took {wall:.1?} against a {budget:.0?} budget"
    );
}

#[test]
fn p1024_copy_fits_the_virtual_budget() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::paper(1024));
    let server = machine.server;
    let elapsed = sim.block_on(machine.frontend, "smoke", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let src = write_workload(ctx, &mut bridge, BLOCKS, 42);
        let (_, stats) = copy(ctx, &mut bridge, src, &ToolOptions::default()).expect("copy");
        assert_eq!(stats.blocks, BLOCKS);
        stats.elapsed
    });
    assert!(
        elapsed <= SimDuration::from_secs(1),
        "p=1024 copy of {BLOCKS} blocks took {elapsed} of virtual time against a 1 s budget"
    );
}
