//! `bridge-top` — the live machine-health dashboard.
//!
//! Operators of a production storage system work from live signals, not
//! post-mortem traces: a degraded column must be visible *while* reads
//! are being reconstructed, not after the run ends. `bridge-top` drives
//! a Bridge machine through a workload while polling its telemetry
//! registry on a fixed virtual-time cadence (the parsim sampler — the
//! same observation-only hook the kernel counters use, so polling
//! leaves the run bit-identical), collecting one [`HealthSnapshot`]
//! per boundary plus the final quiescence frame.
//!
//! Two canned scenarios ship with the binary:
//!
//! * [`TopScenario::Faulted`] — a parity-protected write/read workload
//!   with a seeded [`DiskLost`] mid-stream: the dashboard walks the
//!   whole operational arc (healthy → column lost → degraded reads →
//!   spare racks in → paced online rebuild → healthy again).
//! * [`TopScenario::Control`] — the identical workload with no fault
//!   plan; every frame's alert list must stay empty.
//!
//! The CLI (`cargo run -p bridge-tools --bin bridgetop`) renders the
//! frames through [`bridge_trace::render_snapshot`] or exports them as
//! a schema-validated JSON document — the artifact the `telemetry-smoke`
//! CI job asserts against.

use bridge_core::{
    BridgeClient, BridgeConfig, BridgeMachine, CreateSpec, DiskLost, FaultPlan, HealthSnapshot,
    Redundancy,
};
use parsim::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

/// Which canned workload a [`run_scenario`] call drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopScenario {
    /// Seeded single-disk loss mid-write-stream, then degraded reads, a
    /// spare, and a paced online rebuild.
    Faulted,
    /// The same workload with no fault plan (and no spare/rebuild —
    /// nothing to repair). Expected alert list: empty in every frame.
    Control,
}

impl TopScenario {
    /// Parses the CLI spelling (`faulted` / `control`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "faulted" => Some(TopScenario::Faulted),
            "control" => Some(TopScenario::Control),
            _ => None,
        }
    }
}

/// Knobs for a [`run_scenario`] run.
#[derive(Debug, Clone, Copy)]
pub struct TopOptions {
    /// Which canned workload to drive.
    pub scenario: TopScenario,
    /// Machine breadth (LFS instances).
    pub breadth: u32,
    /// Blocks appended to the parity-protected file.
    pub blocks: u64,
    /// Virtual-time polling cadence (one dashboard frame per boundary).
    pub interval: SimDuration,
    /// Fault-plan seed (faulted scenario only; also the machine seed's
    /// perturbation, so different seeds give different interleavings).
    pub seed: u64,
}

impl Default for TopOptions {
    fn default() -> Self {
        TopOptions {
            scenario: TopScenario::Faulted,
            breadth: 4,
            blocks: 64,
            interval: SimDuration::from_millis(20),
            seed: 0xB7_10_75,
        }
    }
}

/// The machine both scenarios run: paper-profile disks (so busy% and
/// latency frames carry real numbers), machine-wide atomicity, and
/// parity redundancy by default.
fn top_config(opts: &TopOptions) -> BridgeConfig {
    let mut config = BridgeConfig::paper(opts.breadth)
        .with_2pc()
        .with_redundancy(Redundancy::parity());
    if opts.scenario == TopScenario::Faulted {
        // Lose one column for good partway through the write stream —
        // late enough that real data is on the medium, early enough
        // that plenty of traffic runs degraded.
        let victim = (opts.seed % u64::from(opts.breadth)) as u32;
        config = config.with_faults(FaultPlan {
            seed: opts.seed,
            losses: vec![DiskLost {
                disk: victim,
                after_writes: opts.blocks / 2,
            }],
            ..FaultPlan::none()
        });
    }
    config
}

/// Drives the scenario and returns the sampled dashboard frames, oldest
/// first. The last frame is the quiescence sample: its `kernel` counters
/// are bit-identical to the run's returned `RunStats`, and its gauges
/// are the machine's end-of-run state.
///
/// # Panics
///
/// Panics if the machine was built with telemetry disarmed, or if the
/// faulted scenario's spare fails to rack in.
pub fn run_scenario(opts: &TopOptions) -> Vec<HealthSnapshot> {
    let config = top_config(opts);
    let (mut sim, machine) = BridgeMachine::build(&config);
    let registry = machine
        .telemetry
        .clone()
        .expect("bridge-top needs an armed machine (BridgeConfig::telemetry)");
    let frames: Rc<RefCell<Vec<HealthSnapshot>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let frames = Rc::clone(&frames);
        sim.set_sampler(opts.interval, move |at, stats| {
            frames
                .borrow_mut()
                .push(registry.snapshot(at, Some(*stats)));
        });
    }

    let server = machine.server;
    let victim = (opts.seed % u64::from(opts.breadth)) as usize;
    let spare = (opts.scenario == TopScenario::Faulted).then(|| machine.lfs[victim]);
    let retry = config.server.lfs_retry;
    let blocks = opts.blocks;
    sim.block_on(machine.frontend, "bridge-top", move |ctx| {
        let mut bridge = BridgeClient::with_retry(server, retry);
        let file = bridge.create(ctx, CreateSpec::default()).expect("create");
        for i in 0..blocks {
            bridge
                .seq_write(ctx, file, format!("bridgetop record {i:05}").into_bytes())
                .expect("append");
        }
        // Read everything back. Past the loss point these reads serve
        // the dead column reconstructed from its surviving stripe peers
        // — the degraded phase the dashboard is watching for.
        bridge.open(ctx, file).expect("open");
        while bridge.seq_read(ctx, file).expect("read").is_some() {}
        if let Some(victim) = spare {
            assert!(
                bridge_efs::install_spare(ctx, victim),
                "device produced a spare medium"
            );
            bridge
                .rebuild_paced(ctx, file, 8, SimDuration::from_micros(200))
                .expect("rebuild onto the spare");
        }
        // Final verification pass over the (possibly rebuilt) file.
        bridge.open(ctx, file).expect("reopen");
        while bridge.seq_read(ctx, file).expect("final read").is_some() {}
    });
    sim.clear_sampler();
    frames.take()
}
