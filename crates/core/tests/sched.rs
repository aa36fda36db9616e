//! The scheduling subsystem must be invisible when it is off: the default
//! Fifo policy on the flat Wren profile reproduces the pre-scheduler
//! tree's virtual-time results bit-for-bit, and the configured policy is
//! reported through `GetInfo`.

use bridge_core::{
    BridgeClient, BridgeConfig, BridgeMachine, CreateSpec, SchedConfig, SchedPolicy,
};

/// A canonical single-client workload: create, 256 sequential writes,
/// open, sequential read to EOF, three random reads. Returns the client's
/// elapsed virtual time (ns) and the simulation's message count.
fn canonical_workload(config: &BridgeConfig) -> (u64, u64) {
    let (mut sim, machine) = BridgeMachine::build(config);
    let server = machine.server;
    let elapsed = sim.block_on(machine.frontend, "probe", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let t0 = ctx.now();
        let file = bridge.create(ctx, CreateSpec::default()).unwrap();
        for b in 0..256u64 {
            bridge.seq_write(ctx, file, vec![b as u8; 960]).unwrap();
        }
        bridge.open(ctx, file).unwrap();
        while bridge.seq_read(ctx, file).unwrap().is_some() {}
        for b in [0u64, 128, 255] {
            bridge.rand_read(ctx, file, b).unwrap();
        }
        ctx.now() - t0
    });
    (elapsed.as_nanos(), sim.stats().messages)
}

/// These constants were measured on the tree *before* the scheduler
/// existed (arrival-order service loop, flat 15 ms Wren profile, serial
/// Create). The Fifo policy must keep reproducing them exactly:
/// scheduling off means unchanged virtual-time results, not merely
/// similar ones.
#[test]
fn fifo_flat_profile_reproduces_seed_virtual_time() {
    let prototype = |p: u32| BridgeConfig::paper(p).with_serial_create();
    assert_eq!(
        canonical_workload(&prototype(1)),
        (14_288_716_400, 2070),
        "p=1 drifted from the pre-scheduler baseline"
    );
    assert_eq!(
        canonical_workload(&prototype(4)),
        (14_242_720_000, 2082),
        "p=4 drifted from the pre-scheduler baseline"
    );
}

/// A single pipelining client issues requests one at a time, so the
/// policy never has more than one candidate: every policy must agree with
/// Fifo to the nanosecond on a single-client workload.
#[test]
fn single_client_results_identical_across_policies() {
    let fifo = canonical_workload(&BridgeConfig::paper(2));
    for policy in [SchedPolicy::Sstf, SchedPolicy::CScan] {
        let mut config = BridgeConfig::paper(2);
        config.sched = SchedConfig::new(policy);
        assert_eq!(
            canonical_workload(&config),
            fifo,
            "{policy} diverged from fifo with a single client"
        );
    }
}

#[test]
fn get_info_reports_the_scheduling_policy() {
    for policy in [SchedPolicy::Fifo, SchedPolicy::Sstf, SchedPolicy::CScan] {
        let mut config = BridgeConfig::instant(2);
        config.sched = SchedConfig::new(policy);
        let (mut sim, machine) = BridgeMachine::build(&config);
        let server = machine.server;
        let info = sim.block_on(machine.frontend, "probe", move |ctx| {
            BridgeClient::new(server).get_info(ctx).unwrap()
        });
        assert_eq!(info.sched, policy);
        assert_eq!(info.breadth, 2);
    }
}
