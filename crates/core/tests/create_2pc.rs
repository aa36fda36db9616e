//! A transactional Create, pinned: on a 2PC machine a Create is a
//! presumed-abort transaction whose PREPAREs carry Create's initiation
//! and whose votes carry its termination. At p ≤ 4 the fan-out splits
//! into singletons only, so these rows are the serial sequence and stay
//! put whatever the fan-out's shape does at breadth. Virtual time and the
//! kernel's counters are literals; a mismatch prints the observed row in
//! source form.

use bridge_core::{BridgeClient, BridgeConfig, BridgeMachine, CreateSpec};

/// The paper's machine at breadth `p` under two-phase commit, with
/// 256-track disks (as `churn_p8` builds it).
fn two_pc(p: u32) -> BridgeConfig {
    let mut config = BridgeConfig::paper(p).with_2pc();
    config.disk_geometry.tracks = 256;
    config
}

/// The second Create on a fresh machine: its virtual time (ns) and the
/// run's `events`, `messages`, `bytes_sent` and `dispatches`.
fn second_create(config: &BridgeConfig) -> [u64; 5] {
    let (mut sim, machine) = BridgeMachine::build(config);
    let server = machine.server;
    let elapsed = sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        bridge.create(ctx, CreateSpec::default()).unwrap();
        let t0 = ctx.now();
        bridge.create(ctx, CreateSpec::default()).unwrap();
        ctx.now() - t0
    });
    let stats = sim.stats();
    [
        elapsed.as_nanos(),
        stats.events,
        stats.messages,
        stats.bytes_sent,
        stats.dispatches,
    ]
}

/// Where the fan-out is all singletons a 2PC Create is the serial
/// sequence, send for send. The times were re-recorded when a
/// transaction began to be answered at its COMMIT: the second Create now
/// first takes the acks of the first one's parked DECIDE round
/// (108 612 100 → 108 407 300 ns at p = 2); the counters did not move.
#[test]
fn narrow_2pc_create_is_the_serial_sequence() {
    let rows = [
        (2, [108_407_300, 68, 20, 776, 68]),
        (3, [117_407_300, 96, 28, 1_068, 96]),
        (4, [126_407_300, 124, 36, 1_360, 124]),
    ];
    let mut drifted = false;
    for (p, want) in rows {
        let got = second_create(&two_pc(p));
        if got != want {
            drifted = true;
            println!("({p}, {got:?}),");
        }
    }
    assert!(
        !drifted,
        "the narrow 2PC Create moved (observed rows above)"
    );
}

/// At breadth the PREPAREs and votes ride the relay tree, so Create's
/// initiation and termination are charged per group at each hop rather
/// than per participant at the coordinator: a p = 8 Create is no slower
/// than the serial sequence's 190.4 ms, and a p = 1024 one stays under
/// 0.40 s (the serial sequence took 17.47 s).
#[test]
fn wide_2pc_create_rides_the_tree() {
    for (p, ceiling_ms) in [(8, 190.4), (1024, 400.0)] {
        let [nanos, ..] = second_create(&two_pc(p));
        let ms = nanos as f64 / 1e6;
        println!("p = {p}: {ms:.1} ms");
        assert!(ms <= ceiling_ms, "p = {p}: {ms:.1} ms > {ceiling_ms} ms");
    }
}
