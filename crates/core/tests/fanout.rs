//! Table 2's Create, pinned: the prototype's serial fan-out — "the
//! initiation and termination are sequential" — is the reference sequence
//! every other way of reaching the LFS instances is measured against, so
//! one Create's virtual time and the kernel's counters for it are
//! literals here. The simulation is deterministic: any difference is a
//! behavioural change, not noise. A mismatch prints the observed row in
//! source form.

use bridge_core::{
    BridgeClient, BridgeConfig, BridgeMachine, CreateSpec, Redundancy, SERIAL_ARITY,
};

/// `config` spelling the prototype's serial sequence.
fn serial(mut config: BridgeConfig) -> BridgeConfig {
    config.server.create_arity = SERIAL_ARITY;
    config
}

/// One Create on a fresh machine: its virtual time (ns) and the run's
/// `events`, `messages`, `bytes_sent` and `dispatches`.
fn one_create(config: &BridgeConfig, spec: CreateSpec) -> [u64; 5] {
    let (mut sim, machine) = BridgeMachine::build(config);
    let server = machine.server;
    let elapsed = sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let t0 = ctx.now();
        bridge.create(ctx, spec).unwrap();
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

fn on_nodes(nodes: &[u32]) -> CreateSpec {
    CreateSpec {
        nodes: Some(nodes.to_vec()),
        ..CreateSpec::default()
    }
}

#[test]
fn serial_create_reproduces_the_reference_sequence() {
    let rows = [
        (
            "p4",
            one_create(&serial(BridgeConfig::paper(4)), CreateSpec::default()),
            [89_408_000, 45, 10, 352, 45],
        ),
        (
            "p32",
            one_create(&serial(BridgeConfig::paper(32)), CreateSpec::default()),
            [545_204_800, 325, 66, 2_144, 325],
        ),
        (
            "p32_mirror",
            one_create(
                &serial(BridgeConfig::paper(32).with_redundancy(Redundancy::Mirror)),
                CreateSpec::default(),
            ),
            [801_204_800, 517, 130, 4_192, 517],
        ),
        (
            "one_node",
            one_create(&serial(BridgeConfig::paper(4)), on_nodes(&[2])),
            [62_408_000, 21, 4, 160, 21],
        ),
        (
            "two_nodes",
            one_create(&serial(BridgeConfig::paper(4)), on_nodes(&[3, 1])),
            [71_408_000, 29, 6, 224, 29],
        ),
    ];
    let mut drifted = false;
    for (name, got, want) in rows {
        if got != want {
            drifted = true;
            println!("{name}: observed {got:?}, pinned {want:?}");
        }
    }
    assert!(!drifted, "the serial Create moved (observed rows above)");
}
