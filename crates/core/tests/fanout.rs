//! Table 2's Create, pinned: the prototype's serial fan-out — "the
//! initiation and termination are sequential" — is the reference sequence
//! every other way of reaching the LFS instances is measured against, so
//! one Create's virtual time and the kernel's counters for it are
//! literals here. The simulation is deterministic: any difference is a
//! behavioural change, not noise. A mismatch prints the observed row in
//! source form.

use bridge_core::{
    BridgeClient, BridgeConfig, BridgeError, BridgeFileId, BridgeMachine, CreateSpec, Redundancy,
    SERIAL_ARITY,
};
use bridge_efs::{EfsError, LfsClient, LfsFileId, LfsOp};
use bridge_trace::{profile, validate_causality, Category, TraceCollector};

/// The paper's machine at breadth `p`, spelling the prototype's serial
/// sequence.
fn serial(p: u32) -> BridgeConfig {
    BridgeConfig::paper(p).with_serial_create()
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
            one_create(&serial(4), CreateSpec::default()),
            [89_408_000, 45, 10, 352, 45],
        ),
        (
            "p32",
            one_create(&serial(32), CreateSpec::default()),
            [545_204_800, 325, 66, 2_144, 325],
        ),
        (
            "p32_mirror",
            one_create(
                &serial(32).with_redundancy(Redundancy::Mirror),
                CreateSpec::default(),
            ),
            [801_204_800, 517, 130, 4_192, 517],
        ),
        (
            "one_node",
            one_create(&serial(4), on_nodes(&[2])),
            [62_408_000, 21, 4, 160, 21],
        ),
        (
            "two_nodes",
            one_create(&serial(4), on_nodes(&[3, 1])),
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

/// The stock machine's Create — the fan-out at the default arity — from
/// the widths where it is the serial sequence up to p = 1024.
#[test]
fn default_create_is_pinned_at_every_breadth() {
    let rows = [
        (2, [71_408_000, 25, 6, 224, 25]),
        (3, [80_408_000, 35, 8, 288, 35]),
        (4, [89_408_000, 45, 10, 352, 45]),
        (8, [106_422_000, 89, 20, 752, 89]),
        (32, [140_849_200, 353, 80, 3_472, 353]),
        (256, [192_640_400, 2_817, 640, 33_808, 2_817]),
        (1024, [227_662_800, 11_265, 2_560, 151_568, 11_265]),
    ];
    let mut drifted = false;
    for (p, want) in rows {
        let got = one_create(&BridgeConfig::paper(p), CreateSpec::default());
        if got != want {
            drifted = true;
            println!("({p}, {got:?}),");
        }
    }
    assert!(!drifted, "the default Create moved (observed rows above)");
}

/// A Create that fails on one middle node reports that node's error only
/// after every other reply has been consumed: nothing is left behind in
/// the server's mailbox (its dispatch spans carry the stash depth), and
/// the next Create finds the machine as a clean one would.
#[test]
fn a_failed_fan_out_strands_nothing() {
    for arity in [BridgeConfig::paper(8).server.create_arity, SERIAL_ARITY] {
        let collector = TraceCollector::install();
        let mut config = BridgeConfig::paper(8);
        config.server.create_arity = arity;
        config.tracer = Some(collector.as_tracer());
        let (mut sim, machine) = BridgeMachine::build(&config);
        let (server, middle) = (machine.server, machine.lfs[3]);
        sim.block_on(machine.frontend, "app", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let first = bridge.create(ctx, CreateSpec::default()).unwrap();
            assert_eq!(first, BridgeFileId(1));
            // The next Bridge file's LFS name, already taken on one node.
            let squatter = LfsFileId(2);
            LfsClient::new()
                .call(ctx, middle, LfsOp::Create { file: squatter })
                .unwrap();
            assert_eq!(
                bridge.create(ctx, CreateSpec::default()),
                Err(BridgeError::Lfs(EfsError::FileExists(squatter))),
                "arity {arity}"
            );
            let next = bridge.create(ctx, CreateSpec::default()).unwrap();
            assert_eq!(next, BridgeFileId(3), "arity {arity}");
            bridge.seq_write(ctx, next, vec![7; 64]).unwrap();
            assert_eq!(bridge.open(ctx, next).unwrap().size, 1);
        });
        let stashed: Vec<u64> = collector
            .snapshot()
            .spans_in("bridge")
            .filter(|s| s.pid == server.index())
            .map(|s| {
                s.arg("stashed")
                    .expect("dispatch spans carry the stash depth")
            })
            .collect();
        assert_eq!(
            stashed, [0; 5],
            "arity {arity}: create, create, create, write, open"
        );
    }
}

/// Every relay hop is one link of the causal chain client → server →
/// agent → … → LFS: its `client.bridge.relay` span pairs with exactly one
/// `bridge.relay` service span under the key the profiler stitches by, so
/// a Create through three levels of agents is attributed to the
/// nanosecond, with no time left unexplained.
#[test]
fn relay_hops_stitch_into_the_causal_chain() {
    let collector = TraceCollector::install();
    let mut config = BridgeConfig::paper(128);
    config.tracer = Some(collector.as_tracer());
    let (mut sim, machine) = BridgeMachine::build(&config);
    let server = machine.server;
    sim.block_on(machine.frontend, "app", move |ctx| {
        BridgeClient::new(server)
            .create(ctx, CreateSpec::default())
            .unwrap();
    });
    let trace = collector.snapshot();
    let served: Vec<_> = trace
        .spans_in("bridge")
        .filter(|s| s.name == "bridge.relay")
        .map(|s| (s.pid as u64, s.arg("id"), s.arg("client")))
        .collect();
    let sent: Vec<_> = trace
        .spans_in("client")
        .filter(|s| s.name == "client.bridge.relay")
        .collect();
    assert!(
        sent.iter().any(|hop| hop.pid != server.index()),
        "deeper than the server's own relays"
    );
    assert_eq!(sent.len(), served.len());
    for hop in sent {
        let key = (
            hop.arg("server").unwrap(),
            hop.arg("id"),
            Some(hop.pid as u64),
        );
        assert_eq!(served.iter().filter(|&&s| s == key).count(), 1, "{key:?}");
    }
    validate_causality(&trace).unwrap();
    let [create] = &profile(&trace).ops[..] else {
        panic!("the Create is the run's one top-level op");
    };
    assert_eq!(create.name, "client.bridge.create");
    assert_eq!(create.untraced_nanos(), 0);
    assert_eq!(create.breakdown.total(), create.latency_nanos());
    assert!(
        create.breakdown.get(Category::DiskPosition) > 0,
        "reaches the disks"
    );
}
