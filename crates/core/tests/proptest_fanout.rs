//! Property test for Create's fan-out: one routine, run by the server as
//! the root and by every agent as an inner node, must reach exactly the
//! file's nodes whatever the arity, the breadth, the node subset and its
//! order — and at an arity no smaller than the node count it must *be*
//! the prototype's serial sequence, event for event.

use bridge_core::{
    BridgeClient, BridgeConfig, BridgeError, BridgeFileId, BridgeMachine, BridgeServerConfig,
    CreateSpec, Redundancy, SERIAL_ARITY,
};
use bridge_efs::{LfsClient, LfsData, LfsFileId, LfsOp};
use parsim::{splitmix64, RunStats, UniformLatency};
use proptest::prelude::*;

/// The mirror companion's marker bit (`server/directory.rs`).
const MIRROR_BIT: u32 = 0x4000_0000;

/// Free disks (the creates themselves are not under test) under the
/// paper's Create charges and interconnect, so the order and timing of
/// the fan-out's messages show in the clock and the counters.
fn config(p: u32, arity: u32) -> BridgeConfig {
    let mut config = BridgeConfig::instant(p);
    config.server = BridgeServerConfig {
        create_arity: arity,
        ..BridgeServerConfig::default()
    };
    config.latency = UniformLatency::default();
    config
}

/// What one Create did: the reply, its virtual time (ns), the kernel's
/// counters when it returned, and the files each LFS then holds.
#[derive(Debug, PartialEq)]
struct Outcome {
    reply: Result<BridgeFileId, BridgeError>,
    nanos: u64,
    stats: RunStats,
    holdings: Vec<Vec<LfsFileId>>,
}

fn create(config: &BridgeConfig, spec: CreateSpec) -> Outcome {
    let (mut sim, machine) = BridgeMachine::build(config);
    let server = machine.server;
    let (reply, nanos) = sim.block_on(machine.frontend, "app", move |ctx| {
        let t0 = ctx.now();
        let reply = BridgeClient::new(server).create(ctx, spec);
        (reply, (ctx.now() - t0).as_nanos())
    });
    let stats = sim.stats();
    let lfs = machine.lfs.clone();
    let holdings = sim.block_on(machine.frontend, "lister", move |ctx| {
        let mut client = LfsClient::new();
        lfs.iter()
            .map(|&proc| match client.call(ctx, proc, LfsOp::ListFiles) {
                Ok(LfsData::Files(files)) => files.iter().map(|f| f.file).collect(),
                other => panic!("ListFiles answered {other:?}"),
            })
            .collect()
    });
    Outcome {
        reply,
        nanos,
        stats,
        holdings,
    }
}

/// `len` distinct nodes of a `p`-node machine, in an order drawn from
/// `seed` (a partial Fisher–Yates shuffle).
fn node_subset(p: u32, len: u32, mut seed: u64) -> Vec<u32> {
    let mut all: Vec<u32> = (0..p).collect();
    for i in 0..len as usize {
        let pick = i + (splitmix64(&mut seed) % (u64::from(p) - i as u64)) as usize;
        all.swap(i, pick);
    }
    all.truncate(len as usize);
    all
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn every_arity_creates_on_exactly_the_files_nodes(
        p in 1u32..=96,
        arity_pick in 0usize..5,
        len_draw in any::<u32>(),
        order_seed in any::<u64>(),
        mirrored in any::<bool>(),
    ) {
        let nodes = node_subset(p, 1 + len_draw % p, order_seed);
        let arity = [2, 3, 4, 8, p][arity_pick];
        // A mirrored file needs two nodes; a one-node request is refused
        // the same way at every arity, which the reply comparison covers.
        let spec = CreateSpec {
            nodes: Some(nodes.clone()),
            redundancy: if mirrored { Redundancy::Mirror } else { Redundancy::None },
            ..CreateSpec::default()
        };
        let serial = create(&config(p, SERIAL_ARITY), spec.clone());
        let fanned = create(&config(p, arity), spec.clone());
        prop_assert_eq!(&fanned.reply, &serial.reply);
        prop_assert_eq!(&fanned.holdings, &serial.holdings);

        let created = serial.reply.is_ok();
        prop_assert_eq!(created, !(mirrored && nodes.len() == 1));
        let mut expected = vec![LfsFileId(1)];
        if mirrored {
            expected.push(LfsFileId(1 | MIRROR_BIT));
        }
        for (node, held) in fanned.holdings.iter().enumerate() {
            let mut held = held.clone();
            held.sort_unstable_by_key(|f| f.0);
            if created && nodes.contains(&(node as u32)) {
                prop_assert_eq!(&held, &expected, "node {} holds each file once", node);
            } else {
                prop_assert!(held.is_empty(), "node {} is not the file's: {:?}", node, held);
            }
        }

        // An arity that covers every node makes every group a leaf: the
        // serial sequence itself, to the event and the nanosecond.
        let covering = create(&config(p, nodes.len() as u32), spec);
        prop_assert_eq!(covering, serial);
    }
}
