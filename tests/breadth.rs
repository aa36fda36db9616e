//! Machine-wide transactions at breadth: the decision record of a wide
//! Create or Delete spans log frames instead of panicking the server,
//! and one the decision-log ring cannot hold beside its COMMIT is
//! refused before any participant hears of it.
//!
//! Instant disks, but for one timed Create — p = 1024 builds 1 024
//! nodes, and what is checked is sizes and atomicity, and that a 2PC
//! Create's initiation and termination ride the relay tree.

use bridge_repro::core::{
    BridgeClient, BridgeConfig, BridgeError, BridgeFileId, BridgeMachine, CreateSpec, Redundancy,
};
use bridge_repro::parsim::{Ctx, NodeId, ProcId, SimDuration};
use bridge_repro::tools::{pfsck, FsckOptions};

/// Builds a 2PC machine of `breadth` nodes and runs `f` as its client;
/// closes with a machine-wide pfsck (per-instance passes plus the
/// directory-against-instances cross-check), which must be clean.
fn on_2pc_machine(breadth: u32, f: impl FnOnce(&mut Ctx, &mut BridgeClient) + Send + 'static) {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(breadth).with_2pc());
    let server = machine.server;
    let pairs: Vec<(ProcId, NodeId)> = machine
        .lfs
        .iter()
        .copied()
        .zip(machine.lfs_nodes.iter().copied())
        .collect();
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        f(ctx, &mut bridge);
        let options = FsckOptions {
            server: Some(server),
            ..FsckOptions::default()
        };
        let verdict = pfsck(ctx, &pairs, &options).expect("pfsck");
        assert!(verdict.clean(), "p={breadth}: {:?}", verdict.errors());
    });
}

/// A file on every node, one block written to each column's worth.
fn create_write_delete(ctx: &mut Ctx, bridge: &mut BridgeClient, redundancy: Redundancy) {
    let spec = CreateSpec {
        redundancy,
        ..CreateSpec::default()
    };
    let file = bridge.create(ctx, spec).expect("create");
    for block in 0..3u64 {
        assert_eq!(bridge.seq_write(ctx, file, vec![7; 64]).unwrap(), block);
    }
    assert_eq!(bridge.open(ctx, file).expect("open").size, 3);
    assert!(bridge.delete(ctx, file).expect("delete") >= 3);
    assert_eq!(
        bridge.open(ctx, file).unwrap_err(),
        BridgeError::UnknownFile(file)
    );
}

/// 512 participants: a BEGIN of two frames (panicked before the
/// decision log's records could span frames).
#[test]
fn create_and_delete_at_p512() {
    on_2pc_machine(512, |ctx, bridge| {
        create_write_delete(ctx, bridge, Redundancy::None);
        create_write_delete(ctx, bridge, Redundancy::Parity { group: 8 });
    });
}

/// 1024 participants: four frames plain, five with a companion column.
#[test]
fn create_and_delete_at_p1024() {
    on_2pc_machine(1024, |ctx, bridge| {
        create_write_delete(ctx, bridge, Redundancy::None);
        create_write_delete(ctx, bridge, Redundancy::Mirror);
    });
}

/// A narrow machine, a wide batch: 200 doomed files name 200 columns on
/// each of the 8 participants (panicked likewise).
#[test]
fn delete_many_of_200_files_at_p8() {
    on_2pc_machine(8, |ctx, bridge| {
        let files: Vec<BridgeFileId> = (0..200)
            .map(|_| bridge.create(ctx, CreateSpec::default()).expect("create"))
            .collect();
        for &file in &files[..4] {
            bridge.seq_write(ctx, file, vec![9; 32]).expect("append");
        }
        assert_eq!(bridge.delete_many(ctx, files.clone()).expect("delete"), 4);
        for file in files {
            assert_eq!(
                bridge.open(ctx, file).unwrap_err(),
                BridgeError::UnknownFile(file)
            );
        }
    });
}

/// 64 files × 1024 participants is a 270 KB BEGIN against a 32 KB ring:
/// refused before any PREPARE is sent — every file still there, whole
/// and deletable one at a time, and the closing pfsck finds every
/// instance and the directory as they were.
#[test]
fn a_begin_larger_than_the_ring_is_refused_with_nothing_touched() {
    on_2pc_machine(1024, |ctx, bridge| {
        let files: Vec<BridgeFileId> = (0..64)
            .map(|_| bridge.create(ctx, CreateSpec::default()).expect("create"))
            .collect();
        bridge
            .seq_write(ctx, files[0], vec![3; 48])
            .expect("append");
        let refused = bridge.delete_many(ctx, files.clone()).unwrap_err();
        assert!(
            matches!(refused, BridgeError::TxnTooLarge { frames, ring: 8 } if frames > 8),
            "{refused:?}"
        );
        for &file in &files {
            bridge.open(ctx, file).expect("still in the directory");
        }
        assert_eq!(
            bridge.seq_read(ctx, files[0]).unwrap().unwrap()[..48],
            [3; 48]
        );
        // What fits still goes: the same files, a ring's worth at a time.
        assert_eq!(
            bridge.delete_many(ctx, files[..2].to_vec()).expect("two"),
            1
        );
    });
}

/// The paper's machine at p = 1024 under 2PC (256-track disks, as
/// `churn_p8` builds them): a Create's PREPAREs and votes ride the relay
/// tree, charged per group at each hop, so the second Create on the
/// machine takes at most 0.40 virtual s — at the coordinator's serial
/// per-participant charges it took 17.47 s.
#[test]
fn a_paper_2pc_create_at_p1024_is_timed_by_the_tree() {
    let mut config = BridgeConfig::paper(1024).with_2pc();
    config.disk_geometry.tracks = 256;
    let (mut sim, machine) = BridgeMachine::build(&config);
    let server = machine.server;
    let elapsed = sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        bridge.create(ctx, CreateSpec::default()).expect("create");
        let t0 = ctx.now();
        bridge.create(ctx, CreateSpec::default()).expect("create");
        ctx.now() - t0
    });
    assert!(
        elapsed <= SimDuration::from_millis(400),
        "a 2PC Create at p = 1024 took {elapsed:?}"
    );
}
