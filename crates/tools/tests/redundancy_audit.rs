//! pfsck's redundancy audit: stripe parity recomputed and verified
//! (`--repair` rewrites bad parity), mirror copies compared, and a down
//! node's columns reconstructed from the surviving group members instead
//! of being written off as unknowable.

use bridge_core::{
    BridgeClient, BridgeConfig, BridgeFileId, BridgeMachine, CreateSpec, ParityLayout,
    PlacementSpec, Redundancy,
};
use bridge_efs::{LfsClient, LfsFileId, LfsOp};
use bridge_tools::{pfsck, FsckOptions, MachineFinding};
use bytes::Bytes;
use parsim::{Ctx, NodeId, ProcId};

fn record(tag: u32, block: u64) -> Vec<u8> {
    let mut data = vec![0u8; 120];
    data[..4].copy_from_slice(&tag.to_le_bytes());
    data[4..12].copy_from_slice(&block.to_le_bytes());
    for (i, b) in data.iter_mut().enumerate().skip(12) {
        *b = (tag as usize * 3 + block as usize * 7 + i) as u8;
    }
    data
}

fn write_redundant(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    redundancy: Redundancy,
    blocks: u64,
) -> BridgeFileId {
    let file = bridge
        .create(
            ctx,
            CreateSpec {
                redundancy,
                ..CreateSpec::default()
            },
        )
        .unwrap();
    for b in 0..blocks {
        bridge
            .seq_write(ctx, file, record(redundancy.tag(), b))
            .unwrap();
    }
    file
}

fn pairs(machine: &BridgeMachine) -> Vec<(ProcId, NodeId)> {
    machine
        .lfs
        .iter()
        .copied()
        .zip(machine.lfs_nodes.iter().copied())
        .collect()
}

fn check(
    ctx: &mut Ctx,
    pairs: &[(ProcId, NodeId)],
    server: ProcId,
    repair: bool,
) -> bridge_tools::FsckVerdict {
    pfsck(
        ctx,
        pairs,
        &FsckOptions {
            repair,
            server: Some(server),
            ..FsckOptions::default()
        },
    )
    .expect("pfsck")
}

/// The companion naming and parity placement of `file` on a breadth-4
/// machine, read back from the server's manifest.
fn manifest_entry(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    file: BridgeFileId,
) -> (LfsFileId, Vec<u32>, u32) {
    let manifest = bridge.get_manifest(ctx).unwrap();
    let entry = manifest
        .files
        .iter()
        .find(|e| e.file == file)
        .expect("file in manifest");
    (
        entry.companion.expect("redundant"),
        entry.nodes.clone(),
        entry.start,
    )
}

#[test]
fn parity_audit_detects_and_repairs_stale_parity() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    let pairs = pairs(&machine);
    sim.block_on(machine.frontend, "tool", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = write_redundant(ctx, &mut bridge, Redundancy::parity(), 13);
        assert!(check(ctx, &pairs, server, false).clean(), "healthy start");

        // Scribble over stripe 2's parity block behind the server's back.
        let (companion, nodes, _) = manifest_entry(ctx, &mut bridge, file);
        let layout = ParityLayout::new(4);
        let stripe = 2u64;
        let pnode = nodes[layout.parity_position(stripe) as usize];
        let mut lfs = LfsClient::new();
        lfs.call(
            ctx,
            pairs[pnode as usize].0,
            LfsOp::Write {
                file: companion,
                block: layout.parity_local(stripe),
                data: Bytes::from_static(b"scribble"),
                hint: None,
            },
        )
        .unwrap();

        let verdict = check(ctx, &pairs, server, false);
        assert!(!verdict.clean());
        let findings = &verdict.machine.as_ref().unwrap().findings;
        assert!(
            findings.contains(&MachineFinding::StaleParity {
                file,
                stripe,
                node: pnode,
            }),
            "stale parity reported: {findings:?}"
        );

        let repaired = check(ctx, &pairs, server, true);
        assert!(repaired.machine.as_ref().unwrap().repaired >= 1);
        assert!(repaired.clean(), "repair rewrote the parity block");
        assert!(check(ctx, &pairs, server, false).clean());
    });
}

#[test]
fn mirror_audit_detects_and_repairs_divergent_copy() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    let pairs = pairs(&machine);
    sim.block_on(machine.frontend, "tool", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = write_redundant(ctx, &mut bridge, Redundancy::Mirror, 9);
        let (companion, nodes, start) = manifest_entry(ctx, &mut bridge, file);

        // Block 5's position honours the file's round-robin start
        // rotation; its mirror sits one position over.
        let block = 5u64;
        let pos = ((block + u64::from(start)) % 4) as usize;
        let mnode = nodes[(pos + 1) % 4];
        let mut lfs = LfsClient::new();
        lfs.call(
            ctx,
            pairs[mnode as usize].0,
            LfsOp::Write {
                file: companion,
                block: (block / 4) as u32,
                data: Bytes::from_static(b"divergent"),
                hint: None,
            },
        )
        .unwrap();

        let verdict = check(ctx, &pairs, server, false);
        let findings = &verdict.machine.as_ref().unwrap().findings;
        assert!(
            findings.contains(&MachineFinding::MirrorMismatch {
                file,
                block,
                node: mnode,
            }),
            "mirror mismatch reported: {findings:?}"
        );

        let repaired = check(ctx, &pairs, server, true);
        assert!(repaired.machine.as_ref().unwrap().repaired >= 1);
        assert!(
            repaired.clean(),
            "repair rewrote the mirror from the primary"
        );
    });
}

/// Regression for the machine pass withholding a down node's columns:
/// with redundancy on they are reconstructed from the surviving group
/// members and verified, so a degraded machine still gets a clean bill —
/// while a second failure in the same group surfaces as unrecoverable.
#[test]
fn down_node_columns_are_reconstructed_not_withheld() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    let pairs = pairs(&machine);
    let victim = machine.lfs[1];
    let second = machine.lfs[2];
    sim.block_on(machine.frontend, "tool", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let blocks = 13u64;
        let parity = write_redundant(ctx, &mut bridge, Redundancy::parity(), blocks);
        let mirror = write_redundant(ctx, &mut bridge, Redundancy::Mirror, blocks);
        write_redundant(ctx, &mut bridge, Redundancy::None, blocks);

        bridge_efs::set_failed(ctx, victim, true);
        let verdict = check(ctx, &pairs, server, false);
        let machine_report = verdict.machine.as_ref().unwrap();
        assert!(
            machine_report.reconstructed > 0,
            "degraded columns were reconstructed: {machine_report:?}"
        );
        assert!(
            verdict.clean(),
            "one failure is fully recoverable: {:?}",
            verdict.errors()
        );

        // A second failure leaves single-survivor groups unrecoverable.
        bridge_efs::set_failed(ctx, second, true);
        let verdict = check(ctx, &pairs, server, false);
        assert!(!verdict.clean());
        let findings = &verdict.machine.as_ref().unwrap().findings;
        assert!(
            findings.iter().any(|f| matches!(
                f,
                MachineFinding::UnrecoverableBlock { file, .. } if *file == parity || *file == mirror
            )),
            "double failure surfaces unrecoverable blocks: {findings:?}"
        );
    });
}

/// A parity file whose round-robin start is not 0 audits against its
/// turned layout: a clean four-pass run, then a parity block scribbled
/// on the turned parity node is found there, and `--repair` fixes it.
#[test]
fn parity_audit_turns_the_layout_by_the_start() {
    const START: u32 = 2;
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    let pairs = pairs(&machine);
    sim.block_on(machine.frontend, "tool", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let spec = CreateSpec {
            redundancy: Redundancy::parity(),
            placement: PlacementSpec::RoundRobinAt { start: START },
            ..CreateSpec::default()
        };
        let file = bridge.create(ctx, spec).unwrap();
        for b in 0..13 {
            bridge
                .seq_write(ctx, file, record(Redundancy::parity().tag(), b))
                .unwrap();
        }
        let verdict = check(ctx, &pairs, server, false);
        assert!(verdict.clean(), "healthy start: {:?}", verdict.errors());

        let (companion, nodes, start) = manifest_entry(ctx, &mut bridge, file);
        assert_eq!(start, START);
        let layout = ParityLayout::new(4).starting_at(start);
        let stripe = 1u64;
        let pnode = nodes[layout.parity_position(stripe) as usize];
        assert_eq!(pnode, 3, "stripe 1's parity, turned two places");
        let mut lfs = LfsClient::new();
        lfs.call(
            ctx,
            pairs[pnode as usize].0,
            LfsOp::Write {
                file: companion,
                block: layout.parity_local(stripe),
                data: Bytes::from_static(b"scribble"),
                hint: None,
            },
        )
        .unwrap();

        let verdict = check(ctx, &pairs, server, false);
        let findings = &verdict.machine.as_ref().unwrap().findings;
        assert_eq!(
            findings,
            &vec![MachineFinding::StaleParity {
                file,
                stripe,
                node: pnode,
            }],
            "exactly the scribbled parity block"
        );
        let repaired = check(ctx, &pairs, server, true);
        assert_eq!(repaired.machine.as_ref().unwrap().repaired, 1);
        assert!(repaired.clean(), "repair rewrote the parity block");
        assert!(check(ctx, &pairs, server, false).clean());
    });
}

/// Writes `blocks` records into a fresh file of `redundancy` whose
/// round-robin placement starts at `start`.
fn write_at(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    redundancy: Redundancy,
    start: u32,
    blocks: u64,
) -> BridgeFileId {
    let spec = CreateSpec {
        redundancy,
        placement: PlacementSpec::RoundRobinAt { start },
        ..CreateSpec::default()
    };
    let file = bridge.create(ctx, spec).unwrap();
    for b in 0..blocks {
        bridge
            .seq_write(ctx, file, record(redundancy.tag(), b))
            .unwrap();
    }
    file
}

/// One pass's machine-wide outcome: findings, repaired, reconstructed.
fn machine_outcome(verdict: &bridge_tools::FsckVerdict) -> (Vec<MachineFinding>, u32, u64) {
    let m = verdict.machine.as_ref().expect("machine pass ran");
    (m.findings.clone(), m.repaired, m.reconstructed)
}

/// The exact findings, repaired and reconstructed counts of the machine
/// pass at p = 8 over three redundant files — grouped parity at start 0,
/// grouped parity turned to start 3, and a mirror at start 5 — with one
/// parity block and one mirror copy scribbled and the node holding a
/// data block fail-stopped; then with a second node down, where stripes
/// lose two members; then the repaired count of a paced rebuild onto a
/// spare, whose empty columns are read past their end and whose chunks
/// end inside a stripe.
#[test]
fn scrub_findings_and_repairs_are_pinned() {
    const GROUP: Redundancy = Redundancy::Parity { group: 4 };
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(8));
    let server = machine.server;
    let pairs = pairs(&machine);
    let procs = machine.lfs.clone();
    sim.block_on(machine.frontend, "tool", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let p0 = write_at(ctx, &mut bridge, GROUP, 0, 13);
        let p3 = write_at(ctx, &mut bridge, GROUP, 3, 13);
        let m5 = write_at(ctx, &mut bridge, Redundancy::Mirror, 5, 13);
        let healthy = check(ctx, &pairs, server, false);
        assert!(healthy.clean(), "healthy start: {:?}", healthy.errors());
        assert_eq!(machine_outcome(&healthy), (vec![], 0, 0));

        let mut lfs = LfsClient::new();
        // Stripe 1 of the turned file lies in the group away from the
        // node about to fail: its parity sits on node 7.
        let (companion, nodes, start) = manifest_entry(ctx, &mut bridge, p3);
        let layout = ParityLayout::grouped(8, 4).starting_at(start);
        let pnode = nodes[layout.parity_position(1) as usize];
        assert_eq!(pnode, 7);
        lfs.call(
            ctx,
            pairs[pnode as usize].0,
            LfsOp::Write {
                file: companion,
                block: layout.parity_local(1),
                data: Bytes::from_static(b"scribble"),
                hint: None,
            },
        )
        .unwrap();
        // Block 5 of the mirror lives on node 2, its copy on node 3.
        let (companion, nodes, start) = manifest_entry(ctx, &mut bridge, m5);
        let pos = ((5 + u64::from(start)) % 8) as usize;
        let mnode = nodes[(pos + 1) % 8];
        assert_eq!(mnode, 3);
        lfs.call(
            ctx,
            pairs[mnode as usize].0,
            LfsOp::Write {
                file: companion,
                block: 0,
                data: Bytes::from_static(b"divergent"),
                hint: None,
            },
        )
        .unwrap();
        // Block 4 of the start-0 file is on node 6.
        let down = ParityLayout::grouped(8, 4).data_position(4);
        assert_eq!(down, 6);
        bridge_efs::set_failed(ctx, procs[down as usize], true);

        let stale = MachineFinding::StaleParity {
            file: p3,
            stripe: 1,
            node: 7,
        };
        let mismatch = MachineFinding::MirrorMismatch {
            file: m5,
            block: 5,
            node: 3,
        };
        let checked = check(ctx, &pairs, server, false);
        assert_eq!(machine_outcome(&checked), (vec![stale, mismatch], 0, 8));
        // A rebuild must write to the down node, so it fails; pfsck's
        // repair rewrites what it can reach and does not fail.
        assert!(bridge.rebuild(ctx, p0).is_err());
        let repaired = check(ctx, &pairs, server, true);
        assert_eq!(machine_outcome(&repaired), (vec![], 2, 8));
        assert_eq!(repaired.repaired, 2);
        let again = check(ctx, &pairs, server, false);
        assert!(again.clean(), "{:?}", again.errors());
        assert_eq!(machine_outcome(&again), (vec![], 0, 8));

        // A second node down in the same groups: stripes and mirror
        // blocks that lose two members are unrecoverable.
        bridge_efs::set_failed(ctx, procs[7], true);
        let double = check(ctx, &pairs, server, false);
        let lost = |file: BridgeFileId, blocks: Vec<u64>| {
            blocks
                .into_iter()
                .map(move |block| MachineFinding::UnrecoverableBlock { file, block })
        };
        let expected: Vec<MachineFinding> = lost(p0, vec![4, 5, 10, 11])
            .chain(lost(p3, vec![]))
            .chain(lost(m5, vec![1, 9]))
            .collect();
        assert_eq!(machine_outcome(&double), (expected, 0, 8));
        bridge_efs::set_failed(ctx, procs[7], false);
        bridge_efs::set_failed(ctx, procs[6], false);

        // A spare on node 2, rebuilt in chunks of five blocks: a chunk
        // ends inside a three-block stripe, and every chunk reads the
        // spare's columns past their end.
        assert!(bridge_efs::install_spare(ctx, procs[2]), "spare racked in");
        let repaired: Vec<u64> = [p0, p3, m5]
            .into_iter()
            .map(|file| {
                bridge
                    .rebuild_paced(ctx, file, 5, parsim::SimDuration::ZERO)
                    .unwrap()
            })
            .collect();
        assert_eq!(repaired, vec![3, 2, 3]);
        let rebuilt = check(ctx, &pairs, server, false);
        assert!(rebuilt.clean(), "{:?}", rebuilt.errors());
        assert_eq!(machine_outcome(&rebuilt), (vec![], 0, 0));
        assert_eq!(
            bridge.rebuild(ctx, m5).unwrap(),
            0,
            "nothing left to repair"
        );
    });
}
