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
