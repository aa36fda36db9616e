//! The server's rounds of LFS ops that Create does not drive, pinned on
//! the paper's clock at p = 8: a plain Delete, two `DeleteMany`s (the
//! second over a mirrored, a plain and a parity file), a 2PC
//! Delete, an Open, a 2PC parity overwrite (a read round, then a
//! transaction sent straight to its participants) and a rebuild onto a
//! freshly installed spare (`ensure_columns`' stat round, then its create
//! round). Each row is one op's virtual time (ns) and the whole run's
//! `events`, `messages`, `bytes_sent` and `dispatches`. The simulation is
//! deterministic: any difference is a behavioural change, not noise. A
//! mismatch prints the observed row in source form. On the 2PC machine a
//! transaction is answered at its COMMIT, and the timed op first takes
//! the acks of the last append's parked DECIDE round: the rebuild's row
//! went 505 640 800 → 526 894 650 ns and the Delete's 113 203 850 →
//! 113 253 850 when that began; the counters did not move.
//!
//! Beside the pins, the fold every round shares: a vetoed round reports
//! its earliest target's error, and a lost column is tolerated only where
//! the file is redundant.

use bridge_core::{
    BridgeClient, BridgeConfig, BridgeError, BridgeFileId, BridgeMachine, CreateSpec, Redundancy,
    SERIAL_ARITY,
};
use bridge_efs::{set_failed, EfsError, LfsClient, LfsData, LfsFileId, LfsOp};
use parsim::{Ctx, ProcId, SimDuration};

/// `base` with 256-track disks (as `churn_p8` builds its machine).
fn small_disks(mut base: BridgeConfig) -> BridgeConfig {
    base.disk_geometry.tracks = 256;
    base
}

/// The stock machine at p = 8: no decision log, Create at the default
/// arity.
fn fan_out() -> BridgeConfig {
    small_disks(BridgeConfig::paper(8))
}

/// The same machine under two-phase commit, every file parity-protected.
fn two_pc_parity() -> BridgeConfig {
    small_disks(
        BridgeConfig::paper(8)
            .with_2pc()
            .with_redundancy(Redundancy::parity()),
    )
}

/// Runs `scenario` on a fresh machine built from `config`; the scenario
/// gets the client, the LFS processes, and returns the virtual time of
/// the op under test. The row is that time and the run's counters.
fn row(
    config: &BridgeConfig,
    scenario: impl FnOnce(&mut Ctx, &mut BridgeClient, &[ProcId]) -> SimDuration + 'static,
) -> [u64; 5] {
    let (mut sim, machine) = BridgeMachine::build(config);
    let (server, lfs) = (machine.server, machine.lfs.clone());
    let elapsed = sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        scenario(ctx, &mut bridge, &lfs)
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

/// The virtual time `op` takes.
fn timed(ctx: &mut Ctx, op: impl FnOnce(&mut Ctx)) -> SimDuration {
    let t0 = ctx.now();
    op(ctx);
    ctx.now() - t0
}

/// A file created from `spec` holding `blocks` appended blocks.
fn written(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    spec: CreateSpec,
    blocks: u64,
) -> BridgeFileId {
    let file = bridge.create(ctx, spec).unwrap();
    for b in 0..blocks {
        bridge
            .seq_write(ctx, file, vec![b as u8 ^ 0x5a; 100])
            .unwrap();
    }
    file
}

fn mirrored() -> CreateSpec {
    CreateSpec {
        redundancy: Redundancy::Mirror,
        ..CreateSpec::default()
    }
}

fn parity() -> CreateSpec {
    CreateSpec {
        redundancy: Redundancy::parity(),
        ..CreateSpec::default()
    }
}

fn on_nodes(nodes: &[u32]) -> CreateSpec {
    CreateSpec {
        nodes: Some(nodes.to_vec()),
        ..CreateSpec::default()
    }
}

#[test]
fn rounds_are_pinned() {
    let rows = [
        (
            "plain_delete_mirrored",
            row(&fan_out(), |ctx, bridge, _| {
                let file = written(ctx, bridge, mirrored(), 12);
                timed(ctx, |ctx| {
                    bridge.delete(ctx, file).unwrap();
                })
            }),
            [43_408_000, 392, 142, 30_272, 392],
        ),
        (
            "delete_many_two_node_sets",
            row(&fan_out(), |ctx, bridge, _| {
                let a = written(ctx, bridge, on_nodes(&[0, 1, 2]), 5);
                let b = written(ctx, bridge, on_nodes(&[4, 5, 6, 7]), 6);
                timed(ctx, |ctx| {
                    bridge.delete_many(ctx, vec![a, b]).unwrap();
                })
            }),
            [22_408_000, 214, 78, 15_044, 214],
        ),
        (
            "delete_many_mirror_plain_parity",
            row(&fan_out(), |ctx, bridge, _| {
                let a = written(ctx, bridge, mirrored(), 12);
                let b = written(ctx, bridge, on_nodes(&[2, 3, 4, 5]), 7);
                let c = written(ctx, bridge, parity(), 9);
                timed(ctx, |ctx| {
                    bridge.delete_many(ctx, vec![a, b, c]).unwrap();
                })
            }),
            [106_408_000, 862, 324, 70_408, 862],
        ),
        (
            "open_mirrored",
            row(&fan_out(), |ctx, bridge, _| {
                let file = written(ctx, bridge, mirrored(), 12);
                timed(ctx, |ctx| {
                    bridge.open(ctx, file).unwrap();
                })
            }),
            [6_418_400, 344, 126, 29_968, 344],
        ),
        (
            "two_pc_delete",
            row(&two_pc_parity(), |ctx, bridge, _| {
                let file = written(ctx, bridge, CreateSpec::default(), 12);
                timed(ctx, |ctx| {
                    bridge.delete(ctx, file).unwrap();
                })
            }),
            [113_253_850, 600, 212, 67_712, 600],
        ),
        (
            "two_pc_parity_overwrite",
            row(&two_pc_parity(), |ctx, bridge, _| {
                let file = written(ctx, bridge, CreateSpec::default(), 12);
                timed(ctx, |ctx| {
                    bridge.rand_write(ctx, file, 9, vec![0xa5; 100]).unwrap();
                })
            }),
            [81_558_100, 552, 192, 73_032, 552],
        ),
        (
            "two_pc_rebuild_onto_spare",
            row(&two_pc_parity(), |ctx, bridge, lfs| {
                let file = written(ctx, bridge, CreateSpec::default(), 12);
                set_failed(ctx, lfs[3], true);
                set_failed(ctx, lfs[3], false);
                assert!(bridge_efs::install_spare(ctx, lfs[3]), "spare racked in");
                timed(ctx, |ctx| {
                    assert!(bridge.rebuild(ctx, file).unwrap() > 0);
                })
            }),
            [526_894_650, 791, 302, 108_576, 791],
        ),
    ];
    let mut drifted = false;
    for (name, got, want) in rows {
        if got != want {
            drifted = true;
            println!("{name}: observed {got:?}, pinned {want:?}");
        }
    }
    assert!(!drifted, "a round moved (observed rows above)");
}

/// Companion-id bit of a mirrored file's copy column.
const MIRROR_BIT: u32 = 0x4000_0000;

/// Blocks `file` holds on `lfs`; 0 where it has none.
fn column_blocks(ctx: &mut Ctx, lfs: ProcId, file: LfsFileId) -> u64 {
    match LfsClient::new().call(ctx, lfs, LfsOp::Stat { file }) {
        Ok(LfsData::Info(info)) => u64::from(info.size),
        other => panic!("stat {file:?}: {other:?}"),
    }
}

/// A plain Create that two nodes refuse reports the earliest one's error,
/// whichever arrives first and whether or not the round relays: node 3
/// already holds the file's LFS name, and node 6 is fail-stopped.
#[test]
fn a_vetoed_create_reports_its_earliest_target() {
    for arity in [fan_out().server.create_arity, SERIAL_ARITY] {
        let mut config = fan_out();
        config.server.create_arity = arity;
        row(&config, move |ctx, bridge, lfs| {
            assert_eq!(
                bridge.create(ctx, CreateSpec::default()),
                Ok(BridgeFileId(1))
            );
            let squatter = LfsFileId(2);
            let taken = LfsClient::new().call(ctx, lfs[3], LfsOp::Create { file: squatter });
            assert_eq!(taken, Ok(LfsData::Done));
            set_failed(ctx, lfs[6], true);
            assert_eq!(
                bridge.create(ctx, CreateSpec::default()),
                Err(BridgeError::Lfs(EfsError::FileExists(squatter))),
                "arity {arity}"
            );
            SimDuration::ZERO
        });
    }
}

/// With one node fail-stopped, a mirrored file's Delete counts the lost
/// column as tolerated and frees what the survivors hold; an unprotected
/// file's Delete is vetoed with `NodeFailed` and its directory entry
/// stays, so the client can retry.
#[test]
fn a_delete_tolerates_a_lost_column_only_when_redundant() {
    row(&fan_out(), |ctx, bridge, lfs| {
        let mirror = written(ctx, bridge, mirrored(), 16);
        let plain = written(ctx, bridge, CreateSpec::default(), 16);
        let survivors: u64 = (lfs.iter().enumerate())
            .filter(|&(n, _)| n != 6)
            .map(|(_, &proc)| {
                let data = column_blocks(ctx, proc, LfsFileId(mirror.0));
                data + column_blocks(ctx, proc, LfsFileId(mirror.0 | MIRROR_BIT))
            })
            .sum();
        set_failed(ctx, lfs[6], true);
        assert_eq!(bridge.delete(ctx, mirror), Ok(survivors));
        assert_eq!(
            bridge.delete(ctx, plain),
            Err(BridgeError::Lfs(EfsError::NodeFailed))
        );
        let manifest = bridge.get_manifest(ctx).unwrap();
        let files: Vec<BridgeFileId> = manifest.files.iter().map(|e| e.file).collect();
        assert_eq!(files, [plain]);
        SimDuration::ZERO
    });
}
