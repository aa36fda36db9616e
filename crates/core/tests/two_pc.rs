//! Machine-wide atomicity of the Bridge Server's multi-instance
//! mutations. Two families of checks:
//!
//! - **Delete staging**: a `DeleteMany` that fails validation (unknown
//!   file, in-batch duplicate) must leave the directory untouched — the
//!   surviving files stay fully readable and a corrected batch succeeds.
//!   This holds on both the legacy fan-out and the 2PC path, because the
//!   server validates the whole batch before mutating anything.
//! - **Freed-block accounting**: `Deleted { blocks }` must equal exactly
//!   the blocks freed on surviving instances when a node is down and the
//!   batch mixes `Redundancy::None` and `Redundancy::Mirror` files.
//!   Tolerant skips (redundant columns on the dead node) never
//!   under-count the survivors; an intolerable loss (a `None` file
//!   placed on the dead node) errors — and under 2PC removes nothing.
//!
//! And two of timing: a transaction is answered at its COMMIT, and the
//! next request on its file waits for its DECIDE acks; a request that
//! queues while a group votes has its read round served under the
//! group's COMMIT force.

use bridge_core::{
    BridgeClient, BridgeConfig, BridgeError, BridgeFileId, BridgeMachine, CreateSpec, Redundancy,
};
use bridge_efs::{set_failed, EfsError, LfsClient, LfsData, LfsFileId, LfsOp};
use bridge_trace::TraceCollector;
use parsim::{Ctx, ProcId, SimDuration};

/// Companion-id bit for mirrored columns (mirrors `core::server`).
const MIRROR_BIT: u32 = 0x4000_0000;

const BREADTH: u32 = 4;

fn config(two_pc: bool) -> BridgeConfig {
    let base = BridgeConfig::instant(BREADTH);
    if two_pc {
        base.with_2pc()
    } else {
        base.with_wal()
    }
}

fn record(tag: u32, block: u64) -> Vec<u8> {
    let mut data = vec![0u8; 80];
    data[..4].copy_from_slice(&tag.to_le_bytes());
    data[4..12].copy_from_slice(&block.to_le_bytes());
    for (i, b) in data.iter_mut().enumerate().skip(12) {
        *b = (tag as usize * 7 + block as usize * 13 + i) as u8;
    }
    data
}

fn write_file(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    tag: u32,
    blocks: u64,
    spec: CreateSpec,
) -> BridgeFileId {
    let file = bridge.create(ctx, spec).unwrap();
    for b in 0..blocks {
        assert_eq!(bridge.seq_write(ctx, file, record(tag, b)).unwrap(), b);
    }
    file
}

fn assert_readable(ctx: &mut Ctx, bridge: &mut BridgeClient, file: BridgeFileId, tag: u32) {
    bridge.open(ctx, file).unwrap();
    let mut blocks = 0u64;
    while let Some(block) = bridge.seq_read(ctx, file).unwrap() {
        assert_eq!(&block[..80], &record(tag, blocks)[..], "file {file:?}");
        blocks += 1;
    }
    assert!(blocks > 0, "file {file:?} lost its contents");
}

/// Size in blocks of one column (primary or companion) on one instance;
/// 0 when the instance has no such file.
fn column_blocks(ctx: &mut Ctx, client: &mut LfsClient, lfs: ProcId, id: LfsFileId) -> u64 {
    match client.call(ctx, lfs, LfsOp::Stat { file: id }) {
        Ok(LfsData::Info(info)) => u64::from(info.size),
        Err(EfsError::UnknownFile(_)) => 0,
        other => panic!("stat {id:?}: unexpected {other:?}"),
    }
}

/// Satellite regression: a `DeleteMany` batch that trips validation —
/// an unknown id, or the same id listed twice — must reject the whole
/// batch without removing anything. Before the fix, the server removed
/// directory entries as it scanned, so `[a, bogus]` destroyed `a`'s
/// metadata while its columns survived on the LFS instances.
#[test]
fn failed_delete_many_leaves_directory_intact() {
    for two_pc in [false, true] {
        let (mut sim, machine) = BridgeMachine::build(&config(two_pc));
        let server = machine.server;
        sim.block_on(machine.frontend, "app", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let spec = |redundancy| CreateSpec {
                redundancy,
                ..CreateSpec::default()
            };
            let a = write_file(ctx, &mut bridge, 1, 6, spec(Redundancy::Mirror));
            let c = write_file(ctx, &mut bridge, 2, 4, spec(Redundancy::None));
            let bogus = BridgeFileId(0xDEAD);

            let err = bridge.delete_many(ctx, vec![a, bogus, c]).unwrap_err();
            assert_eq!(err, BridgeError::UnknownFile(bogus), "two_pc={two_pc}");
            assert_readable(ctx, &mut bridge, a, 1);
            assert_readable(ctx, &mut bridge, c, 2);

            let err = bridge.delete_many(ctx, vec![a, a]).unwrap_err();
            assert_eq!(err, BridgeError::UnknownFile(a), "duplicate in batch");
            assert_readable(ctx, &mut bridge, a, 1);

            let freed = bridge.delete_many(ctx, vec![a, c]).unwrap();
            assert!(freed > 0, "corrected batch frees blocks");
            assert_eq!(
                bridge.open(ctx, a).unwrap_err(),
                BridgeError::UnknownFile(a)
            );
            assert_eq!(
                bridge.open(ctx, c).unwrap_err(),
                BridgeError::UnknownFile(c)
            );
        });
    }
}

/// Satellite: `Deleted { blocks }` is exact under a node failure. The
/// batch mixes a mirrored file spanning all instances (the dead node's
/// columns are an expendable loss) with a `None` file placed away from
/// the victim; the reply must equal the stat-derived sum of every
/// surviving column, on both the legacy fan-out and the 2PC path.
#[test]
fn delete_many_accounting_is_exact_under_node_failure() {
    for two_pc in [false, true] {
        let (mut sim, machine) = BridgeMachine::build(&config(two_pc));
        let server = machine.server;
        let lfs = machine.lfs.clone();
        sim.block_on(machine.frontend, "app", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let mut probe = LfsClient::new();
            let victim = 2usize;

            let m = write_file(
                ctx,
                &mut bridge,
                3,
                9,
                CreateSpec {
                    redundancy: Redundancy::Mirror,
                    ..CreateSpec::default()
                },
            );
            let s = write_file(
                ctx,
                &mut bridge,
                4,
                5,
                CreateSpec {
                    nodes: Some(vec![0, 1, 3]),
                    ..CreateSpec::default()
                },
            );

            // Stat every column before the failure; the expected freed
            // count is what the *surviving* instances hold.
            let mut expected = 0u64;
            for (n, &proc) in lfs.iter().enumerate() {
                if n == victim {
                    continue;
                }
                for file in [m, s] {
                    expected += column_blocks(ctx, &mut probe, proc, LfsFileId(file.0));
                    expected +=
                        column_blocks(ctx, &mut probe, proc, LfsFileId(file.0 | MIRROR_BIT));
                }
            }
            assert!(expected > 0, "columns landed on survivors");

            set_failed(ctx, lfs[victim], true);
            let freed = bridge.delete_many(ctx, vec![m, s]).unwrap();
            assert_eq!(
                freed, expected,
                "two_pc={two_pc}: tolerant skips must not under-count"
            );
            set_failed(ctx, lfs[victim], false);
            assert_eq!(
                bridge.open(ctx, m).unwrap_err(),
                BridgeError::UnknownFile(m)
            );
        });
    }
}

/// An intolerable loss — a `Redundancy::None` file with a column on the
/// dead node — fails the batch, and under 2PC the abort rolls back the
/// prepares on the surviving instances: after the node revives, every
/// file in the batch is still whole and a retry deletes all of it.
#[test]
fn vetoed_delete_rolls_back_every_prepare() {
    let (mut sim, machine) = BridgeMachine::build(&config(true));
    let server = machine.server;
    let lfs = machine.lfs.clone();
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let victim = 1usize;
        let spec = |redundancy| CreateSpec {
            redundancy,
            ..CreateSpec::default()
        };
        let frail = write_file(ctx, &mut bridge, 5, 7, spec(Redundancy::None));
        let sturdy = write_file(ctx, &mut bridge, 6, 6, spec(Redundancy::Mirror));

        set_failed(ctx, lfs[victim], true);
        let err = bridge.delete_many(ctx, vec![frail, sturdy]).unwrap_err();
        assert_eq!(err, BridgeError::Lfs(EfsError::NodeFailed));
        set_failed(ctx, lfs[victim], false);

        assert_readable(ctx, &mut bridge, frail, 5);
        assert_readable(ctx, &mut bridge, sturdy, 6);
        assert!(bridge.delete_many(ctx, vec![frail, sturdy]).unwrap() > 0);
    });
}

/// The reply leaves at the COMMIT: on the paper's parity machine a
/// `rand_write`'s `bridge.rand_write` span ends while its DECIDE round is
/// still out, and the same client's `rand_read` of the block — fenced
/// until the write's acks are in — reaches the LFS only after the last
/// `client.lfs.decide` span ends, and reads the new bytes.
#[test]
fn a_reply_leaves_before_its_decide_acks() {
    let collector = TraceCollector::install();
    let mut config = BridgeConfig::paper(8)
        .with_2pc()
        .with_redundancy(Redundancy::parity());
    config.tracer = Some(collector.as_tracer());
    let (mut sim, machine) = BridgeMachine::build(&config);
    let server = machine.server;
    let read = sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = write_file(ctx, &mut bridge, 7, 4, CreateSpec::default());
        bridge.rand_write(ctx, file, 1, record(8, 1)).unwrap();
        bridge.rand_read(ctx, file, 1).unwrap()
    });
    assert_eq!(&read[..80], &record(8, 1)[..], "the read sees the write");
    let data = collector.take();
    let span = |name: &str| {
        (data.spans.iter())
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no {name} span"))
    };
    let (write, read) = (span("bridge.rand_write"), span("bridge.rand_read"));
    let decided = (data.spans.iter())
        .filter(|s| s.name == "client.lfs.decide" && s.start >= write.start)
        .map(|s| s.end)
        .max()
        .expect("the write's DECIDE round");
    assert!(
        write.end < decided,
        "replied at {:?}, last DECIDE ack at {decided:?}",
        write.end
    );
    let first_read = (data.spans.iter())
        .filter(|s| s.name == "lfs.read" && s.start >= read.start)
        .map(|s| s.start)
        .min()
        .expect("the read's LFS read");
    assert!(
        first_read >= decided,
        "read the LFS at {first_read:?}, before the DECIDE acks at {decided:?}"
    );
}

/// A read that queues while a parity overwrite's commit group votes is
/// carried: its `lfs.read` starts before the overwrite's reply reaches
/// its client, so the read round runs under the group's COMMIT force
/// rather than after the group's replies and DECIDE round.
#[test]
fn a_queued_read_is_served_under_the_commit() {
    let collector = TraceCollector::install();
    let mut config = BridgeConfig::paper(4)
        .with_2pc()
        .with_redundancy(Redundancy::parity());
    config.disk_geometry.tracks = 256;
    config.tracer = Some(collector.as_tracer());
    let (mut sim, machine) = BridgeMachine::build(&config);
    let (server, frontend) = (machine.server, machine.frontend);
    sim.block_on(frontend, "controller", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let a = write_file(ctx, &mut bridge, 1, 6, CreateSpec::default());
        let b = write_file(ctx, &mut bridge, 2, 6, CreateSpec::default());
        // Served alone, so the last append's DECIDE acks are taken.
        bridge.open(ctx, a).unwrap();
        let me = ctx.me();
        ctx.spawn(frontend, "writer", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            bridge.rand_write(ctx, a, 4, record(3, 4)).unwrap();
            ctx.send(me, ());
        });
        ctx.spawn(frontend, "reader", move |ctx| {
            ctx.delay(SimDuration::from_millis(40));
            let read = BridgeClient::new(server).rand_read(ctx, b, 3).unwrap();
            assert_eq!(&read[..80], &record(2, 3)[..], "the read sees b's block");
            ctx.send(me, ());
        });
        for _ in 0..2 {
            ctx.recv_as::<()>();
        }
    });
    let data = collector.take();
    let span = |name: &str| {
        (data.spans.iter())
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no {name} span"))
    };
    let (write, read) = (
        span("client.bridge.rand_write"),
        span("client.bridge.rand_read"),
    );
    let first_read = (data.spans.iter())
        .filter(|s| s.name == "lfs.read" && s.start >= read.start)
        .map(|s| s.start)
        .min()
        .expect("the read's LFS read");
    assert!(
        first_read < write.end,
        "read the LFS at {first_read:?}, after the overwrite's reply at {:?}",
        write.end
    );
}
