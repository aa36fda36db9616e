//! The commit path's write shapes: a log batch and a checkpoint are device
//! runs that a crash can tear at any elementary write, a request is
//! charged its CPU once, and the server acknowledges a batch before the
//! checkpoint it made due.

use bridge_efs::{
    spawn_lfs, Efs, EfsConfig, FileInfo, LfsClient, LfsFileId, LfsOp, PrepareIntent, WalConfig,
    EFS_PAYLOAD,
};
use bridge_trace::TraceCollector;
use bytes::Bytes;
use parsim::{CrashAt, Ctx, SimConfig, SimDuration, Simulation};
use simdisk::{CrashSchedule, DiskGeometry, DiskProfile, SimDisk};

const A: LfsFileId = LfsFileId(1);
const B: LfsFileId = LfsFileId(2);

fn config() -> EfsConfig {
    EfsConfig {
        wal: WalConfig::standard(),
        ..EfsConfig::default()
    }
}

fn geometry() -> DiskGeometry {
    DiskGeometry {
        block_size: 1024,
        blocks_per_track: 8,
        tracks: 128,
    }
}

fn block(tag: u8) -> Vec<u8> {
    let mut p = vec![tag; EFS_PAYLOAD];
    p[0] = !tag;
    p
}

fn in_sim<R: Send + 'static>(f: impl FnOnce(&mut Ctx) -> R + Send + 'static) -> R {
    let mut sim = Simulation::new(SimConfig::default());
    let node = sim.add_node("n");
    sim.block_on(node, "driver", f)
}

/// An unprepared committing decide of an append to `file` — the record
/// pair (SetChain + Decide carrying the payload) fills two log blocks.
fn decide_append(
    ctx: &mut Ctx,
    efs: &mut Efs,
    txn: u64,
    file: LfsFileId,
    block_no: u32,
) -> Result<u32, bridge_efs::EfsError> {
    let intent = PrepareIntent::WriteBlock {
        file,
        block_no,
        payload: Bytes::from(block(block_no as u8)),
    };
    efs.begin_request(1, 1000 + txn);
    efs.decide(ctx, txn, true, intent)
}

// ---------------------------------------------------------------------
// One CPU charge per request.

#[test]
fn a_committing_write_decide_is_charged_its_cpu_once() {
    in_sim(|ctx| {
        let mut efs = Efs::format(SimDisk::new(geometry(), DiskProfile::wren()), config());
        efs.create(ctx, A).unwrap();
        efs.write(ctx, A, 0, &block(1), None).unwrap();
        efs.commit(ctx).unwrap();
        for (txn, block_no) in [(7u64, 0u32), (8, 1)] {
            let intent = PrepareIntent::WriteBlock {
                file: A,
                block_no,
                payload: Bytes::from(block(9)),
            };
            efs.prepare(ctx, txn, intent.clone()).unwrap();
            efs.commit(ctx).unwrap();
            let (t0, busy0) = (ctx.now(), efs.disk().stats().busy);
            efs.decide(ctx, txn, true, intent).unwrap();
            efs.commit(ctx).unwrap();
            let disk_and_log = efs.disk().stats().busy - busy0;
            assert!(disk_and_log > SimDuration::from_millis(30), "home + log");
            assert_eq!(
                ctx.now() - t0,
                efs.config().cpu_per_request + disk_and_log,
                "block {block_no}: one request, one CPU charge"
            );
        }
    });
}

// ---------------------------------------------------------------------
// Crashes inside a multi-block batch and inside a checkpoint.

/// Everything a client or an operator can see of one instance.
#[derive(Debug, PartialEq)]
struct Observed {
    files: Vec<FileInfo>,
    free: u32,
    contents: Vec<(u32, Vec<Bytes>)>,
}

fn observe(ctx: &mut Ctx, efs: &mut Efs, what: &str) -> Observed {
    let files = efs.list_files_raw().expect("list");
    let contents = files
        .iter()
        .map(|info| {
            let blocks = (0..info.size)
                .map(|b| efs.read(ctx, info.file, b, None).expect("read").0)
                .collect();
            (info.file.0, blocks)
        })
        .collect();
    let report = efs.fsck();
    assert!(
        report.errors.is_empty(),
        "{what}: fsck: {:?}",
        report.errors
    );
    Observed {
        files,
        free: efs.free_blocks(),
        contents,
    }
}

/// What the disk had counted around one round's commit.
#[derive(Debug, Clone, Copy)]
struct Mark {
    before_commit: u64,
    after_commit: u64,
    checkpoints: u64,
}

/// The scripted history, one commit a round: round 0 appends to A (a
/// one-block batch), round 1 two decided appends to B (a three-block
/// batch), every later round one decided append to B (two blocks) — until
/// half the ring is live and a round's commit runs the checkpoint. Stops
/// after `rounds` rounds or at the first error (the crash); returns the
/// instance and a mark for every round whose commit returned.
fn run(ctx: &mut Ctx, crash_after: Option<u64>, rounds: usize) -> (Efs, Vec<Mark>) {
    let mut disk = SimDisk::new(geometry(), DiskProfile::instant());
    let kill = crash_after.map(|after_writes| CrashAt {
        disk: 0,
        after_writes,
        down: SimDuration::from_millis(1),
    });
    disk.schedule_crashes(CrashSchedule::from_plan(kill.as_slice(), 0));
    let mut efs = Efs::format(disk, config());
    let mut marks = Vec::new();
    let mut script = |efs: &mut Efs| -> Result<(), bridge_efs::EfsError> {
        efs.create(ctx, A)?;
        efs.create(ctx, B)?;
        for b in 0..3 {
            efs.write(ctx, A, b, &block(0x10 + b as u8), None)?;
        }
        efs.sync(ctx)?;
        let mut b_size = 0;
        for round in 0..rounds {
            match round {
                0 => drop(efs.write(ctx, A, 3, &block(0x13), None)?),
                _ => {
                    for _ in 0..if round == 1 { 2 } else { 1 } {
                        decide_append(ctx, efs, 100 + u64::from(b_size), B, b_size)?;
                        b_size += 1;
                    }
                }
            }
            let before_commit = efs.disk().stats().writes;
            efs.commit(ctx)?;
            marks.push(Mark {
                before_commit,
                after_commit: efs.disk().stats().writes,
                checkpoints: efs.wal_counters().1,
            });
        }
        Ok(())
    };
    if let Err(e) = script(&mut efs) {
        assert!(crash_after.is_some(), "the script itself never fails: {e}");
        assert!(efs.crash_down().is_some(), "{e} without a crash");
    }
    (efs, marks)
}

#[test]
fn a_crash_inside_a_batch_or_a_checkpoint_loses_nothing_acknowledged() {
    in_sim(|ctx| {
        // The dry run says where each round's commit sits among the
        // disk's elementary writes.
        let (_, marks) = run(ctx, None, 40);
        let checkpointing = marks
            .iter()
            .position(|m| m.checkpoints > marks[0].checkpoints)
            .expect("half the ring fills within the script");
        let log_blocks = |round: usize| -> u64 { [1, 3].get(round).copied().unwrap_or(2) };
        for (round, m) in marks.iter().enumerate().take(checkpointing) {
            assert_eq!(m.after_commit - m.before_commit, log_blocks(round));
        }
        let ckpt = marks[checkpointing];
        assert!(
            ckpt.after_commit - ckpt.before_commit > log_blocks(checkpointing) + 2,
            "the checkpoint sends at least a bucket and a bitmap block home, then its record"
        );

        // Every elementary write of the three-block batch, and of the
        // checkpointing round: its two log blocks, then every block the
        // checkpoint writes.
        let cases = [1, checkpointing].map(|round| (round, marks[round]));
        for (round, m) in cases {
            for ordinal in m.before_commit + 1..=m.after_commit {
                let what = format!("round {round}, crash after write {ordinal}");
                let (mut crashed, seen) = run(ctx, Some(ordinal), round + 1);
                assert_eq!(seen.len(), round, "{what}: the commit did not return");
                // The batch is durable from its last log block on — the
                // instant the server acknowledges it; before that it is
                // torn, and recovery must drop all of it.
                let durable = ordinal >= m.before_commit + log_blocks(round);
                let acknowledged = if durable { round + 1 } else { round };
                crashed.recover().expect("recover");
                let mut remounted = Efs::mount(crashed.into_disk(), config()).expect("remount");
                let recovered = observe(ctx, &mut remounted, &what);
                // The twin lived the acknowledged history and no more.
                let (mut twin, _) = run(ctx, None, acknowledged);
                let live = observe(ctx, &mut twin, &format!("{what} (twin)"));
                assert_eq!(recovered, live, "{what}: twin differs");
                // Round 1 brought B two blocks, every later round one.
                let b_blocks = if acknowledged >= 2 { acknowledged } else { 0 };
                assert_eq!(recovered.contents[1].1.len(), b_blocks, "{what}: B");
            }
        }
    });
}

// ---------------------------------------------------------------------
// The server acknowledges before it checkpoints.

#[test]
fn the_server_replies_before_the_checkpoint_and_the_next_request_waits_for_it() {
    let collector = TraceCollector::install();
    let mut sim = Simulation::new(SimConfig {
        tracer: Some(collector.as_tracer()),
        ..SimConfig::default()
    });
    let nodes = sim.add_nodes("n", 2);
    let efs = Efs::format(SimDisk::new(geometry(), DiskProfile::wren()), config());
    let lfs = spawn_lfs(&mut sim, nodes[0], "lfs", efs);
    // One closed-loop client: when each reply arrived, in order.
    let replies = sim.block_on(nodes[1], "client", move |ctx| {
        let mut client = LfsClient::new();
        client.call(ctx, lfs, LfsOp::Create { file: A }).unwrap();
        let mut replies = Vec::new();
        for b in 0..40u32 {
            let op = LfsOp::Write {
                file: A,
                block: b,
                data: block(b as u8).into(),
                hint: None,
            };
            client.call(ctx, lfs, op).unwrap();
            replies.push(ctx.now());
        }
        replies
    });
    let data = collector.take();
    let checkpoint = data
        .spans
        .iter()
        .find(|s| s.name == "wal.checkpoint")
        .expect("40 one-block batches fill half of a 64-block ring");
    let first_write = data
        .spans_in("disk")
        .filter(|d| d.pid == checkpoint.pid && d.start >= checkpoint.start)
        .map(|d| d.start)
        .min()
        .expect("a checkpoint writes");
    // The reply of the batch that made the checkpoint due left when its
    // commit ended — the instant the checkpoint began, before its first
    // write — and reached the client while the checkpoint was running.
    let lfs_pid = checkpoint.pid;
    let sent = data
        .flows
        .iter()
        .filter(|f| f.send && f.from == lfs_pid && f.at <= first_write)
        .map(|f| f.at)
        .max()
        .expect("replies were sent");
    assert_eq!(sent, checkpoint.start, "sent as the commit ended");
    let acked = replies
        .iter()
        .position(|&at| at > checkpoint.start)
        .expect("the run outlasts the checkpoint");
    assert!(
        replies[acked] < checkpoint.end,
        "the reply arrived at {:?}, inside the checkpoint ({:?}..{:?})",
        replies[acked],
        checkpoint.start,
        checkpoint.end
    );
    // The client's next request arrived mid-checkpoint and was served
    // only when it ended: it queued for the rest of it.
    let waited = data
        .spans
        .iter()
        .find(|s| s.name == "lfs.queue_wait" && s.end >= checkpoint.end)
        .expect("a request was served after the checkpoint");
    assert_eq!(waited.end, checkpoint.end, "served as the checkpoint ended");
    assert!(waited.start > checkpoint.start && waited.start < checkpoint.end);
    assert!(replies[acked + 1] > checkpoint.end);
}
