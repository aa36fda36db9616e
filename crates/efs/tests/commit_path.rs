//! The commit path's write shapes: a log batch and a checkpoint are device
//! runs that a crash can tear at any elementary write, a request is
//! charged its CPU once, and the server acknowledges a batch before the
//! checkpoint it made due.

use bridge_efs::{
    spawn_lfs, Efs, EfsConfig, EfsError, FileInfo, LfsClient, LfsFileId, LfsOp, PrepareIntent,
    WalConfig, EFS_PAYLOAD,
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
        // Behind its log blocks a round's commit sends home what its last
        // decided append owes: the new block and the old tail's pointer.
        // (Round 1's first append went home as the second was served.)
        let home_writes = |round: usize| -> u64 { [0].get(round).copied().unwrap_or(2) };
        for (round, m) in marks.iter().enumerate().take(checkpointing) {
            assert_eq!(
                m.after_commit - m.before_commit,
                log_blocks(round) + home_writes(round)
            );
        }
        let ckpt = marks[checkpointing];
        assert!(
            ckpt.after_commit - ckpt.before_commit > log_blocks(checkpointing) + 2,
            "the checkpoint sends at least a bucket and a bitmap block home, then its record"
        );

        // Every elementary write of round 1's commit — its three log
        // blocks and the two home writes behind them — and of the
        // checkpointing round: its two log blocks, its two home writes,
        // then every block the checkpoint writes.
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

// ---------------------------------------------------------------------
// A full ring behind an undecided Prepare.

/// While a transaction is in doubt the checkpoint waits, so writes fill
/// the ring. The one that would overrun it is refused with `LogFull`
/// before it applies anything; the Decide that ends the wait still fits,
/// its commit checkpoints, and writes are admitted again.
#[test]
fn a_full_ring_behind_an_undecided_prepare_refuses_writes_and_admits_the_decide() {
    in_sim(|ctx| {
        let mut efs = Efs::format(SimDisk::new(geometry(), DiskProfile::instant()), config());
        efs.create(ctx, A).unwrap();
        efs.write(ctx, A, 0, &block(1), None).unwrap();
        efs.create(ctx, B).unwrap();
        efs.sync(ctx).unwrap();
        // The Prepare appends to B; nothing decides it yet.
        let intent = PrepareIntent::WriteBlock {
            file: B,
            block_no: 0,
            payload: Bytes::from(block(0xB0)),
        };
        efs.prepare(ctx, 7, intent.clone()).unwrap();
        efs.commit(ctx).unwrap();
        let checkpoints = efs.wal_counters().1;
        let mut admitted = 0;
        let refused = loop {
            match efs.write(ctx, A, 0, &block(2 + admitted as u8), None) {
                Ok(_) => {
                    efs.commit(ctx).unwrap();
                    admitted += 1;
                }
                Err(e) => break e,
            }
            let (used, capacity) = efs.wal_ring_usage();
            assert!(used <= capacity, "{used} of {capacity} slots live");
        };
        assert_eq!(refused, EfsError::LogFull);
        assert_eq!(efs.wal_counters().1, checkpoints, "no checkpoint ran");
        let (used, capacity) = efs.wal_ring_usage();
        assert!(admitted >= 50, "{admitted} writes before the ring filled");
        assert!(
            capacity - used <= 2 * geometry().blocks_per_track,
            "{used} of {capacity}"
        );
        // The refused write changed nothing.
        let last = block(1 + admitted as u8);
        assert_eq!(&efs.read(ctx, A, 0, None).unwrap().0[..], &last[..]);
        assert_eq!(efs.stat(ctx, A).unwrap().size, 1);

        efs.decide(ctx, 7, true, intent).unwrap();
        efs.commit(ctx).unwrap();
        assert_eq!(
            efs.wal_counters().1,
            checkpoints + 1,
            "the decide freed the ring"
        );
        efs.write(ctx, A, 0, &block(0xEE), None).unwrap();
        efs.commit(ctx).unwrap();

        let mut efs = Efs::mount(efs.into_disk(), config()).unwrap();
        assert_eq!(&efs.read(ctx, A, 0, None).unwrap().0[..], &block(0xEE)[..]);
        assert_eq!(&efs.read(ctx, B, 0, None).unwrap().0[..], &block(0xB0)[..]);
        let report = efs.fsck();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
    });
}

// ---------------------------------------------------------------------
// Crashes between a prepared write's Decide record and its home writes.

/// Every block of every file as it lies on the medium, headers included,
/// in chain order.
fn raw_chains(efs: &Efs) -> Vec<Vec<Vec<u8>>> {
    let files = efs.list_files_raw().expect("list");
    let chain = |info: &FileInfo| {
        let mut at = info.first;
        (0..info.size)
            .map(|_| {
                let addr = at.expect("a non-empty file has a head");
                let block = efs.disk().read_raw(addr).expect("block written").to_vec();
                at = Some(bridge_efs::decode_header(&block).expect("header").next);
                block
            })
            .collect()
    };
    files.iter().map(chain).collect()
}

/// A prepared write to A, decided commit: round 0 makes A three blocks
/// long and checkpoints, round 1 prepares `intent` and commits the vote,
/// round 2 decides it and commits — the Decide's log block, then the
/// block writes it owes their homes. Returns the instance and the disk's
/// write count around round 2's commit, if it returned.
fn run_prepared(
    ctx: &mut Ctx,
    intent: &PrepareIntent,
    crash_after: Option<u64>,
) -> (Efs, Option<(u64, u64)>) {
    let mut disk = SimDisk::new(geometry(), DiskProfile::instant());
    let kill = crash_after.map(|after_writes| CrashAt {
        disk: 0,
        after_writes,
        down: SimDuration::from_millis(1),
    });
    disk.schedule_crashes(CrashSchedule::from_plan(kill.as_slice(), 0));
    let mut efs = Efs::format(disk, config());
    let mut script = |efs: &mut Efs| -> Result<(u64, u64), bridge_efs::EfsError> {
        efs.create(ctx, A)?;
        for b in 0..3 {
            efs.write(ctx, A, b, &block(0x10 + b as u8), None)?;
        }
        efs.sync(ctx)?;
        efs.begin_request(1, 500);
        efs.prepare(ctx, 9, intent.clone())?;
        efs.commit(ctx)?;
        efs.begin_request(1, 501);
        efs.decide(ctx, 9, true, intent.clone())?;
        let before = efs.disk().stats().writes;
        efs.commit(ctx)?;
        Ok((before, efs.disk().stats().writes))
    };
    let marks = match script(&mut efs) {
        Ok(marks) => Some(marks),
        Err(e) => {
            assert!(efs.crash_down().is_some(), "{e} without a crash");
            None
        }
    };
    (efs, marks)
}

#[test]
fn a_crash_between_a_decide_record_and_its_home_writes_loses_nothing_acknowledged() {
    in_sim(|ctx| {
        let cases = [("overwrite", 1, 1), ("append with its tail fix-up", 3, 2)];
        for (name, block_no, home_writes) in cases {
            let intent = PrepareIntent::WriteBlock {
                file: A,
                block_no,
                payload: Bytes::from(block(0xD0)),
            };
            let (mut twin, marks) = run_prepared(ctx, &intent, None);
            let (before, after) = marks.expect("the dry run commits");
            // One log block (the Decide and its SetChain), then the homes.
            assert_eq!(after - before, 1 + home_writes, "{name}");
            let live = observe(ctx, &mut twin, &format!("{name} (twin)"));
            let live_blocks = raw_chains(&twin);
            assert_eq!(live.contents[0].1[block_no as usize][..], block(0xD0)[..]);
            // The Decide is acknowledged from its log block on: every
            // crash from there to the last home write must recover the
            // twin, byte for byte — headers included, so a redo over a
            // write that already went home is a no-op.
            for ordinal in before + 1..=after {
                let what = format!("{name}, crash after write {ordinal}");
                let (mut crashed, seen) = run_prepared(ctx, &intent, Some(ordinal));
                assert!(seen.is_none(), "{what}: the commit returned");
                crashed.recover().expect("recover");
                let recovered = observe(ctx, &mut crashed, &what);
                assert_eq!(recovered, live, "{what}: twin differs");
                assert_eq!(raw_chains(&crashed), live_blocks, "{what}: blocks differ");
                // A second recovery finds the write settled.
                crashed.recover().expect("second recover");
                assert_eq!(raw_chains(&crashed), live_blocks, "{what}: second redo");
            }
        }
    });
}

/// The server acknowledges a prepared block write once the Decide's
/// record is durable and sends the block home after the reply: a Read the
/// client sends the moment the reply lands queues behind the home writes
/// and returns the new bytes. A Read pipelined right behind the Decide
/// joins its batch, and sends the write home before it is served.
#[test]
fn the_server_replies_to_a_decide_before_its_home_write_and_a_read_behind_it_sees_the_write() {
    let collector = TraceCollector::install();
    let mut sim = Simulation::new(SimConfig {
        tracer: Some(collector.as_tracer()),
        ..SimConfig::default()
    });
    let nodes = sim.add_nodes("n", 2);
    let efs = Efs::format(SimDisk::new(geometry(), DiskProfile::wren()), config());
    let lfs = spawn_lfs(&mut sim, nodes[0], "lfs", efs);
    let write = |block_no: u32, tag: u8| PrepareIntent::WriteBlock {
        file: A,
        block_no,
        payload: Bytes::from(block(tag)),
    };
    let (decided, behind, pipelined) = sim.block_on(nodes[1], "client", move |ctx| {
        let mut client = LfsClient::new();
        client.call(ctx, lfs, LfsOp::Create { file: A }).unwrap();
        for b in 0..3u32 {
            let data = block(b as u8).into();
            let op = LfsOp::Write {
                file: A,
                block: b,
                data,
                hint: None,
            };
            client.call(ctx, lfs, op).unwrap();
        }
        let read = |client: &mut LfsClient, ctx: &mut Ctx, block| {
            let op = LfsOp::Read {
                file: A,
                block,
                hint: None,
            };
            client.send(ctx, lfs, op)
        };
        // An append, decided; the Read goes out when the reply is in.
        let intent = write(3, 0xD0);
        let prepare = LfsOp::Prepare {
            txn: 5,
            intent: intent.clone(),
        };
        client.call(ctx, lfs, prepare).unwrap();
        let decide = LfsOp::Decide {
            txn: 5,
            commit: true,
            intent,
        };
        client.call(ctx, lfs, decide).unwrap();
        let decided = ctx.now();
        let id = read(&mut client, ctx, 3);
        let behind = client.wait(ctx, lfs, id).unwrap().into_block().unwrap().0;
        // An overwrite, decided with a Read pipelined behind it; both
        // arrive while a plain write is in service, so they are served in
        // one batch.
        let intent = write(0, 0xE0);
        let prepare = LfsOp::Prepare {
            txn: 6,
            intent: intent.clone(),
        };
        client.call(ctx, lfs, prepare).unwrap();
        let busy = LfsOp::Write {
            file: A,
            block: 2,
            data: block(2).into(),
            hint: None,
        };
        let busy = client.send(ctx, lfs, busy);
        ctx.delay(SimDuration::from_millis(1));
        let decide = LfsOp::Decide {
            txn: 6,
            commit: true,
            intent,
        };
        let decide = client.send(ctx, lfs, decide);
        ctx.delay(SimDuration::from_millis(1));
        let id = read(&mut client, ctx, 0);
        client.wait(ctx, lfs, busy).unwrap();
        client.wait(ctx, lfs, decide).unwrap();
        let pipelined = client.wait(ctx, lfs, id).unwrap().into_block().unwrap().0;
        (decided, behind, pipelined)
    });
    assert_eq!(behind[..], block(0xD0)[..], "the read behind the reply");
    assert_eq!(
        pipelined[..],
        block(0xE0)[..],
        "the read in the decide's batch"
    );

    let data = collector.take();
    let decide = data
        .spans
        .iter()
        .find(|s| s.name == "lfs.decide")
        .expect("a decide was served");
    let lfs_pid = decide.pid;
    let commit = data
        .spans
        .iter()
        .find(|s| s.name == "wal.commit" && s.start >= decide.end)
        .expect("the decide's batch commits");
    let read = data
        .spans
        .iter()
        .find(|s| s.name == "lfs.read" && s.start >= commit.end)
        .expect("the read was served");
    // Between the commit and the read: the new block, the old tail's
    // read-modify-write — the append's home writes.
    let home: Vec<_> = data
        .spans_in("disk")
        .filter(|d| d.pid == lfs_pid && d.start >= commit.end && d.end <= read.start)
        .collect();
    let names: Vec<&str> = home.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, ["disk.write", "disk.read.load", "disk.write"]);
    let sent = data
        .flows
        .iter()
        .filter(|f| f.send && f.from == lfs_pid && f.at >= commit.end && f.at <= read.start)
        .map(|f| f.at)
        .min()
        .expect("the decide was acknowledged");
    assert_eq!(sent, commit.end, "acknowledged as the record was durable");
    assert_eq!(home[0].start, commit.end, "home writes behind the reply");
    let homed = home.last().unwrap().end;
    assert!(
        decided < homed,
        "the reply arrived at {decided:?}, before {homed:?}"
    );
    // The read arrived while the writes went home and waited for them.
    assert!(read.start >= homed);
    let waited = data
        .spans
        .iter()
        .find(|s| s.name == "lfs.queue_wait" && s.end == read.start)
        .expect("the read queued");
    assert!(waited.start < homed);

    // The pipelined read: served in the Decide's batch, after sending the
    // overwrite home, before the batch's commit.
    let decide = data.spans.iter().rfind(|s| s.name == "lfs.decide").unwrap();
    let read = data
        .spans
        .iter()
        .find(|s| s.name == "lfs.read" && s.start >= decide.end)
        .expect("the pipelined read was served");
    let commit = data
        .spans
        .iter()
        .find(|s| s.name == "wal.commit" && s.start >= decide.end)
        .expect("the batch commits");
    assert_eq!(read.start, decide.end, "one batch");
    assert!(read.end <= commit.start, "one batch");
    let flushed = data
        .spans_in("disk")
        .filter(|d| d.pid == lfs_pid && d.name == "disk.write")
        .any(|d| d.start >= read.start && d.end <= read.end);
    assert!(flushed, "the read sent the overwrite home first");
}

/// A redo never undoes what a later record did: a decided write went
/// home, a plain write then overwrote the same block and an append
/// re-linked it, and the node crashed. Recovery keeps the later bytes and
/// pointers — the decided write is not redone over them.
#[test]
fn a_redo_never_undoes_a_later_write_to_its_file() {
    in_sim(|ctx| {
        for (name, block_no) in [("overwrite", 1), ("append", 3)] {
            let mut efs = Efs::format(SimDisk::new(geometry(), DiskProfile::instant()), config());
            efs.create(ctx, A).unwrap();
            for b in 0..3 {
                efs.write(ctx, A, b, &block(0x10 + b as u8), None).unwrap();
            }
            efs.sync(ctx).unwrap();
            let intent = PrepareIntent::WriteBlock {
                file: A,
                block_no,
                payload: Bytes::from(block(0xD0)),
            };
            efs.prepare(ctx, 9, intent.clone()).unwrap();
            efs.commit(ctx).unwrap();
            efs.decide(ctx, 9, true, intent).unwrap();
            efs.commit(ctx).unwrap();
            efs.write(ctx, A, block_no, &block(0xE0), None).unwrap();
            let size = efs.stat(ctx, A).unwrap().size;
            efs.write(ctx, A, size, &block(0xE1), None).unwrap();
            efs.commit(ctx).unwrap();
            let live = observe(ctx, &mut efs, name);
            let blocks = raw_chains(&efs);
            efs.recover().expect("recover");
            assert_eq!(observe(ctx, &mut efs, name), live, "{name}");
            assert_eq!(raw_chains(&efs), blocks, "{name}");
        }
    });
}
