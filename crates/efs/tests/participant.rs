//! The presumed-abort participant rule, driven on `Efs` directly (standard
//! WAL, no server): every intent crossed with every history a participant
//! can live through — prepared and decided, decided without a prepare,
//! decided twice, crashed in doubt and re-driven, crashed after the
//! decision. Each case is checked against a plain model of the directory
//! and, at the end, against its own crashed-and-recovered twin: what the
//! live 2PC path leaves behind and what recovery rebuilds from the log
//! must be the same file system.

use bridge_efs::{
    Efs, EfsConfig, FileInfo, LfsData, LfsFileId, PrepareIntent, RecoveredOp, WalConfig,
    EFS_PAYLOAD,
};
use bytes::Bytes;
use parsim::{Ctx, SimConfig, Simulation};
use simdisk::{DiskGeometry, DiskProfile, SimDisk};
use std::collections::BTreeMap;

/// Three blocks before the transaction.
const A: LfsFileId = LfsFileId(1);
/// Two blocks before the transaction.
const B: LfsFileId = LfsFileId(2);
/// Named by the delete intent, never created.
const ABSENT: LfsFileId = LfsFileId(99);
const NEW: [LfsFileId; 2] = [LfsFileId(10), LfsFileId(11)];

const TXN: u64 = 7;
/// Request ids: the base files' operations count up from 1, the
/// transaction's own start here.
const PREPARE_ID: u64 = 100;
const DECIDE_ID: u64 = 200;

fn config() -> EfsConfig {
    EfsConfig {
        wal: WalConfig::standard(),
        ..EfsConfig::default()
    }
}

fn block(tag: u8) -> Vec<u8> {
    let mut p = vec![tag; EFS_PAYLOAD];
    p[0] = !tag;
    p
}

/// File → block payloads: what the directory and the chains should hold.
type Model = BTreeMap<u32, Vec<Vec<u8>>>;

fn base_model() -> Model {
    let mut m = Model::new();
    m.insert(A.0, (0..3).map(|b| block(0x10 + b)).collect());
    m.insert(B.0, (0..2).map(|b| block(0x20 + b)).collect());
    m
}

fn intents() -> Vec<(&'static str, PrepareIntent)> {
    vec![
        ("create", PrepareIntent::CreateFiles(NEW.to_vec())),
        ("delete", PrepareIntent::DeleteFiles(vec![A, ABSENT])),
        (
            "overwrite",
            PrepareIntent::WriteBlock {
                file: B,
                block_no: 0,
                payload: Bytes::from(block(0xAA)),
            },
        ),
        (
            "append",
            PrepareIntent::WriteBlock {
                file: B,
                block_no: 2,
                payload: Bytes::from(block(0xBB)),
            },
        ),
    ]
}

/// Blocks a commit of `intent` frees from `model` right now (what a
/// prepare promises and a committing decide reports).
fn would_free(model: &Model, intent: &PrepareIntent) -> u32 {
    match intent {
        PrepareIntent::DeleteFiles(files) => files
            .iter()
            .filter_map(|f| model.get(&f.0))
            .map(|blocks| blocks.len() as u32)
            .sum(),
        _ => 0,
    }
}

/// A committed decision applied to the model — idempotently, as the
/// participant must: whatever is missing is created, whatever is still
/// there is deleted, an append already in place is an overwrite.
fn commit_in_model(model: &mut Model, intent: &PrepareIntent) {
    match intent {
        PrepareIntent::CreateFiles(files) => {
            for f in files {
                model.entry(f.0).or_default();
            }
        }
        PrepareIntent::DeleteFiles(files) => {
            for f in files {
                model.remove(&f.0);
            }
        }
        PrepareIntent::WriteBlock {
            file,
            block_no,
            payload,
        } => {
            let blocks = model.get_mut(&file.0).expect("written file exists");
            if (*block_no as usize) < blocks.len() {
                blocks[*block_no as usize] = payload.to_vec();
            } else {
                blocks.push(payload.to_vec());
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Prepare,
    Decide {
        commit: bool,
    },
    /// The server's group commit: everything logged so far is durable.
    Commit,
    /// The node dies and comes back through recovery.
    Crash,
}

const COMMIT: Step = Step::Decide { commit: true };
const ABORT: Step = Step::Decide { commit: false };

fn histories() -> Vec<(&'static str, Vec<Step>)> {
    use Step::*;
    vec![
        ("prepare, commit", vec![Prepare, COMMIT]),
        ("prepare, abort", vec![Prepare, ABORT]),
        ("commit unprepared", vec![COMMIT]),
        ("abort unprepared", vec![ABORT]),
        ("commit delivered twice", vec![Prepare, COMMIT, COMMIT]),
        ("abort delivered twice", vec![Prepare, ABORT, ABORT]),
        (
            "crash in doubt, commit re-driven",
            vec![Prepare, Commit, Crash, COMMIT],
        ),
        (
            "crash in doubt, abort re-driven",
            vec![Prepare, Commit, Crash, ABORT],
        ),
        // The first recovery's checkpoint leaves the rolled-back Prepare
        // below it: the second must still not take it for decided.
        ("crash in doubt, twice", vec![Prepare, Commit, Crash, Crash]),
        ("commit, then crash", vec![Prepare, COMMIT, Commit, Crash]),
        ("abort, then crash", vec![Prepare, ABORT, Commit, Crash]),
    ]
}

/// The reply recovery reconstructs for the dedup window, reduced to what
/// the participant rule determines.
#[derive(Debug, Clone, PartialEq)]
enum Reply {
    Done,
    Written,
    Freed(u32),
    Prepared(u32),
}

fn reply_shape(op: &RecoveredOp) -> Reply {
    match &op.reply {
        LfsData::Done => Reply::Done,
        LfsData::Written { .. } | LfsData::WrittenRun { .. } => Reply::Written,
        LfsData::Freed(n) => Reply::Freed(*n),
        LfsData::Prepared { freed } => Reply::Prepared(*freed),
        other => panic!("recovery reconstructed a reply no logged record has: {other:?}"),
    }
}

/// The transaction's own operations among what recovery returned, in log
/// order.
fn txn_ops(ops: &[RecoveredOp]) -> Vec<(u64, Reply)> {
    ops.iter()
        .filter(|op| op.id >= PREPARE_ID)
        .map(|op| (op.id, reply_shape(op)))
        .collect()
}

/// Kills the node and brings it back: `recover` is what the LFS server
/// runs on its instance after a crash fault (it discards every in-memory
/// structure) and hands back the operations the dedup window is re-seeded
/// with; the remount then crosses the other way in — `Efs::mount` of a
/// WAL disk goes through the same recovery.
fn crash(efs: Efs) -> (Efs, Vec<RecoveredOp>) {
    let mut efs = efs;
    let ops = efs.recover().expect("recover");
    let efs = Efs::mount(efs.into_disk(), config()).expect("remount");
    (efs, ops)
}

/// Everything a client, the coordinator or an operator can see of one
/// instance.
#[derive(Debug, PartialEq)]
struct Observed {
    files: Vec<FileInfo>,
    free: u32,
    contents: Vec<(u32, Vec<Bytes>)>,
    fsck_files: u32,
    fsck_blocks: u32,
}

fn observe(ctx: &mut Ctx, efs: &mut Efs, what: &str) -> Observed {
    let files = efs.list_files_raw().expect("list");
    let free = efs.free_blocks();
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
    assert_eq!(
        efs.free_blocks(),
        free,
        "{what}: the allocator disagrees with reachability"
    );
    Observed {
        files,
        free,
        contents,
        fsck_files: report.files,
        fsck_blocks: report.blocks,
    }
}

fn assert_matches_model(seen: &Observed, model: &Model, free_when_empty: u32, what: &str) {
    let sizes: Vec<(u32, u32)> = seen.files.iter().map(|i| (i.file.0, i.size)).collect();
    let want_sizes: Vec<(u32, u32)> = model.iter().map(|(&f, b)| (f, b.len() as u32)).collect();
    assert_eq!(sizes, want_sizes, "{what}: directory");
    for ((file, got), want) in seen.contents.iter().zip(model.values()) {
        let got: Vec<&[u8]> = got.iter().map(|b| &b[..]).collect();
        let want: Vec<&[u8]> = want.iter().map(|b| &b[..]).collect();
        assert_eq!(got, want, "{what}: contents of file {file}");
    }
    let blocks: u32 = model.values().map(|b| b.len() as u32).sum();
    assert_eq!(seen.free, free_when_empty - blocks, "{what}: free blocks");
    assert_eq!(seen.fsck_files, model.len() as u32, "{what}: fsck files");
    assert_eq!(seen.fsck_blocks, blocks, "{what}: fsck blocks");
}

fn run_case(ctx: &mut Ctx, intent_name: &str, intent: &PrepareIntent, name: &str, steps: &[Step]) {
    let what = format!("{intent_name} / {name}");
    let geometry = DiskGeometry {
        block_size: 1024,
        blocks_per_track: 8,
        tracks: 128,
    };
    let mut efs = Efs::format(SimDisk::new(geometry, DiskProfile::instant()), config());
    let free_when_empty = efs.free_blocks();

    // The files the transaction finds, durable and checkpointed.
    let mut model = base_model();
    let mut id = 0;
    for (&file, blocks) in &model {
        id += 1;
        efs.begin_request(1, id);
        efs.create(ctx, LfsFileId(file)).expect("create");
        for (b, payload) in blocks.iter().enumerate() {
            id += 1;
            efs.begin_request(1, id);
            efs.write(ctx, LfsFileId(file), b as u32, payload, None)
                .expect("write");
        }
    }
    efs.sync(ctx).expect("sync");

    // What the log should hand the dedup window at the next recovery —
    // less the prepare for as long as no decision has been logged: it is
    // rolled back, and must not be replayed to a retransmitting
    // coordinator as a yes-vote, however many recoveries later.
    let mut logged: Vec<(u64, Reply)> = Vec::new();
    let mut in_doubt = false;
    let reseeded = |logged: &[(u64, Reply)], in_doubt: bool| -> Vec<(u64, Reply)> {
        let keep = |(id, _): &&(u64, Reply)| !(in_doubt && *id == PREPARE_ID);
        logged.iter().filter(keep).cloned().collect()
    };
    let mut decides = 0;
    for (i, &step) in steps.iter().enumerate() {
        let at = format!("{what}, step {i} ({step:?})");
        match step {
            Step::Prepare => {
                efs.begin_request(1, PREPARE_ID);
                let freed = efs.prepare(ctx, TXN, intent.clone()).expect("prepare");
                assert_eq!(freed, would_free(&model, intent), "{at}: promised");
                logged.push((PREPARE_ID, Reply::Prepared(freed)));
                in_doubt = true;
            }
            Step::Decide { commit } => {
                let id = DECIDE_ID + decides;
                decides += 1;
                efs.begin_request(1, id);
                let want = if commit {
                    let n = would_free(&model, intent);
                    commit_in_model(&mut model, intent);
                    n
                } else {
                    0
                };
                let freed = efs
                    .decide(ctx, TXN, commit, intent.clone())
                    .expect("decide");
                assert_eq!(freed, want, "{at}: freed");
                if commit && matches!(intent, PrepareIntent::WriteBlock { .. }) {
                    // The committed write goes through the normal write
                    // path, which logs its own record under the same id.
                    logged.push((id, Reply::Written));
                }
                logged.push((id, Reply::Freed(freed)));
                in_doubt = false;
            }
            Step::Commit => efs.commit(ctx).expect("commit"),
            Step::Crash => {
                let (back, ops) = crash(efs);
                efs = back;
                let want = reseeded(&logged, in_doubt);
                assert_eq!(txn_ops(&ops), want, "{at}: recovered ops");
            }
        }
    }

    let live = observe(ctx, &mut efs, &what);
    assert_matches_model(&live, &model, free_when_empty, &what);

    // The twin: the same history, then a crash. Addresses included, it is
    // the same file system.
    efs.commit(ctx).expect("commit");
    let (mut twin, ops) = crash(efs);
    let want = reseeded(&logged, in_doubt);
    assert_eq!(txn_ops(&ops), want, "{what}: twin's recovered ops");
    let recovered = observe(ctx, &mut twin, &format!("{what} (twin)"));
    assert_eq!(recovered, live, "{what}: twin differs");
}

#[test]
fn every_intent_through_every_history() {
    let mut sim = Simulation::new(SimConfig::default());
    let node = sim.add_node("n");
    sim.block_on(node, "driver", |ctx| {
        for (intent_name, intent) in intents() {
            for (name, steps) in histories() {
                run_case(ctx, intent_name, &intent, name, &steps);
            }
        }
    });
}

/// A create intent that cannot apply votes no and leaves nothing behind:
/// the files it did insert before hitting the existing one are gone
/// again, live and after a crash.
#[test]
fn a_refused_create_leaves_no_trace() {
    let mut sim = Simulation::new(SimConfig::default());
    let node = sim.add_node("n");
    sim.block_on(node, "driver", |ctx| {
        let geometry = DiskGeometry {
            block_size: 1024,
            blocks_per_track: 8,
            tracks: 128,
        };
        let mut efs = Efs::format(SimDisk::new(geometry, DiskProfile::instant()), config());
        efs.create(ctx, A).expect("create");
        efs.sync(ctx).expect("sync");
        let intent = PrepareIntent::CreateFiles(vec![NEW[0], A, NEW[1]]);
        let err = efs.prepare(ctx, TXN, intent).expect_err("A exists");
        assert_eq!(err, bridge_efs::EfsError::FileExists(A));
        let names = |efs: &Efs| -> Vec<u32> {
            let files = efs.list_files_raw().expect("list");
            files.iter().map(|i| i.file.0).collect()
        };
        assert_eq!(names(&efs), vec![A.0]);
        // Nothing is pending or in doubt: the next checkpoint is free to
        // run, and the txn id can be prepared afresh.
        efs.commit(ctx).expect("commit");
        efs.prepare(ctx, TXN, PrepareIntent::CreateFiles(NEW.to_vec()))
            .expect("fresh prepare");
        efs.decide(ctx, TXN, false, PrepareIntent::CreateFiles(NEW.to_vec()))
            .expect("abort");
        efs.commit(ctx).expect("commit");
        let (efs, _) = crash(efs);
        assert_eq!(names(&efs), vec![A.0]);
    });
}

/// The WriteBlock histories' sibling where the node dies between the
/// Decide's durable record and its block's way home: prepared, committed,
/// decided, the decision's batch committed, and a crash after its log
/// block or after any home write short of the last. The acknowledged
/// write must come back, as in the model, with the replies recovery
/// re-seeds unchanged.
#[test]
fn a_decided_write_crashed_before_its_home_write_is_redone() {
    let mut sim = Simulation::new(SimConfig::default());
    let node = sim.add_node("n");
    sim.block_on(node, "driver", |ctx| {
        let writes = intents()
            .into_iter()
            .filter(|(_, i)| matches!(i, PrepareIntent::WriteBlock { .. }));
        for (intent_name, intent) in writes {
            let (_, decided, after) = decide_then_crash(ctx, &intent, None);
            assert!(
                after - decided >= 2,
                "{intent_name}: a log block, then home"
            );
            let mut model = base_model();
            commit_in_model(&mut model, &intent);
            let free_when_empty = Efs::format(blank_disk(), config()).free_blocks();
            for ordinal in decided + 1..after {
                let what = format!("{intent_name} / crash after write {ordinal}");
                let (crashed, _, _) = decide_then_crash(ctx, &intent, Some(ordinal));
                let (mut efs, ops) = crash(crashed);
                let want = vec![
                    (PREPARE_ID, Reply::Prepared(0)),
                    (DECIDE_ID, Reply::Written),
                    (DECIDE_ID, Reply::Freed(0)),
                ];
                assert_eq!(txn_ops(&ops), want, "{what}: recovered ops");
                let seen = observe(ctx, &mut efs, &what);
                assert_matches_model(&seen, &model, free_when_empty, &what);
            }
        }
    });
}

/// The disk every case formats.
fn blank_disk() -> SimDisk {
    let geometry = DiskGeometry {
        block_size: 1024,
        blocks_per_track: 8,
        tracks: 128,
    };
    SimDisk::new(geometry, DiskProfile::instant())
}

/// The base files, durable; `intent` prepared and its vote committed;
/// then decided commit, and that batch committed with `crash_after`
/// killing the node at that write. Returns the instance and the disk's
/// write count before and after the decision's commit (as far as it
/// got).
fn decide_then_crash(
    ctx: &mut Ctx,
    intent: &PrepareIntent,
    crash_after: Option<u64>,
) -> (Efs, u64, u64) {
    let mut disk = blank_disk();
    let kill = crash_after.map(|after_writes| parsim::CrashAt {
        disk: 0,
        after_writes,
        down: parsim::SimDuration::from_millis(1),
    });
    disk.schedule_crashes(simdisk::CrashSchedule::from_plan(kill.as_slice(), 0));
    let mut efs = Efs::format(disk, config());
    let mut id = 0;
    for (&file, blocks) in &base_model() {
        id += 1;
        efs.begin_request(1, id);
        efs.create(ctx, LfsFileId(file)).expect("create");
        for (b, payload) in blocks.iter().enumerate() {
            id += 1;
            efs.begin_request(1, id);
            efs.write(ctx, LfsFileId(file), b as u32, payload, None)
                .expect("write");
        }
    }
    efs.sync(ctx).expect("sync");
    efs.begin_request(1, PREPARE_ID);
    efs.prepare(ctx, TXN, intent.clone()).expect("prepare");
    efs.commit(ctx).expect("commit");
    efs.begin_request(1, DECIDE_ID);
    efs.decide(ctx, TXN, true, intent.clone()).expect("decide");
    let decided = efs.disk().stats().writes;
    if let Err(e) = efs.commit(ctx) {
        assert!(efs.crash_down().is_some(), "{e} without a crash");
    }
    let after = efs.disk().stats().writes;
    (efs, decided, after)
}
