//! Crash-point and consistency-check coverage for the WAL (PR 7) and
//! two-phase-commit eras:
//!
//! * `crash_at_every_write_preserves_acknowledged_state` — the exhaustive
//!   sweep: measure how many elementary disk writes the reference run
//!   performs on each disk, then re-run the workload killing the node
//!   after write 1, 2, …, N of each disk. Every run must produce the
//!   byte-identical client transcript (replies, read-back contents, and
//!   the closing machine-wide `pfsck --check` verdict).
//! * `server_kill_at_every_decision_point_preserves_atomicity` — the same
//!   workload on a 2PC machine, killing the *coordinator* on each of its
//!   decision-log writes: every BEGIN (in-doubt window, presumed abort)
//!   and every COMMIT (phase-2 redo) of every Create/Delete fan-out.
//! * `crash_at_every_lfs_write_under_2pc_preserves_atomicity` — the
//!   participant side of the same sweep: PREPARE and DECIDE records die
//!   with their node at every ordinal.
//! * `random_crash_schedules_preserve_acknowledged_state` /
//!   `random_schedules_mixing_server_and_node_kills_under_2pc` — proptest
//!   over seeded multi-crash schedules on the same workload.
//! * `pfsck_detects_and_repairs_seeded_corruptions` /
//!   `seeded_corruption_mixes_repair_to_clean` — every
//!   [`CorruptionKind`] planted on a live instance is detected by
//!   `pfsck`, repaired under `--repair`, and a second pass reports clean.
//! * `orphan_column_is_resolved_by_the_logged_decision` — a column left
//!   behind on a node that missed phase 2 is repaired by `pfsck`'s
//!   machine-wide pass exactly as the decision log says.
//! * `pfsck_smoke` — the quick single-instance detect/repair/clean pass
//!   the CI pfsck-smoke step runs on every push.

use bridge_repro::core::{
    BridgeClient, BridgeConfig, BridgeFileId, BridgeMachine, CreateSpec, MachineManifest,
    ManifestEntry, PlacementSpec, Redundancy,
};
use bridge_repro::efs::{
    set_failed, spawn_lfs, CorruptionKind, Efs, EfsConfig, LfsClient, LfsData, LfsFileId, LfsOp,
};
use bridge_repro::parsim::{
    mix64, splitmix64, CrashAt, FaultPlan, NodeId, ProcId, SimConfig, SimDuration, Simulation,
    SERVER_DISK,
};
use bridge_repro::simdisk::{DiskGeometry, DiskProfile, SimDisk};
use bridge_repro::tools::{machine_check, pfsck, FsckOptions, MachineFinding};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Breadth of the sweep machine. Small on purpose: the sweep runs the
/// workload once per elementary write per disk.
const BREADTH: u32 = 2;

/// Deterministic payload for append/overwrite `i` of stream `tag`.
fn content(tag: u8, i: u64) -> Vec<u8> {
    vec![tag ^ (i as u8), (i >> 8) as u8, tag, 0x42]
        .into_iter()
        .cycle()
        .take(48 + (i as usize % 5) * 16)
        .collect()
}

/// FNV-1a, to log block contents compactly.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs the fixed sweep workload on a WAL machine and returns the client
/// transcript (ending with the machine-wide `pfsck --check` verdict),
/// each disk's elementary write count at the end of the run — the crash
/// ordinal space the sweep walks — and the run's elapsed virtual time
/// (not part of the transcript: recovery legitimately costs time).
fn sweep_workload(config: &BridgeConfig) -> (Vec<String>, Vec<u64>, u64) {
    let (mut sim, machine) = BridgeMachine::build(config);
    let server = machine.server;
    let pairs: Vec<(ProcId, NodeId)> = machine
        .lfs
        .iter()
        .copied()
        .zip(machine.lfs_nodes.iter().copied())
        .collect();
    let retry = config.server.lfs_retry;
    sim.block_on(machine.frontend, "sweep-client", move |ctx| {
        let mut bridge = BridgeClient::with_retry(server, retry);
        let mut log: Vec<String> = Vec::new();
        let a = bridge
            .create(
                ctx,
                CreateSpec {
                    placement: PlacementSpec::RoundRobin,
                    size_hint: Some(16),
                    ..CreateSpec::default()
                },
            )
            .expect("create a");
        let b = bridge
            .create(
                ctx,
                CreateSpec {
                    placement: PlacementSpec::Chunked,
                    size_hint: Some(8),
                    ..CreateSpec::default()
                },
            )
            .expect("create b");
        log.push(format!("create a={a:?} b={b:?}"));
        for i in 0..10 {
            let n = bridge
                .seq_write(ctx, a, content(0xC0, i))
                .expect("append a");
            log.push(format!("a.append[{i}] -> {n}"));
        }
        for i in 0..6 {
            let n = bridge
                .seq_write(ctx, b, content(0xD0, i))
                .expect("append b");
            log.push(format!("b.append[{i}] -> {n}"));
        }
        bridge
            .rand_write(ctx, a, 4, content(0xEE, 4))
            .expect("overwrite a");
        log.push("a.overwrite[4]".to_string());
        for (name, file) in [("a", a), ("b", b)] {
            let info = bridge.open(ctx, file).expect("open");
            let mut line = format!("{name}.read size={}:", info.size);
            while let Some(block) = bridge.seq_read(ctx, file).expect("seq read") {
                write!(line, " {:016x}", fnv(&block)).unwrap();
            }
            log.push(line);
        }
        let freed = bridge.delete(ctx, b).expect("delete b");
        log.push(format!("b.delete -> {freed}"));
        for i in 10..12 {
            let n = bridge
                .seq_write(ctx, a, content(0xC0, i))
                .expect("append a");
            log.push(format!("a.append[{i}] -> {n}"));
        }
        let info = bridge.open(ctx, a).expect("reopen a");
        let mut line = format!("a.final size={}:", info.size);
        while let Some(block) = bridge.seq_read(ctx, a).expect("final read") {
            write!(line, " {:016x}", fnv(&block)).unwrap();
        }
        log.push(line);
        let verdict = pfsck(
            ctx,
            &pairs,
            &FsckOptions {
                retry,
                // The machine-wide pass cross-checks the server's
                // directory (and, on a 2PC machine, its decision log)
                // against every instance — the all-or-nothing check.
                server: Some(server),
                ..FsckOptions::default()
            },
        )
        .expect("pfsck");
        log.push(format!(
            "pfsck clean={} repaired={} errors={:?}",
            verdict.clean(),
            verdict.repaired,
            verdict.errors(),
        ));
        let mut client = LfsClient::with_retry(retry);
        let mut writes = Vec::new();
        for &(proc, _) in &pairs {
            match client
                .call(ctx, proc, LfsOp::DiskStats)
                .expect("disk stats")
            {
                LfsData::DiskCounters(stats) => writes.push(stats.writes),
                other => panic!("unexpected DiskStats reply: {other:?}"),
            }
        }
        (log, writes, ctx.now().as_nanos())
    })
}

/// The fault-free reference run, computed once per process.
fn reference() -> &'static (Vec<String>, Vec<u64>, u64) {
    static REF: OnceLock<(Vec<String>, Vec<u64>, u64)> = OnceLock::new();
    REF.get_or_init(|| sweep_workload(&BridgeConfig::instant(BREADTH).with_wal()))
}

/// The fault-free reference run on the two-phase-commit machine.
fn reference_2pc() -> &'static (Vec<String>, Vec<u64>, u64) {
    static REF: OnceLock<(Vec<String>, Vec<u64>, u64)> = OnceLock::new();
    REF.get_or_init(|| sweep_workload(&BridgeConfig::instant(BREADTH).with_2pc()))
}

/// Machine-wide mutations in the sweep workload: two Creates and one
/// Delete. On the 2PC machine each costs the coordinator exactly two
/// elementary decision-log writes (BEGIN, COMMIT), which fixes the
/// server-kill ordinal space at `2 * SWEEP_MACHINE_OPS`.
const SWEEP_MACHINE_OPS: u64 = 3;

/// Runs the sweep workload under `crashes` on `base` and asserts the
/// transcript is identical to `baseline`.
fn check_crashes_on(label: &str, base: BridgeConfig, baseline: &[String], crashes: Vec<CrashAt>) {
    let plan = FaultPlan {
        seed: 0x0C4A_0007,
        crashes,
        ..FaultPlan::none()
    };
    let (crashed, _, _) = sweep_workload(&base.with_faults(plan.clone()));
    assert_eq!(
        crashed, baseline,
        "crash invariant violated ({label}): plan {plan:?}"
    );
}

/// Runs the sweep workload under `crashes` and asserts the transcript is
/// identical to the fault-free reference.
fn check_crashes(label: &str, crashes: Vec<CrashAt>) {
    let (baseline, _, _) = reference();
    check_crashes_on(
        label,
        BridgeConfig::instant(BREADTH).with_wal(),
        baseline,
        crashes,
    );
}

/// The 2PC variant of [`check_crashes`].
fn check_crashes_2pc(label: &str, crashes: Vec<CrashAt>) {
    let (baseline, _, _) = reference_2pc();
    check_crashes_on(
        label,
        BridgeConfig::instant(BREADTH).with_2pc(),
        baseline,
        crashes,
    );
}

/// The headline sweep: kill each node after every single elementary disk
/// write it performs (including the WAL appends, commit records,
/// checkpoints, and the recovery-era writes of earlier crash points in
/// multi-crash plans — the ordinal space is the reference run's), and
/// require the acknowledged state to survive every cut.
#[test]
fn crash_at_every_write_preserves_acknowledged_state() {
    let (_, writes, _) = reference();
    assert_eq!(writes.len(), BREADTH as usize);
    let mut swept = 0u64;
    for (disk, &n) in writes.iter().enumerate() {
        assert!(n > 0, "disk {disk} never wrote — workload too small");
        for k in 1..=n {
            check_crashes(
                &format!("disk {disk}, write {k}/{n}"),
                vec![CrashAt {
                    disk: disk as u32,
                    after_writes: k,
                    down: SimDuration::from_millis(300),
                }],
            );
            swept += 1;
        }
    }
    eprintln!("swept {swept} crash points across {} disks", writes.len());
}

/// Routing the workload through two-phase commit is client-invisible: the
/// fault-free 2PC transcript — every reply, every read-back, the pfsck
/// verdict with its machine-wide pass — matches the plain WAL machine's.
#[test]
fn fault_free_two_pc_transcript_matches_wal_machine() {
    assert_eq!(reference_2pc().0, reference().0);
}

/// The headline 2PC sweep: fail-stop the *coordinator* on every
/// elementary write of its decision log — each BEGIN (participants hold
/// durable PREPAREs, no decision on record: the in-doubt window presumed
/// abort must resolve) and each COMMIT (decision durable: phase 2 must be
/// redone) of every Create/Delete fan-out — plus one past-the-end ordinal
/// that must never fire. Every cut recovers to the byte-identical
/// transcript: files exist on all their placement nodes or on none, the
/// freed-block accounting matches, and pfsck's machine-wide pass finds
/// nothing to repair.
#[test]
fn server_kill_at_every_decision_point_preserves_atomicity() {
    let n = 2 * SWEEP_MACHINE_OPS;
    for k in 1..=n + 1 {
        check_crashes_2pc(
            &format!("server write {k}/{n}"),
            vec![CrashAt {
                disk: SERVER_DISK,
                after_writes: k,
                down: SimDuration::from_millis(300),
            }],
        );
    }
    eprintln!("swept {n} coordinator crash points (+1 past the end)");
}

/// Guard against an inert sweep: a kill on the very first decision-log
/// write must actually fire — transcript identical, but the run pays at
/// least the 300 ms down window in virtual time.
#[test]
fn server_kill_sweep_is_not_inert() {
    let &(_, _, fault_free) = reference_2pc();
    let plan = FaultPlan {
        seed: 0x0C4A_0007,
        crashes: vec![CrashAt {
            disk: SERVER_DISK,
            after_writes: 1,
            down: SimDuration::from_millis(300),
        }],
        ..FaultPlan::none()
    };
    let (_, _, crashed) =
        sweep_workload(&BridgeConfig::instant(BREADTH).with_2pc().with_faults(plan));
    assert!(
        crashed >= fault_free + SimDuration::from_millis(300).as_nanos(),
        "the coordinator kill never fired: {crashed} vs fault-free {fault_free}"
    );
}

/// The same sweep where a decision record spans log frames: at p = 512
/// a Create's BEGIN names 512 participants and takes two frames, so the
/// coordinator's write ordinals are BEGIN·1, BEGIN·2, COMMIT — and a
/// kill on the first leaves a *torn* BEGIN, a record the log scan drops
/// while 512 participants hold its PREPAREs. Every cut must leave all of
/// the create or none of it: the transcript (file id, appends, read-back,
/// the closing machine-wide pfsck) is the fault-free one.
#[test]
fn server_kill_at_every_frame_of_a_wide_begin_preserves_atomicity() {
    const WIDE: u32 = 512;
    fn wide_create(crashes: Vec<CrashAt>) -> Vec<String> {
        let plan = FaultPlan {
            seed: 0x0C4A_0007,
            crashes,
            ..FaultPlan::none()
        };
        let config = BridgeConfig::instant(WIDE).with_2pc().with_faults(plan);
        let (mut sim, machine) = BridgeMachine::build(&config);
        let server = machine.server;
        let pairs: Vec<(ProcId, NodeId)> = machine
            .lfs
            .iter()
            .copied()
            .zip(machine.lfs_nodes.iter().copied())
            .collect();
        let retry = config.server.lfs_retry;
        sim.block_on(machine.frontend, "wide-client", move |ctx| {
            let mut bridge = BridgeClient::with_retry(server, retry);
            let file = bridge.create(ctx, CreateSpec::default()).expect("create");
            let mut log = vec![format!("create -> {file:?}")];
            for i in 0..3 {
                let n = bridge
                    .seq_write(ctx, file, content(0xB1, i))
                    .expect("append");
                log.push(format!("append[{i}] -> {n}"));
            }
            let info = bridge.open(ctx, file).expect("open");
            let mut line = format!("read size={}:", info.size);
            while let Some(block) = bridge.seq_read(ctx, file).expect("seq read") {
                write!(line, " {:016x}", fnv(&block)).unwrap();
            }
            log.push(line);
            let options = FsckOptions {
                retry,
                server: Some(server),
                ..FsckOptions::default()
            };
            let verdict = pfsck(ctx, &pairs, &options).expect("pfsck");
            log.push(format!(
                "pfsck clean={} repaired={} errors={:?}",
                verdict.clean(),
                verdict.repaired,
                verdict.errors(),
            ));
            log
        })
    }
    let baseline = wide_create(Vec::new());
    assert!(baseline.last().unwrap().starts_with("pfsck clean=true"));
    for k in 1..=3 {
        let crashed = wide_create(vec![CrashAt {
            disk: SERVER_DISK,
            after_writes: k,
            down: SimDuration::from_millis(300),
        }]);
        assert_eq!(crashed, baseline, "server write {k}/3 of the wide create");
    }
}

/// The participant side: on the 2PC machine, kill each LFS node after
/// every elementary write of its disk — now including the PREPARE records
/// (a node dies holding a tentative intent whose vote never leaves) and
/// the DECIDE records (a node dies mid-finalization and must replay it).
#[test]
fn crash_at_every_lfs_write_under_2pc_preserves_atomicity() {
    let (_, writes, _) = reference_2pc();
    assert_eq!(writes.len(), BREADTH as usize);
    let mut swept = 0u64;
    for (disk, &n) in writes.iter().enumerate() {
        assert!(n > 0, "disk {disk} never wrote — workload too small");
        for k in 1..=n {
            check_crashes_2pc(
                &format!("2pc disk {disk}, write {k}/{n}"),
                vec![CrashAt {
                    disk: disk as u32,
                    after_writes: k,
                    down: SimDuration::from_millis(300),
                }],
            );
            swept += 1;
        }
    }
    eprintln!(
        "swept {swept} participant crash points across {} disks",
        writes.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Seeded multi-crash schedules (1–3 kills, random disks, ordinals
    /// and down windows) on the sweep workload: same invariant.
    #[test]
    fn random_crash_schedules_preserve_acknowledged_state(seed in any::<u64>()) {
        let (_, writes, _) = reference();
        let max_writes = writes.iter().copied().max().unwrap_or(1);
        let mut s = mix64(seed, 0x5EED_0C4A);
        let mut draw = move || splitmix64(&mut s);
        let mut crashes = Vec::new();
        for _ in 0..1 + draw() % 3 {
            crashes.push(CrashAt {
                disk: (draw() % u64::from(BREADTH)) as u32,
                // Past-the-end ordinals (never firing) are legal and must
                // behave like no fault; bias toward in-range cuts.
                after_writes: 1 + draw() % (max_writes + max_writes / 4 + 1),
                down: SimDuration::from_millis(100 + draw() % 1_200),
            });
        }
        check_crashes("random schedule", crashes);
    }

    /// Seeded schedules on the 2PC machine mixing coordinator kills with
    /// node kills — in-doubt windows stacked on participant recoveries.
    #[test]
    fn random_schedules_mixing_server_and_node_kills_under_2pc(seed in any::<u64>()) {
        let (_, writes, _) = reference_2pc();
        let max_writes = writes.iter().copied().max().unwrap_or(1);
        let mut s = mix64(seed, 0x5EED_2BC0);
        let mut draw = move || splitmix64(&mut s);
        let mut crashes = Vec::new();
        for _ in 0..1 + draw() % 3 {
            // One in three kills targets the coordinator's decision log.
            let (disk, span) = if draw() % 3 == 0 {
                (SERVER_DISK, 2 * SWEEP_MACHINE_OPS)
            } else {
                ((draw() % u64::from(BREADTH)) as u32, max_writes)
            };
            crashes.push(CrashAt {
                disk,
                after_writes: 1 + draw() % (span + span / 4 + 1),
                down: SimDuration::from_millis(100 + draw() % 1_200),
            });
        }
        check_crashes_2pc("random 2pc schedule", crashes);
    }
}

/// A node that misses phase 2 keeps its column: fail-stop one node, let a
/// Delete commit around it (its vote and its decision ack are both
/// tolerated as lost), revive it — the machine is now exactly the state
/// the ISSUE's headline names, a file deleted everywhere except one
/// orphaned column. `pfsck`'s machine-wide pass must find the orphan,
/// resolve it by the logged COMMIT decision under `--repair`, and report
/// clean on a second pass.
#[test]
fn orphan_column_is_resolved_by_the_logged_decision() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(3).with_2pc());
    let server = machine.server;
    let victim = machine.lfs[1];
    let pairs: Vec<(ProcId, NodeId)> = machine
        .lfs
        .iter()
        .copied()
        .zip(machine.lfs_nodes.iter().copied())
        .collect();
    sim.block_on(machine.frontend, "orphan-ctl", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = bridge
            .create(
                ctx,
                CreateSpec {
                    redundancy: Redundancy::Mirror,
                    ..CreateSpec::default()
                },
            )
            .expect("create");
        for i in 0..6 {
            bridge
                .seq_write(ctx, file, content(0xAB, i))
                .expect("append");
        }
        set_failed(ctx, victim, true);
        bridge
            .delete(ctx, file)
            .expect("delete commits around the dead node");
        set_failed(ctx, victim, false);
        // The revived node still holds its columns (primary + mirror).
        let check = pfsck(
            ctx,
            &pairs,
            &FsckOptions {
                server: Some(server),
                ..FsckOptions::default()
            },
        )
        .expect("pfsck --check");
        let machine_report = check.machine.as_ref().expect("machine pass ran");
        let orphans: Vec<_> = machine_report
            .findings
            .iter()
            .filter(|f| {
                matches!(
                    f,
                    MachineFinding::OrphanColumn {
                        node: 1,
                        resolvable: true,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(
            orphans.len(),
            2,
            "primary and mirror columns orphaned: {machine_report:?}"
        );
        assert!(!check.clean());
        let repair = pfsck(
            ctx,
            &pairs,
            &FsckOptions {
                repair: true,
                server: Some(server),
                ..FsckOptions::default()
            },
        )
        .expect("pfsck --repair");
        assert_eq!(repair.machine.as_ref().expect("machine pass").repaired, 2);
        let second = pfsck(
            ctx,
            &pairs,
            &FsckOptions {
                server: Some(server),
                ..FsckOptions::default()
            },
        )
        .expect("second pass");
        assert!(
            second.clean(),
            "not clean after repair: {:?}",
            second.errors()
        );
    });
}

/// A directory entry naming a node beyond the machine's breadth (a stale
/// placement spec) is *reported* by the machine-wide pass — not chased
/// into an out-of-bounds instance index.
#[test]
fn machine_check_reports_out_of_range_placement() {
    let manifest = MachineManifest {
        breadth: 2,
        files: vec![ManifestEntry {
            file: BridgeFileId(7),
            lfs_file: LfsFileId(7),
            companion: None,
            nodes: vec![0, 5],
            redundancy: Redundancy::None,
            size: 0,
            start: 0,
        }],
        decisions: Vec::new(),
    };
    // Node 0 holds the column; "node 5" exists only in the stale entry.
    let listings = vec![
        vec![bridge_repro::efs::FileInfo {
            file: LfsFileId(7),
            size: 0,
            first: None,
            last: None,
        }],
        Vec::new(),
    ];
    let findings = machine_check(&manifest, &listings);
    assert_eq!(
        findings,
        vec![MachineFinding::NodeOutOfRange {
            file: BridgeFileId(7),
            node: 5,
            breadth: 2,
        }]
    );
}

/// Builds one LFS instance per requested corruption: populate a fresh
/// Efs with a few files, plant the corruption, then hand the damaged
/// instance to a live LFS server. Returns the simulation, the pfsck
/// targets, a controller node, and what was corrupted.
fn corrupted_machine(
    kinds: &[CorruptionKind],
) -> (Simulation, Vec<(ProcId, NodeId)>, NodeId, Vec<String>) {
    let mut sim = Simulation::new(SimConfig::default());
    let frontend = sim.add_node("frontend");
    let geometry = DiskGeometry {
        block_size: 1024,
        blocks_per_track: 8,
        tracks: 64,
    };
    let mut pairs = Vec::new();
    let mut planted = Vec::new();
    for (i, &kind) in kinds.iter().enumerate() {
        let node = sim.add_node(format!("p{i}"));
        let mut efs = sim.block_on(node, format!("loader{i}"), move |ctx| {
            let mut efs = Efs::format(
                SimDisk::new(geometry, DiskProfile::instant()),
                EfsConfig {
                    cpu_per_request: SimDuration::ZERO,
                    ..EfsConfig::default()
                },
            );
            for f in 0..3u32 {
                let file = LfsFileId(f);
                efs.create(ctx, file).expect("create");
                for block_no in 0..4u32 {
                    efs.write(
                        ctx,
                        file,
                        block_no,
                        &content(f as u8, u64::from(block_no)),
                        None,
                    )
                    .expect("write");
                }
            }
            efs.sync(ctx).expect("sync");
            efs
        });
        let desc = efs
            .seed_corruption(kind)
            .expect("instance has a corruption target");
        planted.push(format!("lfs{i}: {desc}"));
        pairs.push((spawn_lfs(&mut sim, node, format!("lfs{i}"), efs), node));
    }
    (sim, pairs, frontend, planted)
}

/// Runs `pfsck --repair` then `pfsck --check` against `pairs` and
/// returns both verdicts.
fn repair_then_check(
    sim: &mut Simulation,
    frontend: NodeId,
    pairs: Vec<(ProcId, NodeId)>,
) -> (
    bridge_repro::tools::FsckVerdict,
    bridge_repro::tools::FsckVerdict,
) {
    sim.block_on(frontend, "pfsck-ctl", move |ctx| {
        let first = pfsck(
            ctx,
            &pairs,
            &FsckOptions {
                repair: true,
                ..FsckOptions::default()
            },
        )
        .expect("pfsck --repair");
        let second = pfsck(ctx, &pairs, &FsckOptions::default()).expect("pfsck --check");
        (first, second)
    })
}

/// Every corruption kind, one per instance: all are detected, all are
/// repaired, and the second machine-wide pass is clean.
#[test]
fn pfsck_detects_and_repairs_seeded_corruptions() {
    let kinds = [
        CorruptionKind::TornTail,
        CorruptionKind::OrphanBlock,
        CorruptionKind::DanglingEntry,
    ];
    let (mut sim, pairs, frontend, planted) = corrupted_machine(&kinds);
    let (first, second) = repair_then_check(&mut sim, frontend, pairs);
    assert_eq!(first.reports.len(), kinds.len());
    for (i, report) in first.reports.iter().enumerate() {
        assert!(
            !report.errors.is_empty(),
            "instance {i} corruption went undetected ({})",
            planted[i]
        );
        assert!(
            report.repaired > 0,
            "instance {i} corruption not repaired ({})",
            planted[i]
        );
    }
    assert!(
        second.clean(),
        "second pass must be clean, got {:?}",
        second.errors()
    );
    assert_eq!(second.repaired, 0, "nothing left to repair");
}

/// The CI pfsck-smoke step: one instance, one corruption, detect →
/// repair → clean, in well under a second.
#[test]
fn pfsck_smoke() {
    let (mut sim, pairs, frontend, planted) = corrupted_machine(&[CorruptionKind::TornTail]);
    let (first, second) = repair_then_check(&mut sim, frontend, pairs);
    assert!(!first.clean(), "corruption undetected ({planted:?})");
    assert!(first.repaired > 0);
    assert!(
        second.clean(),
        "not repaired to clean: {:?}",
        second.errors()
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Random mixes of seeded corruptions across 1–4 instances: pfsck
    /// with repair always converges to a clean second pass.
    #[test]
    fn seeded_corruption_mixes_repair_to_clean(seed in any::<u64>()) {
        let mut s = mix64(seed, 0xF5C6_u64);
        let mut draw = move || splitmix64(&mut s);
        let all = [
            CorruptionKind::TornTail,
            CorruptionKind::OrphanBlock,
            CorruptionKind::DanglingEntry,
        ];
        let kinds: Vec<CorruptionKind> = (0..1 + draw() % 4)
            .map(|_| all[(draw() % 3) as usize])
            .collect();
        let (mut sim, pairs, frontend, planted) = corrupted_machine(&kinds);
        let (first, second) = repair_then_check(&mut sim, frontend, pairs);
        for (i, report) in first.reports.iter().enumerate() {
            prop_assert!(
                !report.errors.is_empty(),
                "instance {} corruption went undetected ({})", i, planted[i]
            );
        }
        prop_assert!(
            second.clean(),
            "second pass not clean: {:?}", second.errors()
        );
    }
}
