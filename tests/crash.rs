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
//! * `paper_clock_kill_at_every_write_preserves_acknowledged_state` —
//!   the participant and coordinator sweeps on the paper's clock, at
//!   p = 2, 4 and 8, where a reply and the work behind it overlap in time.
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
    fan_groups, BridgeClient, BridgeConfig, BridgeFileId, CreateSpec, MachineManifest,
    ManifestEntry, PlacementSpec, Redundancy, RetryPolicy,
};
use bridge_repro::efs::{
    set_failed, spawn_lfs, CorruptionKind, Efs, EfsConfig, LfsClient, LfsData, LfsFileId, LfsOp,
};
use bridge_repro::parsim::{
    mix64, splitmix64, CrashAt, FaultPlan, NodeId, Outage, OutageKind, SimConfig, SimDuration,
    Simulation, UniformLatency, SERVER_DISK,
};
use bridge_repro::simdisk::{DiskGeometry, DiskProfile, SimDisk};
use bridge_repro::tools::{machine_check, pfsck, FsckOptions, FsckVerdict, MachineFinding};
use bridge_repro::trace::{TraceCollector, TraceData};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use support::{assert_same, content, run, Classes, Client, Run, DOWN, FIRST_LFS_NODE, NARROW};

mod support;

/// Breadth of the sweep machine. Small on purpose: the sweep runs the
/// workload once per elementary write per disk.
const BREADTH: u32 = 2;

/// The seed of every sweep's plan (it holds kills only, so nothing draws
/// from it).
const SEED: u64 = 0x0C4A_0007;

/// Runs the fixed sweep workload on a WAL machine: the transcript ends
/// with the machine-wide `pfsck --check` verdict, and the run's per-disk
/// write counts are the crash ordinal space the sweep walks (its end
/// clock is not part of the transcript: recovery legitimately costs
/// time).
fn sweep_workload(config: &BridgeConfig) -> Run {
    sweep_workload_with(config, PlacementSpec::Chunked)
}

/// [`sweep_workload`] with file `b` placed by `b_placement`.
fn sweep_workload_with(config: &BridgeConfig, b_placement: PlacementSpec) -> Run {
    run(config, move |c| {
        let a = c.create(CreateSpec {
            placement: PlacementSpec::RoundRobin,
            size_hint: Some(16),
            ..CreateSpec::default()
        });
        let b = c.create(CreateSpec {
            placement: b_placement,
            size_hint: Some(8),
            ..CreateSpec::default()
        });
        c.log.push(format!("create a={a:?} b={b:?}"));
        c.append(a, "a.append", 0..10, |i| content(0xC0, i, NARROW));
        c.append(b, "b.append", 0..6, |i| content(0xD0, i, NARROW));
        c.overwrite(a, "a.overwrite", &[4], |at| content(0xEE, at, NARROW));
        c.read_back(a, "a.read");
        c.read_back(b, "b.read");
        let freed = c.bridge.delete(c.ctx, b).expect("delete b");
        c.log.push(format!("b.delete -> {freed}"));
        c.append(a, "a.append", 10..12, |i| content(0xC0, i, NARROW));
        c.read_back(a, "a.final");
        // The machine-wide pass cross-checks the server's directory (and,
        // on a 2PC machine, its decision log) against every instance —
        // the all-or-nothing check.
        c.pfsck(true, true);
    })
}

/// The two sweep machines.
#[derive(Clone, Copy, Debug)]
enum Machine {
    Wal,
    /// WAL under the two-phase-commit coordinator.
    TwoPc,
}

impl Machine {
    fn config(self) -> BridgeConfig {
        match self {
            Machine::Wal => BridgeConfig::instant(BREADTH).with_wal(),
            Machine::TwoPc => BridgeConfig::instant(BREADTH).with_2pc(),
        }
    }

    /// The fault-free reference run, computed once per process.
    fn reference(self) -> &'static Run {
        static REF: [OnceLock<Run>; 2] = [OnceLock::new(), OnceLock::new()];
        REF[self as usize].get_or_init(|| sweep_workload(&self.config()))
    }
}

/// Machine-wide mutations in the sweep workload: two Creates and one
/// Delete. On the 2PC machine each costs the coordinator exactly two
/// elementary decision-log writes (BEGIN, COMMIT), which fixes the
/// server-kill ordinal space at `2 * SWEEP_MACHINE_OPS`.
const SWEEP_MACHINE_OPS: u64 = 3;

/// Runs the sweep workload under `plan` on `machine` and asserts the
/// transcript is identical to the fault-free reference.
fn check_crashes(label: &str, machine: Machine, plan: FaultPlan) -> Run {
    let crashed = sweep_workload(&machine.config().with_faults(plan.clone()));
    assert_same(label, machine.reference(), &crashed, &plan, None);
    crashed
}

/// Kills each node after every single elementary disk write it performs
/// in `machine`'s reference run (including the WAL appends, commit
/// records, checkpoints — and under 2PC the PREPARE and DECIDE records)
/// and requires the acknowledged state to survive every cut.
fn sweep_every_lfs_write(machine: Machine) {
    let writes = &machine.reference().disk_writes;
    assert_eq!(writes.len(), BREADTH as usize);
    for (disk, &n) in writes.iter().enumerate() {
        assert!(n > 0, "disk {disk} never wrote — workload too small");
        for k in 1..=n {
            let plan = FaultPlan::seeded(SEED).kill(disk as u32, k);
            check_crashes(
                &format!("{machine:?} disk {disk}, write {k}/{n}"),
                machine,
                plan,
            );
        }
    }
    let swept: u64 = writes.iter().sum();
    eprintln!("swept {swept} crash points across {} disks", writes.len());
}

/// The headline sweep on the WAL machine (the ordinal space is the
/// reference run's, so multi-crash plans below may also land on
/// recovery-era writes).
#[test]
fn crash_at_every_write_preserves_acknowledged_state() {
    sweep_every_lfs_write(Machine::Wal);
}

/// Routing the workload through two-phase commit is client-invisible: the
/// fault-free 2PC transcript — every reply, every read-back, the pfsck
/// verdict with its machine-wide pass — matches the plain WAL machine's.
#[test]
fn fault_free_two_pc_transcript_matches_wal_machine() {
    assert_eq!(
        Machine::TwoPc.reference().transcript,
        Machine::Wal.reference().transcript
    );
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
        let plan = FaultPlan::seeded(SEED).kill(SERVER_DISK, k);
        check_crashes(&format!("server write {k}/{n}"), Machine::TwoPc, plan);
    }
    eprintln!("swept {n} coordinator crash points (+1 past the end)");
}

/// Guard against an inert sweep: a kill on the very first decision-log
/// write must actually fire — transcript identical, but the run pays at
/// least the down window in virtual time.
#[test]
fn server_kill_sweep_is_not_inert() {
    let fault_free = Machine::TwoPc.reference().stats.end_time;
    let plan = FaultPlan::seeded(SEED).kill(SERVER_DISK, 1);
    let crashed = check_crashes("server write 1", Machine::TwoPc, plan);
    assert!(
        crashed.stats.end_time >= fault_free + DOWN,
        "the coordinator kill never fired: {:?} vs fault-free {fault_free:?}",
        crashed.stats.end_time
    );
}

/// Machine breadth of the wide create: a BEGIN naming 512 participants
/// takes two log frames.
const WIDE: u32 = 512;

/// One create on a p = 512 2PC machine under `plan`, three appends, a
/// read-back and the machine-wide pfsck.
fn wide_create(plan: FaultPlan) -> Run {
    run(
        &BridgeConfig::instant(WIDE).with_2pc().with_faults(plan),
        |c| {
            let file = c.create(CreateSpec::default());
            c.log.push(format!("create -> {file:?}"));
            c.append(file, "append", 0..3, |i| content(0xB1, i, NARROW));
            c.read_back(file, "read");
            c.pfsck(true, true);
        },
    )
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
    let baseline = wide_create(FaultPlan::seeded(SEED));
    assert!(baseline
        .transcript
        .last()
        .unwrap()
        .starts_with("pfsck clean=true"));
    for k in 1..=3 {
        let plan = FaultPlan::seeded(SEED).kill(SERVER_DISK, k);
        let crashed = wide_create(plan.clone());
        let label = format!("server write {k}/3 of the wide create");
        assert_same(&label, &baseline, &crashed, &plan, None);
    }
}

/// The group sweep's machine: three LFS instances under 2PC, every file a
/// parity file — a stripe of two data blocks, so every other append reads
/// its stripe's old parity and the server's read rounds take time to
/// answer, time in which the other clients' requests queue.
fn group_machine() -> BridgeConfig {
    BridgeConfig::instant(3)
        .with_2pc()
        .with_redundancy(Redundancy::parity())
}

/// Three clients at once, each on a parity file of its own: appends, an
/// overwrite, reads and a read-back, their writes committing in groups.
/// File ids stay out of the transcript — which client's Create the server
/// takes first is timing — and the closing machine-wide pfsck goes in.
fn group_workload(config: &BridgeConfig) -> Run {
    run(config, |c| {
        let bodies = (0..3u8)
            .map(|k| {
                Box::new(move |c: &mut Client| {
                    let tag = 0x30 + 0x10 * k;
                    let file = c.create(CreateSpec::default());
                    c.append(file, "append", 0..6, |i| content(tag, i, NARROW));
                    c.overwrite(file, "overwrite", &[1, 4], |at| content(!tag, at, NARROW));
                    c.rand_read(file, "rand_read", &[0, 4]);
                    c.read_back(file, "read");
                }) as support::Body
            })
            .collect();
        c.concurrently(bodies);
        c.pfsck(true, true);
    })
}

/// Whether one of `server`'s decision-log writes lies inside one of its
/// `client.lfs.read` spans: a COMMIT forced while the next group's carried
/// read round is in flight, so that some kill ordinal of a sweep makes
/// recovery send the carried round again. On instant disks neither span
/// need take time, so "inside" is judged by order: a read taken after the
/// write (the server is one process, and records a span as it closes)
/// and sent before the DECIDE round that follows it (request ids rise in
/// send order).
fn forced_under_a_carried_read(data: &TraceData, server: Option<usize>) -> bool {
    let spans: Vec<_> = (data.spans.iter())
        .filter(|s| Some(s.pid) == server)
        .collect();
    let ids = |after: usize, name: &'static str| {
        (spans[after + 1..].iter())
            .filter(move |s| s.name == name)
            .filter_map(|s| s.arg("id"))
    };
    (spans.iter().enumerate())
        .filter(|(_, force)| force.cat == "disk")
        .any(|(at, _)| {
            let decided = ids(at, "client.lfs.decide").min().unwrap_or(u64::MAX);
            ids(at, "client.lfs.read").any(|read| read < decided)
        })
}

/// The coordinator-kill sweep with concurrent clients: their writes commit
/// in groups — one BEGIN naming several transactions, two frames long and
/// so two elementary writes, one COMMIT naming the committed — and a kill
/// on every decision-log write of the run, each frame of every group
/// BEGIN included, must leave the transcript the fault-free run's: a torn
/// BEGIN aborts the whole group at every node and the group prepares
/// again, a kill on a COMMIT redoes every decision it names. The sweep
/// walks ordinals until one past the run's last write, which must not
/// fire.
#[test]
fn server_kill_at_every_write_of_a_group_preserves_atomicity() {
    let collector = TraceCollector::install();
    let mut traced = group_machine();
    traced.tracer = Some(collector.as_tracer());
    let reference = group_workload(&traced);
    let data = collector.take();
    assert!(reference
        .transcript
        .last()
        .unwrap()
        .starts_with("pfsck clean=true"));
    let server = data.procs.iter().position(|p| p.name == "bridge-server");
    let forces: Vec<u64> = data
        .spans
        .iter()
        .filter(|s| Some(s.pid) == server && s.cat == "disk")
        .map(|s| s.arg("blocks").unwrap_or(1))
        .collect();
    assert!(
        forces.iter().any(|&frames| frames >= 2),
        "a group BEGIN took several frames: {forces:?}"
    );
    assert!(
        forced_under_a_carried_read(&data, server),
        "no COMMIT was forced under a carried read round"
    );
    let writes: u64 = forces.iter().sum();
    for k in 1..=writes + 1 {
        let plan = FaultPlan::seeded(SEED).kill(SERVER_DISK, k);
        let crashed = group_workload(&group_machine().with_faults(plan.clone()));
        let label = format!("server write {k}/{writes} under three clients");
        assert_same(&label, &reference, &crashed, &plan, None);
        let fired = crashed.stats.end_time >= reference.stats.end_time + DOWN;
        assert_eq!(fired, k <= writes, "{label}: the kill fired or not");
    }
    eprintln!("swept {writes} coordinator crash points (+1 past the end): {forces:?}");
}

/// [`group_machine`] whose messages and request handling take time, so
/// that spans have length and a group's members visibly overlap.
fn timed_group_machine() -> BridgeConfig {
    let mut config = group_machine();
    config.latency = UniformLatency::constant(SimDuration::from_micros(100));
    config.server.cpu_per_request = SimDuration::from_millis(1);
    config.efs.cpu_per_request = SimDuration::from_millis(2);
    config
}

/// [`group_workload`] with Creates and Deletes among the writes: each
/// client also creates a scratch file, writes it, deletes it, and creates
/// a second one, so Create and Delete transactions share the group BEGINs
/// and COMMITs. The transcript keeps each Delete's freed-block count.
fn group_workload_with_creates(config: &BridgeConfig) -> Run {
    run(config, |c| {
        let bodies = (0..3u8)
            .map(|k| {
                Box::new(move |c: &mut Client| {
                    let tag = 0x30 + 0x10 * k;
                    let file = c.create(CreateSpec::default());
                    c.append(file, "append", 0..4, |i| content(tag, i, NARROW));
                    let scratch = c.create(CreateSpec::default());
                    c.append(scratch, "scratch", 0..3, |i| content(!tag, i, NARROW));
                    c.overwrite(file, "overwrite", &[1], |at| content(!tag, at, NARROW));
                    c.delete(scratch, "scratch.delete");
                    let late = c.create(CreateSpec::default());
                    c.append(late, "late", 0..2, |i| content(tag ^ 0x0F, i, NARROW));
                    c.rand_read(file, "rand_read", &[0, 3]);
                    c.delete(file, "delete");
                    c.read_back(late, "late.read");
                }) as support::Body
            })
            .collect();
        c.concurrently(bodies);
        c.pfsck(true, true);
    })
}

/// The coordinator-kill sweep of [`group_workload_with_creates`]: a kill
/// on every decision-log write of the run — each frame of every group
/// BEGIN included — leaves the fault-free transcript. A Create whose
/// group is presumed aborted enters no file and prepares again; a Delete
/// retires its file only once its COMMIT is durable, and a kill on that
/// COMMIT redoes the frees.
#[test]
fn server_kill_at_every_write_of_a_group_with_creates_and_deletes_preserves_atomicity() {
    let collector = TraceCollector::install();
    let mut traced = timed_group_machine();
    traced.tracer = Some(collector.as_tracer());
    let reference = group_workload_with_creates(&traced);
    let data = collector.take();
    assert!(reference
        .transcript
        .last()
        .unwrap()
        .starts_with("pfsck clean=true"));
    let server = data.procs.iter().position(|p| p.name == "bridge-server");
    let served_together = |name: &str| {
        let spans: Vec<_> = (data.spans.iter())
            .filter(|s| Some(s.pid) == server && s.cat == "bridge")
            .collect();
        spans.iter().any(|a| {
            a.name == name
                && (spans.iter())
                    .any(|b| !std::ptr::eq(*a, *b) && b.start < a.end && a.start < b.end)
        })
    };
    for name in ["bridge.create", "bridge.delete"] {
        assert!(served_together(name), "no {name} was served in a group");
    }
    let forces: Vec<u64> = (data.spans.iter())
        .filter(|s| Some(s.pid) == server && s.cat == "disk")
        .map(|s| s.arg("blocks").unwrap_or(1))
        .collect();
    assert!(
        forces.iter().any(|&frames| frames >= 2),
        "a group BEGIN took several frames: {forces:?}"
    );
    assert!(
        forced_under_a_carried_read(&data, server),
        "no COMMIT was forced under a carried read round"
    );
    let writes: u64 = forces.iter().sum();
    for k in 1..=writes + 1 {
        let plan = FaultPlan::seeded(SEED).kill(SERVER_DISK, k);
        let config = timed_group_machine().with_faults(plan.clone());
        let crashed = group_workload_with_creates(&config);
        let label = format!("server write {k}/{writes}, creates and deletes grouped");
        assert_same(&label, &reference, &crashed, &plan, None);
        let fired = crashed.stats.end_time >= reference.stats.end_time + DOWN;
        assert_eq!(fired, k <= writes, "{label}: the kill fired or not");
    }
    eprintln!("swept {writes} coordinator crash points (+1 past the end): {forces:?}");
}

/// The participant side: on the 2PC machine, kill each LFS node after
/// every elementary write of its disk — now including the PREPARE records
/// (a node dies holding a tentative intent whose vote never leaves) and
/// the DECIDE records (a node dies mid-finalization and must replay it).
#[test]
fn crash_at_every_lfs_write_under_2pc_preserves_atomicity() {
    sweep_every_lfs_write(Machine::TwoPc);
}

/// A machine of the paper-clock sweep: `paper(p)` under 2PC on 256-track
/// disks — plain at p = 2, parity beyond.
fn paper_machine(p: u32) -> BridgeConfig {
    let mut config = BridgeConfig::paper(p).with_2pc();
    config.disk_geometry.tracks = 256;
    if p > 2 {
        config = config.with_redundancy(Redundancy::parity());
    }
    config
}

/// Decision-log ordinals the paper-clock sweep kills the coordinator on:
/// more than any of its machines writes.
const PAPER_SERVER_KILLS: u64 = 60;

/// The sweeps on the paper's clock, where disks, messages and requests
/// take time, so a reply and the work behind it can overlap:
/// [`sweep_workload`] with both files round-robin on [`paper_machine`]s
/// at p = 2, 4 and 8, killing each LFS node after every elementary write
/// of its disk in the reference run, and the coordinator on each of its
/// first [`PAPER_SERVER_KILLS`] decision-log writes. Every cut leaves the
/// fault-free transcript — the Delete's freed count with it — and the
/// coordinator kills that fire, and so move the run's end, are those on
/// the run's writes: a prefix of the ordinals, short of the last.
#[test]
fn paper_clock_kill_at_every_write_preserves_acknowledged_state() {
    for p in [2, 4, 8] {
        let sweep = |config: &BridgeConfig| sweep_workload_with(config, PlacementSpec::RoundRobin);
        let reference = sweep(&paper_machine(p));
        let verdict = reference.transcript.last().unwrap();
        assert!(
            verdict.starts_with("pfsck clean=true"),
            "p = {p}: {verdict}"
        );
        let lfs_kills = (reference.disk_writes.iter().enumerate())
            .flat_map(|(disk, &n)| (1..=n).map(move |k| (disk as u32, k)));
        let server_kills = (1..=PAPER_SERVER_KILLS).map(|k| (SERVER_DISK, k));
        let mut fired = Vec::new();
        for (disk, k) in lfs_kills.chain(server_kills) {
            let plan = FaultPlan::seeded(SEED).kill(disk, k);
            let crashed = sweep(&paper_machine(p).with_faults(plan.clone()));
            let label = format!("p = {p}, disk {disk}, write {k}");
            assert_same(&label, &reference, &crashed, &plan, None);
            if disk == SERVER_DISK && crashed.stats.end_time != reference.stats.end_time {
                fired.push(k);
            }
        }
        let writes = fired.len() as u64;
        assert!(
            (1..PAPER_SERVER_KILLS).contains(&writes) && fired.iter().copied().eq(1..=writes),
            "p = {p}: the coordinator kills on {fired:?} fired"
        );
        let swept: u64 = reference.disk_writes.iter().sum();
        eprintln!("p = {p}: swept {swept} LFS writes and {writes} coordinator writes");
    }
}

/// A seeded multi-crash schedule on `machine`: 1–3 kills at random disks,
/// ordinals and down windows — on the 2PC machine one in three on the
/// coordinator's decision log, in-doubt windows stacked on participant
/// recoveries. Past-the-end ordinals (never firing) are legal and must
/// behave like no fault; the draw is biased toward in-range cuts.
fn random_schedule(seed: u64, machine: Machine) -> FaultPlan {
    let max_writes = machine.reference().disk_writes.iter().copied().max();
    let max_writes = max_writes.unwrap_or(1);
    let two_pc = matches!(machine, Machine::TwoPc);
    let mut s = mix64(seed, if two_pc { 0x5EED_2BC0 } else { 0x5EED_0C4A });
    let mut draw = move || splitmix64(&mut s);
    let mut crashes = Vec::new();
    for _ in 0..1 + draw() % 3 {
        let (disk, span) = if two_pc && draw() % 3 == 0 {
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
    FaultPlan {
        crashes,
        ..FaultPlan::seeded(SEED)
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Seeded multi-crash schedules on the sweep workload: same invariant.
    #[test]
    fn random_crash_schedules_preserve_acknowledged_state(seed in any::<u64>()) {
        let plan = random_schedule(seed, Machine::Wal);
        check_crashes("random schedule", Machine::Wal, plan);
    }

    /// Seeded schedules on the 2PC machine mixing coordinator kills with
    /// node kills.
    #[test]
    fn random_schedules_mixing_server_and_node_kills_under_2pc(seed in any::<u64>()) {
        let plan = random_schedule(seed, Machine::TwoPc);
        check_crashes("random 2pc schedule", Machine::TwoPc, plan);
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
    run(&BridgeConfig::instant(3).with_2pc(), |c| {
        let file = c.create(CreateSpec {
            redundancy: Redundancy::Mirror,
            ..CreateSpec::default()
        });
        c.append(file, "append", 0..6, |i| content(0xAB, i, NARROW));
        let victim = c.lfs[1].0;
        set_failed(c.ctx, victim, true);
        c.bridge
            .delete(c.ctx, file)
            .expect("delete commits around the dead node");
        set_failed(c.ctx, victim, false);
        let fsck = |c: &mut Client, repair| {
            let options = FsckOptions {
                repair,
                server: Some(c.server),
                ..FsckOptions::default()
            };
            pfsck(c.ctx, &c.lfs, &options).expect("pfsck")
        };
        // The revived node still holds its columns (primary + mirror).
        let check = fsck(c, false);
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
        let repair = fsck(c, true);
        assert_eq!(repair.machine.as_ref().expect("machine pass").repaired, 2);
        let second = fsck(c, false);
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

/// Builds one LFS instance per requested corruption — a fresh Efs with a
/// few files, the corruption planted, the damaged instance handed to a
/// live LFS server — then runs `pfsck --repair` and `pfsck --check` over
/// them. Returns both verdicts and what was corrupted.
fn repair_then_check(kinds: &[CorruptionKind]) -> (FsckVerdict, FsckVerdict, Vec<String>) {
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
                    let data = content(f as u8, u64::from(block_no), NARROW);
                    efs.write(ctx, file, block_no, &data, None).expect("write");
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
    let (first, second) = sim.block_on(frontend, "pfsck-ctl", move |ctx| {
        let repair = FsckOptions {
            repair: true,
            ..FsckOptions::default()
        };
        let first = pfsck(ctx, &pairs, &repair).expect("pfsck --repair");
        let second = pfsck(ctx, &pairs, &FsckOptions::default()).expect("pfsck --check");
        (first, second)
    });
    (first, second, planted)
}

/// Every kind of corruption `pfsck` repairs.
const CORRUPTIONS: [CorruptionKind; 3] = [
    CorruptionKind::TornTail,
    CorruptionKind::OrphanBlock,
    CorruptionKind::DanglingEntry,
];

/// Every corruption kind, one per instance: all are detected, all are
/// repaired, and the second machine-wide pass is clean.
#[test]
fn pfsck_detects_and_repairs_seeded_corruptions() {
    let (first, second, planted) = repair_then_check(&CORRUPTIONS);
    assert_eq!(first.reports.len(), CORRUPTIONS.len());
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
    let (first, second, planted) = repair_then_check(&[CorruptionKind::TornTail]);
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
        let kinds: Vec<CorruptionKind> = (0..1 + draw() % 4)
            .map(|_| CORRUPTIONS[(draw() % 3) as usize])
            .collect();
        let (first, second, planted) = repair_then_check(&kinds);
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

/// Breadth of the relay-kill machine: the server sends the first half
/// of a full-breadth Create to one agent, which relays it on.
const RELAY_BREADTH: u32 = 8;

/// The relay-kill machine: 2PC at p = 8 whose messages take a
/// millisecond, so that a relay's round has length, and whose server and
/// agents give up on a silent peer after 1.35 virtual seconds (8 sends).
fn relay_machine(plan: FaultPlan) -> BridgeConfig {
    let mut config = BridgeConfig::instant(RELAY_BREADTH)
        .with_2pc()
        .with_faults(plan);
    config.latency = UniformLatency::constant(SimDuration::from_millis(1));
    config.server.lfs_retry = RetryPolicy {
        timeout: SimDuration::from_millis(50),
        backoff_cap: SimDuration::from_millis(200),
        budget: 8,
    };
    config
}

/// A Create, every LFS's holdings as `file n held by k`, a second Create
/// (the retry, when the first failed), the holdings again and the
/// machine-wide `pfsck --check`. The client waits out the server under
/// the standard policy.
fn relay_workload(config: &BridgeConfig) -> Run {
    run(config, |c| {
        c.bridge = BridgeClient::with_retry(c.server, RetryPolicy::standard());
        for round in ["create", "retry"] {
            let created = c.bridge.create(c.ctx, CreateSpec::default());
            c.log.push(format!("{round} -> {created:?}"));
            let mut held: BTreeMap<u32, u32> = BTreeMap::new();
            let mut lfs = LfsClient::with_retry(c.retry);
            for &(proc, _) in &c.lfs {
                let listed = lfs.call(c.ctx, proc, LfsOp::ListFiles).expect("list");
                let LfsData::Files(files) = listed else {
                    panic!("ListFiles answered something else");
                };
                for f in files {
                    *held.entry(f.file.0).or_default() += 1;
                }
            }
            for (file, nodes) in held {
                c.log.push(format!("file {file} held by {nodes}"));
            }
        }
        c.pfsck(true, false);
    })
}

/// The new failure point of a relayed 2PC Create: the agent heading the
/// server's first relay goes down after it has forwarded its subtree's
/// PREPAREs and before its folded vote is sent. The coordinator hears
/// nothing from it — a missing vote — and aborts; the abort reaches the
/// subtree through the same agent once its node is back. The Create
/// fails, no node keeps its file, the retried Create lands on every
/// node, and the machine-wide pfsck is clean. The window lies inside the
/// agent's first `bridge.relay` span of the fault-free run.
#[test]
fn relay_down_between_its_prepares_and_its_vote_aborts_cleanly() {
    let nodes: Vec<usize> = (0..RELAY_BREADTH as usize).collect();
    let config = relay_machine(FaultPlan::seeded(SEED));
    let head = fan_groups(nodes, config.server.create_arity)
        .into_iter()
        .find(|group| group.len() > 1)
        .expect("the server relays at this breadth")[0];
    let collector = TraceCollector::install();
    let mut traced = config;
    traced.tracer = Some(collector.as_tracer());
    let reference = relay_workload(&traced);
    assert!(reference.transcript[0].starts_with("create -> Ok"));
    let trace = collector.take();
    let agent = format!("agent{head}");
    let relay = (trace.spans.iter())
        .find(|s| s.name == "bridge.relay" && trace.proc_name(s.pid) == agent)
        .expect("the head agent relayed the first Create");
    assert!(relay.end > relay.start, "the relay's round takes time");
    let from = relay.start + (relay.end - relay.start) / 2;
    let plan = FaultPlan {
        outages: vec![Outage {
            node: NodeId::from_index(FIRST_LFS_NODE + head),
            from,
            until: from + SimDuration::from_secs(2),
            kind: OutageKind::Down,
        }],
        ..FaultPlan::seeded(SEED)
    };
    let faulted = relay_workload(&relay_machine(plan));
    let log = &faulted.transcript;
    assert!(log[0].starts_with("create -> Err"), "{log:#?}");
    let retried = log.iter().position(|l| l.starts_with("retry -> Ok"));
    let retried = retried.unwrap_or_else(|| panic!("the retry failed: {log:#?}"));
    // All or nothing: the failed Create's file is held nowhere, so no
    // holding is listed before the retry; afterwards only the retried
    // file is, on every node.
    assert_eq!(retried, 1, "{log:#?}");
    let every = format!("held by {RELAY_BREADTH}");
    let holdings: Vec<&String> = log.iter().filter(|l| l.starts_with("file")).collect();
    assert_eq!(holdings.len(), 1, "{log:#?}");
    assert!(holdings[0].ends_with(&every), "{log:#?}");
    assert!(
        log.last().unwrap().starts_with("pfsck clean=true"),
        "{log:#?}"
    );
}

/// Pins, recorded before the suites shared a harness: the fault-free
/// references the sweeps compare against (transcript, `RunStats`, per-LFS
/// writes — the ordinal space every sweep walks).
#[test]
fn references_are_pinned() {
    use support::{assert_pinned, Pin};
    let wal = sweep_workload(&Machine::Wal.config());
    #[rustfmt::skip]
    assert_pinned("sweep wal", &wal, Pin { transcript: 0x0e59e498f135b796, lines: 25, events: 317, messages: 244, bytes_sent: 85356, dispatches: 317, end_ns: 6000000, disk_writes: &[33, 25] });
    let two_pc = sweep_workload(&Machine::TwoPc.config());
    #[rustfmt::skip]
    assert_pinned("sweep 2pc", &two_pc, Pin { transcript: 0x0e59e498f135b796, lines: 25, events: 335, messages: 256, bytes_sent: 85944, dispatches: 335, end_ns: 6000000, disk_writes: &[36, 28] });
    // Every LFS writes twice (the create's PREPARE and DECIDE) but the
    // first three, which also take the three appends.
    let mut wide_writes = [2; WIDE as usize];
    wide_writes[..3].fill(4);
    #[rustfmt::skip]
    assert_pinned("wide create", &wide_create(FaultPlan::seeded(SEED)), Pin { transcript: 0x71f4ceb8aa249d4c, lines: 6, events: 11300, messages: 6684, bytes_sent: 287860, dispatches: 11300, end_ns: 33000000, disk_writes: &wide_writes });
}
