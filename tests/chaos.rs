//! Chaos tests: the headline fault-tolerance invariant.
//!
//! For any *bounded* fault plan — drop/duplicate/delay rates with a
//! consecutive-drop cap, finite outage windows, transient disk errors
//! under the driver retry limit — a workload run against a Bridge machine
//! with retries enabled produces **exactly** the client-visible replies
//! and final file contents of the fault-free run. Faults may only change
//! timing, never observable behaviour.
//!
//! Three entry points exercise it:
//!
//! * `bounded_faults_preserve_observable_behavior` — proptest over random
//!   plan seeds, a quick subset on every `cargo test`.
//! * `chaos_soak` — the CI soak hook. `CHAOS_SEED` picks the seed block
//!   (nightly CI derives it from the date), `CHAOS_CASES` the case count,
//!   and `CHAOS_REPLAY` replays one failing plan seed exactly. A failing
//!   seed is written to `target/chaos_failures/` so CI can attach it, and
//!   the panic message carries the replay command.
//! * `fault_seed_corpus_replays_clean` — regression corpus: every seed in
//!   `tests/fault_seeds/` replays on plain `cargo test`, forever.
//!
//! The WAL era adds **crash-at-any-point** kills to the bounded envelope:
//! on a machine with the per-LFS write-ahead log enabled, a plan may also
//! kill nodes between any two elementary disk writes
//! ([`CrashAt`]). The invariant is the same — every acknowledged
//! operation survives, replies and final contents equal the fault-free
//! run's — and each crash run additionally ends with a machine-wide
//! `pfsck --check` whose clean verdict joins the transcript. The crash
//! entry points mirror the originals: the
//! `crash_schedules_preserve_acknowledged_writes` proptest, the
//! `crash_soak` CI hook (`CRASH_SEED` / `CRASH_CASES` / `CRASH_REPLAY`),
//! and `crash_seed_corpus_replays_clean` over `tests/fault_seeds/
//! *.crashseed`.

use bridge_repro::core::{
    BridgeClient, BridgeConfig, BridgeMachine, CreateSpec, PlacementSpec, Redundancy, RetryPolicy,
};
use bridge_repro::efs::{LfsClient, LfsData, LfsOp};
use bridge_repro::parsim::{
    mix64, splitmix64, BlockFaultRule, CrashAt, DiskFaults, FaultPlan, MsgFaults, NodeId, Outage,
    OutageKind, ProcId, RunStats, SimDuration, SimTime, SERVER_DISK,
};
use bridge_repro::tools::{pfsck, FsckOptions};
use bridge_repro::trace::{Metrics, TraceCollector};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Node indexes in a [`BridgeMachine`] build: the server node is added
/// first, then the frontend, then one node per LFS.
const SERVER_NODE: usize = 0;
const FIRST_LFS_NODE: usize = 2;

/// Machine breadth used by every chaos run.
const BREADTH: u32 = 3;

/// Draws a bounded fault plan from a seed. Every knob stays inside the
/// convergence envelope: drop runs are capped, outage windows are short
/// (their sum plus `delay_max` is far below the servers' dedup
/// retention), and disk error bursts stay under the driver retry limit.
fn plan_from_seed(seed: u64) -> FaultPlan {
    let mut s = mix64(seed, 0x00C4_A05B);
    let mut draw = move || splitmix64(&mut s);
    let msg = MsgFaults {
        drop_per_mille: (draw() % 250) as u16,
        dup_per_mille: (draw() % 250) as u16,
        delay_per_mille: (draw() % 300) as u16,
        delay_max: SimDuration::from_micros(1 + draw() % 100_000),
        max_consecutive_drops: 2 + (draw() % 6) as u32,
    };
    let mut outages = Vec::new();
    for _ in 0..draw() % 3 {
        // Hit the Bridge server node or one of the LFS nodes, never the
        // frontend the driving client runs on.
        let node = match draw() % 4 {
            0 => SERVER_NODE,
            pick => FIRST_LFS_NODE + (pick as usize - 1),
        };
        let from = SimTime::ZERO + SimDuration::from_millis(draw() % 1_500);
        let len = SimDuration::from_millis(10 + draw() % 800);
        outages.push(Outage {
            node: NodeId::from_index(node),
            from,
            until: from + len,
            kind: if draw() % 2 == 0 {
                OutageKind::Down
            } else {
                OutageKind::Paused
            },
        });
    }
    let mut targets = Vec::new();
    for _ in 0..draw() % 3 {
        targets.push(BlockFaultRule {
            disk: (draw() % u64::from(BREADTH)) as u32,
            block: (draw() % 256) as u32,
            fails: 1 + (draw() % 4) as u32,
        });
    }
    let disk = DiskFaults {
        error_per_mille: (draw() % 150) as u16,
        max_consecutive: 1 + (draw() % 6) as u32,
        targets,
    };
    FaultPlan {
        seed,
        msg,
        outages,
        disk,
        crashes: Vec::new(),
        losses: Vec::new(),
    }
}

/// Draws a crash-era plan: the bounded envelope of [`plan_from_seed`]
/// plus one or two crash-at-any-point node kills. Write ordinals stay
/// small enough to land inside (or just past) the workload's write
/// stream, and down windows stay far below the retry budget.
fn crash_plan_from_seed(seed: u64) -> FaultPlan {
    let mut plan = plan_from_seed(seed);
    let mut s = mix64(seed, 0x0C4A_511E);
    let mut draw = move || splitmix64(&mut s);
    for _ in 0..1 + draw() % 2 {
        plan.crashes.push(CrashAt {
            disk: (draw() % u64::from(BREADTH)) as u32,
            after_writes: 1 + draw() % 256,
            down: SimDuration::from_millis(200 + draw() % 1_800),
        });
    }
    plan
}

/// Draws a machine-atomicity plan: the crash-era envelope of
/// [`crash_plan_from_seed`] plus one fail-stop of the *coordinator*,
/// addressed by [`SERVER_DISK`]. The workload issues three machine-wide
/// mutations (two creates, one delete), each costing exactly two
/// decision-log writes (BEGIN, COMMIT), so an ordinal in `1..=8` lands
/// the kill on any BEGIN (an in-doubt transaction: durable prepares, no
/// decision), any COMMIT, or just past the stream.
fn two_pc_crash_plan_from_seed(seed: u64) -> FaultPlan {
    let mut plan = crash_plan_from_seed(seed);
    let mut s = mix64(seed, 0x7C10_2BC0);
    let mut draw = move || splitmix64(&mut s);
    plan.crashes.push(CrashAt {
        disk: SERVER_DISK,
        after_writes: 1 + draw() % 8,
        down: SimDuration::from_millis(200 + draw() % 800),
    });
    plan
}

/// Deterministic payload for append/overwrite `i` of stream `tag`.
fn content(tag: u8, i: u64) -> Vec<u8> {
    vec![tag ^ (i as u8), (i >> 8) as u8, tag, 0x42]
        .into_iter()
        .cycle()
        .take(64 + (i as usize % 7) * 16)
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

/// Runs the fixed chaos workload and returns the transcript of every
/// client-visible reply (results and read-back contents, no timing),
/// plus the run's scheduler counters.
fn run_workload(config: &BridgeConfig) -> (Vec<String>, RunStats) {
    run_workload_with(config, false, false)
}

/// [`run_workload`] on a WAL-era machine: the transcript additionally
/// ends with a machine-wide `pfsck --check` verdict, so a crash plan must
/// not only preserve replies and contents but also leave every instance
/// consistent.
fn run_wal_workload(config: &BridgeConfig) -> (Vec<String>, RunStats) {
    run_workload_with(config, true, false)
}

/// [`run_wal_workload`] on a 2PC machine: the closing pfsck additionally
/// runs the machine-wide pass (directory vs every instance, orphans
/// resolved by the coordinator's logged decisions).
fn run_two_pc_workload(config: &BridgeConfig) -> (Vec<String>, RunStats) {
    run_workload_with(config, true, true)
}

fn run_workload_with(
    config: &BridgeConfig,
    pfsck_tail: bool,
    machine_pass: bool,
) -> (Vec<String>, RunStats) {
    let (mut sim, machine) = BridgeMachine::build(config);
    let server = machine.server;
    let pairs: Vec<(ProcId, NodeId)> = machine
        .lfs
        .iter()
        .copied()
        .zip(machine.lfs_nodes.iter().copied())
        .collect();
    let retry = config.server.lfs_retry;
    let log = sim.block_on(machine.frontend, "chaos-client", move |ctx| {
        let mut bridge = BridgeClient::with_retry(server, retry);
        let mut log: Vec<String> = Vec::new();
        let a = bridge
            .create(
                ctx,
                CreateSpec {
                    placement: PlacementSpec::RoundRobin,
                    size_hint: Some(64),
                    ..CreateSpec::default()
                },
            )
            .expect("create a");
        let b = bridge
            .create(
                ctx,
                CreateSpec {
                    placement: PlacementSpec::Chunked,
                    size_hint: Some(32),
                    ..CreateSpec::default()
                },
            )
            .expect("create b");
        log.push(format!("create a={a:?} b={b:?}"));
        for i in 0..40 {
            let n = bridge
                .seq_write(ctx, a, content(0xA0, i))
                .expect("append a");
            log.push(format!("a.append[{i}] -> {n}"));
        }
        for i in 0..24 {
            let n = bridge
                .seq_write(ctx, b, content(0xB0, i))
                .expect("append b");
            log.push(format!("b.append[{i}] -> {n}"));
        }
        for at in [3u64, 17, 29] {
            bridge
                .rand_write(ctx, a, at, content(0xEE, at))
                .expect("overwrite a");
            log.push(format!("a.overwrite[{at}]"));
        }
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
        for i in 40..48 {
            let n = bridge
                .seq_write(ctx, a, content(0xA0, i))
                .expect("append a");
            log.push(format!("a.append[{i}] -> {n}"));
        }
        for at in [0u64, 17, 44, 47] {
            let block = bridge.rand_read(ctx, a, at).expect("rand read a");
            log.push(format!("a.rand_read[{at}] -> {:016x}", fnv(&block)));
        }
        let info = bridge.open(ctx, a).expect("reopen a");
        let mut line = format!("a.final size={}:", info.size);
        while let Some(block) = bridge.seq_read(ctx, a).expect("final read") {
            write!(line, " {:016x}", fnv(&block)).unwrap();
        }
        log.push(line);
        if pfsck_tail {
            let verdict = pfsck(
                ctx,
                &pairs,
                &FsckOptions {
                    retry,
                    server: machine_pass.then_some(server),
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
        }
        log
    });
    (log, sim.stats())
}

/// The headline invariant for one plan: transcript under faults+retries
/// equals the fault-free transcript. Panics with a replayable report on
/// mismatch. Returns both runs' scheduler counters so directed tests can
/// assert that the faults actually fired.
fn check_plan(label: &str, plan: FaultPlan) -> (RunStats, RunStats) {
    let (baseline, base_stats) = run_workload(&BridgeConfig::instant(BREADTH));
    let (faulted, fault_stats) =
        run_workload(&BridgeConfig::instant(BREADTH).with_faults(plan.clone()));
    if baseline == faulted {
        return (base_stats, fault_stats);
    }
    let divergence = baseline
        .iter()
        .zip(faulted.iter())
        .position(|(b, f)| b != f)
        .unwrap_or_else(|| baseline.len().min(faulted.len()));
    record_failure(plan.seed, "seed");
    panic!(
        "chaos invariant violated ({label}, plan seed {seed}):\n\
         first divergence at reply {divergence}:\n\
           fault-free: {base:?}\n\
           faulted:    {fault:?}\n\
         replay with: CHAOS_REPLAY={seed} cargo test --test chaos chaos_soak\n\
         plan: {plan:?}",
        seed = plan.seed,
        base = baseline.get(divergence),
        fault = faulted.get(divergence),
    );
}

fn check_seed(label: &str, seed: u64) {
    check_plan(label, plan_from_seed(seed));
}

/// The crash-era headline invariant for one plan, on a WAL machine:
/// transcript (replies, contents, **and** the closing pfsck verdict)
/// under crashes+faults+retries equals the fault-free transcript.
fn check_crash_plan(label: &str, plan: FaultPlan) -> (RunStats, RunStats) {
    let (baseline, base_stats) = run_wal_workload(&BridgeConfig::instant(BREADTH).with_wal());
    let (faulted, fault_stats) = run_wal_workload(
        &BridgeConfig::instant(BREADTH)
            .with_wal()
            .with_faults(plan.clone()),
    );
    if baseline == faulted {
        return (base_stats, fault_stats);
    }
    let divergence = baseline
        .iter()
        .zip(faulted.iter())
        .position(|(b, f)| b != f)
        .unwrap_or_else(|| baseline.len().min(faulted.len()));
    record_failure(plan.seed, "crashseed");
    panic!(
        "crash invariant violated ({label}, plan seed {seed}):\n\
         first divergence at reply {divergence}:\n\
           fault-free: {base:?}\n\
           faulted:    {fault:?}\n\
         replay with: CRASH_REPLAY={seed} cargo test --test chaos crash_soak\n\
         plan: {plan:?}",
        seed = plan.seed,
        base = baseline.get(divergence),
        fault = faulted.get(divergence),
    );
}

fn check_crash_seed(label: &str, seed: u64) {
    check_crash_plan(label, crash_plan_from_seed(seed));
}

/// The machine-atomicity invariant for one plan, on a 2PC machine:
/// transcript — replies, contents, and the closing machine-wide pfsck
/// verdict — under node kills *and* a coordinator fail-stop equals the
/// fault-free transcript. A crash on a BEGIN write leaves an in-doubt
/// transaction that presumed-abort recovery must roll back; a crash on a
/// COMMIT write must still complete the decided transaction everywhere.
fn check_two_pc_crash_plan(label: &str, plan: FaultPlan) {
    let (baseline, _) = run_two_pc_workload(&BridgeConfig::instant(BREADTH).with_2pc());
    let (faulted, _) = run_two_pc_workload(
        &BridgeConfig::instant(BREADTH)
            .with_2pc()
            .with_faults(plan.clone()),
    );
    if baseline == faulted {
        return;
    }
    let divergence = baseline
        .iter()
        .zip(faulted.iter())
        .position(|(b, f)| b != f)
        .unwrap_or_else(|| baseline.len().min(faulted.len()));
    record_failure(plan.seed, "crashseed");
    panic!(
        "machine atomicity violated ({label}, plan seed {seed}):\n\
         first divergence at reply {divergence}:\n\
           fault-free: {base:?}\n\
           faulted:    {fault:?}\n\
         plan: {plan:?}",
        seed = plan.seed,
        base = baseline.get(divergence),
        fault = faulted.get(divergence),
    );
}

/// A mid-rate everything-on plan for tests that need fault activity
/// rather than coverage breadth.
fn storm_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        msg: MsgFaults {
            drop_per_mille: 200,
            dup_per_mille: 150,
            delay_per_mille: 200,
            delay_max: SimDuration::from_millis(20),
            max_consecutive_drops: 4,
        },
        disk: DiskFaults {
            error_per_mille: 150,
            max_consecutive: 4,
            targets: Vec::new(),
        },
        ..FaultPlan::none()
    }
}

/// Saves a failing plan seed under `target/chaos_failures/` so CI can
/// upload it as an artifact (and a developer can move it into
/// `tests/fault_seeds/` to pin the regression). The extension picks the
/// replay command: `.seed` for `CHAOS_REPLAY`, `.crashseed` for
/// `CRASH_REPLAY`.
fn record_failure(seed: u64, ext: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("chaos_failures");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{seed}.{ext}")), format!("{seed}\n"));
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be a u64, got {v:?}")),
        Err(_) => default,
    }
}

/// The CI soak hook (also a normal quick test when the env is unset).
#[test]
fn chaos_soak() {
    if let Ok(replay) = std::env::var("CHAOS_REPLAY") {
        let seed = replay
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("CHAOS_REPLAY must be a u64, got {replay:?}"));
        check_seed("replay", seed);
        return;
    }
    let base = env_u64("CHAOS_SEED", 0x00B2_1D6E);
    let cases = env_u64("CHAOS_CASES", 6);
    for case in 0..cases {
        check_seed("soak", mix64(base, case));
    }
}

/// The crash-soak CI hook: date-seeded crash schedules on a WAL machine
/// (also a normal quick test when the env is unset). `CRASH_REPLAY`
/// replays one failing plan seed exactly; failing seeds land in
/// `target/chaos_failures/` for CI to attach.
#[test]
fn crash_soak() {
    if let Ok(replay) = std::env::var("CRASH_REPLAY") {
        let seed = replay
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("CRASH_REPLAY must be a u64, got {replay:?}"));
        check_crash_seed("replay", seed);
        return;
    }
    let base = env_u64("CRASH_SEED", 0x00C4_A5F0);
    let cases = env_u64("CRASH_CASES", 4);
    for case in 0..cases {
        check_crash_seed("crash soak", mix64(base, case));
    }
}

/// Reads every seed (decimal u64, one per line, `#` comments) from the
/// `tests/fault_seeds/*.{ext}` corpus files.
fn corpus_seeds(ext: &str) -> Vec<u64> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fault_seeds");
    let mut seeds = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("tests/fault_seeds exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none_or(|e| e != ext) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable seed file");
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let seed: u64 = line
                .parse()
                .unwrap_or_else(|_| panic!("bad seed line {line:?} in {path:?}"));
            seeds.push(seed);
        }
    }
    assert!(!seeds.is_empty(), "corpus holds at least one .{ext} seed");
    seeds
}

/// Every crash-plan seed ever caught in the wild replays clean, forever
/// (`tests/fault_seeds/*.crashseed`).
#[test]
fn crash_seed_corpus_replays_clean() {
    for seed in corpus_seeds("crashseed") {
        check_crash_seed("crash corpus", seed);
    }
}

/// Every crash-plan seed also replays clean on the 2PC machine with a
/// coordinator fail-stop layered on top (`two_pc_crash_plan_from_seed`).
/// `tests/fault_seeds/two_pc.crashseed` pins seeds whose server-kill
/// ordinal lands on each BEGIN write — the in-doubt-participant states
/// presumed-abort recovery exists for.
#[test]
fn two_pc_crash_seed_corpus_replays_clean() {
    for seed in corpus_seeds("crashseed") {
        check_two_pc_crash_plan("2pc crash corpus", two_pc_crash_plan_from_seed(seed));
    }
}

/// Every seed ever caught in the wild replays clean, forever.
#[test]
fn fault_seed_corpus_replays_clean() {
    for seed in corpus_seeds("seed") {
        check_seed("corpus", seed);
    }
}

/// Directed plan: heavy drops on every message stream, nothing else.
/// Drops force timeouts, so the faulted run must take strictly longer in
/// virtual time — proof the plan was not inert.
#[test]
fn drop_storm_converges() {
    let (base, faulted) = check_plan(
        "drop storm",
        FaultPlan {
            seed: 11,
            msg: MsgFaults {
                drop_per_mille: 400,
                max_consecutive_drops: 4,
                ..MsgFaults::default()
            },
            ..FaultPlan::none()
        },
    );
    assert!(
        faulted.end_time > base.end_time,
        "drops must cost retry waits: {:?} vs {:?}",
        faulted.end_time,
        base.end_time
    );
}

/// Directed plan: duplicate and delay without ever dropping — exercises
/// the dedup window and reply-duplicate discard rather than timeouts.
/// Duplicates mean strictly more deliveries than the fault-free run.
#[test]
fn dup_delay_storm_converges() {
    let (base, faulted) = check_plan(
        "dup+delay storm",
        FaultPlan {
            seed: 12,
            msg: MsgFaults {
                dup_per_mille: 350,
                delay_per_mille: 350,
                delay_max: SimDuration::from_millis(50),
                ..MsgFaults::default()
            },
            ..FaultPlan::none()
        },
    );
    assert!(
        faulted.messages > base.messages,
        "duplicates must inflate deliveries: {} vs {}",
        faulted.messages,
        base.messages
    );
}

/// Directed plan: the Bridge server node crashes right out of the gate
/// and an LFS node pauses shortly after.
#[test]
fn outage_windows_converge() {
    let (base, faulted) = check_plan(
        "outages",
        FaultPlan {
            seed: 13,
            outages: vec![
                Outage {
                    node: NodeId::from_index(SERVER_NODE),
                    from: SimTime::ZERO,
                    until: SimTime::ZERO + SimDuration::from_millis(400),
                    kind: OutageKind::Down,
                },
                Outage {
                    node: NodeId::from_index(FIRST_LFS_NODE + 1),
                    from: SimTime::ZERO + SimDuration::from_millis(300),
                    until: SimTime::ZERO + SimDuration::from_millis(900),
                    kind: OutageKind::Paused,
                },
            ],
            ..FaultPlan::none()
        },
    );
    assert!(
        faulted.end_time > base.end_time,
        "riding out the outages must take longer: {:?} vs {:?}",
        faulted.end_time,
        base.end_time
    );
}

/// Directed plan: disk-only faults — random transients plus targeted
/// block failures; the driver absorbs all of it below the protocol.
#[test]
fn disk_transients_converge() {
    check_plan(
        "disk transients",
        FaultPlan {
            seed: 14,
            disk: DiskFaults {
                error_per_mille: 200,
                max_consecutive: 6,
                targets: vec![
                    BlockFaultRule {
                        disk: 0,
                        block: 0,
                        fails: 3,
                    },
                    BlockFaultRule {
                        disk: 2,
                        block: 17,
                        fails: 2,
                    },
                ],
            },
            ..FaultPlan::none()
        },
    );
}

/// Arming a crash schedule that never fires must not change anything:
/// the write counting is host-side only, so the run is RunStats-bit-
/// identical to — and transcript-identical with — the same machine with
/// no plan at all.
#[test]
fn inert_crash_plan_is_bit_identical() {
    let fault_free = BridgeConfig::instant(BREADTH).with_wal();
    let (base_log, base_stats) = run_wal_workload(&fault_free);
    let mut armed = fault_free;
    armed.faults = FaultPlan {
        seed: 16,
        crashes: vec![CrashAt {
            disk: 0,
            after_writes: u64::MAX,
            down: SimDuration::from_secs(1),
        }],
        ..FaultPlan::none()
    };
    let (armed_log, armed_stats) = run_wal_workload(&armed);
    assert_eq!(base_log, armed_log, "inert crash plan changed a reply");
    assert_eq!(
        base_stats, armed_stats,
        "inert crash plan changed the event stream"
    );
}

/// Directed plan: a single node kill in the middle of the write stream,
/// nothing else. The downtime must cost virtual time (retries riding out
/// the window), and every acknowledged op must survive recovery.
#[test]
fn crash_mid_run_converges() {
    let (base, faulted) = check_crash_plan(
        "mid-run crash",
        FaultPlan {
            seed: 17,
            crashes: vec![CrashAt {
                disk: 1,
                after_writes: 40,
                down: SimDuration::from_millis(500),
            }],
            ..FaultPlan::none()
        },
    );
    assert!(
        faulted.end_time > base.end_time,
        "riding out the crash must take longer: {:?} vs {:?}",
        faulted.end_time,
        base.end_time
    );
}

/// Directed plan for the replay path: heavy duplicates and delays *plus*
/// node kills. A delayed duplicate of an operation that committed to the
/// WAL but had not yet been applied when the node died must be answered
/// from the recovered dedup window (seeded from the log), never
/// re-executed against the recovered state.
#[test]
fn crash_with_duplicate_storm_replays_committed_ops() {
    let (base, faulted) = check_crash_plan(
        "crash + dup storm",
        FaultPlan {
            seed: 18,
            msg: MsgFaults {
                dup_per_mille: 350,
                delay_per_mille: 350,
                delay_max: SimDuration::from_millis(50),
                ..MsgFaults::default()
            },
            crashes: vec![
                CrashAt {
                    disk: 0,
                    after_writes: 25,
                    down: SimDuration::from_millis(400),
                },
                CrashAt {
                    disk: 2,
                    after_writes: 60,
                    down: SimDuration::from_millis(300),
                },
            ],
            ..FaultPlan::none()
        },
    );
    assert!(
        faulted.messages > base.messages,
        "duplicates must inflate deliveries: {} vs {}",
        faulted.messages,
        base.messages
    );
}

/// A traced storm run surfaces its fault and recovery activity through
/// the metrics pipeline: resends happened, every one of them recovered
/// (none exhausted), and both message and disk faults were recorded.
#[test]
fn storm_activity_surfaces_in_retry_metrics() {
    let collector = TraceCollector::install();
    let mut config = BridgeConfig::instant(BREADTH).with_faults(storm_plan(15));
    config.tracer = Some(collector.as_tracer());
    run_workload(&config);
    let metrics = Metrics::from_trace(&collector.snapshot());
    let retry = &metrics.retry;
    assert!(!retry.is_empty(), "storm must leave a trace");
    assert!(retry.resends > 0, "drops must force resends");
    assert!(retry.recovered > 0, "resends must recover");
    assert_eq!(retry.exhausted, 0, "bounded faults never spend the budget");
    assert!(retry.msg_drops > 0, "drop instants recorded");
    assert!(retry.msg_dups > 0, "dup instants recorded");
    assert!(
        retry.disk_transients > 0,
        "disk transient instants recorded"
    );
    assert!(
        retry.recovery.count() > 0,
        "recovery latency histogram populated"
    );
}

/// Breadth of the fan-out storms: wide enough that the default arity
/// sends every full-breadth Create through two levels of agents.
const TREE_BREADTH: u32 = 32;

/// A create/delete-heavy workload for the fan-out: files over the whole
/// machine, over subsets in odd orders, with and without a companion,
/// created and deleted in waves with a few blocks written between. The
/// transcript holds every reply, the surviving files' contents, and what
/// each LFS holds at the end (so a column created twice, on the wrong
/// node, or left behind by a delete shows), and ends in a `pfsck --check`
/// verdict over every instance.
fn run_tree_workload(config: &BridgeConfig) -> (Vec<String>, RunStats) {
    let (mut sim, machine) = BridgeMachine::build(config);
    let server = machine.server;
    let pairs: Vec<(ProcId, NodeId)> = machine
        .lfs
        .iter()
        .copied()
        .zip(machine.lfs_nodes.iter().copied())
        .collect();
    let retry = config.server.lfs_retry;
    // A wave's DeleteMany collects a hundred columns one after another,
    // each riding out its own drops: the application waits that out.
    let patient = RetryPolicy {
        budget: retry.budget * 10,
        ..retry
    };
    let log = sim.block_on(machine.frontend, "tree-chaos-client", move |ctx| {
        let mut bridge = BridgeClient::with_retry(server, patient);
        let mut log: Vec<String> = Vec::new();
        let specs = |wave: u32| {
            let odd: Vec<u32> = (0..TREE_BREADTH).rev().filter(|n| n % 2 == 1).collect();
            let span: Vec<u32> = (3 + wave..20 + wave).collect();
            [
                CreateSpec::default(),
                CreateSpec {
                    redundancy: Redundancy::Mirror,
                    ..CreateSpec::default()
                },
                CreateSpec {
                    nodes: Some(odd),
                    ..CreateSpec::default()
                },
                CreateSpec {
                    nodes: Some(span),
                    redundancy: Redundancy::parity(),
                    ..CreateSpec::default()
                },
            ]
        };
        let mut live = Vec::new();
        for wave in 0..3u32 {
            for spec in specs(wave) {
                let file = bridge.create(ctx, spec).expect("create");
                log.push(format!("wave {wave}: create -> {file:?}"));
                for i in 0..5 {
                    let n = bridge
                        .seq_write(ctx, file, content(0x70 + wave as u8, i))
                        .expect("append");
                    log.push(format!("{file:?}.append[{i}] -> {n}"));
                }
                live.push(file);
            }
            // Drop half of what is live, oldest first, in one wave.
            let doomed: Vec<_> = live.drain(..live.len() / 2).collect();
            let freed = bridge.delete_many(ctx, doomed.clone()).expect("delete");
            log.push(format!("wave {wave}: delete {doomed:?} -> {freed}"));
        }
        for &file in &live {
            let info = bridge.open(ctx, file).expect("open");
            let mut line = format!("{file:?}.read size={}:", info.size);
            while let Some(block) = bridge.seq_read(ctx, file).expect("seq read") {
                write!(line, " {:016x}", fnv(&block)).unwrap();
            }
            log.push(line);
        }
        let mut lfs = LfsClient::with_retry(retry);
        for (i, &(proc, _)) in pairs.iter().enumerate() {
            let LfsData::Files(files) = lfs.call(ctx, proc, LfsOp::ListFiles).expect("list") else {
                panic!("ListFiles answered something else");
            };
            let mut held: Vec<(u32, u32)> = files.iter().map(|f| (f.file.0, f.size)).collect();
            held.sort_unstable();
            log.push(format!("lfs{i} holds {held:?}"));
        }
        let options = FsckOptions {
            retry,
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
    });
    (log, sim.stats())
}

/// The headline invariant on the fan-out workload: the transcript under
/// `plan` on `machine` (a fault-free config) equals the fault-free one.
fn check_tree_plan(label: &str, machine: BridgeConfig, plan: FaultPlan) -> (RunStats, RunStats) {
    let (baseline, base_stats) = run_tree_workload(&machine);
    let (faulted, fault_stats) = run_tree_workload(&machine.with_faults(plan.clone()));
    let divergence = baseline.iter().zip(&faulted).position(|(b, f)| b != f);
    if let Some(at) = divergence.or((baseline.len() != faulted.len()).then_some(0)) {
        panic!(
            "fan-out invariant violated ({label}, plan seed {seed}) at reply {at}:\n\
               fault-free: {base:?}\n\
               faulted:    {fault:?}\n\
             plan: {plan:?}",
            seed = plan.seed,
            base = baseline.get(at),
            fault = faulted.get(at),
        );
    }
    (base_stats, fault_stats)
}

/// The per-class message storms of the tests above, at breadth 32 on the
/// default arity, where every full-breadth Create is relayed by agents:
/// a dropped relay (or its reply) is resent under the same policy as any
/// LFS call, so the storms change timing only.
#[test]
fn tree_storms_converge() {
    let drops = MsgFaults {
        drop_per_mille: 400,
        max_consecutive_drops: 4,
        ..MsgFaults::default()
    };
    let dups = MsgFaults {
        dup_per_mille: 350,
        delay_per_mille: 350,
        delay_max: SimDuration::from_millis(50),
        ..MsgFaults::default()
    };
    for (seed, label, msg) in [
        (21, "tree drop storm", drops),
        (22, "tree dup+delay storm", dups),
        (23, "tree storm", storm_plan(23).msg),
    ] {
        let plan = FaultPlan {
            seed,
            msg,
            ..FaultPlan::none()
        };
        let (base, faulted) = check_tree_plan(label, BridgeConfig::instant(TREE_BREADTH), plan);
        assert!(
            faulted.messages != base.messages || faulted.end_time > base.end_time,
            "{label}: the plan was inert"
        );
    }
}

/// A duplicated relay is answered from the agent's window — counted here
/// by the `retry.replay` instants the agents emit — and the transcript
/// shows no column was created twice.
#[test]
fn tree_replays_duplicated_relays_from_the_agents_window() {
    let collector = TraceCollector::install();
    let plan = FaultPlan {
        seed: 24,
        msg: MsgFaults {
            dup_per_mille: 350,
            ..MsgFaults::default()
        },
        ..FaultPlan::none()
    };
    let mut config = BridgeConfig::instant(TREE_BREADTH).with_faults(plan);
    config.tracer = Some(collector.as_tracer());
    let (faulted, _) = run_tree_workload(&config);
    let (baseline, _) = run_tree_workload(&BridgeConfig::instant(TREE_BREADTH));
    assert_eq!(
        faulted, baseline,
        "a duplicate changed a reply or a holding"
    );
    let trace = collector.snapshot();
    let replays = trace
        .instants
        .iter()
        .filter(|i| i.name == "retry.replay" && trace.proc_name(i.pid).starts_with("agent"))
        .count();
    assert!(replays > 0, "no agent ever replayed a duplicated relay");
}

/// A `Down` window over an inner agent's node loses every relay (and
/// every LFS request) delivered there; the senders' resends ride it out.
#[test]
fn tree_rides_out_a_down_inner_agent() {
    // At the default arity the server relays a full-breadth Create to the
    // agents of nodes 0, 8, 16 and 24.
    let inner = FIRST_LFS_NODE + 8;
    let collector = TraceCollector::install();
    let plan = FaultPlan {
        seed: 25,
        outages: vec![Outage {
            node: NodeId::from_index(inner),
            from: SimTime::ZERO,
            until: SimTime::ZERO + SimDuration::from_millis(700),
            kind: OutageKind::Down,
        }],
        ..FaultPlan::none()
    };
    let mut config = BridgeConfig::instant(TREE_BREADTH).with_faults(plan);
    config.tracer = Some(collector.as_tracer());
    let (faulted, stats) = run_tree_workload(&config);
    let (baseline, base_stats) = run_tree_workload(&BridgeConfig::instant(TREE_BREADTH));
    assert_eq!(faulted, baseline, "the outage changed a reply or a holding");
    assert!(
        stats.end_time > base_stats.end_time,
        "the window cost nothing"
    );
    let trace = collector.snapshot();
    let lost_relays = trace
        .instants
        .iter()
        .filter(|i| i.name == "fault.outage_drop" && trace.proc_name(i.pid) == "agent8")
        .count();
    assert!(
        lost_relays > 0,
        "no relay was ever lost at the downed agent"
    );
}

/// A leaf LFS killed between any two of its first writes — inside the
/// first fan-outs — recovers from its log and answers the agent's (or the
/// server's) resend: every Create still succeeds, the transcript equals
/// the fault-free one, and the closing pfsck is clean.
#[test]
fn tree_survives_a_leaf_crash_mid_fan_out() {
    for after_writes in 1..=6 {
        let plan = FaultPlan {
            seed: 26,
            crashes: vec![CrashAt {
                disk: 13,
                after_writes,
                down: SimDuration::from_millis(400),
            }],
            ..FaultPlan::none()
        };
        let machine = BridgeConfig::instant(TREE_BREADTH).with_wal();
        let (base, faulted) = check_tree_plan("leaf crash", machine, plan);
        assert!(
            faulted.end_time > base.end_time,
            "kill after write {after_writes} never fired"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// The headline invariant over random bounded plans.
    #[test]
    fn bounded_faults_preserve_observable_behavior(seed in any::<u64>()) {
        check_seed("proptest", seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// The crash-era invariant over random crash schedules layered on
    /// random bounded plans: acknowledged writes survive, nothing is
    /// half-applied, and pfsck stays clean.
    #[test]
    fn crash_schedules_preserve_acknowledged_writes(seed in any::<u64>()) {
        check_crash_seed("crash proptest", seed);
    }
}
