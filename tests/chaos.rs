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
    fan_groups, BridgeClient, BridgeConfig, CreateSpec, PlacementSpec, Redundancy, RetryPolicy,
};
use bridge_repro::efs::{LfsClient, LfsData, LfsFileId, LfsOp};
use bridge_repro::parsim::{
    BlockFaultRule, CrashAt, DiskFaults, FaultPlan, MsgFaults, NodeId, Outage, OutageKind,
    RunStats, SimDuration, SimTime,
};
use bridge_repro::trace::{Histogram, TraceCollector, TraceData};
use proptest::prelude::*;
use support::{
    assert_same, content, corpus_seeds, run, Classes, Run, Soak, FIRST_LFS_NODE, SERVER_NODE, WIDE,
};

mod support;

/// Machine breadth used by every chaos run.
const BREADTH: u32 = 3;

/// The chaos machine, fault-free.
fn instant() -> BridgeConfig {
    BridgeConfig::instant(BREADTH)
}

const CHAOS: Soak = Soak::new("CHAOS", 0x00B2_1D6E, 6, "seed");
/// Date-seeded crash schedules on a WAL machine.
const CRASH: Soak = Soak::new("CRASH", 0x00C4_A5F0, 4, "crashseed");

/// A bounded fault plan: the envelope class alone. Every knob stays inside
/// the convergence envelope: drop runs are capped, outage windows end, and
/// disk error bursts stay under the driver retry limit. A duplicate's lag
/// needs no bound: however late it lands, the servers' windows replay it
/// or drop it (`watermark_long_delay_duplicates_never_rerun`).
fn plan_from_seed(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed).envelope(BREADTH)
}

/// A crash-era plan: the envelope plus one or two crash-at-any-point node
/// kills, whose write ordinals land inside (or just past) the workload's
/// write stream and whose down windows stay far below the retry budget.
fn crash_plan_from_seed(seed: u64) -> FaultPlan {
    plan_from_seed(seed).node_crashes(BREADTH)
}

/// A machine-atomicity plan: the crash-era plan plus one fail-stop of the
/// *coordinator*. The workload issues three machine-wide mutations (two
/// creates, one delete), each costing exactly two decision-log writes
/// (BEGIN, COMMIT), so the kill's ordinal in `1..=8` lands on any BEGIN
/// (an in-doubt transaction: durable prepares, no decision), any COMMIT,
/// or just past the stream.
fn two_pc_crash_plan_from_seed(seed: u64) -> FaultPlan {
    crash_plan_from_seed(seed).coordinator_kill()
}

/// Runs the fixed chaos workload. On a WAL-era machine the transcript
/// ends with a `pfsck --check` verdict — machine-wide on a 2PC machine,
/// whose pass resolves orphans by the coordinator's logged decisions — so
/// a crash plan must not only preserve replies and contents but also
/// leave every instance consistent.
fn run_workload(config: &BridgeConfig) -> Run {
    let pfsck_tail = config.efs.wal.log_blocks > 0;
    let machine_pass = config.two_pc;
    run(config, move |c| {
        let a = c.create(CreateSpec {
            placement: PlacementSpec::RoundRobin,
            size_hint: Some(64),
            ..CreateSpec::default()
        });
        let b = c.create(CreateSpec {
            placement: PlacementSpec::Chunked,
            size_hint: Some(32),
            ..CreateSpec::default()
        });
        c.log.push(format!("create a={a:?} b={b:?}"));
        c.append(a, "a.append", 0..40, |i| content(0xA0, i, WIDE));
        c.append(b, "b.append", 0..24, |i| content(0xB0, i, WIDE));
        c.overwrite(a, "a.overwrite", &[3, 17, 29], |at| content(0xEE, at, WIDE));
        c.read_back(a, "a.read");
        c.read_back(b, "b.read");
        let freed = c.bridge.delete(c.ctx, b).expect("delete b");
        c.log.push(format!("b.delete -> {freed}"));
        c.append(a, "a.append", 40..48, |i| content(0xA0, i, WIDE));
        c.rand_read(a, "a.rand_read", &[0, 17, 44, 47]);
        c.read_back(a, "a.final");
        if pfsck_tail {
            c.pfsck(machine_pass, true);
        }
    })
}

/// The headline invariant for one plan on `machine` (fault-free): the
/// transcript under faults+retries equals the fault-free transcript — on
/// a WAL machine under crashes too, on a 2PC machine under a coordinator
/// fail-stop as well (a crash on a BEGIN write leaves an in-doubt
/// transaction presumed-abort recovery must roll back; one on a COMMIT
/// write must still complete the decided transaction everywhere). Returns
/// both runs' scheduler counters so directed tests can assert that the
/// faults actually fired. A failing seed replays through `crash_soak` on
/// a WAL machine, through `chaos_soak` otherwise.
fn check(label: &str, machine: BridgeConfig, plan: FaultPlan) -> (RunStats, RunStats) {
    let soak = if machine.efs.wal.log_blocks > 0 {
        &CRASH
    } else {
        &CHAOS
    };
    let baseline = run_workload(&machine);
    let faulted = run_workload(&machine.with_faults(plan.clone()));
    assert_same(label, &baseline, &faulted, &plan, Some(soak));
    (baseline.stats, faulted.stats)
}

fn check_seed(label: &str, seed: u64) {
    check(label, instant(), plan_from_seed(seed));
}

fn check_crash_seed(label: &str, seed: u64) {
    check(label, instant().with_wal(), crash_plan_from_seed(seed));
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

/// Heavy drops on every message stream, nothing else.
fn drop_storm() -> MsgFaults {
    MsgFaults {
        drop_per_mille: 400,
        max_consecutive_drops: 4,
        ..MsgFaults::default()
    }
}

/// Duplicates and delays without ever dropping.
fn dup_delay_storm() -> MsgFaults {
    MsgFaults {
        dup_per_mille: 350,
        delay_per_mille: 350,
        delay_max: SimDuration::from_millis(50),
        ..MsgFaults::default()
    }
}

/// The CI soak hook (also a normal quick test when the env is unset).
#[test]
fn chaos_soak() {
    CHAOS.run(check_seed);
}

/// The crash-soak CI hook (also a normal quick test when the env is
/// unset).
#[test]
fn crash_soak() {
    CRASH.run(check_crash_seed);
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
        let plan = two_pc_crash_plan_from_seed(seed);
        check("2pc crash corpus", instant().with_2pc(), plan);
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
    let plan = FaultPlan {
        msg: drop_storm(),
        ..FaultPlan::seeded(11)
    };
    let (base, faulted) = check("drop storm", instant(), plan);
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
    let plan = FaultPlan {
        msg: dup_delay_storm(),
        ..FaultPlan::seeded(12)
    };
    let (base, faulted) = check("dup+delay storm", instant(), plan);
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
    let plan = FaultPlan {
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
    };
    let (base, faulted) = check("outages", instant(), plan);
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
    let plan = FaultPlan {
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
    };
    check("disk transients", instant(), plan);
}

/// Arming a crash schedule that never fires must not change anything:
/// the write counting is host-side only, so the run is RunStats-bit-
/// identical to — and transcript-identical with — the same machine with
/// no plan at all.
#[test]
fn inert_crash_plan_is_bit_identical() {
    let fault_free = instant().with_wal();
    let base = run_workload(&fault_free);
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
    let armed = run_workload(&armed);
    assert_eq!(
        base.transcript, armed.transcript,
        "inert crash plan changed a reply"
    );
    assert_eq!(
        base.stats, armed.stats,
        "inert crash plan changed the event stream"
    );
}

/// Directed plan: a single node kill in the middle of the write stream,
/// nothing else. The downtime must cost virtual time (retries riding out
/// the window), and every acknowledged op must survive recovery.
#[test]
fn crash_mid_run_converges() {
    let plan = FaultPlan {
        seed: 17,
        crashes: vec![CrashAt {
            disk: 1,
            after_writes: 40,
            down: SimDuration::from_millis(500),
        }],
        ..FaultPlan::none()
    };
    let (base, faulted) = check("mid-run crash", instant().with_wal(), plan);
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
    let plan = FaultPlan {
        seed: 18,
        msg: dup_delay_storm(),
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
    };
    let (base, faulted) = check("crash + dup storm", instant().with_wal(), plan);
    assert!(
        faulted.messages > base.messages,
        "duplicates must inflate deliveries: {} vs {}",
        faulted.messages,
        base.messages
    );
}

/// A traced storm run surfaces its fault and recovery activity as trace
/// instants: resends happened, every one of them recovered (none
/// exhausted), and both message and disk faults were recorded.
#[test]
fn storm_activity_surfaces_in_retry_metrics() {
    let collector = TraceCollector::install();
    let mut config = instant().with_faults(storm_plan(15));
    config.tracer = Some(collector.as_tracer());
    run_workload(&config);
    let trace = collector.snapshot();
    let named = |name: &'static str| trace.instants.iter().filter(move |i| i.name == name);
    let count = |name| named(name).count();
    let mut recovery = Histogram::default();
    for i in named("retry.recovered") {
        recovery.record(i.arg("latency_nanos").expect("recovery latency"));
    }
    assert!(
        trace
            .instants
            .iter()
            .any(|i| i.name.starts_with("fault.") || i.name.starts_with("retry.")),
        "storm must leave a trace"
    );
    assert!(count("retry.resend") > 0, "drops must force resends");
    assert!(count("retry.recovered") > 0, "resends must recover");
    assert_eq!(
        count("retry.exhausted"),
        0,
        "bounded faults never spend the budget"
    );
    assert!(count("fault.msg_drop") > 0, "drop instants recorded");
    assert!(count("fault.msg_dup") > 0, "dup instants recorded");
    assert!(
        count("fault.disk_transient") > 0,
        "disk transient instants recorded"
    );
    assert!(recovery.count() > 0, "recovery latency histogram populated");
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
fn run_tree_workload(config: &BridgeConfig) -> Run {
    run(config, |c| {
        // A wave's DeleteMany collects a hundred columns one after
        // another, each riding out its own drops: the application waits
        // that out.
        let patient = RetryPolicy {
            budget: c.retry.budget * 10,
            ..c.retry
        };
        c.bridge = BridgeClient::with_retry(c.server, patient);
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
                let file = c.create(spec);
                c.log.push(format!("wave {wave}: create -> {file:?}"));
                let tag = 0x70 + wave as u8;
                c.append(file, &format!("{file:?}.append"), 0..5, |i| {
                    content(tag, i, WIDE)
                });
                live.push(file);
            }
            // Drop half of what is live, oldest first, in one wave.
            let doomed: Vec<_> = live.drain(..live.len() / 2).collect();
            let freed = c.bridge.delete_many(c.ctx, doomed.clone()).expect("delete");
            c.log
                .push(format!("wave {wave}: delete {doomed:?} -> {freed}"));
        }
        for &file in &live {
            c.read_back(file, &format!("{file:?}.read"));
        }
        let mut lfs = LfsClient::with_retry(c.retry);
        for (i, &(proc, _)) in c.lfs.iter().enumerate() {
            let LfsData::Files(files) = lfs.call(c.ctx, proc, LfsOp::ListFiles).expect("list")
            else {
                panic!("ListFiles answered something else");
            };
            let mut held: Vec<(u32, u32)> = files.iter().map(|f| (f.file.0, f.size)).collect();
            held.sort_unstable();
            c.log.push(format!("lfs{i} holds {held:?}"));
        }
        c.pfsck(false, true);
    })
}

/// The headline invariant on the fan-out workload: the transcript under
/// `plan` on `machine` (a fault-free config) equals the fault-free one.
fn check_tree_plan(label: &str, machine: BridgeConfig, plan: FaultPlan) -> (RunStats, RunStats) {
    let baseline = run_tree_workload(&machine);
    let faulted = run_tree_workload(&machine.with_faults(plan.clone()));
    assert_same(label, &baseline, &faulted, &plan, None);
    (baseline.stats, faulted.stats)
}

/// The per-class message storms of the tests above, at breadth 32 on the
/// default arity, where every full-breadth Create is relayed by agents:
/// a dropped relay (or its reply) is resent under the same policy as any
/// LFS call, so the storms change timing only.
#[test]
fn tree_storms_converge() {
    for (seed, label, msg) in [
        (21, "tree drop storm", drop_storm()),
        (22, "tree dup+delay storm", dup_delay_storm()),
        (23, "tree storm", storm_plan(23).msg),
    ] {
        let plan = FaultPlan {
            msg,
            ..FaultPlan::seeded(seed)
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
    let mut machine = BridgeConfig::instant(TREE_BREADTH);
    machine.tracer = Some(collector.as_tracer());
    check_tree_plan("tree duplicated relays", machine, plan);
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
    let mut machine = BridgeConfig::instant(TREE_BREADTH);
    // The head of the first relay the server sends a full-breadth Create.
    let nodes: Vec<usize> = (0..TREE_BREADTH as usize).collect();
    let head = fan_groups(nodes, machine.server.create_arity)
        .into_iter()
        .find(|group| group.len() > 1)
        .expect("the server relays at this breadth")[0];
    let collector = TraceCollector::install();
    let plan = FaultPlan {
        seed: 25,
        outages: vec![Outage {
            node: NodeId::from_index(FIRST_LFS_NODE + head),
            from: SimTime::ZERO,
            until: SimTime::ZERO + SimDuration::from_millis(700),
            kind: OutageKind::Down,
        }],
        ..FaultPlan::none()
    };
    machine.tracer = Some(collector.as_tracer());
    let (base, faulted) = check_tree_plan("tree down inner agent", machine, plan);
    assert!(faulted.end_time > base.end_time, "the window cost nothing");
    let trace = collector.snapshot();
    let agent = format!("agent{head}");
    let lost_relays = trace
        .instants
        .iter()
        .filter(|i| i.name == "fault.outage_drop" && trace.proc_name(i.pid) == agent)
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

/// Duplicates and delays of up to 12 virtual seconds, and no drops.
fn long_delay_plan() -> FaultPlan {
    FaultPlan {
        msg: MsgFaults {
            dup_per_mille: 100,
            delay_per_mille: 30,
            delay_max: SimDuration::from_secs(12),
            ..MsgFaults::default()
        },
        ..FaultPlan::seeded(27)
    }
}

/// 160 appends and 20 creates, one call every 40 virtual ms: well over 64
/// non-idempotent calls per client, over well over 4 virtual seconds, so a
/// request delayed for seconds lands long after its resend completed and
/// scores of calls after it.
fn run_long_delay_workload(config: &BridgeConfig) -> Run {
    run(config, |c| {
        let file = c.create(CreateSpec::default());
        for i in 0..160u64 {
            c.append(file, "append", i..i + 1, |i| content(0x5A, i, WIDE));
            if i % 8 == 7 {
                let extra = c.create(CreateSpec::default());
                c.log.push(format!("create -> {extra:?}"));
            }
            c.ctx.delay(SimDuration::from_millis(40));
        }
        c.read_back(file, "read");
    })
}

/// However late a duplicate lands, it never runs twice: each server's
/// window drops every request below its client's mark, so a delay far
/// past any count or clock a window could keep changes timing only — no
/// double append, no spurious create.
#[test]
fn watermark_long_delay_duplicates_never_rerun() {
    let plan = long_delay_plan();
    let base = run_long_delay_workload(&instant());
    let faulted = run_long_delay_workload(&instant().with_faults(plan.clone()));
    assert_same("long delay", &base, &faulted, &plan, None);
    assert!(
        faulted.stats.end_time > base.stats.end_time,
        "the plan was inert"
    );
}

/// Two clients in one process pipeline appends to one LFS under a dup and
/// delay storm, one client's call open across the other's round trip. The
/// mark is the process's, so neither client's calls make the other's
/// retransmits look stale: every call is answered, and the LFS runs every
/// request exactly once.
#[test]
fn watermark_two_clients_in_one_process_share_a_mark() {
    const CALLS: u32 = 48;
    let collector = TraceCollector::install();
    let plan = FaultPlan {
        msg: dup_delay_storm(),
        ..FaultPlan::seeded(28)
    };
    let mut config = instant().with_faults(plan);
    config.tracer = Some(collector.as_tracer());
    run(&config, |c| {
        let lfs = c.lfs[0].0;
        let mut clients = [
            LfsClient::with_retry(c.retry),
            LfsClient::with_retry(c.retry),
        ];
        let files = [LfsFileId(900), LfsFileId(901)];
        for (client, &file) in clients.iter_mut().zip(&files) {
            client
                .call(c.ctx, lfs, LfsOp::Create { file })
                .expect("create");
        }
        let append = |file, block: u32| LfsOp::Write {
            file,
            block,
            data: content(0x2C, u64::from(block), WIDE).into(),
            hint: None,
        };
        for block in 0..CALLS {
            let open = clients[1].send(c.ctx, lfs, append(files[1], block));
            let [a, b] = &mut clients;
            a.call(c.ctx, lfs, append(files[0], block)).expect("a");
            b.wait(c.ctx, lfs, open).expect("b");
        }
        for (client, &file) in clients.iter_mut().zip(&files) {
            let stat = client.call(c.ctx, lfs, LfsOp::Stat { file });
            let Ok(LfsData::Info(info)) = stat else {
                panic!("stat {file:?}: {stat:?}");
            };
            assert_eq!(info.size, CALLS, "{file:?}: an append was lost or doubled");
        }
    });
    let trace = collector.snapshot();
    let mut served: Vec<u64> = trace
        .spans_in("lfs")
        .filter(|s| s.name == "lfs.queue_wait")
        .filter(|s| {
            s.arg("client")
                .is_some_and(|p| trace.proc_name(p as usize) == "client")
        })
        .map(|s| s.arg("id").expect("queue spans carry the id"))
        .collect();
    let total = served.len();
    served.sort_unstable();
    served.dedup();
    assert_eq!(served.len(), total, "a request ran twice");
    assert_eq!(total as u32, 2 + 2 * CALLS + 2, "a request never ran");
}

/// The commit-group machine: three instances under 2PC, every file a
/// parity file whose stripe holds two data blocks — every other append
/// reads its stripe's old parity, and while the server's read rounds
/// wait, the other clients' requests queue.
fn group_machine() -> BridgeConfig {
    BridgeConfig::instant(BREADTH)
        .with_2pc()
        .with_redundancy(Redundancy::parity())
}

/// Three clients at once, each on a parity file of its own — appends,
/// overwrites, reads, a read-back, and a scratch file created, written
/// and deleted between them, so Creates and Deletes queue beside the
/// writes — and the closing machine-wide pfsck. File ids stay out of the
/// transcript: which client's Create the server takes first is timing.
fn run_group_workload(config: &BridgeConfig) -> Run {
    run(config, |c| {
        let bodies = (0..3u8)
            .map(|k| {
                Box::new(move |c: &mut support::Client| {
                    let tag = 0x60 + 0x10 * k;
                    let file = c.create(CreateSpec::default());
                    c.append(file, "append", 0..12, |i| content(tag, i, WIDE));
                    let scratch = c.create(CreateSpec::default());
                    c.append(scratch, "scratch", 0..3, |i| content(!tag, i, WIDE));
                    c.overwrite(file, "overwrite", &[2, 5, 9], |at| content(!tag, at, WIDE));
                    c.delete(scratch, "scratch.delete");
                    c.rand_read(file, "rand_read", &[0, 5, 11]);
                    c.append(file, "append", 12..15, |i| content(tag, i, WIDE));
                    c.read_back(file, "read");
                }) as support::Body
            })
            .collect();
        c.concurrently(bodies);
        c.pfsck(true, true);
    })
}

/// The commit-group invariant under one plan: three clients' requests,
/// served in groups, end in the fault-free transcript. Returns the faulted
/// run and its trace.
fn check_group_plan(label: &str, plan: FaultPlan) -> (Run, TraceData) {
    let collector = TraceCollector::install();
    let mut traced = group_machine();
    traced.tracer = Some(collector.as_tracer());
    let base = run_group_workload(&traced);
    let commits = collector.take().instants;
    assert!(
        commits
            .iter()
            .any(|i| i.name == "2pc.commit" && i.arg("txns") >= Some(2)),
        "{label}: no COMMIT named several transactions"
    );
    let mut config = group_machine().with_faults(plan.clone());
    config.tracer = Some(collector.as_tracer());
    let faulted = run_group_workload(&config);
    assert_same(label, &base, &faulted, &plan, None);
    assert!(
        faulted.stats.messages > base.stats.messages,
        "{label}: the storm never fired"
    );
    (faulted, collector.take())
}

/// Three clients under `storm_plan`'s duplicate and delay classes (its
/// drops off), and under the heavier dup-and-delay storm: every reply —
/// the scratch files' Creates and Deletes included — and every block the
/// fault-free run's. A duplicate delivery stashed beside
/// its original while the original's group is gathered is dropped, not
/// served twice.
#[test]
fn group_storms_converge() {
    let mut dropped = 0;
    for seed in [41, 42, 43] {
        let mut plan = storm_plan(seed);
        plan.msg.drop_per_mille = 0;
        let (_, trace) = check_group_plan(&format!("group storm {seed}"), plan);
        dropped += trace
            .instants
            .iter()
            .filter(|i| i.name == "retry.dup_dropped" && trace.proc_name(i.pid) == "bridge-server")
            .count();
        let plan = FaultPlan {
            msg: dup_delay_storm(),
            ..FaultPlan::seeded(seed)
        };
        check_group_plan(&format!("group dup+delay storm {seed}"), plan);
    }
    assert!(dropped > 0, "no duplicate ever reached the server's window");
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

/// Pins, recorded before the suites shared a harness: every fault-free
/// reference this file compares against (transcript, `RunStats`, per-LFS
/// writes) and every plan its corpora and default soaks expand to.
#[test]
fn references_and_plans_are_pinned() {
    use support::{assert_pinned, assert_plans_pinned, Pin};
    let plain = run_workload(&instant());
    #[rustfmt::skip]
    assert_pinned("chaos", &plain, Pin { transcript: 0xce6f3cf88ec6025d, lines: 84, events: 1035, messages: 818, bytes_sent: 344352, dispatches: 1035, end_ns: 0, disk_writes: &[56, 55, 39] });
    let wal = run_workload(&instant().with_wal());
    #[rustfmt::skip]
    assert_pinned("chaos wal", &wal, Pin { transcript: 0xa6380f4acc6483f1, lines: 85, events: 1056, messages: 830, bytes_sent: 344544, dispatches: 1056, end_ns: 9000000, disk_writes: &[88, 82, 59] });
    let two_pc = run_workload(&instant().with_2pc());
    #[rustfmt::skip]
    assert_pinned("chaos 2pc", &two_pc, Pin { transcript: 0xa6380f4acc6483f1, lines: 85, events: 1094, messages: 856, bytes_sent: 345778, dispatches: 1094, end_ns: 9000000, disk_writes: &[91, 89, 62] });
    let tree = run_tree_workload(&BridgeConfig::instant(TREE_BREADTH));
    #[rustfmt::skip]
    assert_pinned("tree", &tree, Pin { transcript: 0x321694392b70fd57, lines: 112, events: 3559, messages: 2416, bytes_sent: 238824, dispatches: 3559, end_ns: 21000000, disk_writes: &[16, 22, 18, 28, 27, 35, 34, 35, 30, 36, 30, 41, 29, 34, 27, 32, 31, 32, 26, 33, 22, 24, 15, 21, 15, 21, 15, 21, 15, 20, 15, 20] });
    let tree_wal = run_tree_workload(&BridgeConfig::instant(TREE_BREADTH).with_wal());
    #[rustfmt::skip]
    assert_pinned("tree wal", &tree_wal, Pin { transcript: 0x321694392b70fd57, lines: 112, events: 3216, messages: 2416, bytes_sent: 238824, dispatches: 3216, end_ns: 21000000, disk_writes: &[11, 16, 15, 21, 19, 25, 30, 25, 22, 27, 22, 37, 20, 23, 16, 19, 24, 19, 14, 21, 13, 17, 9, 14, 9, 14, 9, 14, 9, 12, 9, 12] });

    // Corpus seeds first (`initial.seed`; `initial.crashseed` and
    // `two_pc.crashseed`), then the first 8 default soak seeds.
    #[rustfmt::skip]
    assert_plans_pinned("plan_from_seed", plan_from_seed, &[
        (1, 0x7d581407b579c75e), (31337, 0xb5e7151b71814467), (11674440, 0xf923d3a83c22689b),
        (18446744073709551615, 0x7e081e4c80a2690c), (9007199254740993, 0x60bd0768c7ce762f),
        (558202758234624461, 0xb1d8c6474ee6445f), (5918772284066159773, 0x68417586b6173180),
        (9499704843322518066, 0xf51fd27ab870af3d), (18281371658967529087, 0x4c7c070b77693cf2),
        (2147403308703587643, 0xa4012d854ea9fae6), (3277693104140879231, 0x85b50699022abf3a),
        (14264038187553841129, 0xcc1b0dfe5f3ae844), (423696017928100774, 0x14d5f389cc6a19c3),
    ]);
    #[rustfmt::skip]
    assert_plans_pinned("crash_plan_from_seed", crash_plan_from_seed, &[
        (1, 0x8e25ed49e6c6aeca), (31337, 0x71824f3ec7a84009), (424242, 0xe6e5a7b68d9c589f),
        (9007199254740993, 0x81860111c246c78a), (2, 0xd9575d2c41dadaf9), (4, 0x9074707f93b15615),
        (14, 0x6f7d8eeae3ab737b), (30, 0x3f0d6d94325f4b25),
        (2761298215604535215, 0x813ff79195ff07d0), (11537235754215318957, 0xa91d5797ad83b95f),
        (6064218205305933168, 0x722189953bd61628), (15886525228152466627, 0x264b7979f177e5a6),
        (14245295773277443009, 0xf00ddd73c6646ec3), (15844814857521540337, 0xe48768ed7fea0abe),
        (14597602704226602700, 0xacb89638bd95b34b), (5553843635261401801, 0xd07eb9bcd1bd1b48),
    ]);
    #[rustfmt::skip]
    assert_plans_pinned("two_pc_crash_plan_from_seed", two_pc_crash_plan_from_seed, &[
        (1, 0x4c905ae3d3ef3a81), (31337, 0xba5200c566290bb4), (424242, 0x1ccec908b09db87f),
        (9007199254740993, 0x0e61d3d01a788a94), (2, 0x5711d618625410db), (4, 0xe1c7b57d153b755b),
        (14, 0xa9229fddf3bb1c0f), (30, 0xc02a309e5858d0df),
        (2761298215604535215, 0x8096efc245455698), (11537235754215318957, 0x320bcfb3ae6fd6d0),
        (6064218205305933168, 0xb28d2d2a373f4f48), (15886525228152466627, 0x56cc3da40118de85),
        (14245295773277443009, 0x44e184e0eecd1f06), (15844814857521540337, 0x828ce8ea5734ea47),
        (14597602704226602700, 0x99ff67a176a5c824), (5553843635261401801, 0xbe46314f905d2fec),
    ]);
}
