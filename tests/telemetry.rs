//! Telemetry determinism and exactness.
//!
//! The live-health subsystem's contract has two halves:
//!
//! 1. **Observation never changes the run.** Arming the registry,
//!    polling it from the host-side virtual-time sampler, or polling
//!    `GetHealth` in-band must leave the workload's observable
//!    behaviour untouched: armed-but-unpolled and sampler-polled runs
//!    are `RunStats`-bit-identical to a disarmed run (same pattern as
//!    the trace-determinism and inert-fault-plan suites), and an
//!    in-band poller may shift timing but never reply contents.
//! 2. **Snapshots are exact.** The end-of-run health snapshot's disk
//!    counters reconcile with zero slack against the `DiskStats` the
//!    devices themselves report, its LFS queue counters against the
//!    `lfs.queue_wait` spans the servers trace, and the sampler's
//!    quiescence frame carries the kernel's own final `RunStats` verbatim.

use bridge_repro::core::{
    BridgeClient, BridgeConfig, BridgeFileId, BridgeMachine, CreateSpec, FaultPlan, Redundancy,
};
use bridge_repro::efs::{install_spare, LfsClient, LfsData, LfsOp};
use bridge_repro::parsim::{Ctx, SimDuration};
use bridge_repro::simdisk;
use bridge_repro::trace::{HealthSnapshot, TraceCollector};
use support::{run, Classes, Run};

mod support;

const BREADTH: u32 = 4;
const BLOCKS: u64 = 40;

/// The machine every test drives: machine-wide atomicity and parity
/// redundancy, so the 2PC, WAL, and redundancy gauges all carry weight.
fn config(telemetry: bool) -> BridgeConfig {
    let mut c = BridgeConfig::instant(BREADTH)
        .with_2pc()
        .with_redundancy(Redundancy::parity());
    c.telemetry = telemetry;
    c
}

/// The telemetry workload's own payload: a text record, unlike the fault
/// suites' byte patterns.
fn content(i: u64) -> Vec<u8> {
    format!("telemetry record {i:05}").into_bytes()
}

/// Runs the fixed workload; the transcript holds the client-visible
/// replies (contents and results, no timing). With `poll_health`, a
/// `GetHealth` poll is injected between phases — the transcript must not
/// change (the polls themselves are excluded from it; timing is allowed
/// to shift).
fn run_workload(config: &BridgeConfig, poll_health: bool) -> Run {
    run(config, move |c| {
        let file = c.create(CreateSpec::default());
        c.append(file, "append", 0..BLOCKS, content);
        if poll_health {
            let h = c.bridge.get_health(c.ctx).expect("health");
            assert!(h.server.ops > 0, "mid-run poll saw a live server");
        }
        c.overwrite(file, "overwrite", &[0, 7, 19, 33], |at| content(1000 + at));
        c.read_back(file, "read");
        if poll_health {
            let h = c.bridge.get_health(c.ctx).expect("health");
            assert_eq!(h.server.txns_in_doubt, 0, "quiescent 2PC at end");
        }
    })
}

/// Appends `BLOCKS` records to a fresh file and reads it back, untallied.
fn write_then_read(ctx: &mut Ctx, bridge: &mut BridgeClient) -> BridgeFileId {
    let file = bridge.create(ctx, CreateSpec::default()).expect("create");
    for i in 0..BLOCKS {
        bridge.seq_write(ctx, file, content(i)).expect("append");
    }
    bridge.open(ctx, file).expect("open");
    while bridge.seq_read(ctx, file).expect("read").is_some() {}
    file
}

/// Arming the registry without ever polling it must be invisible to the
/// kernel: bit-identical `RunStats`, identical reply transcript.
#[test]
fn armed_but_unpolled_is_bit_identical_to_disabled() {
    let off = run_workload(&config(false), false);
    let on = run_workload(&config(true), false);
    assert_eq!(
        off.stats, on.stats,
        "arming telemetry changed the kernel counters"
    );
    assert_eq!(
        off.transcript, on.transcript,
        "arming telemetry changed the reply transcript"
    );
}

/// Host-side sampler polling is observation-only: the polled run's
/// `RunStats` are bit-identical to the unpolled run's, and the final
/// (quiescence) frame carries those counters verbatim.
#[test]
fn sampler_polling_is_bit_identical_and_final_frame_exact() {
    // Paper-profile disks, so virtual time really advances and the
    // sampler crosses many boundaries (instant machines quiesce at t=0).
    let cfg = BridgeConfig::paper(BREADTH)
        .with_2pc()
        .with_redundancy(Redundancy::parity());
    let (mut sim, machine) = BridgeMachine::build(&cfg);
    let registry = machine.telemetry.clone().expect("armed");
    let frames = std::rc::Rc::new(std::cell::RefCell::new(Vec::<HealthSnapshot>::new()));
    {
        let frames = std::rc::Rc::clone(&frames);
        sim.set_sampler(SimDuration::from_millis(50), move |at, stats| {
            frames
                .borrow_mut()
                .push(registry.snapshot(at, Some(*stats)));
        });
    }
    let server = machine.server;
    sim.block_on(machine.frontend, "telemetry-client", move |ctx| {
        write_then_read(ctx, &mut BridgeClient::new(server));
    });
    let polled = sim.stats();

    // Different workload tail than `run_workload` (no overwrites), so
    // only compare the sampled run against itself re-run unpolled.
    let unpolled = run(&cfg, |c| {
        write_then_read(c.ctx, &mut c.bridge);
    });
    assert_eq!(
        unpolled.stats, polled,
        "sampler polling changed the kernel counters"
    );

    let frames = frames.take();
    assert!(frames.len() >= 2, "expected multiple sampled frames");
    let last = frames.last().unwrap();
    assert_eq!(
        last.kernel,
        Some(polled),
        "quiescence frame must carry the run's final RunStats verbatim"
    );
}

/// An in-band `GetHealth` poller is a real client: it consumes virtual
/// time, so timing may shift — but the workload's reply *contents* must
/// be identical with and without it.
#[test]
fn inband_polling_leaves_reply_contents_identical() {
    let quiet = run_workload(&config(true), false);
    let polled = run_workload(&config(true), true);
    assert_eq!(
        quiet.transcript, polled.transcript,
        "in-band GetHealth polling changed reply contents"
    );
}

/// End-of-run exactness, driven through the full operational arc
/// (column loss → degraded reads → spare → paced rebuild): the health
/// snapshot's per-instance disk counters must equal, field for field,
/// the `DiskStats` the devices themselves report via `LfsOp::DiskStats`,
/// and its gauges must agree with the ground-truth `LfsOp::GetTelemetry`
/// reads.
#[test]
fn end_of_run_snapshot_reconciles_exactly_with_diskstats() {
    let victim = 1u32;
    let cfg = config(true).with_faults(FaultPlan::seeded(0x7e1e).lose(victim, 25));
    let (mut sim, machine) = BridgeMachine::build(&cfg);
    let server = machine.server;
    let spare = machine.lfs[victim as usize];
    let lfs: Vec<_> = machine.lfs.clone();
    let retry = cfg.server.lfs_retry;
    let (health, ground) = sim.block_on(machine.frontend, "telemetry-client", move |ctx| {
        let mut bridge = BridgeClient::with_retry(server, retry);
        let file = write_then_read(ctx, &mut bridge);
        assert!(install_spare(ctx, spare), "spare racked in");
        bridge
            .rebuild_paced(ctx, file, 8, SimDuration::from_micros(200))
            .expect("rebuild");
        bridge.open(ctx, file).expect("reopen");
        while bridge.seq_read(ctx, file).expect("final read").is_some() {}

        let health = bridge.get_health(ctx).expect("health");
        // Ground truth, straight from each device and instance. These
        // ops are untimed and touch no media, so the counters the
        // snapshot mirrored cannot move between the two observations.
        let mut client = LfsClient::with_retry(retry);
        let ground: Vec<(simdisk::DiskStats, Box<bridge_repro::trace::LfsTelemetry>)> = lfs
            .iter()
            .map(|&proc| {
                let stats = match client.call(ctx, proc, LfsOp::DiskStats) {
                    Ok(LfsData::DiskCounters(s)) => s,
                    other => panic!("DiskStats reply: {other:?}"),
                };
                let telemetry = match client.call(ctx, proc, LfsOp::GetTelemetry) {
                    Ok(LfsData::Telemetry(t)) => t,
                    other => panic!("GetTelemetry reply: {other:?}"),
                };
                (stats, telemetry)
            })
            .collect();
        (health, ground)
    });
    let _ = sim.stats();

    assert!(health.server.degraded_reads > 0, "the loss was exercised");
    assert_eq!(health.server.rebuilds_started, 1);
    assert_eq!(health.server.rebuilds_done, 1);
    assert!(health.has_event("disk.lost"));
    assert!(health.has_event("redundancy.degraded_onset"));
    assert!(health.has_event("disk.spare_installed"));
    assert!(health.has_event("rebuild.start"));
    assert!(health.has_event("rebuild.done"));
    assert_eq!(health.lfs.len(), BREADTH as usize);

    for (i, (mirror, (stats, telemetry))) in health.lfs.iter().zip(&ground).enumerate() {
        // Zero slack: every disk counter in the snapshot equals the
        // device's own ledger.
        assert_eq!(mirror.disk.reads, stats.reads, "lfs {i} reads");
        assert_eq!(mirror.disk.writes, stats.writes, "lfs {i} writes");
        assert_eq!(
            mirror.disk.buffer_hits, stats.buffer_hits,
            "lfs {i} buffer hits"
        );
        assert_eq!(
            mirror.disk.track_loads, stats.track_loads,
            "lfs {i} track loads"
        );
        assert_eq!(
            mirror.disk.head_travel, stats.head_travel,
            "lfs {i} head travel"
        );
        assert_eq!(
            mirror.disk.transient_faults, stats.transient_faults,
            "lfs {i} transient faults"
        );
        assert_eq!(
            mirror.disk.busy_nanos,
            stats.busy.as_nanos(),
            "lfs {i} busy time"
        );
        // And the instance gauges agree with the ground-truth read.
        assert_eq!(mirror.disk, telemetry.disk, "lfs {i} disk view");
        assert_eq!(
            mirror.free_blocks, telemetry.free_blocks,
            "lfs {i} free blocks"
        );
        assert_eq!(
            mirror.wal_ring_used, telemetry.wal_ring_used,
            "lfs {i} wal ring"
        );
        assert_eq!(mirror.media_lost, telemetry.media_lost, "lfs {i} media");
        assert!(!mirror.media_lost, "spare racked in and rebuilt");
    }
}

/// The registry's LFS queue counters and the `lfs.queue_wait` spans are
/// two bookkeeping paths over one service loop, so on a fault-free
/// traced run they agree with zero slack, instance by instance: one span
/// per booked wait, the same summed wait, and the same depth high water.
/// Several clients write and read at once, so requests really queue
/// behind one another. (A faulted run can differ: a batch that dies
/// mid-service traces spans the registry never books.)
#[test]
fn lfs_queue_counters_reconcile_with_queue_wait_spans() {
    let collector = TraceCollector::install();
    let mut cfg = BridgeConfig::paper(BREADTH)
        .with_2pc()
        .with_redundancy(Redundancy::parity());
    cfg.tracer = Some(collector.as_tracer());
    let (mut sim, machine) = BridgeMachine::build(&cfg);
    let registry = machine.telemetry.clone().expect("armed");
    for c in 0..4 {
        let server = machine.server;
        sim.spawn(machine.frontend, format!("client{c}"), move |ctx| {
            write_then_read(ctx, &mut BridgeClient::new(server));
        });
    }
    sim.run();
    let snapshot = registry.snapshot(sim.now(), None);
    let data = collector.take();

    let mut deepest = 0;
    for (i, (lfs, proc)) in snapshot.lfs.iter().zip(&machine.lfs).enumerate() {
        let (mut waits, mut wait_nanos, mut depth_peak) = (0, 0, 0);
        for span in data
            .spans
            .iter()
            .filter(|s| s.name == "lfs.queue_wait" && s.pid == proc.index())
        {
            waits += 1;
            wait_nanos += span.arg("wait").expect("wait arg");
            depth_peak = depth_peak.max(span.arg("depth").expect("depth arg"));
        }
        assert_eq!(lfs.queue_waits, waits, "lfs {i} queue waits");
        assert_eq!(lfs.queue_wait_nanos, wait_nanos, "lfs {i} queue wait time");
        assert_eq!(lfs.queue_depth_peak, depth_peak, "lfs {i} queue depth peak");
        deepest = deepest.max(lfs.queue_depth_peak);
    }
    assert!(deepest > 1, "no request ever queued behind another");
}
