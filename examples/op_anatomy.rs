//! Anatomy of the small-mutation path: one create, append, `rand_read`,
//! `rand_write` and delete on the 2PC + parity machine (`churn_p8`'s
//! configuration) under a trace collector, then two commit groups: four
//! clients appending to four parity files at once, and four clients each
//! creating a parity file at once while the server is busy opening a
//! file (a Create reads nothing, so requests queue behind it only while
//! the server waits on something). For each op it prints
//! the timeline of every non-`sched` span that started while the client
//! was waiting for it, and the number of disk positionings those spans
//! paid — the quantity a Wren disk charges for.
//!
//! Run with: `cargo run --release --example op_anatomy [out.txt]` (the
//! report also goes to standard output). Exits nonzero if
//!
//! * a parity `rand_write` no checkpoint landed on takes more than 92
//!   virtual ms, or the append more than 95, or
//! * any `wal.commit` span holds more than one disk span, or one that is
//!   not a `disk.write_run` paying one positioning — one per track for a
//!   batch longer than a track: a commit is one device run, and the log
//!   never splits a batch that fits on a track, or
//! * the group's four appends, or the four Creates, take anything but
//!   two decision-log writes — one BEGIN naming the four transactions,
//!   one COMMIT naming them.

use bridge_core::{BridgeClient, BridgeConfig, BridgeMachine, CreateSpec, Redundancy};
use bridge_trace::{SpanEvent, TraceCollector, TraceData};
use parsim::{Ctx, ProcId, SimTime};
use simdisk::DiskProfile;
use std::fmt::Write as _;
use std::process::ExitCode;

const P: u32 = 8;
/// Blocks appended before the profiled ops: two full parity stripes and
/// a ragged third, so the profiled append joins an open stripe.
const PRELOAD: u64 = 17;
/// The virtual-time budget of a checkpoint-free parity `rand_write`.
const RAND_WRITE_BUDGET_MS: f64 = 92.0;
/// The virtual-time budget of the checkpoint-free parity append.
const APPEND_BUDGET_MS: f64 = 95.0;
/// Clients in the group section, one parity file each.
const GROUP: usize = 4;

fn record(block: u64) -> Vec<u8> {
    format!("anatomy record {block:06}").into_bytes()
}

/// One profiled client call: its name and the client's clock around it.
struct Op {
    name: &'static str,
    from: SimTime,
    to: SimTime,
}

fn main() -> ExitCode {
    let collector = TraceCollector::install();
    let mut config = BridgeConfig::paper(P)
        .with_2pc()
        .with_redundancy(Redundancy::parity());
    config.tracer = Some(collector.as_tracer());
    let (mut sim, machine) = BridgeMachine::build(&config);
    let server = machine.server;

    let ops = sim.block_on(machine.frontend, "anatomy", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let mut ops = Vec::new();
        let file = timed(ctx, &mut ops, "create", |ctx| {
            bridge.create(ctx, CreateSpec::default()).expect("create")
        });
        for b in 0..PRELOAD {
            bridge.seq_write(ctx, file, record(b)).expect("preload");
        }
        timed(ctx, &mut ops, "append", |ctx| {
            bridge
                .seq_write(ctx, file, record(PRELOAD))
                .expect("append");
        });
        timed(ctx, &mut ops, "rand_read", |ctx| {
            let data = bridge.rand_read(ctx, file, 3).expect("rand_read");
            assert_eq!(&data[..record(3).len()], &record(3)[..]);
        });
        // Several overwrites on different columns: each is reported, and
        // the budget is held against those no checkpoint landed on.
        for block in [3u64, 4, 5, 6] {
            timed(ctx, &mut ops, "rand_write", |ctx| {
                bridge
                    .rand_write(ctx, file, block, record(100 + block))
                    .expect("rand_write");
            });
        }
        timed(ctx, &mut ops, "delete", |ctx| {
            bridge.delete(ctx, file).expect("delete");
        });
        // The group: a file per client, each past its stripe's first
        // block so every append reads its old parity, then one append
        // from each client at once.
        let files: Vec<_> = (0..GROUP)
            .map(|_| {
                let file = bridge.create(ctx, CreateSpec::default()).expect("create");
                for b in 0..2 {
                    bridge.seq_write(ctx, file, record(b)).expect("preload");
                }
                file
            })
            .collect();
        timed(ctx, &mut ops, "group", |ctx| {
            append_at_once(ctx, server, &files)
        });
        timed(ctx, &mut ops, "create group", |ctx| {
            create_at_once(ctx, server, &mut bridge, files[0])
        });
        ops
    });

    let data = collector.take();
    let positioning = DiskProfile::wren().positioning.as_nanos();
    let per_track = u64::from(config.disk_geometry.blocks_per_track);
    let mut report = String::new();
    let mut failures = Vec::new();
    let mut checked = Vec::new();

    for op in &ops {
        let spans = spans_started_in(&data, op.from, op.to);
        let positionings: u64 = spans
            .iter()
            .filter(|s| s.cat == "disk")
            .map(|s| s.arg("position").unwrap_or(0) / positioning)
            .sum();
        let checkpointed = spans.iter().any(|s| s.name == "wal.checkpoint");
        let ms = millis(op.to.as_nanos() - op.from.as_nanos());
        let _ = writeln!(
            report,
            "== {} — {ms:.1} virtual ms, {positionings} positionings{}",
            op.name,
            if checkpointed {
                ", a checkpoint started inside it"
            } else {
                ""
            }
        );
        for s in &spans {
            let _ = writeln!(
                report,
                "  {:>8.1} +{:>6.1} ms  {:<8} {:<22} {}",
                millis(s.start.as_nanos() - op.from.as_nanos()),
                millis(s.dur_nanos()),
                data.proc_name(s.pid),
                s.name,
                disk_detail(s, positioning),
            );
        }
        let budget = match op.name {
            "rand_write" => RAND_WRITE_BUDGET_MS,
            "append" => APPEND_BUDGET_MS,
            _ => continue,
        };
        if !checkpointed {
            checked.push(op.name);
            if ms > budget {
                failures.push(format!(
                    "checkpoint-free parity {} took {ms:.1} virtual ms (budget {budget} ms)",
                    op.name
                ));
            }
        }
    }
    for name in ["rand_write", "append"] {
        if !checked.contains(&name) {
            failures.push(format!("every profiled {name} had a checkpoint land on it"));
        }
    }

    let server_pid = data.procs.iter().position(|p| p.name == "bridge-server");
    for (name, what) in [("group", "appends"), ("create group", "creates")] {
        let group = ops.iter().find(|op| op.name == name).expect("timed");
        let log_writes = data
            .spans_in("disk")
            .filter(|d| Some(d.pid) == server_pid && d.start >= group.from && d.end <= group.to)
            .count();
        let named: Vec<u64> = data
            .instants
            .iter()
            .filter(|i| i.name == "2pc.commit" && i.at >= group.from && i.at <= group.to)
            .filter_map(|i| i.arg("txns"))
            .collect();
        let _ = writeln!(
            report,
            "{name}: {GROUP} {what}, {log_writes} decision-log writes, COMMITs naming {named:?} txns"
        );
        if log_writes != 2 || named != [GROUP as u64] {
            failures.push(format!(
                "the {name}'s {GROUP} {what} took {log_writes} decision-log writes and \
                 COMMITs naming {named:?} (one BEGIN and one COMMIT naming all {GROUP} expected)"
            ));
        }
    }

    let commits: Vec<&SpanEvent> = data
        .spans
        .iter()
        .filter(|s| s.name == "wal.commit")
        .collect();
    for commit in &commits {
        let inside: Vec<&SpanEvent> = data
            .spans_in("disk")
            .filter(|d| d.pid == commit.pid && d.start >= commit.start && d.end <= commit.end)
            .collect();
        let one_run = matches!(inside.as_slice(), [run] if run.name == "disk.write_run"
            && run.arg("position") == Some(positioning * tracks_owed(run, per_track)));
        if !one_run {
            failures.push(format!(
                "wal.commit on {} at {:.1} ms is not one device run: {:?}",
                data.proc_name(commit.pid),
                millis(commit.start.as_nanos()),
                inside.iter().map(|d| d.name.as_str()).collect::<Vec<_>>()
            ));
        }
    }
    let _ = writeln!(
        report,
        "{} wal.commit spans checked: each one device run",
        commits.len()
    );

    print!("{report}");
    if let Some(out) = std::env::args().nth(1) {
        if let Some(parent) = std::path::Path::new(&out).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&out, &report) {
            eprintln!("FAIL: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
    }
    for f in failures.iter().take(8) {
        eprintln!("FAIL: {f}");
    }
    if failures.len() > 8 {
        eprintln!("FAIL: … and {} more", failures.len() - 8);
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One append to each of `files` from a client of its own, all at once.
fn append_at_once(ctx: &mut Ctx, server: ProcId, files: &[bridge_core::BridgeFileId]) {
    let (me, node) = (ctx.me(), ctx.node());
    for (i, &file) in files.iter().enumerate() {
        ctx.spawn(node, format!("client{i}"), move |ctx| {
            let mut bridge = BridgeClient::new(server);
            bridge.seq_write(ctx, file, record(2)).expect("append");
            ctx.send(me, ());
        });
    }
    for _ in files {
        ctx.recv_as::<()>();
    }
}

/// One parity file created by each of `GROUP` clients of their own, all
/// at once, while this process opens `busy`: the server serves the Open
/// alone, and the Creates that queued during its stat round are served
/// together. Returns once every file exists.
fn create_at_once(
    ctx: &mut Ctx,
    server: ProcId,
    bridge: &mut BridgeClient,
    busy: bridge_core::BridgeFileId,
) {
    let (me, node) = (ctx.me(), ctx.node());
    for i in 0..GROUP {
        ctx.spawn(node, format!("creator{i}"), move |ctx| {
            let mut bridge = BridgeClient::new(server);
            bridge.create(ctx, CreateSpec::default()).expect("create");
            ctx.send(me, ());
        });
    }
    bridge.open(ctx, busy).expect("open");
    for _ in 0..GROUP {
        ctx.recv_as::<()>();
    }
}

/// Runs one client call, noting the client's clock around it.
fn timed<R>(
    ctx: &mut Ctx,
    ops: &mut Vec<Op>,
    name: &'static str,
    call: impl FnOnce(&mut Ctx) -> R,
) -> R {
    let from = ctx.now();
    let out = call(ctx);
    let to = ctx.now();
    ops.push(Op { name, from, to });
    out
}

fn millis(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Every non-`sched` span that started while the client waited for the
/// op, in start order (a checkpoint acknowledged-before may still be
/// running when the window closes; it is reported where it started).
fn spans_started_in(data: &TraceData, from: SimTime, to: SimTime) -> Vec<&SpanEvent> {
    let mut spans: Vec<&SpanEvent> = data
        .spans
        .iter()
        .filter(|s| s.cat != "sched" && s.start >= from && s.start < to)
        .collect();
    spans.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end)));
    spans
}

/// The positionings a log write run may pay: one if its blocks fit on a
/// track — the log places such a batch on one — else one per track.
fn tracks_owed(run: &SpanEvent, per_track: u64) -> u64 {
    let blocks = run.arg("blocks").unwrap_or(1);
    if blocks <= per_track {
        1
    } else {
        run.arg("tracks").unwrap_or(1)
    }
}

/// What a disk span paid: positionings and blocks transferred.
fn disk_detail(s: &SpanEvent, positioning: u64) -> String {
    if s.cat != "disk" {
        return String::new();
    }
    format!(
        "{} positioning(s), {:.0} ms transfer",
        s.arg("position").unwrap_or(0) / positioning,
        millis(s.arg("transfer").unwrap_or(0))
    )
}
