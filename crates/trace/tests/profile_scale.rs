//! The profiler's cost must grow with the trace, not with its square: a
//! synthetic naive-path trace of 50 000 client operations (half a million
//! spans, 400 000 flow events, a 200 000-hop critical path) profiles
//! inside a wall bound that a per-hop scan of the flow list, or a per-op
//! scan of a server's spans, misses by orders of magnitude.

use bridge_trace::{profile, Category, FlowEvent, ProcMeta, ProfileReport, SpanEvent, TraceData};
use parsim::{SimDuration, SimTime};
use std::time::{Duration, Instant};

const OPS: u64 = 50_000;
const LFS: usize = 8;
/// Virtual nanoseconds between the starts of consecutive operations.
const PERIOD: u64 = 1_000;

const CLIENT: usize = 0;
const BRIDGE: usize = 1;

fn at(nanos: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(nanos)
}

fn span(
    pid: usize,
    cat: &'static str,
    name: &str,
    start: u64,
    end: u64,
    args: &[(&'static str, u64)],
) -> SpanEvent {
    SpanEvent {
        pid,
        cat,
        name: name.to_string(),
        start: at(start),
        end: at(end),
        args: args.to_vec(),
    }
}

/// One closed-loop client reading block after block through the Bridge
/// server, each read served by one of `LFS` instances with one disk
/// access: the span, flow and run-interval shape a traced `naive_p32`
/// iteration has.
fn naive_path_trace() -> TraceData {
    let mut data = TraceData {
        nodes: vec!["n".to_string()],
        ..TraceData::default()
    };
    data.procs = ["client", "bridge-server"]
        .into_iter()
        .map(str::to_string)
        .chain((0..LFS).map(|i| format!("lfs{i}")))
        .map(|name| ProcMeta { name, node: 0 })
        .collect();
    let mut flow_id = 0u64;
    let mut hop = |data: &mut TraceData, from: usize, to: usize, sent: u64, got: u64| {
        for (at_nanos, send) in [(sent, true), (got, false)] {
            data.flows.push(FlowEvent {
                id: flow_id,
                from,
                to,
                at: at(at_nanos),
                bytes: if send { 32 } else { 0 },
                send,
            });
        }
        flow_id += 1;
    };
    for i in 0..OPS {
        let t = i * PERIOD;
        let id = i + 1;
        let lfs = 2 + (i as usize % LFS);
        // The client's run since the previous reply ends as it sends.
        data.spans
            .push(span(CLIENT, "sched", "run", t.saturating_sub(150), t, &[]));
        hop(&mut data, CLIENT, BRIDGE, t, t + 50);
        hop(&mut data, BRIDGE, lfs, t + 100, t + 150);
        data.spans
            .push(span(BRIDGE, "sched", "run", t + 50, t + 100, &[]));
        data.spans.push(span(
            lfs,
            "lfs",
            "lfs.queue_wait",
            t + 150,
            t + 200,
            &[
                ("wait", 50),
                ("depth", 1),
                ("id", id),
                ("client", BRIDGE as u64),
            ],
        ));
        data.spans.push(span(
            lfs,
            "disk",
            "disk.read.load",
            t + 250,
            t + 550,
            &[("position", 100)],
        ));
        data.spans.push(span(
            lfs,
            "lfs",
            "lfs.read",
            t + 200,
            t + 600,
            &[("ok", 1), ("id", id)],
        ));
        hop(&mut data, lfs, BRIDGE, t + 600, t + 650);
        data.spans
            .push(span(lfs, "sched", "run", t + 150, t + 600, &[]));
        data.spans.push(span(
            BRIDGE,
            "client",
            "client.lfs.read",
            t + 100,
            t + 650,
            &[("id", id), ("server", lfs as u64), ("ok", 1)],
        ));
        data.spans.push(span(
            BRIDGE,
            "bridge",
            "bridge.seq_read",
            t + 60,
            t + 800,
            &[("id", id), ("client", CLIENT as u64)],
        ));
        hop(&mut data, BRIDGE, CLIENT, t + 800, t + 850);
        data.spans
            .push(span(BRIDGE, "sched", "run", t + 650, t + 800, &[]));
        data.spans.push(span(
            CLIENT,
            "client",
            "client.bridge.seq_read",
            t,
            t + 850,
            &[("id", id), ("server", BRIDGE as u64), ("ok", 1)],
        ));
    }
    // The client's last run, after the final reply.
    let end = (OPS - 1) * PERIOD + 850;
    data.spans
        .push(span(CLIENT, "sched", "run", end, end + 10, &[]));
    data
}

#[test]
fn profile_cost_is_linear_in_the_trace() {
    let data = naive_path_trace();
    assert!(data.spans.len() >= 500_000 && data.flows.len() == 8 * OPS as usize);

    let started = Instant::now();
    let prof = profile(&data);
    let took = started.elapsed();

    // The answer first: every op fully explained, the walk crosses every
    // message of every op.
    assert_eq!(prof.ops.len() as u64, OPS);
    for op in [
        &prof.ops[0],
        &prof.ops[OPS as usize / 2],
        &prof.ops[OPS as usize - 1],
    ] {
        assert_eq!(op.latency_nanos(), 850);
        assert_eq!(op.untraced_nanos(), 0);
        assert_eq!(op.breakdown.get(Category::Interconnect), 200);
        assert_eq!(op.breakdown.get(Category::LfsQueueWait), 50);
        assert_eq!(op.breakdown.get(Category::DiskPosition), 100);
        assert_eq!(op.breakdown.get(Category::DiskTransfer), 200);
    }
    let cp = &prof.critical_path;
    assert_eq!(cp.hops as u64, 4 * OPS);
    assert_eq!(cp.makespan_nanos, (OPS - 1) * PERIOD + 860);
    assert_eq!(cp.breakdown.total(), cp.makespan_nanos);

    // Then the cost. An unoptimised build on a busy two-core box takes
    // two to three seconds here; the quadratic profiler needed minutes
    // for a trace a quarter this size.
    assert!(
        took < Duration::from_secs(30),
        "profiling {OPS} ops took {took:?}"
    );

    // The report over the same trace is the other consumer.
    let report = ProfileReport::from_trace(&data, 16);
    assert_eq!(report.profile.ops.len() as u64, OPS);
}
