//! Chrome trace-event JSON export and validation.
//!
//! The exported file loads in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`. Simulated *nodes* map to trace "processes" and
//! simulated *processes* to trace "threads", so a p-node Bridge machine
//! renders as p+2 swimlane groups, exactly like the paper's Figure 2.
//!
//! Scheduler run intervals (`cat == "sched"`) go on a separate synthetic
//! thread lane per process: a Bridge-server dispatch span legitimately
//! *crosses* run-interval boundaries (the server blocks mid-request
//! awaiting LFS replies), and the Chrome format requires events on one
//! thread to nest. For the same reason a process's RPC spans take as many
//! lanes as it has calls in flight: a pipelined fan-out's sends
//! (`cat == "client"`) overlap without nesting, and so do the `bridge`
//! spans of a commit group's members, each open from the member's join to
//! its reply, and an LFS's `lfs.queue_wait` spans, each open from a
//! request's arrival — mid-service of another — to its own service.

use crate::collect::TraceData;
use crate::json::{self, write_str, Json};
use parsim::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// A process's lanes are trace threads `process index + 1 + k · LANE`:
/// k = 0 its own, k = 1 its scheduler run intervals, k ≥ 2 its RPC lanes.
const LANE: usize = 100_000;

/// Each span's lane k. `sched` spans take lane 1. A `client` or `bridge`
/// span — one side of an RPC — or an `lfs.queue_wait` goes first-fit to
/// the lowest of lane 0 and the RPC lanes that it nests in, the way the
/// validator checks nesting: sorted by (start asc, end desc), a span fits
/// a lane when the innermost span still open there ends no earlier. Every
/// other span stays on lane 0, so its nesting is checked.
fn span_lanes(data: &TraceData) -> Vec<usize> {
    let mut lanes: Vec<usize> = data
        .spans
        .iter()
        .map(|s| usize::from(s.cat == "sched"))
        .collect();
    let mut order: Vec<usize> = (0..data.spans.len()).filter(|&i| lanes[i] == 0).collect();
    order.sort_by_key(|&i| {
        let s = &data.spans[i];
        (s.pid, s.start, std::cmp::Reverse(s.end))
    });
    // Per lane of the current process (0 and the RPC lanes), the ends of
    // its open spans.
    let mut open: Vec<Vec<SimTime>> = Vec::new();
    let mut pid = usize::MAX;
    for i in order {
        let span = &data.spans[i];
        if span.pid != pid {
            pid = span.pid;
            open.clear();
        }
        for ends in &mut open {
            while ends.last().is_some_and(|&end| end <= span.start) {
                ends.pop();
            }
        }
        let lane = if matches!(span.cat, "client" | "bridge") || span.name == "lfs.queue_wait" {
            let fits = |ends: &Vec<SimTime>| ends.last().is_none_or(|&end| end >= span.end);
            open.iter().position(fits).unwrap_or(open.len())
        } else {
            0
        };
        if lane == open.len() {
            open.push(Vec::new());
        }
        open[lane].push(span.end);
        lanes[i] = if lane == 0 { 0 } else { lane + 1 };
    }
    lanes
}

fn push_us(out: &mut String, nanos: u64) {
    // Chrome timestamps are microseconds; emit sub-us precision as a
    // fraction so nothing collapses at ns resolution.
    let _ = write!(out, "{}.{:03}", nanos / 1_000, nanos % 1_000);
}

fn push_common(out: &mut String, ph: char, pid: usize, tid: usize, name: &str, cat: &str) {
    let _ = write!(out, r#"{{"ph":"{ph}","pid":{pid},"tid":{tid},"#);
    out.push_str("\"name\":");
    write_str(out, name);
    out.push_str(",\"cat\":");
    write_str(out, cat);
}

fn push_args(out: &mut String, args: &[(&'static str, u64)]) {
    if args.is_empty() {
        return;
    }
    out.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, k);
        let _ = write!(out, ":{v}");
    }
    out.push('}');
}

/// Renders collected trace data as a Chrome trace-event JSON document.
///
/// Layout: trace pid = node index + 1 (named by `process_name`
/// metadata), trace tid = process index + 1 (named by `thread_name`),
/// plus one `"(sched)"` lane per process holding its scheduler run
/// intervals and one `"(rpc k)"` lane per RPC the process had in flight —
/// sent or served — beyond what nests on its own lane. Spans become `"X"` (complete)
/// events, instants `"i"` events, and message send/delivery pairs
/// `"s"`/`"f"` flow events.
pub fn chrome_trace_json(data: &TraceData) -> String {
    let mut out = String::with_capacity(
        256 + 160 * (data.spans.len() + data.instants.len() + data.flows.len()),
    );
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
    };

    let node_pid = |node: usize| node + 1;
    let proc_pid = |pid: usize| {
        data.procs
            .get(pid)
            .map(|p| node_pid(p.node))
            .unwrap_or(usize::MAX)
    };

    let lanes = span_lanes(data);
    let mut rpc_lanes = vec![0; data.procs.len()];
    for (span, &lane) in data.spans.iter().zip(&lanes) {
        if let Some(most) = rpc_lanes.get_mut(span.pid) {
            *most = lane.saturating_sub(1).max(*most);
        }
    }

    for (idx, name) in data.nodes.iter().enumerate() {
        sep(&mut out);
        let _ = write!(
            out,
            r#"{{"ph":"M","pid":{},"name":"process_name","args":{{"name":"#,
            node_pid(idx)
        );
        write_str(&mut out, name);
        out.push_str("}}");
    }
    for (idx, meta) in data.procs.iter().enumerate() {
        let threads = [
            (0, meta.name.clone()),
            (1, format!("{} (sched)", meta.name)),
        ]
        .into_iter()
        .chain((1..=rpc_lanes[idx]).map(|k| (k + 1, format!("{} (rpc {k})", meta.name))));
        for (offset, name) in threads {
            sep(&mut out);
            let _ = write!(
                out,
                r#"{{"ph":"M","pid":{},"tid":{},"name":"thread_name","args":{{"name":"#,
                node_pid(meta.node),
                idx + 1 + offset * LANE
            );
            write_str(&mut out, &name);
            out.push_str("}}");
        }
    }

    for (span, &lane) in data.spans.iter().zip(&lanes) {
        sep(&mut out);
        let tid = span.pid + 1 + lane * LANE;
        push_common(&mut out, 'X', proc_pid(span.pid), tid, &span.name, span.cat);
        out.push_str(",\"ts\":");
        push_us(&mut out, span.start.as_nanos());
        out.push_str(",\"dur\":");
        push_us(&mut out, span.dur_nanos());
        push_args(&mut out, &span.args);
        out.push('}');
    }

    for inst in &data.instants {
        sep(&mut out);
        push_common(
            &mut out,
            'i',
            proc_pid(inst.pid),
            inst.pid + 1,
            &inst.name,
            inst.cat,
        );
        out.push_str(",\"s\":\"t\",\"ts\":");
        push_us(&mut out, inst.at.as_nanos());
        push_args(&mut out, &inst.args);
        out.push('}');
    }

    for flow in &data.flows {
        sep(&mut out);
        let (ph, owner) = if flow.send {
            ('s', flow.from)
        } else {
            ('f', flow.to)
        };
        push_common(&mut out, ph, proc_pid(owner), owner + 1, "msg", "msg");
        let _ = write!(out, r#","id":{}"#, flow.id);
        if !flow.send {
            out.push_str(r#","bp":"e""#);
        }
        out.push_str(",\"ts\":");
        push_us(&mut out, flow.at.as_nanos());
        if flow.send {
            push_args(&mut out, &[("bytes", flow.bytes as u64)]);
        }
        out.push('}');
    }

    out.push_str("\n]}\n");
    out
}

/// What [`validate_chrome_trace`] learned about a well-formed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Number of `"X"` (complete span) events.
    pub spans: usize,
    /// Number of flow (`"s"`/`"f"`) events.
    pub flows: usize,
    /// Trace pids that have `process_name` metadata.
    pub named_pids: BTreeSet<u64>,
    /// Counts of `"X"` events per span name.
    pub span_counts: BTreeMap<String, u64>,
}

/// Checks that `src` is a loadable Chrome trace: it parses as JSON, has a
/// `traceEvents` array, every `"X"` event carries numeric `ts`/`dur`,
/// spans on each (pid, tid) lane nest properly, and every pid referenced
/// by a span has `process_name` metadata.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_chrome_trace(src: &str) -> Result<ChromeSummary, String> {
    let doc = json::parse(src)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;

    let mut named_pids = BTreeSet::new();
    let mut span_pids = BTreeSet::new();
    let mut span_counts: BTreeMap<String, u64> = BTreeMap::new();
    // (pid, tid) -> [(start_ns, end_ns, name)]
    type Lane = Vec<(u64, u64, String)>;
    let mut lanes: BTreeMap<(u64, u64), Lane> = BTreeMap::new();
    let mut spans = 0usize;
    let mut flows = 0usize;

    for (i, ev) in events.iter().enumerate() {
        let num = |key| ev.num(key, format_args!("event {i}"));
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        match ph {
            "M" => {
                let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
                if name == "process_name" {
                    let pid = num("pid")? as u64;
                    named_pids.insert(pid);
                }
            }
            "X" => {
                spans += 1;
                let pid = num("pid")? as u64;
                let tid = num("tid")? as u64;
                let ts = num("ts")?;
                let dur = num("dur")?;
                if !(ts >= 0.0 && dur >= 0.0) {
                    return Err(format!("event {i}: negative ts/dur"));
                }
                let name = ev
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: span without name"))?;
                *span_counts.entry(name.to_string()).or_insert(0) += 1;
                span_pids.insert(pid);
                let start = (ts * 1_000.0).round() as u64;
                let end = start + (dur * 1_000.0).round() as u64;
                lanes
                    .entry((pid, tid))
                    .or_default()
                    .push((start, end, name.to_string()));
            }
            "s" | "f" => {
                flows += 1;
                num("ts")?;
                num("id")?;
            }
            "i" => {
                num("ts")?;
            }
            other => return Err(format!("event {i}: unknown ph \"{other}\"")),
        }
    }

    for pid in &span_pids {
        if !named_pids.contains(pid) {
            return Err(format!("pid {pid} has spans but no process_name metadata"));
        }
    }

    // Nesting check per lane: order by (start asc, end desc) so an outer
    // span precedes the spans it contains, then verify stack containment.
    for ((pid, tid), mut lane) in lanes {
        lane.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<(u64, u64)> = Vec::new();
        for (start, end, name) in &lane {
            while let Some(&(_, top_end)) = stack.last() {
                if top_end <= *start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(top_start, top_end)) = stack.last() {
                if *end > top_end {
                    return Err(format!(
                        "lane ({pid},{tid}): span \"{name}\" [{start},{end}] \
                         overlaps enclosing [{top_start},{top_end}] without nesting"
                    ));
                }
            }
            stack.push((*start, *end));
        }
    }

    Ok(ChromeSummary {
        events: events.len(),
        spans,
        flows,
        named_pids,
        span_counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::TraceCollector;
    use parsim::{SimConfig, SimDuration, Simulation};

    fn sample_trace() -> TraceData {
        let collector = TraceCollector::install();
        let mut sim = Simulation::new(SimConfig {
            tracer: Some(collector.as_tracer()),
            ..SimConfig::default()
        });
        let node_a = sim.add_node("alpha");
        let node_b = sim.add_node("beta");
        let worker = sim.spawn(node_b, "worker", |ctx| {
            let (from, n) = ctx.recv_as::<u32>();
            let t0 = ctx.now();
            ctx.delay(SimDuration::from_millis(5));
            ctx.trace_span("tool", "tool.work", t0, &[("n", u64::from(n))]);
            ctx.send(from, n);
        });
        sim.block_on(node_a, "main", move |ctx| {
            let t0 = ctx.now();
            ctx.send(worker, 7u32);
            let _ = ctx.recv_as::<u32>();
            ctx.trace_span("tool", "tool.round", t0, &[]);
            ctx.trace_instant("tool", "done", &[("ok", 1)]);
        });
        collector.snapshot()
    }

    #[test]
    fn export_validates_and_reflects_the_run() {
        let data = sample_trace();
        let json = chrome_trace_json(&data);
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.spans, data.spans.len());
        assert_eq!(summary.flows, data.flows.len());
        assert_eq!(summary.span_counts.get("tool.work"), Some(&1));
        assert_eq!(summary.span_counts.get("tool.round"), Some(&1));
        // Both nodes referenced and named.
        assert!(summary.named_pids.contains(&1));
        assert!(summary.named_pids.contains(&2));
    }

    /// A pipelined caller: two RPC spans of one process overlap without
    /// nesting ([0, 10] and [5, 15] ms) inside a third span enclosing
    /// both. The export puts the second on an `(rpc 1)` lane and
    /// validates; the spans keep their times.
    #[test]
    fn overlapping_client_spans_of_one_process_export_and_validate() {
        let collector = TraceCollector::install();
        let mut sim = Simulation::new(SimConfig {
            tracer: Some(collector.as_tracer()),
            ..SimConfig::default()
        });
        let node = sim.add_node("alpha");
        sim.block_on(node, "caller", |ctx| {
            let t0 = ctx.now();
            ctx.delay(SimDuration::from_millis(5));
            let t1 = ctx.now();
            ctx.delay(SimDuration::from_millis(5));
            ctx.trace_span("client", "client.first", t0, &[]);
            ctx.delay(SimDuration::from_millis(5));
            ctx.trace_span("client", "client.second", t1, &[]);
            ctx.trace_span("tool", "tool.round", t0, &[]);
        });
        let data = collector.snapshot();
        let json = chrome_trace_json(&data);
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.spans, data.spans.len());
        assert!(json.contains(r#""name":"caller (rpc 1)""#), "{json}");
        assert!(!json.contains("(rpc 2)"), "one extra lane is enough");
        let second =
            r#""tid":200001,"name":"client.second","cat":"client","ts":5000.000,"dur":10000.000"#;
        assert!(json.contains(second), "{json}");
    }

    /// A commit group on a server: two members' `bridge` spans overlap
    /// without nesting ([0, 10] and [2, 15] ms), with an LFS call of the
    /// group inside both. The second member takes an `(rpc 1)` lane, the
    /// call nests on the first's, and the export validates.
    #[test]
    fn overlapping_bridge_spans_of_one_process_export_and_validate() {
        let collector = TraceCollector::install();
        let mut sim = Simulation::new(SimConfig {
            tracer: Some(collector.as_tracer()),
            ..SimConfig::default()
        });
        let node = sim.add_node("alpha");
        sim.block_on(node, "server", |ctx| {
            let t0 = ctx.now();
            ctx.delay(SimDuration::from_millis(2));
            let t1 = ctx.now();
            ctx.delay(SimDuration::from_millis(1));
            let call = ctx.now();
            ctx.delay(SimDuration::from_millis(5));
            ctx.trace_span("client", "client.lfs.read", call, &[]);
            ctx.delay(SimDuration::from_millis(2));
            ctx.trace_span("bridge", "bridge.rand_read", t0, &[]);
            ctx.delay(SimDuration::from_millis(5));
            ctx.trace_span("bridge", "bridge.seq_write", t1, &[]);
        });
        let data = collector.snapshot();
        let json = chrome_trace_json(&data);
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.spans, data.spans.len());
        assert!(json.contains(r#""name":"server (rpc 1)""#), "{json}");
        assert!(!json.contains("(rpc 2)"), "one extra lane is enough");
        let second = r#""tid":200001,"name":"bridge.seq_write""#;
        assert!(json.contains(second), "{json}");
        let call = r#""tid":1,"name":"client.lfs.read""#;
        assert!(json.contains(call), "{json}");
    }

    /// An LFS that takes a request while it serves two others: the
    /// request's queue wait opens inside the first service ([0, 10] ms)
    /// and lasts through the second ([10, 14] ms) to its own. The wait
    /// takes an `(rpc 1)` lane, the services stay on the process's own,
    /// and the export validates.
    #[test]
    fn a_queue_wait_straddling_two_services_exports_and_validates() {
        let collector = TraceCollector::install();
        let mut sim = Simulation::new(SimConfig {
            tracer: Some(collector.as_tracer()),
            ..SimConfig::default()
        });
        let node = sim.add_node("alpha");
        sim.block_on(node, "lfs", |ctx| {
            let first = ctx.now();
            ctx.delay(SimDuration::from_millis(4));
            let arrived = ctx.now();
            ctx.delay(SimDuration::from_millis(6));
            ctx.trace_span("lfs", "lfs.write", first, &[]);
            let second = ctx.now();
            ctx.delay(SimDuration::from_millis(4));
            ctx.trace_span("lfs", "lfs.decide", second, &[]);
            ctx.trace_span("lfs", "lfs.queue_wait", arrived, &[]);
            let own = ctx.now();
            ctx.delay(SimDuration::from_millis(3));
            ctx.trace_span("lfs", "lfs.read", own, &[]);
        });
        let data = collector.snapshot();
        let json = chrome_trace_json(&data);
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.spans, data.spans.len());
        let wait = r#""tid":200001,"name":"lfs.queue_wait""#;
        assert!(json.contains(wait), "{json}");
        let service = r#""tid":1,"name":"lfs.decide""#;
        assert!(json.contains(service), "{json}");
    }

    #[test]
    fn validator_rejects_overlapping_spans_on_one_lane() {
        let bad = r#"{"traceEvents":[
            {"ph":"M","pid":1,"name":"process_name","args":{"name":"n"}},
            {"ph":"X","pid":1,"tid":1,"name":"a","cat":"t","ts":0,"dur":10},
            {"ph":"X","pid":1,"tid":1,"name":"b","cat":"t","ts":5,"dur":10}
        ]}"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("without nesting"), "{err}");
    }

    #[test]
    fn validator_rejects_spans_without_process_metadata() {
        let bad = r#"{"traceEvents":[
            {"ph":"X","pid":9,"tid":1,"name":"a","cat":"t","ts":0,"dur":1}
        ]}"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("process_name"), "{err}");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
    }
}
