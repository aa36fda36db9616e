//! Trace audit of a p = 4 copy: run the Table-3 copy workload with the
//! trace collector installed, print its causal profile, export a Chrome
//! trace (load it at <https://ui.perfetto.dev>), validate both, and
//! reconcile the trace's disk spans against each disk's own `DiskStats`
//! counters — the trace is only trustworthy if the two bookkeeping paths
//! agree exactly.
//!
//! Run with: `cargo run --release --example trace_copy [out.json]`
//! (default output `target/trace_copy.json`). Exits nonzero if the trace
//! or the profile fails validation, or the trace disagrees with the disk
//! counters.

use bridge_bench::profile::PROFILE_BINS;
use bridge_core::{BridgeClient, BridgeConfig, BridgeMachine, CreateSpec};
use bridge_efs::{LfsClient, LfsData, LfsOp};
use bridge_tools::{copy, ToolOptions};
use bridge_trace::{
    chrome_trace_json, validate_chrome_trace, validate_profile_json, ProfileReport, TraceCollector,
};
use simdisk::DiskStats;
use std::process::ExitCode;

const P: u32 = 4;
const BLOCKS: u64 = 512;

fn main() -> ExitCode {
    let collector = TraceCollector::install();
    let mut config = BridgeConfig::paper(P);
    config.tracer = Some(collector.as_tracer());
    let (mut sim, machine) = BridgeMachine::build(&config);
    let server = machine.server;
    let lfs = machine.lfs.clone();

    let (elapsed, disks) = sim.block_on(machine.frontend, "trace-copy", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let src = bridge.create(ctx, CreateSpec::default()).expect("create");
        for i in 0..BLOCKS {
            let record = format!("record {i:06}").into_bytes();
            bridge.seq_write(ctx, src, record).expect("write");
        }
        let (_, stats) = copy(ctx, &mut bridge, src, &ToolOptions::default()).expect("copy");
        assert_eq!(stats.blocks, BLOCKS);
        // Pull each disk's own counters through the control op, so the
        // reconciliation below compares two independent bookkeeping paths.
        let mut client = LfsClient::new();
        let disks: Vec<DiskStats> = lfs
            .iter()
            .map(
                |&proc| match client.call(ctx, proc, LfsOp::DiskStats).expect("stats") {
                    LfsData::DiskCounters(s) => s,
                    other => panic!("unexpected DiskStats reply {other:?}"),
                },
            )
            .collect();
        (stats.elapsed, disks)
    });

    let data = collector.take();
    println!(
        "p={P} copy of {BLOCKS} blocks: {elapsed} virtual, {} spans, {} flows",
        data.spans.len(),
        data.flows.len()
    );
    // The causal profile, binned as the benches' profiles are; its JSON
    // must pass the same arithmetic audit.
    let report = ProfileReport::from_trace(&data, PROFILE_BINS);
    print!("{}", report.render());
    if let Err(e) = validate_profile_json(&report.to_json()) {
        eprintln!("FAIL: the profile is invalid: {e}");
        return ExitCode::FAILURE;
    }

    // Export + validate the Chrome trace.
    let json = chrome_trace_json(&data);
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/trace_copy.json".to_string());
    if let Some(parent) = std::path::Path::new(&out).parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("FAIL: cannot create {}: {e}", parent.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("FAIL: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    let summary = match validate_chrome_trace(&json) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("FAIL: exported trace is invalid: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "wrote {out}: {} events ({} spans, {} flows), {} named processes",
        summary.events,
        summary.spans,
        summary.flows,
        summary.named_pids.len()
    );

    // Reconciliation: the disks' track-load counters must equal the loads
    // visible in the trace — every single-block read miss is one
    // "disk.read.load" span, and each batched read reports its misses in
    // the "track_loads" arg of its "disk.read_run" span.
    let counter_loads: u64 = disks.iter().map(|s| s.track_loads).sum();
    let span_loads: u64 = data
        .spans_in("disk")
        .map(|s| match s.name.as_str() {
            "disk.read.load" => 1,
            "disk.read_run" => s.arg("track_loads").unwrap_or(0),
            _ => 0,
        })
        .sum();
    let counter_busy: u64 = disks.iter().map(|s| s.busy.as_nanos()).sum();
    let span_busy: u64 = data
        .spans_in("disk")
        .map(|s| s.arg("busy").unwrap_or(0))
        .sum();
    println!(
        "reconcile: track_loads counters={counter_loads} trace={span_loads}; \
         busy counters={counter_busy}ns trace={span_busy}ns"
    );
    if counter_loads != span_loads {
        eprintln!("FAIL: trace track loads disagree with DiskStats");
        return ExitCode::FAILURE;
    }
    if counter_busy != span_busy {
        eprintln!("FAIL: trace disk busy time disagrees with DiskStats");
        return ExitCode::FAILURE;
    }
    println!("OK: trace reconciles with disk counters");
    ExitCode::SUCCESS
}
