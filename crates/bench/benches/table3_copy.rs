//! Table 3 reproduction: copy tool performance on the paper's 10 MB file
//! for p ∈ {2, 4, 8, 16, 32}, plus the records-per-second series plotted
//! beside the table (475 records/s at p = 32 in the paper).

use bridge_bench::profile::Profiler;
use bridge_bench::report::{ascii_series, kernel_stats, secs, Table};
use bridge_bench::{
    file_blocks, paper_machine, paper_machine_traced, records_per_second, speedup, write_workload,
    PAPER_PROCESSORS,
};
use bridge_core::BridgeClient;
use bridge_tools::{copy, ToolOptions};
use bridge_trace::TraceCollector;
use parsim::SimDuration;

const PAPER_SECONDS: [f64; 5] = [311.6, 156.0, 79.3, 41.0, 21.6];

fn main() {
    let blocks = file_blocks();
    println!(
        "## Table 3 reproduction — copy tool ({} blocks ≈ {:.0} MB file)\n",
        blocks,
        blocks as f64 * 1024.0 / (1024.0 * 1024.0)
    );

    let mut elapsed: Vec<SimDuration> = Vec::new();
    for &p in &PAPER_PROCESSORS {
        let (mut sim, machine) = paper_machine(p);
        let server = machine.server;
        let t = sim.block_on(machine.frontend, "bench", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let src = write_workload(ctx, &mut bridge, blocks, 42);
            let (_, stats) = copy(ctx, &mut bridge, src, &ToolOptions::default()).expect("copy");
            assert_eq!(stats.blocks, blocks);
            stats.elapsed
        });
        elapsed.push(t);
    }

    let mut table = Table::new([
        "Processors",
        "Copy Time",
        "Records/s",
        "Speedup vs p=2",
        "Paper Time",
        "Paper Speedup",
    ]);
    for (i, (&p, &t)) in PAPER_PROCESSORS.iter().zip(&elapsed).enumerate() {
        table.row([
            p.to_string(),
            secs(t),
            format!("{:.0}", records_per_second(blocks, t)),
            format!("{:.2}x", speedup(elapsed[0], t)),
            format!("{:.1} s", PAPER_SECONDS[i]),
            format!("{:.2}x", PAPER_SECONDS[0] / PAPER_SECONDS[i]),
        ]);
    }
    table.print();

    println!("\n### Figure beside Table 3 — records per second vs processors");
    let series: Vec<(f64, f64)> = PAPER_PROCESSORS
        .iter()
        .zip(&elapsed)
        .map(|(&p, &t)| (f64::from(p), records_per_second(blocks, t)))
        .collect();
    print!("{}", ascii_series("records/second", &series, 40));

    // The headline claim: near-linear speedup.
    let s = speedup(elapsed[0], elapsed[4]);
    println!(
        "\nSpeedup p=2 → p=32: {s:.1}x measured (ideal 16.0x; paper {:.1}x)",
        PAPER_SECONDS[0] / PAPER_SECONDS[4]
    );

    // --profile: re-run the p=4 row with the trace collector installed and
    // print its causal profile next to the kernel counters. Tracing is
    // observation-only, so the traced run must land on exactly the table's
    // p=4 virtual time.
    let profiler = Profiler::new("table3_copy");
    if profiler.enabled() {
        let collector = TraceCollector::install();
        let (mut sim, machine) = paper_machine_traced(4, collector.as_tracer());
        let server = machine.server;
        let t = sim.block_on(machine.frontend, "bench", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let src = write_workload(ctx, &mut bridge, blocks, 42);
            let (_, stats) = copy(ctx, &mut bridge, src, &ToolOptions::default()).expect("copy");
            stats.elapsed
        });
        assert_eq!(t, elapsed[1], "tracing changed the p=4 copy time");
        println!("\n### Kernel counters — p = 4 copy");
        println!("{}", kernel_stats(&sim.stats()));
        profiler.report("copy_p4", &collector.snapshot());
    }
}
