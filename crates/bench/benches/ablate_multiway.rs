//! Ablation A2 — local merge arity (paper §5.2).
//!
//! "In our implementation the constant for a local merge is higher than
//! the constant for a global merge, with the net result that the sort tool
//! as a whole displays super-linear speedup. With a faster (e.g.
//! multi-way) local merge, this anomaly should disappear." This bench
//! measures exactly that: the sort's phases and its p = 2 → 32 speedup
//! with the local merge at `SortOptions::local_merge_arity` 2 (the
//! prototype), 4, 8 and all runs in one pass.

use bridge_bench::profile::Profiler;
use bridge_bench::report::{mins, Table};
use bridge_bench::{file_blocks, speedup, write_workload};
use bridge_core::{BridgeClient, BridgeConfig, BridgeMachine};
use bridge_tools::{sort, SortOptions, SortStats};
use parsim::TracerHandle;

/// The local merge arities swept; the last merges every run in one pass.
const ARITIES: [u32; 4] = [2, 4, 8, u32::MAX];
const PS: [u32; 3] = [2, 8, 32];

fn run(p: u32, blocks: u64, arity: u32, tracer: Option<TracerHandle>) -> SortStats {
    let mut config = BridgeConfig::paper(p);
    config.tracer = tracer;
    let (mut sim, machine) = BridgeMachine::build(&config);
    let server = machine.server;
    sim.block_on(machine.frontend, "bench", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let src = write_workload(ctx, &mut bridge, blocks, 13);
        let (_, stats) = sort(
            ctx,
            &mut bridge,
            src,
            &SortOptions {
                local_merge_arity: arity,
                ..SortOptions::default()
            },
        )
        .expect("sort");
        stats
    })
}

fn main() {
    let blocks = file_blocks();
    println!("## Ablation A2 — local merge arity, 2-way to all-at-once ({blocks} records)\n");

    let name = |arity: u32| match arity {
        u32::MAX => "all".to_string(),
        arity => format!("{arity}-way"),
    };
    let mut profiler = Profiler::new("ablate_multiway");
    // stats[i][j]: breadth PS[i] at arity ARITIES[j]. Under --profile,
    // the widest sort of each arity is attributed.
    let stats = PS.map(|p| {
        ARITIES.map(|arity| {
            let label = format!("sort_p32_{}", name(arity));
            let tracer = (p == 32).then(|| profiler.arm(&label)).flatten();
            let stats = run(p, blocks, arity, tracer);
            profiler.capture();
            stats
        })
    });

    let mut t = Table::new(["p", "arity", "local passes", "local sort", "merge", "total"]);
    for (p, row) in PS.iter().zip(&stats) {
        for (arity, s) in ARITIES.iter().zip(row) {
            t.row([
                p.to_string(),
                name(*arity),
                s.local_merge_passes.to_string(),
                mins(s.local_sort),
                mins(s.merge),
                mins(s.total),
            ]);
        }
    }
    t.print();

    println!("\n### Speedup in total time (ideal 4x per step, 16x overall)");
    let mut t = Table::new(["arity", "2 → 8", "8 → 32", "2 → 32"]);
    for (j, arity) in ARITIES.iter().enumerate() {
        let total = |i: usize| stats[i][j].total;
        t.row([
            name(*arity),
            format!("{:.2}x", speedup(total(0), total(1))),
            format!("{:.2}x", speedup(total(1), total(2))),
            format!("{:.2}x", speedup(total(0), total(2))),
        ]);
    }
    t.print();
    println!(
        "\nThe 2-way curve exceeds linear (merge passes fall out of the local phase as p\n\
         grows); with every run merged in one pass it should sit near linear — the\n\
         paper's prediction."
    );
}
