//! Ablation A14 — what machine-wide atomicity costs: the 2PC
//! coordinator on top of the per-LFS WAL, against the WAL-only machine
//! it extends (p = 4, Wren disks).
//!
//! Two regimes of the same machine:
//!
//! 1. **wal** — `BridgeConfig::with_wal()`: per-instance crash
//!    consistency (the A13a baseline), Create/Delete fan out directly.
//! 2. **2pc** — `BridgeConfig::with_2pc()`: every multi-instance
//!    mutation runs presumed-abort two-phase commit — a prepare round
//!    into the participants' WAL rings, then BEGIN and COMMIT records
//!    on the coordinator's decision log, then the decide round.
//!
//! Measured twice:
//!
//! * **create/delete churn** — a single client creating and deleting
//!   files as fast as the server answers. The worst case: the
//!   op *is* the commit, so the prepare round and both decision-log
//!   writes land on the latency path of every request. Recorded, not
//!   gated — this prices the protocol itself.
//! * **concurrent** — six writers pipelining appends straight at the
//!   instances while a churn client creates and deletes through the
//!   server. The realistic mix: appends never touch the coordinator,
//!   and the participants' prepare records ride the same group commits
//!   as the append intents. Gated at ≤ 1.15x over the WAL machine. The
//!   churn client's share shrinks with `BRIDGE_SCALE` like the writers'
//!   does, so the quick run gates the same mix the full run reports.

use bridge_bench::report::{secs, Table};
use bridge_bench::results::{emit, Metric};
use bridge_bench::{file_blocks, records_per_second};
use bridge_core::{BridgeClient, BridgeConfig, BridgeMachine, CreateSpec};
use bridge_efs::{LfsClient, LfsFileId, LfsOp};
use bridge_tools::{run_workers, ToolOptions, WorkerSpec};
use bytes::Bytes;
use parsim::SimDuration;
use std::collections::VecDeque;

const BREADTH: u32 = 4;
const WRITERS: usize = 6;
/// In-flight ops each writer keeps pipelined at its instance.
const WINDOW: usize = 8;
/// Create+delete cycles in the churn phases.
const CHURN_OPS: u64 = 24;

fn stream_blocks() -> u64 {
    file_blocks() / 32
}

/// Create+delete cycles the churn client runs beside the writers: one
/// per 13 blocks a writer streams, at every scale (24 at full scale).
fn mix_churn_ops() -> u64 {
    (CHURN_OPS / bridge_bench::scale()).max(1)
}

/// One create/delete cycle: a file interleaved over every instance (so
/// Create and Delete are machine-wide mutations) with one appended block
/// per instance (so the delete frees something on every node). The file
/// is unprotected on purpose: a mirrored or parity file's *appends* are
/// 2PC transactions of their own on the 2PC machine (A15 prices those),
/// and this bench prices Create and Delete.
fn churn_cycle(ctx: &mut parsim::Ctx, bridge: &mut BridgeClient) {
    let file = bridge.create(ctx, CreateSpec::default()).expect("create");
    for b in 0..u64::from(BREADTH) {
        bridge
            .seq_write(ctx, file, vec![0x2C; 256])
            .map(|n| assert_eq!(n, b))
            .expect("append");
    }
    bridge.delete(ctx, file).expect("delete");
}

struct Run {
    /// One client, `CHURN_OPS` create/delete cycles, nothing else.
    churn: SimDuration,
    /// Six pipelined writers + the churn client: total wall time until
    /// every worker finishes.
    concurrent: SimDuration,
}

fn measure(two_pc: bool) -> Run {
    let base = BridgeConfig::paper(BREADTH);
    let config = if two_pc {
        base.with_2pc()
    } else {
        base.with_wal()
    };
    let (mut sim, machine) = BridgeMachine::build(&config);
    let server = machine.server;
    let frontend = machine.frontend;
    let lfs: Vec<(parsim::ProcId, parsim::NodeId)> = machine
        .lfs
        .iter()
        .copied()
        .zip(machine.lfs_nodes.iter().copied())
        .collect();
    sim.block_on(machine.frontend, "bench", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let t0 = ctx.now();
        for _ in 0..CHURN_OPS {
            churn_cycle(ctx, &mut bridge);
        }
        let churn = ctx.now() - t0;

        // The concurrent phase: the append traffic from ablate_wal's
        // six writers, plus a seventh worker churning create/delete
        // through the server. Group commit folds the 2PC prepare
        // records into the same commit batches as the append intents.
        let mut specs: Vec<WorkerSpec<u64>> = (0..WRITERS)
            .map(|w| {
                let (proc, node) = lfs[w % lfs.len()];
                WorkerSpec {
                    node,
                    name: format!("writer{w}"),
                    run: Box::new(move |c| {
                        let mut client = LfsClient::new();
                        let file = LfsFileId(0xA140 + w as u32);
                        client
                            .call(c, proc, LfsOp::Create { file })
                            .expect("create");
                        let mut inflight = VecDeque::new();
                        for i in 0..stream_blocks() {
                            let data = Bytes::from(vec![(w as u8) << 4 | (i as u8 & 0xf); 1000]);
                            let op = LfsOp::Write {
                                file,
                                block: i as u32,
                                data,
                                hint: None,
                            };
                            inflight.push_back(client.send(c, proc, op));
                            if inflight.len() >= WINDOW {
                                let id = inflight.pop_front().expect("nonempty");
                                client.wait(c, proc, id).expect("write");
                            }
                        }
                        while let Some(id) = inflight.pop_front() {
                            client.wait(c, proc, id).expect("write");
                        }
                        Ok(stream_blocks())
                    }),
                }
            })
            .collect();
        specs.push(WorkerSpec {
            node: frontend,
            name: "churn".into(),
            run: Box::new(move |c| {
                let mut bridge = BridgeClient::new(server);
                for _ in 0..mix_churn_ops() {
                    churn_cycle(c, &mut bridge);
                }
                Ok(mix_churn_ops())
            }),
        });
        let t0 = ctx.now();
        let done = run_workers(ctx, &ToolOptions::default(), specs).expect("workers");
        let concurrent = ctx.now() - t0;
        assert_eq!(
            done.iter().sum::<u64>(),
            WRITERS as u64 * stream_blocks() + mix_churn_ops()
        );

        Run { churn, concurrent }
    })
}

fn main() {
    println!(
        "## Ablation A14 — 2PC commit overhead (p = {BREADTH}, {CHURN_OPS} cycles \
         + {WRITERS}x{} blocks)\n",
        stream_blocks()
    );

    let wal = measure(false);
    let two_pc = measure(true);

    let mut t = Table::new(["workload", "wal only", "2pc"]);
    for (name, pick) in [
        (
            "create/delete churn",
            &(|r: &Run| r.churn) as &dyn Fn(&Run) -> SimDuration,
        ),
        ("concurrent mix", &|r: &Run| r.concurrent),
    ] {
        t.row([name.to_string(), secs(pick(&wal)), secs(pick(&two_pc))]);
    }
    t.print();

    let churn_overhead = two_pc.churn.as_secs_f64() / wal.churn.as_secs_f64();
    let concurrent_overhead = two_pc.concurrent.as_secs_f64() / wal.concurrent.as_secs_f64();

    // The acceptance gate: under group commit, machine-wide atomicity
    // must cost the realistic mix no more than 15%.
    assert!(
        concurrent_overhead <= 1.15,
        "2PC concurrent overhead {concurrent_overhead:.3}x exceeds the 1.15x budget"
    );

    println!(
        "\nchurn overhead: {churn_overhead:.2}x; concurrent overhead: \
         {concurrent_overhead:.2}x (budget 1.15x)"
    );

    emit(
        "ablate_2pc",
        &[
            Metric::higher(
                "wal.churn_ops_per_s",
                records_per_second(CHURN_OPS, wal.churn),
            ),
            Metric::higher(
                "two_pc.churn_ops_per_s",
                records_per_second(CHURN_OPS, two_pc.churn),
            ),
            Metric::lower("two_pc.churn_overhead", churn_overhead),
            Metric::lower("two_pc.concurrent_overhead", concurrent_overhead),
        ],
    );
}
