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
//!
//! Then the coordinator under load: 1, 2, 4 and 8 closed-loop clients run
//! the churn mix (`bridgebench`'s `churn_p8`: small creates, deletes,
//! appends, overwrites and reads) on the 2PC + parity machine at p = 8.
//! Requests that queue while the server is busy are served as a commit
//! group — their reads in one round, their transactions under one BEGIN
//! and one COMMIT force. Reported per row: calls per virtual second, the
//! transactions each COMMIT force named, the LFS disks' utilization, and
//! the busiest disk's busy time over the mean's. Gated: the 1-client row
//! is pinned to the nanosecond — no longer the serial server's, since a
//! transaction is answered at its COMMIT and the lone client's next
//! request takes its DECIDE acks — 4 clients reach ≥ 1.25x its rate —
//! where the serial server gave them 0.83x — and no disk runs more than
//! 1.3x the mean: each parity file's layout turns with its round-robin
//! start, so the small files' first stripes spread their parity over the
//! disks.

use bridge_bench::report::{secs, Table};
use bridge_bench::results::{emit, Metric};
use bridge_bench::workload::{churn_block, churn_script, ChurnOp};
use bridge_bench::{file_blocks, records_per_second};
use bridge_core::{
    BridgeClient, BridgeConfig, BridgeFileId, BridgeMachine, CreateSpec, Redundancy,
};
use bridge_efs::{LfsClient, LfsFileId, LfsOp};
use bridge_tools::{run_workers, ToolOptions, WorkerSpec};
use bridge_trace::TraceCollector;
use bytes::Bytes;
use parsim::{Ctx, ProcId, SimDuration};
use std::collections::{HashMap, VecDeque};

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

/// Closed-loop clients per row of the clients sweep.
const CLIENTS: [usize; 4] = [1, 2, 4, 8];
/// Churn steps each client's script draws, at every scale.
const CLIENT_OPS: u64 = 480;

/// The 1-client row's virtual run time, pinned.
const ONE_CLIENT_NANOS: u64 = 31_785_394_500;

/// One clients-sweep row.
struct ClientsRow {
    clients: usize,
    calls: u64,
    elapsed: SimDuration,
    /// Transactions the COMMIT forces named, and the forces.
    committed: u64,
    commits: u64,
    /// LFS disk busy time over the run, per disk.
    utilization: f64,
    /// The busiest LFS disk's busy time over the mean disk's.
    busiest_over_mean: f64,
}

impl ClientsRow {
    fn ops_per_s(&self) -> f64 {
        records_per_second(self.calls, self.elapsed)
    }

    fn txns_per_commit(&self) -> f64 {
        self.committed as f64 / self.commits.max(1) as f64
    }
}

/// One churn client: its script against its own files, every read checked
/// against what it wrote. Returns the calls made.
fn churn_client(ctx: &mut Ctx, server: ProcId, script: &[ChurnOp]) -> u64 {
    let mut bridge = BridgeClient::new(server);
    let mut files: HashMap<u32, (BridgeFileId, Vec<(u64, usize)>)> = HashMap::new();
    for op in script {
        match *op {
            ChurnOp::Create { slot } => {
                let file = bridge.create(ctx, CreateSpec::default()).expect("create");
                files.insert(slot, (file, Vec::new()));
            }
            ChurnOp::Delete { slot } => {
                let (file, _) = files.remove(&slot).expect("live");
                bridge.delete(ctx, file).expect("delete");
            }
            ChurnOp::Append { slot, fill, len } => {
                let (file, blocks) = files.get_mut(&slot).expect("live");
                bridge
                    .seq_write(ctx, *file, churn_block(fill, len))
                    .expect("append");
                blocks.push((fill, len));
            }
            ChurnOp::Write {
                slot,
                block,
                fill,
                len,
            } => {
                let (file, blocks) = files.get_mut(&slot).expect("live");
                bridge
                    .rand_write(ctx, *file, block, churn_block(fill, len))
                    .expect("overwrite");
                blocks[block as usize] = (fill, len);
            }
            ChurnOp::Read { slot, block } => {
                let (file, blocks) = &files[&slot];
                let data = bridge.rand_read(ctx, *file, block).expect("read");
                let (fill, len) = blocks[block as usize];
                assert_eq!(data[..len], churn_block(fill, len)[..], "read back");
            }
        }
    }
    script.len() as u64
}

/// `clients` closed-loop churn clients on the 2PC + parity machine at
/// p = 8, each on a script of its own, under a trace collector (which
/// moves no virtual nanosecond) for the COMMIT forces.
fn measure_clients(clients: usize) -> ClientsRow {
    let collector = TraceCollector::install();
    let mut config = BridgeConfig::paper(8)
        .with_2pc()
        .with_redundancy(Redundancy::parity());
    // 256 tracks a disk, as `churn_p8` builds it: room for the churn's
    // files beside 130 blocks of metadata.
    config.disk_geometry.tracks = 256;
    config.tracer = Some(collector.as_tracer());
    let (mut sim, machine) = BridgeMachine::build(&config);
    let (server, frontend) = (machine.server, machine.frontend);
    let ops = CLIENT_OPS;
    let (calls, elapsed) = sim.block_on(frontend, "sweep", move |ctx| {
        let me = ctx.me();
        let t0 = ctx.now();
        for c in 0..clients {
            let script = churn_script(ops, 0xC4_0000 + c as u64);
            ctx.spawn(frontend, format!("client{c}"), move |ctx| {
                let calls = churn_client(ctx, server, &script);
                ctx.send(me, calls);
            });
        }
        let calls: u64 = (0..clients).map(|_| ctx.recv_as::<u64>().1).sum();
        (calls, ctx.now() - t0)
    });
    let registry = machine.telemetry.expect("telemetry armed");
    let per_disk: Vec<u64> = (0..8).map(|i| registry.lfs(i).disk.busy_nanos).collect();
    let busy: u64 = per_disk.iter().sum();
    let busiest = per_disk.iter().copied().max().unwrap_or(0);
    let data = collector.take();
    let commits: Vec<u64> = data
        .instants
        .iter()
        .filter(|i| i.name == "2pc.commit")
        .map(|i| i.arg("txns").unwrap_or(1))
        .collect();
    ClientsRow {
        clients,
        calls,
        elapsed,
        committed: commits.iter().sum(),
        commits: commits.len() as u64,
        utilization: busy as f64 / (8.0 * elapsed.as_nanos() as f64),
        busiest_over_mean: busiest as f64 * 8.0 / busy.max(1) as f64,
    }
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

    println!(
        "\n## The coordinator under load — the churn mix at p = 8 (2PC + parity), \
         {CLIENT_OPS} steps a client\n"
    );
    let rows: Vec<ClientsRow> = CLIENTS.iter().map(|&c| measure_clients(c)).collect();
    let one = rows[0].ops_per_s();
    let mut t = Table::new([
        "clients",
        "calls/s",
        "× 1 client",
        "txns per COMMIT force",
        "simdisk.utilization",
        "busiest disk / mean",
    ]);
    for row in &rows {
        t.row([
            row.clients.to_string(),
            format!("{:.2}", row.ops_per_s()),
            format!("{:.2}x", row.ops_per_s() / one),
            format!("{:.2}", row.txns_per_commit()),
            format!("{:.3}", row.utilization),
            format!("{:.2}", row.busiest_over_mean),
        ]);
    }
    t.print();
    assert_eq!(
        rows[0].elapsed.as_nanos(),
        ONE_CLIENT_NANOS,
        "a lone client's run moved"
    );
    let four = rows[2].ops_per_s() / one;
    assert!(
        four >= 1.25,
        "4 clients reached only {four:.2}x one client (floor 1.25x)"
    );
    let imbalance = rows[2].busiest_over_mean;
    assert!(
        imbalance <= 1.3,
        "with 4 clients the busiest disk ran {imbalance:.2}x the mean (ceiling 1.3x)"
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
            Metric::higher("clients1.ops_per_s", one),
            Metric::higher("clients4.ops_per_s", rows[2].ops_per_s()),
            Metric::higher("clients8.ops_per_s", rows[3].ops_per_s()),
            Metric::higher("clients4.speedup", four),
            Metric::higher("clients4.txns_per_commit", rows[2].txns_per_commit()),
            Metric::lower("clients4.busiest_over_mean", imbalance),
        ],
    );
}
