//! Ablation A6/A15 — the cost of fault tolerance (paper §6).
//!
//! "Interleaved files … are inherently intolerant of faults. A failure
//! anywhere in the system is fatal; it ruins every file. Replication
//! helps, but only at very high cost. Storage capacity must be doubled …
//! One might hope to reduce the amount of space required by using an
//! error-correcting scheme … but we see no obvious way to do so in a MIMD
//! environment with block-level interleaving."
//!
//! We measure what the authors weighed: write/read throughput and storage
//! overhead for no redundancy, mirroring (2×), and rotating block parity
//! (p/(p−1) — the scheme they thought obstructed), plus what the
//! redundancy layer costs when it matters:
//!
//! * **single stream** — one client appending through the server. The
//!   worst case: the parity read-modify-write sits on the latency path
//!   of every append. Recorded, not gated — this prices the scheme.
//! * **concurrent mix** — six writers pipelining straight at the
//!   instances while a client appends a parity-protected file through
//!   the server. The realistic regime: the parity updates compete for
//!   the same disks as everyone else. Gated at ≤ 1.25x over the
//!   unprotected mix.
//! * **degraded reads** — every block re-read (and verified) with a node
//!   down, reconstructed from the survivors on the fly.
//! * **rebuild pacing** — a spare racks into a populated machine and an
//!   online rebuild repopulates it at three paces, while a reader keeps
//!   reading; rebuild completion time trades against the reader's p99.

use bridge_bench::profile::Profiler;
use bridge_bench::report::{secs, Table};
use bridge_bench::results::{emit, Metric};
use bridge_bench::{file_blocks, scale};
use bridge_core::{
    BridgeClient, BridgeConfig, BridgeFileId, BridgeMachine, CreateSpec, Redundancy,
};
use bridge_efs::{LfsClient, LfsFileId, LfsOp};
use bridge_tools::{run_workers, ToolOptions, WorkerSpec};
use bytes::Bytes;
use parsim::{Ctx, SimDuration, TracerHandle};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const BREADTH: u32 = 4;
const WRITERS: usize = 6;
/// In-flight ops each direct writer keeps pipelined at its instance.
const WINDOW: usize = 8;

fn stream_blocks() -> u64 {
    (file_blocks() / 32).max(16)
}

fn rebuild_blocks() -> u64 {
    (file_blocks() / 16).max(48)
}

struct Run {
    write: SimDuration,
    read: SimDuration,
    degraded_read: Option<SimDuration>,
    blocks_stored: f64, // physical blocks per logical block
}

fn measure(p: u32, blocks: u64, redundancy: Redundancy, tracer: Option<TracerHandle>) -> Run {
    let mut config = BridgeConfig::paper(p);
    config.tracer = tracer;
    let (mut sim, machine) = BridgeMachine::build(&config);
    let server = machine.server;
    let victim = machine.lfs[1];
    sim.block_on(machine.frontend, "bench", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = bridge
            .create(
                ctx,
                CreateSpec {
                    redundancy,
                    ..CreateSpec::default()
                },
            )
            .expect("create");
        let t0 = ctx.now();
        for i in 0..blocks {
            bridge
                .seq_write(ctx, file, bridge_bench::workload::record_with_key(i, 6))
                .expect("write");
        }
        let write = ctx.now() - t0;

        bridge.open(ctx, file).expect("open");
        let t0 = ctx.now();
        while bridge.seq_read(ctx, file).expect("read").is_some() {}
        let read = ctx.now() - t0;

        let degraded_read = if redundancy == Redundancy::None {
            None
        } else {
            // The correctness gate rides along: every degraded block must
            // reconstruct to exactly the bytes that were written.
            fail(ctx, victim, true);
            bridge.open(ctx, file).expect("degraded open");
            let t0 = ctx.now();
            let mut i = 0u64;
            while let Some(block) = bridge.seq_read(ctx, file).expect("degraded read") {
                // The server returns the whole zero-padded data area;
                // the record must sit at its front, intact.
                let record = bridge_bench::workload::record_with_key(i, 6);
                assert!(
                    block.starts_with(&record) && block[record.len()..].iter().all(|&b| b == 0),
                    "degraded read of block {i} reconstructed the wrong bytes"
                );
                i += 1;
            }
            assert_eq!(i, blocks, "degraded read covered the whole file");
            let d = ctx.now() - t0;
            fail(ctx, victim, false);
            Some(d)
        };

        let blocks_stored = match redundancy {
            Redundancy::None => 1.0,
            Redundancy::Mirror => 2.0,
            Redundancy::Parity { .. } => f64::from(p) / f64::from(p - 1),
        };
        Run {
            write,
            read,
            degraded_read,
            blocks_stored,
        }
    })
}

fn fail(ctx: &mut Ctx, lfs: parsim::ProcId, failed: bool) {
    bridge_efs::set_failed(ctx, lfs, failed);
}

/// Blocks each direct writer streams in the concurrent mix. The bulk of
/// the machine's traffic: the parity stream must share disks with this.
fn mix_writer_blocks() -> u64 {
    stream_blocks() * 4
}

/// Blocks the (possibly parity-protected) bridge stream appends in the
/// mix — a minority share of the traffic, as on a real busy machine. The
/// gate bounds what protecting this stream adds to the machine's
/// completion time, not the stream's own latency (the single-stream
/// table above prices that).
fn mix_bridge_blocks() -> u64 {
    (stream_blocks() / 2).max(8)
}

/// The concurrent mix: six writers pipelining appends straight at the
/// instances while one client appends a file of the given redundancy
/// through the server. Returns the wall time until every worker is done.
fn measure_mix(redundancy: Redundancy) -> SimDuration {
    let config = BridgeConfig::paper(BREADTH)
        .with_2pc()
        .with_redundancy(redundancy);
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
        let mut specs: Vec<WorkerSpec<u64>> = (0..WRITERS)
            .map(|w| {
                let (proc, node) = lfs[w % lfs.len()];
                WorkerSpec {
                    node,
                    name: format!("writer{w}"),
                    run: Box::new(move |c| {
                        let mut client = LfsClient::new();
                        let file = LfsFileId(0xA600 + w as u32);
                        client
                            .call(c, proc, LfsOp::Create { file })
                            .expect("create");
                        let mut inflight = VecDeque::new();
                        for i in 0..mix_writer_blocks() {
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
                        Ok(mix_writer_blocks())
                    }),
                }
            })
            .collect();
        specs.push(WorkerSpec {
            node: frontend,
            name: "bridge-writer".into(),
            run: Box::new(move |c| {
                let mut bridge = BridgeClient::new(server);
                let file = bridge
                    .create(c, CreateSpec::default())
                    .expect("create redundant");
                for i in 0..mix_bridge_blocks() {
                    bridge
                        .seq_write(c, file, bridge_bench::workload::record_with_key(i, 6))
                        .expect("append");
                }
                Ok(mix_bridge_blocks())
            }),
        });
        let t0 = ctx.now();
        let done = run_workers(ctx, &ToolOptions::default(), specs).expect("workers");
        assert_eq!(
            done.iter().sum::<u64>(),
            WRITERS as u64 * mix_writer_blocks() + mix_bridge_blocks()
        );
        ctx.now() - t0
    })
}

/// One rebuild-pacing run: a parity file fills the machine, a spare racks
/// into LFS 1 (wiping its columns), then a paced rebuild repopulates it
/// while a reader keeps reading the whole file round-robin. Returns the
/// rebuild's completion time and the reader's p99 read latency over the
/// rebuild window.
fn measure_rebuild(chunk: u64, pause: SimDuration) -> (SimDuration, SimDuration) {
    let config = BridgeConfig::paper(BREADTH)
        .with_2pc()
        .with_redundancy(Redundancy::parity());
    let (mut sim, machine) = BridgeMachine::build(&config);
    let server = machine.server;
    let frontend = machine.frontend;
    let spare = machine.lfs[1];
    sim.block_on(machine.frontend, "bench", move |ctx| {
        let blocks = rebuild_blocks();
        let mut bridge = BridgeClient::new(server);
        let file = bridge.create(ctx, CreateSpec::default()).expect("create");
        for i in 0..blocks {
            bridge
                .seq_write(ctx, file, bridge_bench::workload::record_with_key(i, 6))
                .expect("write");
        }
        assert!(
            bridge_efs::install_spare(ctx, spare),
            "device produced a spare"
        );

        // Two workers race: the rebuild driver and a reader measuring the
        // latency it sees while the machine rebuilds underneath it. The
        // flag is fiber-to-fiber signalling on one scheduler thread, so
        // the run stays deterministic.
        let done = Arc::new(AtomicBool::new(false));
        let done_reader = Arc::clone(&done);
        let specs: Vec<WorkerSpec<u64>> = vec![
            WorkerSpec {
                node: frontend,
                name: "rebuild".into(),
                run: Box::new(move |c| {
                    let mut bridge = BridgeClient::new(server);
                    let t0 = c.now();
                    bridge
                        .rebuild_paced(c, file, chunk, pause)
                        .expect("rebuild");
                    done.store(true, Ordering::Relaxed);
                    Ok((c.now() - t0).as_nanos())
                }),
            },
            WorkerSpec {
                node: frontend,
                name: "reader".into(),
                run: Box::new(move |c| {
                    let mut bridge = BridgeClient::new(server);
                    let mut lat: Vec<u64> = Vec::new();
                    let mut i = 0u64;
                    while !done_reader.load(Ordering::Relaxed) || lat.len() < 32 {
                        let t0 = c.now();
                        let block = bridge
                            .rand_read(c, file, i % blocks)
                            .expect("read during rebuild");
                        assert!(!block.is_empty());
                        lat.push((c.now() - t0).as_nanos());
                        i += 1;
                    }
                    lat.sort_unstable();
                    Ok(lat[(lat.len() * 99 / 100).min(lat.len() - 1)])
                }),
            },
        ];
        let done = run_workers(ctx, &ToolOptions::default(), specs).expect("workers");
        (
            SimDuration::from_nanos(done[0]),
            SimDuration::from_nanos(done[1]),
        )
    })
}

fn main() {
    let p = 8u32;
    let blocks = 1024 / scale();
    println!(
        "## Ablation A6 — the price of surviving one node failure (p = {p}, {blocks} blocks)\n"
    );

    let mut t = Table::new([
        "redundancy",
        "capacity",
        "write/blk",
        "read/blk",
        "degraded read/blk",
    ]);
    let mut profiler = Profiler::new("ablate_redundancy");
    let mut runs = Vec::new();
    for (name, slug, r) in [
        ("none (the prototype)", "none", Redundancy::None),
        ("mirrored", "mirrored", Redundancy::Mirror),
        ("rotating parity", "parity", Redundancy::parity()),
    ] {
        // Under --profile, attribute each redundancy mode's run.
        let tracer = profiler.arm(&format!("rw_p8_{slug}"));
        let run = measure(p, blocks, r, tracer);
        profiler.capture();
        t.row([
            name.to_string(),
            format!("{:.2}x", run.blocks_stored),
            format!("{:.1} ms", run.write.as_millis_f64() / blocks as f64),
            format!("{:.1} ms", run.read.as_millis_f64() / blocks as f64),
            run.degraded_read.map_or("fatal".to_string(), |d| {
                format!("{:.1} ms", d.as_millis_f64() / blocks as f64)
            }),
        ]);
        runs.push(run);
    }
    t.print();

    let mirror_write_overhead = runs[1].write.as_secs_f64() / runs[0].write.as_secs_f64();
    let parity_write_overhead = runs[2].write.as_secs_f64() / runs[0].write.as_secs_f64();
    let degraded_slowdown = runs[2]
        .degraded_read
        .expect("parity run went degraded")
        .as_secs_f64()
        / runs[2].read.as_secs_f64();

    println!(
        "\nMirroring doubles capacity and disk writes, but a block's two copies land\n\
         in one round, so an append barely slows; rotating parity stores only\n\
         p/(p−1) but pays the classic small-write penalty (a parity read-modify-write\n\
         per block) and reconstructs degraded reads from p−1 peers. The paper judged\n\
         block-level ECC infeasible on a MIMD machine; a rotating parity column —\n\
         published the same year as RAID — turns out to fit Bridge's structure\n\
         naturally. A second failure remains fatal in every mode."
    );

    // The concurrent mix, gated: the parity tax on a busy machine.
    println!("\n### Concurrent mix (p = {BREADTH}, {WRITERS} direct writers + 1 bridge stream)\n");
    let mix_none = measure_mix(Redundancy::None);
    let mix_parity = measure_mix(Redundancy::parity());
    let concurrent_overhead = mix_parity.as_secs_f64() / mix_none.as_secs_f64();
    let mut t = Table::new(["bridge stream", "wall time", "overhead"]);
    t.row(["unprotected".into(), secs(mix_none), "1.00x".into()]);
    t.row([
        "rotating parity".into(),
        secs(mix_parity),
        format!("{concurrent_overhead:.2}x"),
    ]);
    t.print();
    // The acceptance gate: fault-free parity must cost the realistic
    // concurrent mix no more than 25%.
    assert!(
        concurrent_overhead <= 1.25,
        "parity concurrent overhead {concurrent_overhead:.3}x exceeds the 1.25x budget"
    );

    // Rebuild pacing: how hard to push the rebuild vs what readers feel.
    println!(
        "\n### Online rebuild pacing (p = {BREADTH}, {} blocks)\n",
        rebuild_blocks()
    );
    let paces = [
        ("flat out", "fast", 64u64, SimDuration::from_micros(0)),
        ("paced", "paced", 8, SimDuration::from_millis(2)),
        ("trickle", "trickle", 2, SimDuration::from_millis(8)),
    ];
    let mut t = Table::new(["pace", "chunk", "pause", "rebuild", "reader p99"]);
    let mut rebuilds = Vec::new();
    for (name, _slug, chunk, pause) in paces {
        let (rebuild, p99) = measure_rebuild(chunk, pause);
        t.row([
            name.to_string(),
            chunk.to_string(),
            format!("{pause}"),
            secs(rebuild),
            format!("{:.1} ms", p99.as_millis_f64()),
        ]);
        rebuilds.push((rebuild, p99));
    }
    t.print();
    assert!(
        rebuilds[0].0 < rebuilds[2].0,
        "a flat-out rebuild must finish before a trickle"
    );
    println!(
        "\nA flat-out rebuild closes the degraded window fastest but queues its\n\
         reads and writes in front of the clients'; trickling keeps the reader's\n\
         tail flat and stretches the window. The knob is per-call: chunk blocks\n\
         between pauses."
    );

    // The overhead trend vs p for parity.
    println!("\n### Parity capacity overhead shrinks with p");
    let mut t = Table::new(["p", "parity capacity", "mirrored capacity"]);
    for &p in &[2u32, 4, 8, 16, 32] {
        t.row([
            p.to_string(),
            format!("{:.2}x", f64::from(p) / f64::from(p - 1).max(1.0)),
            "2.00x".to_string(),
        ]);
    }
    t.print();
    let _ = BridgeFileId(0);

    emit(
        "ablate_redundancy",
        &[
            Metric::lower("mirror.write_overhead", mirror_write_overhead),
            Metric::lower("parity.write_overhead", parity_write_overhead),
            Metric::lower("parity.degraded_read_slowdown", degraded_slowdown),
            Metric::lower("parity.concurrent_overhead", concurrent_overhead),
            Metric::lower("rebuild_fast.secs", rebuilds[0].0.as_secs_f64()),
            Metric::lower("rebuild_fast.read_p99_ns", rebuilds[0].1.as_nanos() as f64),
            Metric::lower("rebuild_trickle.secs", rebuilds[2].0.as_secs_f64()),
            Metric::lower(
                "rebuild_trickle.read_p99_ns",
                rebuilds[2].1.as_nanos() as f64,
            ),
        ],
    );
}
