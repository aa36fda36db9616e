//! Batched scatter-gather I/O: `BatchPolicy::Runs(d)` must be purely an
//! optimization. Every test compares a batched machine against the
//! block-at-a-time baseline (`BatchPolicy::Off`) — identical contents,
//! identical sizes, identical failure semantics — and checks that the
//! batched machine actually sends fewer messages.

use bridge_core::{
    BatchPolicy, BridgeClient, BridgeConfig, BridgeFileId, BridgeMachine, CreateSpec, JobWorker,
    Redundancy,
};
use bridge_trace::TraceCollector;
use parsim::{Ctx, ProcId};
use proptest::prelude::*;
use std::sync::mpsc;

fn record(tag: u32, block: u64) -> Vec<u8> {
    let mut data = vec![0u8; 80];
    data[..4].copy_from_slice(&tag.to_le_bytes());
    data[4..12].copy_from_slice(&block.to_le_bytes());
    for (i, b) in data.iter_mut().enumerate().skip(12) {
        *b = (tag as usize * 3 + block as usize * 17 + i) as u8;
    }
    data
}

fn config(p: u32, batch: BatchPolicy) -> BridgeConfig {
    let mut config = BridgeConfig::instant(p);
    config.server.batch = batch;
    config
}

fn fail_node(ctx: &mut Ctx, lfs: ProcId, failed: bool) {
    bridge_efs::set_failed(ctx, lfs, failed);
}

fn write_file(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    tag: u32,
    blocks: u64,
    redundancy: Redundancy,
) -> BridgeFileId {
    let file = bridge
        .create(
            ctx,
            CreateSpec {
                redundancy,
                ..CreateSpec::default()
            },
        )
        .unwrap();
    for b in 0..blocks {
        assert_eq!(bridge.seq_write(ctx, file, record(tag, b)).unwrap(), b);
    }
    file
}

fn read_all(ctx: &mut Ctx, bridge: &mut BridgeClient, file: BridgeFileId) -> Vec<Vec<u8>> {
    bridge.open(ctx, file).unwrap();
    let mut out = Vec::new();
    while let Some(block) = bridge.seq_read(ctx, file).unwrap() {
        out.push(block.to_vec());
    }
    out
}

/// Runs `body` on a machine with the given batch policy and returns its
/// result together with the whole run's kernel stats.
fn run_with_stats<R: Send + 'static>(
    p: u32,
    batch: BatchPolicy,
    body: impl FnOnce(&mut Ctx, &mut BridgeClient) -> R + Send + 'static,
) -> (R, parsim::RunStats) {
    let (mut sim, machine) = BridgeMachine::build(&config(p, batch));
    let server = machine.server;
    let (tx, rx) = mpsc::channel();
    sim.spawn(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let _ = tx.send(body(ctx, &mut bridge));
    });
    let stats = sim.run();
    (rx.try_recv().expect("app completed"), stats)
}

#[test]
fn batched_seq_reads_match_and_use_fewer_messages() {
    for p in [1u32, 3, 5] {
        for blocks in [1u64, 7, 40] {
            let scenario = move |ctx: &mut Ctx, bridge: &mut BridgeClient| {
                let file = write_file(ctx, bridge, 1, blocks, Redundancy::None);
                let contents = read_all(ctx, bridge, file);
                assert_eq!(bridge.seq_read(ctx, file).unwrap(), None, "EOF sticks");
                contents
            };
            let (baseline, base_stats) = run_with_stats(p, BatchPolicy::Off, scenario);
            for depth in [2u32, 8, 32] {
                let (batched, batch_stats) = run_with_stats(p, BatchPolicy::Runs(depth), scenario);
                assert_eq!(batched, baseline, "p={p} blocks={blocks} depth={depth}");
                if depth >= 8 && blocks == 40 {
                    assert!(
                        batch_stats.messages < base_stats.messages,
                        "p={p} depth={depth}: {} < {} expected",
                        batch_stats.messages,
                        base_stats.messages
                    );
                }
            }
            for (b, data) in baseline.iter().enumerate() {
                assert_eq!(&data[..80], &record(1, b as u64)[..]);
            }
        }
    }
}

#[test]
fn buffered_appends_flush_before_any_other_command() {
    let (mut sim, machine) = BridgeMachine::build(&config(4, BatchPolicy::Runs(8)));
    let server = machine.server;
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = bridge.create(ctx, CreateSpec::default()).unwrap();
        // Three appends stay below the batch depth — still buffered.
        for b in 0..3u64 {
            assert_eq!(bridge.seq_write(ctx, file, record(2, b)).unwrap(), b);
        }
        // Any other command must see the flushed file.
        let data = bridge.rand_read(ctx, file, 2).unwrap();
        assert_eq!(&data[..80], &record(2, 2)[..]);
        let info = bridge.open(ctx, file).unwrap();
        assert_eq!(info.size, 3);
        // An append train longer than the depth flushes on its own.
        for b in 3..14u64 {
            assert_eq!(bridge.seq_write(ctx, file, record(2, b)).unwrap(), b);
        }
        let info = bridge.open(ctx, file).unwrap();
        assert_eq!(info.size, 14);
        for (b, data) in read_all(ctx, &mut bridge, file).iter().enumerate() {
            assert_eq!(&data[..80], &record(2, b as u64)[..], "block {b}");
        }
    });
}

#[test]
fn rand_write_invalidates_read_ahead() {
    let (mut sim, machine) = BridgeMachine::build(&config(4, BatchPolicy::Runs(8)));
    let server = machine.server;
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = write_file(ctx, &mut bridge, 3, 16, Redundancy::None);
        bridge.open(ctx, file).unwrap();
        // This read prefetches blocks 1..8 into the cursor.
        let first = bridge.seq_read(ctx, file).unwrap().unwrap();
        assert_eq!(&first[..80], &record(3, 0)[..]);
        // Overwrite a block sitting in the prefetch buffer.
        bridge.rand_write(ctx, file, 3, record(77, 3)).unwrap();
        // The cursor must serve the new contents, not the stale prefetch.
        for b in 1..16u64 {
            let data = bridge.seq_read(ctx, file).unwrap().unwrap();
            let expected = if b == 3 { record(77, b) } else { record(3, b) };
            assert_eq!(&data[..80], &expected[..], "block {b}");
        }
        assert_eq!(bridge.seq_read(ctx, file).unwrap(), None);
    });
}

fn job_read_collect(p: u32, batch: BatchPolicy) -> Vec<Vec<(u64, Vec<u8>)>> {
    let (mut sim, machine) = BridgeMachine::build(&config(p, batch));
    let server = machine.server;
    let wnode = machine.frontend;
    sim.block_on(machine.frontend, "controller", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = write_file(ctx, &mut bridge, 4, 22, Redundancy::None);
        let me = ctx.me();
        let mut workers = Vec::new();
        for i in 0..6 {
            workers.push(ctx.spawn(wnode, format!("w{i}"), move |c| {
                let mut got: Vec<(u64, Vec<u8>)> = Vec::new();
                loop {
                    let env = c.recv_where(|e| e.is::<bridge_core::JobDeliver>());
                    let d = env.downcast::<bridge_core::JobDeliver>().unwrap();
                    match d.data {
                        Some(data) => got.push((d.block, data.to_vec())),
                        None => break,
                    }
                }
                c.send(me, got);
            }));
        }
        let job = bridge.parallel_open(ctx, file, workers.clone()).unwrap();
        loop {
            let (_, eof) = bridge.job_read(ctx, job).unwrap();
            if eof {
                break;
            }
        }
        bridge.job_read(ctx, job).unwrap(); // deliver the Nones
        let mut reports = vec![Vec::new(); workers.len()];
        for _ in 0..workers.len() {
            let (from, got) = ctx.recv_as::<Vec<(u64, Vec<u8>)>>();
            let widx = workers.iter().position(|&w| w == from).unwrap();
            reports[widx] = got;
        }
        reports
    })
}

#[test]
fn batched_job_reads_deliver_identical_stripes() {
    let baseline = job_read_collect(4, BatchPolicy::Off);
    for depth in [2u32, 8] {
        assert_eq!(job_read_collect(4, BatchPolicy::Runs(depth)), baseline);
    }
    // Sanity: worker w got exactly the blocks ≡ w (mod 6), in order.
    for (w, got) in baseline.iter().enumerate() {
        let expected: Vec<u64> = (0..22).filter(|b| b % 6 == w as u64).collect();
        assert_eq!(got.iter().map(|(b, _)| *b).collect::<Vec<_>>(), expected);
        for (b, data) in got {
            assert_eq!(&data[..80], &record(4, *b)[..]);
        }
    }
}

fn job_write_collect(p: u32, batch: BatchPolicy) -> Vec<Vec<u8>> {
    let (mut sim, machine) = BridgeMachine::build(&config(p, batch));
    let server = machine.server;
    let wnode = machine.frontend;
    sim.block_on(machine.frontend, "controller", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = bridge.create(ctx, CreateSpec::default()).unwrap();
        let me = ctx.me();
        let workers: Vec<_> = (0..5u32)
            .map(|i| {
                ctx.spawn(wnode, format!("w{i}"), move |c| {
                    let (_, job) = c.recv_as::<bridge_core::JobId>();
                    let worker = JobWorker::new(job);
                    for round in 0..4u64 {
                        worker.supply_block(c, Some(record(i, round).into()));
                    }
                    worker.supply_block(c, None);
                    c.send(me, ());
                })
            })
            .collect();
        let job = bridge.parallel_open(ctx, file, workers.clone()).unwrap();
        for &w in &workers {
            ctx.send(w, job);
        }
        for _ in 0..4 {
            assert_eq!(bridge.job_write(ctx, job).unwrap(), 5);
        }
        assert_eq!(bridge.job_write(ctx, job).unwrap(), 0);
        for _ in 0..workers.len() {
            ctx.recv_as::<()>();
        }
        read_all(ctx, &mut bridge, file)
    })
}

#[test]
fn batched_job_writes_land_identically() {
    let baseline = job_write_collect(3, BatchPolicy::Off);
    assert_eq!(baseline.len(), 20);
    for depth in [2u32, 8] {
        assert_eq!(job_write_collect(3, BatchPolicy::Runs(depth)), baseline);
    }
    for (b, data) in baseline.iter().enumerate() {
        let b = b as u64;
        assert_eq!(&data[..80], &record((b % 5) as u32, b / 5)[..]);
    }
}

#[test]
fn batched_reads_recover_from_a_failed_node() {
    for redundancy in [Redundancy::Mirror, Redundancy::parity()] {
        for batch in [BatchPolicy::Off, BatchPolicy::Runs(8)] {
            let collector = TraceCollector::install();
            let mut config = config(4, batch);
            config.tracer = Some(collector.as_tracer());
            let (mut sim, machine) = BridgeMachine::build(&config);
            let server = machine.server;
            let victim = machine.lfs[1];
            sim.block_on(machine.frontend, "app", move |ctx| {
                let mut bridge = BridgeClient::new(server);
                let tag = 10 + redundancy.tag();
                let file = write_file(ctx, &mut bridge, tag, 21, redundancy);
                fail_node(ctx, victim, true);
                // The whole file still reads, batched or not; blocks whose
                // primary died come back through the redundancy path.
                let contents = read_all(ctx, &mut bridge, file);
                assert_eq!(contents.len(), 21, "{redundancy:?} {batch:?}");
                for (b, data) in contents.iter().enumerate() {
                    assert_eq!(
                        &data[..80],
                        &record(tag, b as u64)[..],
                        "{redundancy:?} {batch:?} block {b}"
                    );
                }
            });
            // The dead node is asked for its primaries once per run — five
            // single-block runs unbatched, one run per read-ahead window
            // of 8 batched — and never again block by block (a lost
            // block's mirror copy, stripe peers and parity all live on
            // other nodes).
            let knocks = collector
                .snapshot()
                .spans_in("client")
                .filter(|s| s.pid == server.index() && s.name.starts_with("client.lfs.read"))
                .filter(|s| s.arg("server") == Some(victim.index() as u64))
                .filter(|s| s.arg("ok") == Some(0))
                .count();
            let expected = match batch {
                BatchPolicy::Off => 5,
                BatchPolicy::Runs(_) => 3,
            };
            assert_eq!(knocks, expected, "{redundancy:?} {batch:?}");
        }
    }
}

#[test]
fn batched_rebuild_repairs_like_unbatched() {
    for redundancy in [Redundancy::Mirror, Redundancy::parity()] {
        let mut repaired = Vec::new();
        for batch in [BatchPolicy::Off, BatchPolicy::Runs(8)] {
            let (mut sim, machine) = BridgeMachine::build(&config(4, batch));
            let server = machine.server;
            let victim = machine.lfs[2];
            let other = machine.lfs[0];
            let n = sim.block_on(machine.frontend, "app", move |ctx| {
                let mut bridge = BridgeClient::new(server);
                let tag = 20 + redundancy.tag();
                let file = write_file(ctx, &mut bridge, tag, 12, redundancy);
                bridge
                    .rand_write(ctx, file, 1, record(tag + 50, 1))
                    .unwrap();
                // The degraded appends leave the revived node missing six
                // primaries/companions — the material rebuild must repair.
                fail_node(ctx, victim, true);
                for b in 12..18u64 {
                    bridge.seq_write(ctx, file, record(tag, b)).unwrap();
                }
                fail_node(ctx, victim, false);
                let repaired = bridge.rebuild(ctx, file).unwrap();
                // After repair a different failure must be survivable.
                fail_node(ctx, other, true);
                for b in 0..18u64 {
                    let data = bridge.rand_read(ctx, file, b).unwrap();
                    let expected = if b == 1 {
                        record(tag + 50, b)
                    } else {
                        record(tag, b)
                    };
                    assert_eq!(&data[..80], &expected[..], "{redundancy:?} block {b}");
                }
                repaired
            });
            assert!(n > 0, "{redundancy:?}: something was repaired");
            repaired.push(n);
        }
        assert_eq!(
            repaired[0], repaired[1],
            "{redundancy:?}: batched rebuild repairs the same set"
        );
    }
}

#[test]
fn off_policy_is_deterministic_and_default() {
    assert_eq!(BatchPolicy::default(), BatchPolicy::Off);
    assert_eq!(BridgeConfig::paper(4).server.batch, BatchPolicy::Off);
    let scenario = |ctx: &mut Ctx, bridge: &mut BridgeClient| {
        let file = write_file(ctx, bridge, 30, 25, Redundancy::None);
        read_all(ctx, bridge, file);
        ctx.now()
    };
    let (t1, s1) = run_with_stats(4, BatchPolicy::Off, scenario);
    let (t2, s2) = run_with_stats(4, BatchPolicy::Off, scenario);
    assert_eq!(t1, t2, "virtual time is reproducible");
    assert_eq!(s1.events, s2.events);
    assert_eq!(s1.messages, s2.messages);
    assert_eq!(s1.bytes_sent, s2.bytes_sent);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// For random sizes, breadths, depths, and redundancy modes — with and
    /// without a failed node — a run-batched whole-file read equals the
    /// block-at-a-time read.
    #[test]
    fn batched_reads_always_match(
        blocks in 0u64..48,
        p in 2u32..6,
        depth in 1u32..12,
        mode in 0u8..3,
        fail in any::<bool>(),
    ) {
        let redundancy = match mode {
            0 => Redundancy::None,
            1 => Redundancy::Mirror,
            _ => Redundancy::parity(),
        };
        let fail = fail && redundancy != Redundancy::None;
        let run = move |batch: BatchPolicy| {
            let (mut sim, machine) = BridgeMachine::build(&config(p, batch));
            let server = machine.server;
            let victim = machine.lfs[0];
            sim.block_on(machine.frontend, "prop", move |ctx| {
                let mut bridge = BridgeClient::new(server);
                let file = write_file(ctx, &mut bridge, 40, blocks, redundancy);
                if fail {
                    fail_node(ctx, victim, true);
                }
                read_all(ctx, &mut bridge, file)
            })
        };
        let baseline = run(BatchPolicy::Off);
        let batched = run(BatchPolicy::Runs(depth));
        prop_assert_eq!(&batched, &baseline);
        prop_assert_eq!(baseline.len() as u64, blocks);
        for (b, data) in baseline.iter().enumerate() {
            prop_assert_eq!(&data[..80], &record(40, b as u64)[..]);
        }
    }
}
