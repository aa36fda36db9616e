//! Fault-tolerance tests (paper §6): without redundancy "a failure
//! anywhere in the system is fatal; it ruins every file"; mirroring
//! survives it at 2× capacity; rotating parity survives it at p/(p−1).

use bridge_core::{
    BatchPolicy, BridgeClient, BridgeConfig, BridgeError, BridgeFileId, BridgeMachine, CreateSpec,
    JobDeliver, JobRequest, JobSupply, PlacementKind, PlacementSpec, Redundancy,
};
use bridge_efs::{EfsError, LfsData, LfsOp};
use bytes::Bytes;
use parsim::{Ctx, ProcId, SimDuration};

fn record(tag: u32, block: u64) -> Vec<u8> {
    let mut data = vec![0u8; 96];
    data[..4].copy_from_slice(&tag.to_le_bytes());
    data[4..12].copy_from_slice(&block.to_le_bytes());
    for (i, b) in data.iter_mut().enumerate().skip(12) {
        *b = (tag as usize * 5 + block as usize * 11 + i) as u8;
    }
    data
}

fn fail_node(ctx: &mut Ctx, lfs: ProcId, failed: bool) {
    // The acknowledged round trip orders the toggle before any later
    // request, whatever the interconnect latency.
    bridge_efs::set_failed(ctx, lfs, failed);
}

fn write_redundant(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    redundancy: Redundancy,
    blocks: u64,
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
        bridge
            .seq_write(ctx, file, record(redundancy.tag(), b))
            .unwrap();
    }
    file
}

fn check_all(ctx: &mut Ctx, bridge: &mut BridgeClient, file: BridgeFileId, tag: u32, blocks: u64) {
    bridge.open(ctx, file).unwrap();
    for b in 0..blocks {
        let data = bridge.seq_read(ctx, file).unwrap().expect("block present");
        assert_eq!(&data[..96], &record(tag, b)[..], "block {b}");
    }
    assert_eq!(bridge.seq_read(ctx, file).unwrap(), None);
    // And random access.
    for &b in &[0, blocks / 2, blocks - 1] {
        let data = bridge.rand_read(ctx, file, b).unwrap();
        assert_eq!(&data[..96], &record(tag, b)[..]);
    }
}

#[test]
fn unprotected_files_are_ruined_by_any_failure() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    let victim = machine.lfs[2];
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = write_redundant(ctx, &mut bridge, Redundancy::None, 20);
        fail_node(ctx, victim, true);
        bridge.open(ctx, file).unwrap_err(); // even open fails
        let err = bridge.rand_read(ctx, file, 2).unwrap_err();
        assert_eq!(err, BridgeError::Lfs(EfsError::NodeFailed));
        // Blocks on surviving nodes are still readable... but every p-th
        // block is gone: the file as a whole is ruined.
        assert!(bridge.rand_read(ctx, file, 1).is_ok() || bridge.rand_read(ctx, file, 0).is_ok());
    });
}

#[test]
fn mirrored_files_survive_one_failure() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    let victim = machine.lfs[1];
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let blocks = 24;
        let file = write_redundant(ctx, &mut bridge, Redundancy::Mirror, blocks);
        fail_node(ctx, victim, true);
        check_all(ctx, &mut bridge, file, Redundancy::Mirror.tag(), blocks);
    });
}

#[test]
fn parity_files_survive_one_failure_anywhere() {
    for p in [2u32, 3, 4, 5, 8] {
        for victim_idx in 0..p.min(4) {
            let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(p));
            let server = machine.server;
            let victim = machine.lfs[victim_idx as usize];
            sim.block_on(machine.frontend, "app", move |ctx| {
                let mut bridge = BridgeClient::new(server);
                let blocks = 3 * u64::from(p) + 1; // a ragged final stripe
                let file = write_redundant(ctx, &mut bridge, Redundancy::parity(), blocks);
                fail_node(ctx, victim, true);
                check_all(ctx, &mut bridge, file, Redundancy::parity().tag(), blocks);
            });
        }
    }
}

#[test]
fn parity_overwrites_keep_parity_consistent() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    let victim = machine.lfs[0];
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let blocks = 15;
        let file = write_redundant(ctx, &mut bridge, Redundancy::parity(), blocks);
        // Overwrite a few blocks (parity must follow via RMW).
        for &b in &[0u64, 7, 14] {
            bridge.rand_write(ctx, file, b, record(99, b)).unwrap();
        }
        fail_node(ctx, victim, true);
        bridge.open(ctx, file).unwrap();
        for b in 0..blocks {
            let data = bridge.rand_read(ctx, file, b).unwrap();
            let expected = if [0u64, 7, 14].contains(&b) {
                record(99, b)
            } else {
                record(Redundancy::parity().tag(), b)
            };
            assert_eq!(&data[..96], &expected[..], "block {b}");
        }
    });
}

#[test]
fn degraded_writes_land_and_rebuild_restores_health() {
    for redundancy in [Redundancy::Mirror, Redundancy::parity()] {
        let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
        let server = machine.server;
        let victim = machine.lfs[2];
        let other = machine.lfs[0];
        sim.block_on(machine.frontend, "app", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let tag = redundancy.tag();
            let file = write_redundant(ctx, &mut bridge, redundancy, 10);

            // Node 2 dies; we keep appending and overwriting.
            fail_node(ctx, victim, true);
            for b in 10..20u64 {
                bridge.seq_write(ctx, file, record(tag, b)).unwrap();
            }
            bridge
                .rand_write(ctx, file, 3, record(tag + 50, 3))
                .unwrap();
            // Degraded reads see everything, including blocks whose
            // primary landed on the dead node.
            for b in 0..20u64 {
                let data = bridge.rand_read(ctx, file, b).unwrap();
                let expected = if b == 3 {
                    record(tag + 50, b)
                } else {
                    record(tag, b)
                };
                assert_eq!(&data[..96], &expected[..], "{redundancy:?} block {b}");
            }

            // The node comes back empty-handed for the degraded interval;
            // rebuild re-derives what it missed.
            fail_node(ctx, victim, false);
            let repaired = bridge.rebuild(ctx, file).unwrap();
            assert!(repaired > 0, "{redundancy:?}: something was repaired");

            // Now a *different* node can fail and the file still reads.
            fail_node(ctx, other, true);
            for b in 0..20u64 {
                let data = bridge.rand_read(ctx, file, b).unwrap();
                let expected = if b == 3 {
                    record(tag + 50, b)
                } else {
                    record(tag, b)
                };
                assert_eq!(
                    &data[..96],
                    &expected[..],
                    "{redundancy:?} post-rebuild {b}"
                );
            }
        });
    }
}

#[test]
fn double_failure_is_fatal_even_with_redundancy() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    let v1 = machine.lfs[0];
    let v2 = machine.lfs[1];
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = write_redundant(ctx, &mut bridge, Redundancy::parity(), 16);
        fail_node(ctx, v1, true);
        fail_node(ctx, v2, true);
        // Some block has its data on v1 and a stripe peer or parity on v2.
        let mut failed = false;
        for b in 0..16u64 {
            if bridge.rand_read(ctx, file, b).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "two failures must lose data");
    });
}

#[test]
fn redundancy_constraints_enforced() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(3));
    let server = machine.server;
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        // Parity on one node is impossible.
        assert!(matches!(
            bridge.create(
                ctx,
                CreateSpec {
                    redundancy: Redundancy::parity(),
                    nodes: Some(vec![0]),
                    ..CreateSpec::default()
                }
            ),
            Err(BridgeError::RedundancyUnsupported { .. })
        ));
        // Redundancy requires round-robin placement.
        assert!(matches!(
            bridge.create(
                ctx,
                CreateSpec {
                    redundancy: Redundancy::Mirror,
                    placement: PlacementSpec::Hashed { seed: 1 },
                    ..CreateSpec::default()
                }
            ),
            Err(BridgeError::RedundancyUnsupported { .. })
        ));
        // Rebuild of a plain file is refused.
        let plain = bridge.create(ctx, CreateSpec::default()).unwrap();
        assert!(matches!(
            bridge.rebuild(ctx, plain),
            Err(BridgeError::RedundancyUnsupported { .. })
        ));
    });
}

#[test]
fn parallel_open_reads_survive_failure() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    let victim = machine.lfs[1];
    let wnode = machine.frontend;
    sim.block_on(machine.frontend, "controller", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let blocks = 12u64;
        let file = write_redundant(ctx, &mut bridge, Redundancy::parity(), blocks);
        fail_node(ctx, victim, true);

        let me = ctx.me();
        let workers: Vec<_> = (0..4)
            .map(|i| {
                ctx.spawn(wnode, format!("w{i}"), move |c: &mut Ctx| {
                    let mut got = Vec::new();
                    loop {
                        let env = c.recv_where(|e| e.is::<JobDeliver>());
                        let d = env.downcast::<JobDeliver>().unwrap();
                        match d.data {
                            Some(data) => got.push((d.block, data.to_vec())),
                            None => break,
                        }
                    }
                    c.send(me, got);
                })
            })
            .collect();
        let job = bridge.parallel_open(ctx, file, workers).unwrap();
        loop {
            let (_, eof) = bridge.job_read(ctx, job).unwrap();
            if eof {
                break;
            }
        }
        bridge.job_read(ctx, job).unwrap(); // EOF round releases workers
        let mut total = 0;
        for _ in 0..4 {
            let (_, got) = ctx.recv_as::<Vec<(u64, Vec<u8>)>>();
            for (b, data) in &got {
                assert_eq!(&data[..96], &record(Redundancy::parity().tag(), *b)[..]);
            }
            total += got.len();
        }
        assert_eq!(total, blocks as usize);
    });
}

/// A job round over an unprotected file with its first block's column
/// fail-stopped — a read round and a write round, each a lock-step wave
/// and one wave of runs — reports `NodeFailed` only after taking the rest
/// of its wave: the server's next dispatch finds nothing set aside in its
/// mailbox.
#[test]
fn a_failed_job_round_strands_no_reply() {
    for batch in [BatchPolicy::Off, BatchPolicy::Runs(8)] {
        for write in [false, true] {
            let collector = bridge_trace::TraceCollector::install();
            let mut config = BridgeConfig::paper(8);
            config.server.batch = batch;
            config.tracer = Some(collector.as_tracer());
            let (mut sim, machine) = BridgeMachine::build(&config);
            let server = machine.server;
            let wnode = machine.frontend;
            sim.block_on(machine.frontend, "controller", move |ctx| {
                let mut bridge = BridgeClient::new(server);
                let file = write_redundant(ctx, &mut bridge, Redundancy::None, 8);
                let info = bridge.open(ctx, file).unwrap();
                let PlacementKind::RoundRobin { start } = info.placement else {
                    panic!("round-robin file: {:?}", info.placement);
                };
                // A reader drops its deliveries; a writer supplies a block
                // per poll. Either way block 0 of the round — global 0 of
                // a read, global 8 of an append — lands on `start`.
                let workers = (0..8)
                    .map(|i| {
                        ctx.spawn(wnode, format!("w{i}"), move |c: &mut Ctx| loop {
                            if !write {
                                c.recv();
                                continue;
                            }
                            let (from, req) = c.recv_as::<JobRequest>();
                            let data = Some(Bytes::from(record(0, req.block)));
                            let (job, block) = (req.job, req.block);
                            c.send(from, JobSupply { job, block, data });
                        })
                    })
                    .collect();
                let job = bridge.parallel_open(ctx, file, workers).unwrap();
                fail_node(ctx, info.nodes[start as usize].proc, true);
                let err = match write {
                    false => bridge.job_read(ctx, job).map(|_| ()),
                    true => bridge.job_write(ctx, job).map(|_| ()),
                };
                let failed = BridgeError::Lfs(EfsError::NodeFailed);
                assert_eq!(err, Err(failed), "{batch:?} write={write}");
                // Long enough for every other column's reply to have landed.
                ctx.delay(SimDuration::from_secs(1));
                bridge.job_close(ctx, job).unwrap();
            });
            let trace = collector.snapshot();
            let close = trace
                .spans_in("bridge")
                .filter(|s| s.pid == server.index())
                .last()
                .expect("the server traced its dispatches");
            assert_eq!(close.name, "bridge.job_close");
            assert_eq!(
                close.arg("stashed"),
                Some(0),
                "{batch:?} write={write}: the failed round stranded replies"
            );
        }
    }
}

/// A lock-step read wave over a mirrored file takes its replies as they
/// arrive, so a sink that does I/O does not wait on the rest of its wave:
/// with the node of the wave's last-sent block fail-stopped, that block's
/// recovery from its mirror starts before the wave's last healthy reply
/// is taken, not after every reply sent before its own.
#[test]
fn a_lost_column_is_recovered_before_its_wave_is_taken() {
    let collector = bridge_trace::TraceCollector::install();
    let mut config = BridgeConfig::paper(8);
    config.tracer = Some(collector.as_tracer());
    let (mut sim, machine) = BridgeMachine::build(&config);
    let server = machine.server;
    let wnode = machine.frontend;
    let asked = sim.block_on(machine.frontend, "controller", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = write_redundant(ctx, &mut bridge, Redundancy::Mirror, 8);
        let info = bridge.open(ctx, file).unwrap();
        let PlacementKind::RoundRobin { start } = info.placement else {
            panic!("round-robin file: {:?}", info.placement);
        };
        let workers = (0..8)
            .map(|i| {
                ctx.spawn(wnode, format!("w{i}"), |c: &mut Ctx| loop {
                    c.recv();
                })
            })
            .collect();
        let job = bridge.parallel_open(ctx, file, workers).unwrap();
        fail_node(ctx, info.nodes[(start as usize + 7) % 8].proc, true);
        let asked = ctx.now();
        assert_eq!(bridge.job_read(ctx, job).unwrap().0, 8);
        bridge.job_close(ctx, job).unwrap();
        asked
    });
    let trace = collector.snapshot();
    let recovered = (trace.instants.iter())
        .find(|i| i.name == "redundancy.degraded_read")
        .expect("block 7 was recovered");
    assert_eq!(recovered.arg("block"), Some(7));
    // The wave: the server's eight reads sent at one instant, before the
    // recovery's own read.
    let wave: Vec<_> = (trace.spans_in("client"))
        .filter(|s| s.pid == server.index() && s.start >= asked && s.start < recovered.at)
        .collect();
    assert_eq!(wave.len(), 8);
    assert!(wave.iter().all(|s| s.start == wave[0].start), "one wave");
    let last = wave.iter().map(|s| s.end).max().unwrap();
    assert!(
        recovered.at < last,
        "recovery at {:?} waited for the wave's last reply at {last:?}",
        recovered.at
    );
}

/// The small-write read-modify-write reads its two old blocks — the
/// stripe's parity and the data block, on different nodes — together:
/// both requests are in service at the same virtual instant.
#[test]
fn parity_overwrite_reads_its_two_old_blocks_together() {
    let collector = bridge_trace::TraceCollector::install();
    let mut config = BridgeConfig::paper(4);
    config.tracer = Some(collector.as_tracer());
    let (mut sim, machine) = BridgeMachine::build(&config);
    let server = machine.server;
    let (from, to) = sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = write_redundant(ctx, &mut bridge, Redundancy::parity(), 8);
        let from = ctx.now();
        bridge.rand_write(ctx, file, 5, record(99, 5)).unwrap();
        (from, ctx.now())
    });
    let data = collector.take();
    let reads: Vec<_> = data
        .spans
        .iter()
        .filter(|s| s.name == "lfs.read" && s.start >= from && s.end <= to)
        .collect();
    assert_eq!(reads.len(), 2, "old parity and old data");
    assert_ne!(reads[0].pid, reads[1].pid, "on different nodes");
    assert_eq!(reads[0].start, reads[1].start, "in flight together");
}

/// Without the decision log, a redundant write still lands its two
/// columns — the data block and its mirror copy or its stripe's parity,
/// on different nodes — in one round: both writes are in service at the
/// same virtual instant.
#[test]
fn a_redundant_write_lands_its_columns_together() {
    for redundancy in [Redundancy::Mirror, Redundancy::parity()] {
        let collector = bridge_trace::TraceCollector::install();
        let mut config = BridgeConfig::paper(4);
        config.tracer = Some(collector.as_tracer());
        let (mut sim, machine) = BridgeMachine::build(&config);
        let server = machine.server;
        let (from, to) = sim.block_on(machine.frontend, "app", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let file = write_redundant(ctx, &mut bridge, redundancy, 8);
            let from = ctx.now();
            bridge.rand_write(ctx, file, 5, record(99, 5)).unwrap();
            (from, ctx.now())
        });
        let data = collector.take();
        let writes: Vec<_> = data
            .spans
            .iter()
            .filter(|s| s.name == "lfs.write" && s.start >= from && s.end <= to)
            .collect();
        assert_eq!(writes.len(), 2, "{redundancy:?}: data and its companion");
        assert_ne!(
            writes[0].pid, writes[1].pid,
            "{redundancy:?}: on different nodes"
        );
        assert_eq!(
            writes[0].start, writes[1].start,
            "{redundancy:?}: in flight together"
        );
    }
}

/// One parity overwrite with the named columns of its stripe failed, as
/// a client sees it: the write's result, then every block read back with
/// the columns still down — `n` the new record, `o` the old one, `E` an
/// error.
fn degraded_overwrite_transcript(lose_parity: bool, lose_data: bool) -> [String; 2] {
    const BLOCKS: u64 = 13;
    const TARGET: u64 = 4;
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let parity = Redundancy::parity();
        let file = write_redundant(ctx, &mut bridge, parity, BLOCKS);
        let info = bridge.open(ctx, file).unwrap();
        let Redundancy::Parity { group } = info.redundancy else {
            panic!("a parity file");
        };
        let layout = bridge_core::ParityLayout::grouped(info.nodes.len() as u32, group);
        let parity_node = layout.parity_position(layout.stripe_of(TARGET));
        let data_node = layout.data_position(TARGET);
        assert_ne!(parity_node, data_node);
        let lost: Vec<ProcId> = [(lose_parity, parity_node), (lose_data, data_node)]
            .into_iter()
            .filter(|&(lose, _)| lose)
            .map(|(_, node)| info.nodes[node as usize].proc)
            .collect();
        for node in lost {
            fail_node(ctx, node, true);
        }
        let written = bridge.rand_write(ctx, file, TARGET, record(99, TARGET));
        let read_back = (0..BLOCKS).map(|b| match bridge.rand_read(ctx, file, b) {
            Ok(d) if d[..96] == record(99, b)[..] => 'n',
            Ok(d) if d[..96] == record(parity.tag(), b)[..] => 'o',
            Ok(_) => '?',
            Err(_) => 'E',
        });
        [format!("{written:?}"), read_back.collect()]
    })
}

/// The overlapped reads keep the column-lost fallbacks of the serial
/// ones: each degraded variant tells a client exactly what it did on
/// the commit before the reads were overlapped (where these transcripts
/// were recorded).
#[test]
fn degraded_parity_overwrites_keep_their_transcripts() {
    let landed = ["Ok(())", "oooonoooooooo"];
    assert_eq!(degraded_overwrite_transcript(false, false), landed);
    // Parity column lost: the data lands alone.
    assert_eq!(degraded_overwrite_transcript(true, false), landed);
    // Data column lost: the parity absorbs the write (old data
    // reconstructed), and a degraded read finds the new record in it.
    assert_eq!(degraded_overwrite_transcript(false, true), landed);
    // Both reads come back `NodeFailed`: the write lands nowhere.
    assert_eq!(
        degraded_overwrite_transcript(true, true),
        ["Err(Lfs(NodeFailed))", "EEooEooEooEEo"]
    );
}

/// Successive parity files start on successive nodes, and their parity
/// layouts turn with the start: eight small parity files on a fresh
/// p = 8 machine put their first stripe's parity block on eight distinct
/// nodes, where an unturned layout put every one on the same node.
#[test]
fn successive_parity_files_spread_their_first_parity_block() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(8));
    let server = machine.server;
    let lfs = machine.lfs.clone();
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let files: Vec<BridgeFileId> = (0..8)
            .map(|_| write_redundant(ctx, &mut bridge, Redundancy::parity(), 1))
            .collect();
        let manifest = bridge.get_manifest(ctx).unwrap();
        let mut holders = std::collections::BTreeSet::new();
        for file in files {
            let entry = manifest.files.iter().find(|e| e.file == file).unwrap();
            let companion = entry.companion.expect("a parity companion");
            // One block written: stripe 0's parity is the only block of
            // the companion, on exactly one node.
            let mut client = bridge_efs::LfsClient::new();
            let holding: Vec<usize> = (0..lfs.len())
                .filter(|&n| {
                    let stat = client.call(ctx, lfs[n], LfsOp::Stat { file: companion });
                    matches!(stat, Ok(LfsData::Info(info)) if info.size == 1)
                })
                .collect();
            assert_eq!(holding.len(), 1, "{file:?}: one parity block");
            holders.insert(holding[0]);
        }
        assert_eq!(holders.len(), 8, "stripe 0's parity on {holders:?}");
    });
}

/// A parity file whose round-robin start is not 0 survives losing the
/// node that holds its turned stripe-0 parity: degraded reads, a spare,
/// a rebuild, then every block byte-exact and a clean four-pass pfsck.
#[test]
fn a_turned_parity_file_rebuilds_its_parity_node() {
    const BLOCKS: u64 = 13;
    const START: u32 = 3;
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    let pairs: Vec<_> = (machine.lfs.iter().copied())
        .zip(machine.lfs_nodes.iter().copied())
        .collect();
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let spec = CreateSpec {
            redundancy: Redundancy::parity(),
            placement: PlacementSpec::RoundRobinAt { start: START },
            ..CreateSpec::default()
        };
        let file = bridge.create(ctx, spec).unwrap();
        let tag = Redundancy::parity().tag();
        for b in 0..BLOCKS {
            bridge.seq_write(ctx, file, record(tag, b)).unwrap();
        }
        let info = bridge.open(ctx, file).unwrap();
        assert_eq!(info.placement, PlacementKind::RoundRobin { start: START });
        let layout = bridge_core::ParityLayout::new(4).starting_at(START);
        let victim = info.nodes[layout.parity_position(0) as usize].proc;
        assert_eq!(victim, pairs[START as usize].0, "the turned parity node");

        fail_node(ctx, victim, true);
        check_all(ctx, &mut bridge, file, tag, BLOCKS);
        fail_node(ctx, victim, false);
        assert!(bridge_efs::install_spare(ctx, victim), "spare racked in");
        let repaired = bridge.rebuild(ctx, file).unwrap();
        assert!(repaired > 0, "the spare's columns were rebuilt");
        check_all(ctx, &mut bridge, file, tag, BLOCKS);
        let options = bridge_tools::FsckOptions {
            server: Some(server),
            ..bridge_tools::FsckOptions::default()
        };
        let verdict = bridge_tools::pfsck(ctx, &pairs, &options).expect("pfsck");
        assert!(verdict.clean(), "{:?}", verdict.errors());
    });
}
