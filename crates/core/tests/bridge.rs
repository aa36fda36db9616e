//! End-to-end tests of a whole Bridge machine: the naive view, the
//! parallel-open view, placements, disordered files, and the tool path.

use bridge_core::{
    BridgeClient, BridgeConfig, BridgeError, BridgeMachine, CreateSpec, FaultPlan, HealthSnapshot,
    JobWorker, MsgFaults, PlacementKind, PlacementSpec, BRIDGE_DATA,
};
use bridge_efs::{EfsError, LfsClient, LfsData, LfsOp};
use parsim::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

fn record(tag: u32, block: u64) -> Vec<u8> {
    let mut data = vec![0u8; 64];
    data[..4].copy_from_slice(&tag.to_le_bytes());
    data[4..12].copy_from_slice(&block.to_le_bytes());
    for (i, b) in data.iter_mut().enumerate().skip(12) {
        *b = (tag as usize + block as usize * 13 + i) as u8;
    }
    data
}

#[test]
fn naive_view_sequential_round_trip() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(5));
    let server = machine.server;
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = bridge.create(ctx, CreateSpec::default()).unwrap();
        for b in 0..40u64 {
            assert_eq!(bridge.seq_write(ctx, file, record(1, b)).unwrap(), b);
        }
        let info = bridge.open(ctx, file).unwrap();
        assert_eq!(info.size, 40);
        assert_eq!(info.nodes.len(), 5);
        // Round-robin spreads 40 blocks as 8 per node.
        for slice in &info.nodes {
            assert_eq!(slice.local_size, 8);
        }
        for b in 0..40u64 {
            let data = bridge.seq_read(ctx, file).unwrap().expect("in range");
            assert_eq!(&data[..64], &record(1, b)[..]);
            assert_eq!(data.len(), BRIDGE_DATA);
        }
        assert_eq!(bridge.seq_read(ctx, file).unwrap(), None, "EOF");
    });
}

#[test]
fn cursors_are_per_client() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(3));
    let server = machine.server;
    let node = machine.frontend;
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = bridge.create(ctx, CreateSpec::default()).unwrap();
        for b in 0..6u64 {
            bridge.seq_write(ctx, file, record(9, b)).unwrap();
        }
        bridge.open(ctx, file).unwrap();
        // Read two blocks here.
        bridge.seq_read(ctx, file).unwrap();
        bridge.seq_read(ctx, file).unwrap();

        // A second client starts at block 0 independently.
        let me = ctx.me();
        ctx.spawn(node, "other", move |c| {
            let mut b2 = BridgeClient::new(server);
            b2.open(c, file).unwrap();
            let first = b2.seq_read(c, file).unwrap().unwrap();
            c.send(me, first.to_vec());
        });
        let (_, first) = ctx.recv_as::<Vec<u8>>();
        assert_eq!(&first[..64], &record(9, 0)[..], "other client sees block 0");

        // Our cursor is unaffected: next is block 2.
        let mine = bridge.seq_read(ctx, file).unwrap().unwrap();
        assert_eq!(&mine[..64], &record(9, 2)[..]);
    });
}

#[test]
fn random_access_and_overwrite() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = bridge.create(ctx, CreateSpec::default()).unwrap();
        for b in 0..20u64 {
            bridge.seq_write(ctx, file, record(2, b)).unwrap();
        }
        // Random reads in arbitrary order.
        for &b in &[13u64, 0, 19, 7, 7, 1] {
            let data = bridge.rand_read(ctx, file, b).unwrap();
            assert_eq!(&data[..64], &record(2, b)[..]);
        }
        // Overwrite in the middle.
        bridge
            .rand_write(ctx, file, 13, b"patched".to_vec())
            .unwrap();
        let data = bridge.rand_read(ctx, file, 13).unwrap();
        assert_eq!(&data[..7], b"patched");
        // rand_write at size == append.
        bridge.rand_write(ctx, file, 20, record(2, 20)).unwrap();
        assert_eq!(bridge.open(ctx, file).unwrap().size, 21);
        // Out of range rejected.
        assert!(matches!(
            bridge.rand_read(ctx, file, 99),
            Err(BridgeError::BlockOutOfRange { .. })
        ));
        assert!(matches!(
            bridge.rand_write(ctx, file, 99, vec![0]),
            Err(BridgeError::BlockOutOfRange { .. })
        ));
    });
}

#[test]
fn delete_frees_all_columns() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = bridge.create(ctx, CreateSpec::default()).unwrap();
        for b in 0..25u64 {
            bridge.seq_write(ctx, file, record(3, b)).unwrap();
        }
        assert_eq!(bridge.delete(ctx, file).unwrap(), 25);
        assert!(matches!(
            bridge.open(ctx, file),
            Err(BridgeError::UnknownFile(_))
        ));
    });
}

#[test]
fn errors_surface_to_clients() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(2));
    let server = machine.server;
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        assert!(matches!(
            bridge.open(ctx, bridge_core::BridgeFileId(404)),
            Err(BridgeError::UnknownFile(_))
        ));
        let file = bridge.create(ctx, CreateSpec::default()).unwrap();
        assert!(matches!(
            bridge.seq_write(ctx, file, vec![0u8; BRIDGE_DATA + 1]),
            Err(BridgeError::DataTooLarge { .. })
        ));
        // Chunked without a size hint is the paper's chunking complaint.
        assert!(matches!(
            bridge.create(
                ctx,
                CreateSpec {
                    placement: PlacementSpec::Chunked,
                    ..CreateSpec::default()
                }
            ),
            Err(BridgeError::ChunkingNeedsSize)
        ));
        // Bad node subset.
        assert!(matches!(
            bridge.create(
                ctx,
                CreateSpec {
                    nodes: Some(vec![0, 7]),
                    ..CreateSpec::default()
                }
            ),
            Err(BridgeError::BadNodeSet { .. })
        ));
        // Empty worker list.
        assert!(matches!(
            bridge.parallel_open(ctx, file, vec![]),
            Err(BridgeError::EmptyWorkerList)
        ));
    });
}

/// Opening an unprotected file around a dead node must say the node is
/// dead — the caller can wait and retry that — not that the file is
/// corrupt.
#[test]
fn open_reports_the_lfs_error_not_corruption() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(3));
    let server = machine.server;
    let victim = machine.lfs[1];
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = bridge.create(ctx, CreateSpec::default()).unwrap();
        for b in 0..6u64 {
            bridge.seq_write(ctx, file, record(8, b)).unwrap();
        }
        bridge_efs::set_failed(ctx, victim, true);
        assert_eq!(
            bridge.open(ctx, file).unwrap_err(),
            BridgeError::Lfs(EfsError::NodeFailed)
        );
        bridge_efs::set_failed(ctx, victim, false);
        assert_eq!(bridge.open(ctx, file).unwrap().size, 6);
    });
}

#[test]
fn all_strict_placements_round_trip() {
    for placement in [
        PlacementSpec::RoundRobin,
        PlacementSpec::RoundRobinAt { start: 2 },
        PlacementSpec::Chunked,
        PlacementSpec::Hashed { seed: 5 },
    ] {
        let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
        let server = machine.server;
        sim.block_on(machine.frontend, "app", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let file = bridge
                .create(
                    ctx,
                    CreateSpec {
                        placement,
                        size_hint: Some(30),
                        ..CreateSpec::default()
                    },
                )
                .unwrap();
            for b in 0..30u64 {
                bridge.seq_write(ctx, file, record(4, b)).unwrap();
            }
            for &b in &[0u64, 29, 15, 7, 23] {
                let data = bridge.rand_read(ctx, file, b).unwrap();
                assert_eq!(&data[..64], &record(4, b)[..], "{placement:?} block {b}");
            }
            bridge.open(ctx, file).unwrap();
            for b in 0..30u64 {
                let data = bridge.seq_read(ctx, file).unwrap().unwrap();
                assert_eq!(&data[..64], &record(4, b)[..], "{placement:?} block {b}");
            }
        });
    }
}

#[test]
fn file_on_node_subset() {
    // The sort tool needs files "interleaved across 2^k processors".
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(8));
    let server = machine.server;
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = bridge
            .create(
                ctx,
                CreateSpec {
                    nodes: Some(vec![2, 5]),
                    ..CreateSpec::default()
                },
            )
            .unwrap();
        for b in 0..10u64 {
            bridge.seq_write(ctx, file, record(6, b)).unwrap();
        }
        let info = bridge.open(ctx, file).unwrap();
        assert_eq!(info.size, 10);
        assert_eq!(info.nodes.len(), 2);
        let indexes: Vec<u32> = info.nodes.iter().map(|s| s.index.0).collect();
        assert_eq!(indexes, vec![2, 5]);
        assert_eq!(info.nodes[0].local_size + info.nodes[1].local_size, 10);
        for b in 0..10u64 {
            let data = bridge.rand_read(ctx, file, b).unwrap();
            assert_eq!(&data[..64], &record(6, b)[..]);
        }
    });
}

#[test]
fn linked_files_round_trip_with_slow_random_access() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::paper(4));
    let server = machine.server;
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = bridge
            .create(
                ctx,
                CreateSpec {
                    placement: PlacementSpec::Linked,
                    ..CreateSpec::default()
                },
            )
            .unwrap();
        let n = 60u64;
        for b in 0..n {
            bridge.seq_write(ctx, file, record(7, b)).unwrap();
        }
        // Sequential read follows the chain at ~constant cost per block.
        bridge.open(ctx, file).unwrap();
        let t0 = ctx.now();
        for b in 0..n {
            let data = bridge.seq_read(ctx, file).unwrap().unwrap();
            assert_eq!(&data[..64], &record(7, b)[..]);
        }
        let seq_per_block = (ctx.now() - t0) / n;

        // Random access walks the chain: far slower per block.
        let t1 = ctx.now();
        let data = bridge.rand_read(ctx, file, n / 2).unwrap();
        assert_eq!(&data[..64], &record(7, n / 2)[..]);
        let rand_cost = ctx.now() - t1;
        assert!(
            rand_cost > seq_per_block * 5,
            "disordered random access ({rand_cost}) ≫ sequential per-block ({seq_per_block})"
        );
        // Parallel open is refused on linked files.
        let me = ctx.me();
        assert!(matches!(
            bridge.parallel_open(ctx, file, vec![me]),
            Err(BridgeError::LinkedUnsupported { .. })
        ));
    });
}

#[test]
fn parallel_open_reads_deliver_to_workers_in_order() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    let wnode = machine.frontend;
    sim.block_on(machine.frontend, "controller", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = bridge.create(ctx, CreateSpec::default()).unwrap();
        for b in 0..10u64 {
            bridge.seq_write(ctx, file, record(8, b)).unwrap();
        }
        // Spawn 4 workers that collect their deliveries and report back.
        let me = ctx.me();
        let mut workers = Vec::new();
        for i in 0..4 {
            workers.push(ctx.spawn(wnode, format!("w{i}"), move |c| {
                // Round 1..3: receive until a None arrives.
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
        // 10 blocks, 4 workers: rounds deliver 4, 4, 2.
        assert_eq!(bridge.job_read(ctx, job).unwrap(), (4, false));
        assert_eq!(bridge.job_read(ctx, job).unwrap(), (4, false));
        assert_eq!(bridge.job_read(ctx, job).unwrap(), (2, true));
        assert_eq!(bridge.job_read(ctx, job).unwrap(), (0, true));
        // Another read past EOF delivered None to every worker → they report.
        type StripeReport = (parsim::ProcId, Vec<(u64, Vec<u8>)>);
        let mut reports: Vec<StripeReport> = Vec::new();
        for _ in 0..4 {
            let (from, got) = ctx.recv_as::<Vec<(u64, Vec<u8>)>>();
            reports.push((from, got));
        }
        for (from, got) in reports {
            let widx = workers.iter().position(|&w| w == from).unwrap() as u64;
            let expected: Vec<u64> = (0..10).filter(|b| b % 4 == widx).collect();
            let blocks: Vec<u64> = got.iter().map(|(b, _)| *b).collect();
            assert_eq!(blocks, expected, "worker {widx} got its stripe in order");
            for (b, data) in got {
                assert_eq!(&data[..64], &record(8, b)[..]);
            }
        }
        bridge.job_close(ctx, job).unwrap();
        assert!(matches!(
            bridge.job_read(ctx, job),
            Err(BridgeError::UnknownJob(_))
        ));
    });
}

#[test]
fn virtual_parallelism_width_exceeds_breadth() {
    // "If the width of a parallel open is greater than p, the server will
    // perform groups of p disk accesses in parallel … Application programs
    // may thus be ignorant of the actual amount of interleaving."
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(2));
    let server = machine.server;
    let wnode = machine.frontend;
    sim.block_on(machine.frontend, "controller", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = bridge.create(ctx, CreateSpec::default()).unwrap();
        for b in 0..7u64 {
            bridge.seq_write(ctx, file, record(5, b)).unwrap();
        }
        let me = ctx.me();
        let workers: Vec<_> = (0..6)
            .map(|i| {
                ctx.spawn(wnode, format!("w{i}"), move |c| {
                    let mut got = Vec::new();
                    for _ in 0..2 {
                        let env = c.recv_where(|e| e.is::<bridge_core::JobDeliver>());
                        let d = env.downcast::<bridge_core::JobDeliver>().unwrap();
                        if let Some(data) = d.data {
                            got.push((d.block, data.to_vec()));
                        }
                    }
                    c.send(me, got);
                })
            })
            .collect();
        let job = bridge.parallel_open(ctx, file, workers).unwrap();
        // t=6 > p=2: first round delivers 6 (in 3 waves of 2), second 1.
        assert_eq!(bridge.job_read(ctx, job).unwrap(), (6, false));
        assert_eq!(bridge.job_read(ctx, job).unwrap(), (1, true));
        let mut total = 0;
        for _ in 0..6 {
            let (_, got) = ctx.recv_as::<Vec<(u64, Vec<u8>)>>();
            for (b, data) in &got {
                assert_eq!(&data[..64], &record(5, *b)[..]);
            }
            total += got.len();
        }
        assert_eq!(total, 7, "all blocks delivered exactly once");
    });
}

#[test]
fn parallel_write_gathers_from_workers() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(3));
    let server = machine.server;
    let wnode = machine.frontend;
    sim.block_on(machine.frontend, "controller", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let file = bridge.create(ctx, CreateSpec::default()).unwrap();
        let me = ctx.me();
        // Each worker supplies 3 blocks, then None.
        let workers: Vec<_> = (0..3u32)
            .map(|i| {
                ctx.spawn(wnode, format!("w{i}"), move |c| {
                    // Learn the job id from the controller.
                    let (_, job) = c.recv_as::<bridge_core::JobId>();
                    let worker = JobWorker::new(job);
                    for round in 0..3u64 {
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
        // Three full rounds of 3, then a round of 0.
        assert_eq!(bridge.job_write(ctx, job).unwrap(), 3);
        assert_eq!(bridge.job_write(ctx, job).unwrap(), 3);
        assert_eq!(bridge.job_write(ctx, job).unwrap(), 3);
        assert_eq!(bridge.job_write(ctx, job).unwrap(), 0);
        for _ in 0..3 {
            ctx.recv_as::<()>();
        }
        // Verify layout: round r wrote workers 0,1,2 at blocks 3r,3r+1,3r+2.
        let info = bridge.open(ctx, file).unwrap();
        assert_eq!(info.size, 9);
        for b in 0..9u64 {
            let data = bridge.rand_read(ctx, file, b).unwrap();
            assert_eq!(&data[..64], &record((b % 3) as u32, b / 3)[..]);
        }
    });
}

#[test]
fn tool_path_reads_lfs_directly() {
    // A minimal "tool": Get Info + Open, then read one column directly
    // from its LFS, bypassing the server.
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    sim.block_on(machine.frontend, "tool", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let info = bridge.get_info(ctx).unwrap();
        assert_eq!(info.breadth, 4);
        assert_eq!(info.lfs.len(), 4);

        let file = bridge.create(ctx, CreateSpec::default()).unwrap();
        for b in 0..16u64 {
            bridge.seq_write(ctx, file, record(11, b)).unwrap();
        }
        let open = bridge.open(ctx, file).unwrap();
        let PlacementKind::RoundRobin { start } = open.placement else {
            panic!("default placement is round-robin");
        };

        // Read column of machine LFS index = position 1.
        let slice = open.nodes[1];
        let mut lfs = LfsClient::new();
        for local in 0..slice.local_size {
            match lfs
                .call(
                    ctx,
                    slice.proc,
                    LfsOp::Read {
                        file: open.lfs_file,
                        block: local,
                        hint: None,
                    },
                )
                .unwrap()
            {
                LfsData::Block { data, .. } => {
                    let (header, body) = bridge_core::decode_payload(&data).unwrap();
                    // Global block of (position 1, local): the paper's
                    // translation between global and local names.
                    let p = 4u64;
                    let expected_global = u64::from(local) * p + ((1 + p - u64::from(start)) % p);
                    assert_eq!(header.global_block, expected_global);
                    assert_eq!(&body[..64], &record(11, expected_global)[..]);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    });
}

#[test]
fn create_cost_grows_linearly_and_open_is_flat() {
    // Table 2 shapes: Create = a + b·p (serial initiation), Open ≈ flat.
    let cost = |p: u32| -> (SimDuration, SimDuration) {
        let config = BridgeConfig::paper(p).with_serial_create();
        let (mut sim, machine) = BridgeMachine::build(&config);
        let server = machine.server;
        sim.block_on(machine.frontend, "app", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let t0 = ctx.now();
            let file = bridge.create(ctx, CreateSpec::default()).unwrap();
            let t1 = ctx.now();
            bridge.seq_write(ctx, file, vec![1]).unwrap();
            let t2 = ctx.now();
            bridge.open(ctx, file).unwrap();
            (t1 - t0, ctx.now() - t2)
        })
    };
    let (create4, open4) = cost(4);
    let (create16, open16) = cost(16);
    let slope = (create16.as_millis_f64() - create4.as_millis_f64()) / 12.0;
    assert!(slope > 5.0, "create grows with p: slope {slope:.1} ms/node");
    let open_ratio = open16.as_millis_f64() / open4.as_millis_f64();
    assert!(
        open_ratio < 1.8,
        "open stays roughly flat: {open4} → {open16}"
    );
}

#[test]
fn tree_create_is_correct_and_faster_at_scale() {
    // The paper's §4.5 suggestion: "performance could be improved somewhat
    // by sending startup and completion messages through an embedded
    // binary tree."
    let create_time = |arity: u32| -> (SimDuration, u64) {
        let mut config = BridgeConfig::paper(32);
        config.server.create_arity = arity;
        let (mut sim, machine) = BridgeMachine::build(&config);
        let server = machine.server;
        sim.block_on(machine.frontend, "app", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let t0 = ctx.now();
            let file = bridge.create(ctx, CreateSpec::default()).unwrap();
            let elapsed = ctx.now() - t0;
            // The file must be fully usable either way.
            for b in 0..64u64 {
                bridge.seq_write(ctx, file, record(15, b)).unwrap();
            }
            let size = bridge.open(ctx, file).unwrap().size;
            for b in 0..64u64 {
                let data = bridge.rand_read(ctx, file, b).unwrap();
                assert_eq!(&data[..64], &record(15, b)[..]);
            }
            (elapsed, size)
        })
    };
    let (serial, size_a) = create_time(bridge_core::SERIAL_ARITY);
    let (tree, size_b) = create_time(2);
    assert_eq!(size_a, 64);
    assert_eq!(size_b, 64);
    assert!(
        tree.as_secs_f64() * 2.0 < serial.as_secs_f64(),
        "tree create ({tree}) should clearly beat serial ({serial}) at p=32"
    );
}

#[test]
fn naive_interface_is_breadth_agnostic() {
    // The same program works unchanged at any interleaving breadth.
    for p in [1u32, 2, 3, 7, 16] {
        let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(p));
        let server = machine.server;
        sim.block_on(machine.frontend, "app", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let file = bridge.create(ctx, CreateSpec::default()).unwrap();
            for b in 0..17u64 {
                bridge.seq_write(ctx, file, record(p, b)).unwrap();
            }
            bridge.open(ctx, file).unwrap();
            for b in 0..17u64 {
                let data = bridge.seq_read(ctx, file).unwrap().unwrap();
                assert_eq!(&data[..64], &record(p, b)[..], "p={p} block {b}");
            }
            assert_eq!(bridge.seq_read(ctx, file).unwrap(), None);
        });
    }
}

/// The server's retransmit count must reach an observer that never asks
/// for it: the sampler and a host-side `registry.snapshot` read the same
/// `lfs_resends` a closing `GetHealth` reports, and the retry-storm rule
/// fires in exactly the sampled frames at or past its threshold.
#[test]
fn out_of_band_observers_see_lfs_resends() {
    let config = BridgeConfig::paper(4).with_faults(FaultPlan {
        seed: 0x5707,
        msg: MsgFaults {
            drop_per_mille: 150,
            max_consecutive_drops: 4,
            ..MsgFaults::default()
        },
        ..FaultPlan::none()
    });
    let (mut sim, machine) = BridgeMachine::build(&config);
    let registry = machine.telemetry.clone().expect("paper machines are armed");
    let storm = registry.watchdog().retry_storm_resends;
    let frames: Rc<RefCell<Vec<HealthSnapshot>>> = Rc::default();
    {
        let (frames, registry) = (Rc::clone(&frames), registry.clone());
        sim.set_sampler(SimDuration::from_millis(100), move |at, stats| {
            frames
                .borrow_mut()
                .push(registry.snapshot(at, Some(*stats)));
        });
    }
    let (server, retry) = (machine.server, config.server.lfs_retry);
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::with_retry(server, retry);
        let file = bridge.create(ctx, CreateSpec::default()).unwrap();
        for b in 0..48u64 {
            bridge.seq_write(ctx, file, record(16, b)).unwrap();
        }
        bridge.open(ctx, file).unwrap();
        while bridge.seq_read(ctx, file).unwrap().is_some() {}
    });
    sim.clear_sampler();
    let seen = registry.snapshot(sim.now(), None);
    assert!(
        seen.server.lfs_resends >= storm,
        "the drop plan forced {} retransmits, under the storm threshold",
        seen.server.lfs_resends
    );
    let stormy = |h: &HealthSnapshot| h.alerts.iter().any(|a| a.rule.name() == "retry-storm");
    let frames = frames.take();
    assert!(frames.iter().any(|f| !stormy(f)), "the run starts calm");
    for f in frames.iter().chain([&seen]) {
        assert_eq!(
            stormy(f),
            f.server.lfs_resends >= storm,
            "frame at {}",
            f.at
        );
    }

    let closing = sim.block_on(machine.frontend, "closing", move |ctx| {
        BridgeClient::with_retry(server, retry)
            .get_health(ctx)
            .unwrap()
    });
    assert_eq!(closing.server.lfs_resends, seen.server.lfs_resends);
}
