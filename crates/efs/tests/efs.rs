//! End-to-end tests of the Elementary File System: functional behaviour,
//! timing shape, persistence, and the LFS server protocol.

use bridge_efs::{
    Efs, EfsConfig, EfsError, LfsClient, LfsData, LfsFileId, LfsOp, WalConfig, EFS_PAYLOAD,
};
use parsim::{Ctx, SimConfig, SimDuration, Simulation};
use simdisk::{BlockAddr, DiskGeometry, DiskProfile, SimDisk};

fn small_geometry() -> DiskGeometry {
    DiskGeometry {
        block_size: 1024,
        blocks_per_track: 8,
        tracks: 512, // 4 MB: plenty for tests, fast to allocate
    }
}

fn fresh_efs(profile: DiskProfile) -> Efs {
    Efs::format(
        SimDisk::new(small_geometry(), profile),
        EfsConfig::default(),
    )
}

/// Runs `f` inside a simulated process with a freshly formatted EFS.
fn with_efs<R: Send + 'static>(
    profile: DiskProfile,
    f: impl FnOnce(&mut Ctx, &mut Efs) -> R + Send + 'static,
) -> R {
    let mut sim = Simulation::new(SimConfig::default());
    let node = sim.add_node("n");
    sim.block_on(node, "driver", move |ctx| {
        let mut efs = fresh_efs(profile);
        f(ctx, &mut efs)
    })
}

fn payload_for(file: u32, block: u32) -> Vec<u8> {
    let mut p = vec![0u8; EFS_PAYLOAD];
    for (i, b) in p.iter_mut().enumerate() {
        *b = (file as usize * 31 + block as usize * 7 + i) as u8;
    }
    p
}

#[test]
fn create_write_read_round_trip() {
    with_efs(DiskProfile::instant(), |ctx, efs| {
        let f = LfsFileId(1);
        efs.create(ctx, f).unwrap();
        for b in 0..50 {
            efs.write(ctx, f, b, &payload_for(1, b), None).unwrap();
        }
        for b in 0..50 {
            let (data, _) = efs.read(ctx, f, b, None).unwrap();
            assert_eq!(data, payload_for(1, b), "block {b}");
        }
        let info = efs.stat(ctx, f).unwrap();
        assert_eq!(info.size, 50);
        assert!(info.first.is_some() && info.last.is_some());
    });
}

#[test]
fn several_files_are_independent() {
    with_efs(DiskProfile::instant(), |ctx, efs| {
        for fno in 0..10u32 {
            efs.create(ctx, LfsFileId(fno)).unwrap();
        }
        // Interleave writes across files.
        for b in 0..20 {
            for fno in 0..10u32 {
                efs.write(ctx, LfsFileId(fno), b, &payload_for(fno, b), None)
                    .unwrap();
            }
        }
        for fno in 0..10u32 {
            for b in 0..20 {
                let (data, _) = efs.read(ctx, LfsFileId(fno), b, None).unwrap();
                assert_eq!(data, payload_for(fno, b), "file {fno} block {b}");
            }
        }
    });
}

#[test]
fn overwrite_in_place_preserves_links_and_size() {
    with_efs(DiskProfile::instant(), |ctx, efs| {
        let f = LfsFileId(3);
        efs.create(ctx, f).unwrap();
        for b in 0..10 {
            efs.write(ctx, f, b, &payload_for(3, b), None).unwrap();
        }
        efs.write(ctx, f, 4, b"REWRITTEN", None).unwrap();
        assert_eq!(efs.stat(ctx, f).unwrap().size, 10);
        let (data, _) = efs.read(ctx, f, 4, None).unwrap();
        assert_eq!(&data[..9], b"REWRITTEN");
        // Neighbors untouched, links intact.
        let (d3, _) = efs.read(ctx, f, 3, None).unwrap();
        let (d5, _) = efs.read(ctx, f, 5, None).unwrap();
        assert_eq!(d3, payload_for(3, 3));
        assert_eq!(d5, payload_for(3, 5));
    });
}

#[test]
fn error_cases_are_reported() {
    with_efs(DiskProfile::instant(), |ctx, efs| {
        let f = LfsFileId(9);
        assert!(matches!(
            efs.read(ctx, f, 0, None),
            Err(EfsError::UnknownFile(_))
        ));
        efs.create(ctx, f).unwrap();
        assert!(matches!(efs.create(ctx, f), Err(EfsError::FileExists(_))));
        assert!(matches!(
            efs.read(ctx, f, 0, None),
            Err(EfsError::BlockOutOfRange { .. })
        ));
        assert!(matches!(
            efs.write(ctx, f, 5, b"x", None),
            Err(EfsError::WriteBeyondEnd { .. })
        ));
        assert!(matches!(
            efs.write(ctx, f, 0, &vec![0u8; EFS_PAYLOAD + 1], None),
            Err(EfsError::PayloadTooLarge { .. })
        ));
        assert!(matches!(
            efs.delete(ctx, LfsFileId(1000)),
            Err(EfsError::UnknownFile(_))
        ));
    });
}

#[test]
fn delete_frees_blocks_for_reuse() {
    with_efs(DiskProfile::instant(), |ctx, efs| {
        let before = efs.free_blocks();
        let f = LfsFileId(5);
        efs.create(ctx, f).unwrap();
        for b in 0..30 {
            efs.write(ctx, f, b, &payload_for(5, b), None).unwrap();
        }
        assert_eq!(efs.free_blocks(), before - 30);
        let freed = efs.delete(ctx, f).unwrap();
        assert_eq!(freed, 30);
        assert_eq!(efs.free_blocks(), before);
        assert!(matches!(efs.stat(ctx, f), Err(EfsError::UnknownFile(_))));
        // The name can be reused.
        efs.create(ctx, f).unwrap();
        efs.write(ctx, f, 0, b"again", None).unwrap();
        assert_eq!(efs.stat(ctx, f).unwrap().size, 1);
    });
}

#[test]
fn disk_fills_up_and_recovers() {
    with_efs(DiskProfile::instant(), |ctx, efs| {
        let f = LfsFileId(1);
        efs.create(ctx, f).unwrap();
        let capacity = efs.free_blocks();
        for b in 0..capacity {
            efs.write(ctx, f, b, b"fill", None).unwrap();
        }
        assert_eq!(efs.free_blocks(), 0);
        assert!(matches!(
            efs.write(ctx, f, capacity, b"overflow", None),
            Err(EfsError::NoSpace)
        ));
        efs.delete(ctx, f).unwrap();
        assert_eq!(efs.free_blocks(), capacity);
    });
}

#[test]
fn hints_accelerate_random_access() {
    // Random access with a cold cache walks the list; a good hint makes the
    // walk short. This is the mechanism the Bridge Server exploits.
    let mut sim = Simulation::new(SimConfig::default());
    let node = sim.add_node("n");
    let (cold_steps, hinted_steps) = sim.block_on(node, "driver", |ctx| {
        let mut efs = Efs::format(
            SimDisk::new(small_geometry(), DiskProfile::instant()),
            EfsConfig {
                link_cache_capacity: 2, // effectively disable the cache
                ..EfsConfig::default()
            },
        );
        let f = LfsFileId(1);
        efs.create(ctx, f).unwrap();
        let mut addrs = Vec::new();
        for b in 0..200 {
            addrs.push(efs.write(ctx, f, b, &payload_for(1, b), None).unwrap());
        }
        let steps0 = efs.stats().walk_steps;
        // Cold random read in the middle: must walk from an end.
        efs.read(ctx, f, 100, None).unwrap();
        let cold = efs.stats().walk_steps - steps0;

        let steps1 = efs.stats().walk_steps;
        // Same neighborhood, but hint at the neighbor's address.
        efs.read(ctx, f, 103, Some(addrs[102])).unwrap();
        let hinted = efs.stats().walk_steps - steps1;
        (cold, hinted)
    });
    assert!(
        cold_steps >= 90,
        "cold mid-file access walks ~half: {cold_steps}"
    );
    assert!(
        hinted_steps <= 2,
        "hinted access walks ≤2 steps: {hinted_steps}"
    );
}

#[test]
fn sequential_read_costs_match_table2_shape() {
    // Amortized sequential read must be well under the 15ms positioning
    // delay (the paper reports ~9ms), and writes should be flat and larger.
    let mut sim = Simulation::new(SimConfig::default());
    let node = sim.add_node("n");
    let (read_avg, write_avg) = sim.block_on(node, "driver", |ctx| {
        let mut efs = fresh_efs(DiskProfile::wren());
        let f = LfsFileId(1);
        efs.create(ctx, f).unwrap();
        let n = 512u32;
        let t0 = ctx.now();
        for b in 0..n {
            efs.write(ctx, f, b, &payload_for(1, b), None).unwrap();
        }
        let t1 = ctx.now();
        for b in 0..n {
            efs.read(ctx, f, b, None).unwrap();
        }
        let t2 = ctx.now();
        ((t2 - t1) / u64::from(n), (t1 - t0) / u64::from(n))
    });
    assert!(
        read_avg < SimDuration::from_millis(12),
        "amortized sequential read {read_avg} should be well under positioning"
    );
    assert!(
        write_avg > read_avg,
        "writes ({write_avg}) cost more than reads ({read_avg})"
    );
    assert!(
        write_avg < SimDuration::from_millis(45),
        "append should stay O(1) disk ops: {write_avg}"
    );
}

#[test]
fn delete_time_is_constant_in_file_size() {
    // The Cronus resiliency remnant ("traverses the file sequentially,
    // explicitly freeing each block") is retired: delete is one
    // directory-bucket write plus an in-memory allocator update, so its
    // cost must not grow with the file.
    let time_delete = |blocks: u32| -> (SimDuration, u32) {
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("n");
        sim.block_on(node, "driver", move |ctx| {
            let mut efs = fresh_efs(DiskProfile::wren());
            let f = LfsFileId(1);
            efs.create(ctx, f).unwrap();
            for b in 0..blocks {
                efs.write(ctx, f, b, b"x", None).unwrap();
            }
            let free_before = efs.free_blocks();
            let t0 = ctx.now();
            let freed = efs.delete(ctx, f).unwrap();
            assert_eq!(freed, blocks);
            assert_eq!(efs.free_blocks(), free_before + blocks, "blocks reusable");
            (ctx.now() - t0, efs.disk().stats().writes as u32)
        })
    };
    let (t200, _) = time_delete(200);
    let (t400, _) = time_delete(400);
    let ratio = t400.as_secs_f64() / t200.as_secs_f64();
    assert!(
        (0.8..1.2).contains(&ratio),
        "delete must be O(1): t400/t200 = {ratio:.2}"
    );
    assert!(
        t400 < SimDuration::from_millis(80),
        "a 400-block delete costs one bucket write, not a traversal: {t400}"
    );
}

#[test]
fn sync_then_mount_preserves_files() {
    let mut sim = Simulation::new(SimConfig::default());
    let node = sim.add_node("n");
    sim.block_on(node, "driver", |ctx| {
        let mut efs = fresh_efs(DiskProfile::instant());
        let f = LfsFileId(77);
        efs.create(ctx, f).unwrap();
        for b in 0..25 {
            efs.write(ctx, f, b, &payload_for(77, b), None).unwrap();
        }
        efs.sync(ctx).unwrap();
        let free_before = efs.free_blocks();

        let disk = efs.into_disk();
        let mut efs2 = Efs::mount(disk, EfsConfig::default()).unwrap();
        assert_eq!(efs2.free_blocks(), free_before, "allocator state persisted");
        let info = efs2.stat(ctx, f).unwrap();
        assert_eq!(info.size, 25);
        for b in 0..25 {
            let (data, _) = efs2.read(ctx, f, b, None).unwrap();
            assert_eq!(data, payload_for(77, b));
        }
    });
}

/// The bucket addresses a formatted disk's superblock names: its third
/// and fourth little-endian words are `dir_start` and `dir_buckets`.
fn dir_buckets(disk: &SimDisk) -> Vec<BlockAddr> {
    let sb = disk.read_raw(BlockAddr::new(0)).expect("superblock");
    let word = |i: usize| u32::from_le_bytes(sb[4 * i..4 * i + 4].try_into().unwrap());
    (word(2)..word(2) + word(3)).map(BlockAddr::new).collect()
}

#[test]
fn format_shares_one_empty_bucket_and_a_write_replaces_only_its_slot() {
    let wal = EfsConfig {
        wal: WalConfig::standard(),
        ..EfsConfig::default()
    };
    for config in [EfsConfig::default(), wal] {
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("n");
        sim.block_on(node, "driver", move |ctx| {
            let disk = SimDisk::new(small_geometry(), DiskProfile::instant());
            let mut efs = Efs::format(disk, config);
            let buckets = dir_buckets(efs.disk());
            assert_eq!(buckets.len(), config.dir_buckets as usize);
            let image = efs.disk().read_raw(buckets[0]).unwrap();
            let (shared, empty) = (image.as_ptr(), image.to_vec());
            for &b in &buckets {
                let ptr = efs.disk().read_raw(b).unwrap().as_ptr();
                assert_eq!(ptr, shared, "bucket {b} holds its own copy");
            }

            let f = LfsFileId(5);
            efs.create(ctx, f).unwrap();
            efs.sync(ctx).unwrap();
            let written: Vec<_> = buckets
                .iter()
                .filter(|&&b| efs.disk().read_raw(b).unwrap() != &empty[..])
                .collect();
            assert_eq!(written.len(), 1, "one bucket takes the entry");
            let mut efs = Efs::mount(efs.into_disk(), config).unwrap();
            assert_eq!(efs.stat(ctx, f).unwrap().size, 0);
        });
    }
}

#[test]
fn mount_rejects_unformatted_or_garbage_disks() {
    let blank = SimDisk::new(small_geometry(), DiskProfile::instant());
    assert!(matches!(
        Efs::mount(blank, EfsConfig::default()),
        Err(EfsError::Corrupt(_))
    ));

    let mut garbage = SimDisk::new(small_geometry(), DiskProfile::instant());
    garbage.write_raw(BlockAddr::new(0), vec![0xAB; 1024].into());
    assert!(matches!(
        Efs::mount(garbage, EfsConfig::default()),
        Err(EfsError::Corrupt(_))
    ));
}

#[test]
fn fsck_clean_after_normal_use_and_rebuilds_allocator() {
    let mut sim = Simulation::new(SimConfig::default());
    let node = sim.add_node("n");
    sim.block_on(node, "driver", |ctx| {
        let mut efs = fresh_efs(DiskProfile::instant());
        for fno in 1..=3u32 {
            efs.create(ctx, LfsFileId(fno)).unwrap();
            for b in 0..10 {
                efs.write(ctx, LfsFileId(fno), b, &payload_for(fno, b), None)
                    .unwrap();
            }
        }
        efs.delete(ctx, LfsFileId(2)).unwrap();
        let free = efs.free_blocks();
        let report = efs.fsck();
        assert_eq!(report.files, 2);
        assert_eq!(report.blocks, 20);
        assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
        assert_eq!(efs.free_blocks(), free, "fsck agrees with the allocator");
    });
}

#[test]
fn fsck_detects_corrupted_block() {
    let mut sim = Simulation::new(SimConfig::default());
    let node = sim.add_node("n");
    sim.block_on(node, "driver", |ctx| {
        let mut efs = fresh_efs(DiskProfile::instant());
        let f = LfsFileId(1);
        efs.create(ctx, f).unwrap();
        let mut addrs = Vec::new();
        for b in 0..5 {
            addrs.push(efs.write(ctx, f, b, &payload_for(1, b), None).unwrap());
        }
        efs.sync(ctx).unwrap();
        // Corrupt block 2 behind the file system's back. A failure
        // anywhere ruins the file — the fault-intolerance the paper's
        // section 6 worries about.
        let disk = {
            // Reach the disk through fsck's raw path: rewrite the block.
            let addr = addrs[2];
            let mut raw = efs.disk().read_raw(addr).unwrap().to_vec();
            raw[8] ^= 0xFF; // flip a header byte (the block-number field)
                            // Re-inject via a fresh disk image.
            let mut disk = efs.into_disk();
            disk.write_raw(addr, raw.into());
            disk
        };
        let mut efs = Efs::mount(disk, EfsConfig::default()).unwrap();
        let report = efs.fsck();
        assert!(!report.errors.is_empty(), "corruption must surface in fsck");
        // And a timed read of that block fails too.
        assert!(matches!(
            efs.read(ctx, f, 2, None),
            Err(EfsError::Corrupt(_))
        ));
    });
}

#[test]
fn lfs_server_round_trips_via_protocol() {
    let mut sim = Simulation::new(SimConfig::default());
    let nodes = sim.add_nodes("n", 2);
    let efs = fresh_efs(DiskProfile::wren());
    let lfs = bridge_efs::spawn_lfs(&mut sim, nodes[0], "lfs0", efs);
    let payload = payload_for(8, 0);
    let expected = payload.clone();
    let got = sim.block_on(nodes[1], "client", move |ctx| {
        let mut client = LfsClient::new();
        let f = LfsFileId(8);
        client.call(ctx, lfs, LfsOp::Create { file: f }).unwrap();
        let addr = match client
            .call(
                ctx,
                lfs,
                LfsOp::Write {
                    file: f,
                    block: 0,
                    data: payload.into(),
                    hint: None,
                },
            )
            .unwrap()
        {
            LfsData::Written { addr } => addr,
            other => panic!("unexpected reply {other:?}"),
        };
        match client
            .call(
                ctx,
                lfs,
                LfsOp::Read {
                    file: f,
                    block: 0,
                    hint: Some(addr),
                },
            )
            .unwrap()
        {
            LfsData::Block { data, .. } => data,
            other => panic!("unexpected reply {other:?}"),
        }
    });
    assert_eq!(got, expected);
}

#[test]
fn lfs_client_pipelines_across_servers() {
    // One client drives two LFS instances concurrently; replies come back
    // out of order and are matched by id.
    let mut sim = Simulation::new(SimConfig::default());
    let n0 = sim.add_node("n0");
    let n1 = sim.add_node("n1");
    let nc = sim.add_node("client");
    let slow = bridge_efs::spawn_lfs(&mut sim, n0, "slow", fresh_efs(DiskProfile::wren()));
    let fast = bridge_efs::spawn_lfs(&mut sim, n1, "fast", fresh_efs(DiskProfile::instant()));
    let (elapsed, serial_estimate) = sim.block_on(nc, "client", move |ctx| {
        let mut client = LfsClient::new();
        let f = LfsFileId(1);
        // Create both files, pipelined.
        let id_slow = client.send(ctx, slow, LfsOp::Create { file: f });
        let id_fast = client.send(ctx, fast, LfsOp::Create { file: f });
        let t0 = ctx.now();
        client.wait(ctx, fast, id_fast).unwrap();
        let t_fast = ctx.now() - t0;
        client.wait(ctx, slow, id_slow).unwrap();
        let t_both = ctx.now() - t0;
        (t_both, t_fast + t_both)
    });
    assert!(
        elapsed < serial_estimate,
        "pipelining overlaps server work: {elapsed} vs {serial_estimate}"
    );
}

#[test]
fn errors_cross_the_protocol() {
    let mut sim = Simulation::new(SimConfig::default());
    let nodes = sim.add_nodes("n", 2);
    let lfs = bridge_efs::spawn_lfs(
        &mut sim,
        nodes[0],
        "lfs0",
        fresh_efs(DiskProfile::instant()),
    );
    let err = sim.block_on(nodes[1], "client", move |ctx| {
        let mut client = LfsClient::new();
        client
            .call(
                ctx,
                lfs,
                LfsOp::Read {
                    file: LfsFileId(404),
                    block: 0,
                    hint: None,
                },
            )
            .unwrap_err()
    });
    assert_eq!(err, EfsError::UnknownFile(LfsFileId(404)));
}
