//! End-to-end tests of the Bridge tools: copy, filters, scan tools, and
//! the two-phase parallel merge sort.

use bridge_core::{
    BridgeClient, BridgeConfig, BridgeFileId, BridgeMachine, CreateSpec, PlacementSpec, BRIDGE_DATA,
};
use bridge_tools::{
    copy, copy_with, grep, key_of, sort, summarize, transforms, SortOptions, ToolError, ToolOptions,
};
use parsim::{Ctx, SimDuration};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A record whose first 8 bytes are a big-endian key.
fn keyed_record(key: u64, salt: u8) -> Vec<u8> {
    let mut data = vec![0u8; 128];
    data[..8].copy_from_slice(&key.to_be_bytes());
    for (i, b) in data.iter_mut().enumerate().skip(8) {
        *b = salt.wrapping_add(i as u8);
    }
    data
}

fn write_file(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    records: &[Vec<u8>],
    spec: CreateSpec,
) -> BridgeFileId {
    let file = bridge.create(ctx, spec).unwrap();
    for r in records {
        bridge.seq_write(ctx, file, r.clone()).unwrap();
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

fn pad(mut v: Vec<u8>) -> Vec<u8> {
    v.resize(BRIDGE_DATA, 0);
    v
}

#[test]
fn copy_preserves_content_and_placement() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(5));
    let server = machine.server;
    sim.block_on(machine.frontend, "tool", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let records: Vec<Vec<u8>> = (0..33).map(|i| keyed_record(i, 7)).collect();
        let src = write_file(ctx, &mut bridge, &records, CreateSpec::default());
        let (dst, stats) = copy(ctx, &mut bridge, src, &ToolOptions::default()).unwrap();
        assert_eq!(stats.blocks, 33);
        assert_ne!(src, dst);
        let src_open = bridge.open(ctx, src).unwrap();
        let dst_open = bridge.open(ctx, dst).unwrap();
        assert_eq!(src_open.placement, dst_open.placement);
        assert_eq!(dst_open.size, 33);
        let got = read_all(ctx, &mut bridge, dst);
        for (i, block) in got.iter().enumerate() {
            assert_eq!(block, &pad(records[i].clone()), "block {i}");
        }
        // Source unharmed.
        let again = read_all(ctx, &mut bridge, src);
        assert_eq!(again.len(), 33);
    });
}

#[test]
fn copy_works_for_chunked_and_hashed_placements() {
    for placement in [PlacementSpec::Chunked, PlacementSpec::Hashed { seed: 3 }] {
        let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
        let server = machine.server;
        sim.block_on(machine.frontend, "tool", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let records: Vec<Vec<u8>> = (0..24).map(|i| keyed_record(i, 1)).collect();
            let src = write_file(
                ctx,
                &mut bridge,
                &records,
                CreateSpec {
                    placement,
                    size_hint: Some(24),
                    ..CreateSpec::default()
                },
            );
            let (dst, _) = copy(ctx, &mut bridge, src, &ToolOptions::default()).unwrap();
            let got = read_all(ctx, &mut bridge, dst);
            assert_eq!(got.len(), 24, "{placement:?}");
            for (i, block) in got.iter().enumerate() {
                assert_eq!(block, &pad(records[i].clone()), "{placement:?} block {i}");
            }
        });
    }
}

#[test]
fn copy_tool_shows_parallel_speedup() {
    // Table 3's shape: same file size, more nodes, near-linear speedup.
    let time_copy = |p: u32, blocks: u64| -> f64 {
        let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::paper(p));
        let server = machine.server;
        sim.block_on(machine.frontend, "tool", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let records: Vec<Vec<u8>> = (0..blocks).map(|i| keyed_record(i, 0)).collect();
            let src = write_file(ctx, &mut bridge, &records, CreateSpec::default());
            let (_, stats) = copy(ctx, &mut bridge, src, &ToolOptions::default()).unwrap();
            stats.elapsed.as_secs_f64()
        })
    };
    let t2 = time_copy(2, 256);
    let t8 = time_copy(8, 256);
    let speedup = t2 / t8;
    assert!(
        speedup > 3.0,
        "2→8 nodes should speed copy up ~4x, got {speedup:.2} ({t2:.2}s → {t8:.2}s)"
    );
}

#[test]
fn filters_transform_every_block() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(3));
    let server = machine.server;
    sim.block_on(machine.frontend, "tool", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let records: Vec<Vec<u8>> = (0..9)
            .map(|i| format!("Hello World {i}! 123").into_bytes())
            .collect();
        let src = write_file(ctx, &mut bridge, &records, CreateSpec::default());

        // ROT13 twice is the identity.
        let (once, _) = copy_with(
            ctx,
            &mut bridge,
            src,
            transforms::rot13(),
            &ToolOptions::default(),
        )
        .unwrap();
        let (twice, _) = copy_with(
            ctx,
            &mut bridge,
            once,
            transforms::rot13(),
            &ToolOptions::default(),
        )
        .unwrap();
        let round_trip = read_all(ctx, &mut bridge, twice);
        for (i, block) in round_trip.iter().enumerate() {
            assert_eq!(block, &pad(records[i].clone()), "rot13∘rot13 block {i}");
        }
        let shifted = read_all(ctx, &mut bridge, once);
        assert_eq!(&shifted[0][..5], b"Uryyb", "rot13 applied");

        // XOR cipher: decrypt(encrypt(x)) == x, and ciphertext differs.
        let key = vec![0x5a, 0xa5, 0x3c];
        let (enc, _) = copy_with(
            ctx,
            &mut bridge,
            src,
            transforms::xor_cipher(key.clone()),
            &ToolOptions::default(),
        )
        .unwrap();
        let ciphertext = read_all(ctx, &mut bridge, enc);
        assert_ne!(&ciphertext[0][..5], b"Hello");
        let (dec, _) = copy_with(
            ctx,
            &mut bridge,
            enc,
            transforms::xor_cipher(key),
            &ToolOptions::default(),
        )
        .unwrap();
        let plaintext = read_all(ctx, &mut bridge, dec);
        for (i, block) in plaintext.iter().enumerate() {
            assert_eq!(block, &pad(records[i].clone()), "xor round trip block {i}");
        }

        // Lexical classifier.
        let (lexed, _) = copy_with(
            ctx,
            &mut bridge,
            src,
            transforms::lex_classes(80),
            &ToolOptions::default(),
        )
        .unwrap();
        let classes = read_all(ctx, &mut bridge, lexed);
        assert_eq!(&classes[0][..13], b"AAAAA_AAAAA_0");
    });
}

#[test]
fn grep_finds_all_matches_in_order() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    sim.block_on(machine.frontend, "tool", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let mut records = Vec::new();
        for i in 0..20u64 {
            let text = if i % 3 == 0 {
                format!("block {i} has NEEDLE inside; NEEDLE twice")
            } else {
                format!("block {i} is hay")
            };
            records.push(text.into_bytes());
        }
        let file = write_file(ctx, &mut bridge, &records, CreateSpec::default());
        let hits = grep(
            ctx,
            &mut bridge,
            file,
            b"NEEDLE".to_vec(),
            &ToolOptions::default(),
        )
        .unwrap();
        let expected_blocks: Vec<u64> = (0..20).filter(|i| i % 3 == 0).collect();
        assert_eq!(
            hits.len(),
            expected_blocks.len() * 2,
            "two hits per match block"
        );
        let mut sorted = hits.clone();
        sorted.sort();
        assert_eq!(hits, sorted, "matches come back ordered");
        for h in &hits {
            assert!(expected_blocks.contains(&h.global_block));
        }
        // No matches → empty.
        let none = grep(
            ctx,
            &mut bridge,
            file,
            b"ABSENT".to_vec(),
            &ToolOptions::default(),
        )
        .unwrap();
        assert!(none.is_empty());
    });
}

#[test]
fn summarize_matches_copy_checksums() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    sim.block_on(machine.frontend, "tool", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let records: Vec<Vec<u8>> = (0..17).map(|i| keyed_record(i * 3, 9)).collect();
        let src = write_file(ctx, &mut bridge, &records, CreateSpec::default());
        let (dst, _) = copy(ctx, &mut bridge, src, &ToolOptions::default()).unwrap();
        let a = summarize(ctx, &mut bridge, src, &ToolOptions::default()).unwrap();
        let b = summarize(ctx, &mut bridge, dst, &ToolOptions::default()).unwrap();
        assert_eq!(a, b, "copy preserves the summary");
        assert_eq!(a.blocks, 17);
        assert_eq!(a.data_bytes, 17 * 960);
        assert_eq!(a.min_key, key_of(&records[0]));
        assert_eq!(a.max_key, key_of(&records[16]));

        // A filter changes the checksum.
        let (enc, _) = copy_with(
            ctx,
            &mut bridge,
            src,
            transforms::xor_cipher(vec![0xff]),
            &ToolOptions::default(),
        )
        .unwrap();
        let c = summarize(ctx, &mut bridge, enc, &ToolOptions::default()).unwrap();
        assert_ne!(a.checksum, c.checksum);
    });
}

// ---------------------------------------------------------------------
// Sort tool.

fn run_sort_case(p: u32, keys: Vec<u64>, opts: SortOptions) {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(p));
    let server = machine.server;
    sim.block_on(machine.frontend, "tool", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let records: Vec<Vec<u8>> = keys.iter().map(|&k| keyed_record(k, 1)).collect();
        let src = write_file(ctx, &mut bridge, &records, CreateSpec::default());
        let (out, stats) = sort(ctx, &mut bridge, src, &opts).unwrap();
        assert_eq!(stats.records, keys.len() as u64);

        let got = read_all(ctx, &mut bridge, out);
        assert_eq!(got.len(), keys.len());
        let mut expected = keys.clone();
        expected.sort_unstable();
        for (i, block) in got.iter().enumerate() {
            let key = u64::from_be_bytes(block[..8].try_into().unwrap());
            assert_eq!(key, expected[i], "position {i}");
            // Payload must be the record with that key, intact.
            assert_eq!(block, &pad(keyed_record(key, 1)), "payload {i}");
        }
        // Source intact.
        assert_eq!(bridge.open(ctx, src).unwrap().size, keys.len() as u64);
    });
}

fn shuffled_keys(n: u64, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut keys: Vec<u64> = (0..n).map(|i| i * 3 % 1000).collect(); // duplicates included
    for i in (1..keys.len()).rev() {
        let j = rng.random_range(0..=i);
        keys.swap(i, j);
    }
    keys
}

#[test]
fn sort_small_in_core_only() {
    // Columns fit in core: zero local merge passes.
    run_sort_case(
        4,
        shuffled_keys(40, 1),
        SortOptions {
            in_core_records: 512,
            ..SortOptions::default()
        },
    );
}

#[test]
fn sort_with_local_merge_passes() {
    // Tiny in-core buffer forces run spills and 2-way merge passes.
    run_sort_case(
        4,
        shuffled_keys(120, 2),
        SortOptions {
            in_core_records: 8,
            ..SortOptions::default()
        },
    );
}

#[test]
fn sort_multiway_local_merge() {
    run_sort_case(
        4,
        shuffled_keys(120, 3),
        SortOptions {
            in_core_records: 8,
            local_merge_arity: u32::MAX,
            ..SortOptions::default()
        },
    );
}

#[test]
fn sort_non_power_of_two_breadth() {
    // Odd p exercises the bye path in the merge pairing.
    run_sort_case(5, shuffled_keys(97, 4), SortOptions::default());
    run_sort_case(3, shuffled_keys(31, 5), SortOptions::default());
}

#[test]
fn sort_degenerate_inputs() {
    // Already sorted, reverse sorted, all-equal keys, single block, p=1.
    run_sort_case(4, (0..50).collect(), SortOptions::default());
    run_sort_case(4, (0..50).rev().collect(), SortOptions::default());
    run_sort_case(4, vec![7; 40], SortOptions::default());
    run_sort_case(4, vec![42], SortOptions::default());
    run_sort_case(1, shuffled_keys(20, 6), SortOptions::default());
}

#[test]
fn sort_empty_file() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    sim.block_on(machine.frontend, "tool", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let src = bridge.create(ctx, CreateSpec::default()).unwrap();
        let (out, stats) = sort(ctx, &mut bridge, src, &SortOptions::default()).unwrap();
        assert_eq!(stats.records, 0);
        assert_eq!(bridge.open(ctx, out).unwrap().size, 0);
    });
}

#[test]
fn sort_phase_times_and_pass_counts_are_reported() {
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::paper(4));
    let server = machine.server;
    let stats = sim.block_on(machine.frontend, "tool", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let records: Vec<Vec<u8>> = shuffled_keys(128, 9)
            .iter()
            .map(|&k| keyed_record(k, 2))
            .collect();
        let src = write_file(ctx, &mut bridge, &records, CreateSpec::default());
        let (_, stats) = sort(
            ctx,
            &mut bridge,
            src,
            &SortOptions {
                in_core_records: 8, // 32 records/column → 4 runs → 2 passes
                ..SortOptions::default()
            },
        )
        .unwrap();
        stats
    });
    assert_eq!(stats.records, 128);
    assert_eq!(stats.merge_passes, 2, "log2(4) merge passes");
    assert_eq!(stats.local_merge_passes, 2, "4 runs → 2 binary passes");
    assert!(!stats.local_sort.is_zero());
    assert!(!stats.merge.is_zero());
    assert!(stats.total >= stats.local_sort + stats.merge);
}

#[test]
fn sort_scratch_files_are_cleaned_up() {
    // After sorting, only the source and output remain (phase-1 files and
    // scratch runs are deleted), so a second sort can run immediately.
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(2));
    let server = machine.server;
    sim.block_on(machine.frontend, "tool", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let records: Vec<Vec<u8>> = shuffled_keys(64, 11)
            .iter()
            .map(|&k| keyed_record(k, 3))
            .collect();
        let src = write_file(ctx, &mut bridge, &records, CreateSpec::default());
        let (out1, _) = sort(
            ctx,
            &mut bridge,
            src,
            &SortOptions {
                in_core_records: 8,
                ..SortOptions::default()
            },
        )
        .unwrap();
        let (out2, _) = sort(ctx, &mut bridge, src, &SortOptions::default()).unwrap();
        let a = read_all(ctx, &mut bridge, out1);
        let b = read_all(ctx, &mut bridge, out2);
        assert_eq!(a, b, "two sorts of the same file agree");
    });
}

#[test]
fn sort_reports_a_node_lost_mid_merge_and_the_machine_goes_on() {
    // One LFS fail-stops while the token merge is running. The readers
    // and writers on it meet `NodeFailed`; the sort must stop its merge
    // networks and return that error — not panic, not hang — and the
    // surviving nodes must go on serving other tools.
    let run = |fail_at: Option<SimDuration>| {
        let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::paper(4));
        let server = machine.server;
        let victim = machine.lfs[3];
        if let Some(at) = fail_at {
            sim.spawn(machine.frontend, "saboteur", move |ctx| {
                ctx.delay(at);
                bridge_efs::set_failed(ctx, victim, true);
            });
        }
        sim.block_on(machine.frontend, "tool", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let records: Vec<Vec<u8>> = shuffled_keys(64, 12)
                .iter()
                .map(|&k| keyed_record(k, 5))
                .collect();
            let src = write_file(ctx, &mut bridge, &records, CreateSpec::default());
            let survivors = CreateSpec {
                nodes: Some(vec![0, 1, 2]),
                ..CreateSpec::default()
            };
            let other = write_file(ctx, &mut bridge, &records[..21], survivors);
            let sorted = sort(ctx, &mut bridge, src, &SortOptions::default());
            let end = ctx.now();
            let (copied, stats) = copy(ctx, &mut bridge, other, &ToolOptions::default()).unwrap();
            assert_eq!(stats.blocks, 21);
            assert_eq!(
                read_all(ctx, &mut bridge, copied),
                read_all(ctx, &mut bridge, other)
            );
            (sorted.map(|(_, stats)| stats), end)
        })
    };
    let (fault_free, end) = run(None);
    let stats = fault_free.expect("the fault-free sort succeeds");
    assert_eq!(stats.merge_passes, 2);
    // Sixteen instants across the merge phase: the local sorts have
    // ended, and the node goes while a pass's networks are passing
    // tokens or — between passes — while the server is creating the next
    // pass's files on it.
    let end = end.duration_since(parsim::SimTime::ZERO);
    for sixteenths in 1..=16 {
        let (faulted, _) = run(Some(end - stats.merge * sixteenths / 16));
        let err = faulted.expect_err("a lost node fails the sort");
        let failed = bridge_efs::EfsError::NodeFailed;
        assert!(
            err == ToolError::Lfs(failed.clone())
                || err == ToolError::Bridge(bridge_core::BridgeError::Lfs(failed)),
            "{sixteenths}/16 before the end: {err:?}"
        );
    }
    // A quarter of the way in, the first pass's networks are running.
    let (faulted, _) = run(Some(end - stats.merge * 3 / 4));
    assert_eq!(
        faulted.unwrap_err(),
        ToolError::Lfs(bridge_efs::EfsError::NodeFailed)
    );
}

#[test]
fn copy_tool_preserves_redundancy_mode() {
    use bridge_core::Redundancy;
    let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
    let server = machine.server;
    let victim = machine.lfs[3];
    sim.block_on(machine.frontend, "app", move |ctx| {
        let mut bridge = BridgeClient::new(server);
        let blocks = 16u64;
        let file = bridge
            .create(
                ctx,
                CreateSpec {
                    redundancy: Redundancy::Mirror,
                    ..CreateSpec::default()
                },
            )
            .unwrap();
        let records: Vec<Vec<u8>> = (0..blocks).map(|i| keyed_record(i, 4)).collect();
        for r in &records {
            bridge.seq_write(ctx, file, r.clone()).unwrap();
        }
        let (dup, _) = copy(ctx, &mut bridge, file, &ToolOptions::default()).unwrap();
        let info = bridge.open(ctx, dup).unwrap();
        assert_eq!(info.redundancy, Redundancy::Mirror);
        // ecopy writes data columns directly; the tool then asks the
        // server to derive the mirror columns, so the copy survives a
        // node failure just like its source.
        bridge_efs::set_failed(ctx, victim, true);
        for b in 0..blocks {
            let data = bridge.rand_read(ctx, dup, b).unwrap();
            assert_eq!(
                &data[..136],
                &pad(records[b as usize].clone())[..136],
                "block {b}"
            );
        }
    });
}

#[test]
fn batched_tools_match_unbatched() {
    use bridge_core::BatchPolicy;
    // Every tool, run with run-batched column streams, must produce exactly
    // what the block-at-a-time protocol produces.
    let records: Vec<Vec<u8>> = (0..61)
        .map(|i| keyed_record((i * 7) % 23, i as u8))
        .collect();
    let run = |batch: BatchPolicy| {
        let records = records.clone();
        let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
        let server = machine.server;
        sim.block_on(machine.frontend, "tool", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let src = write_file(ctx, &mut bridge, &records, CreateSpec::default());
            let opts = ToolOptions {
                batch,
                ..ToolOptions::default()
            };
            let (copied, stats) = copy(ctx, &mut bridge, src, &opts).unwrap();
            assert_eq!(stats.blocks, 61);
            let copy_out = read_all(ctx, &mut bridge, copied);
            let hits = grep(ctx, &mut bridge, src, b"\x00\x00\x00\x07".to_vec(), &opts).unwrap();
            let summary = summarize(ctx, &mut bridge, src, &opts).unwrap();
            let sort_opts = SortOptions {
                in_core_records: 8,
                tool: opts,
                ..SortOptions::default()
            };
            let (sorted, sstats) = sort(ctx, &mut bridge, src, &sort_opts).unwrap();
            assert_eq!(sstats.records, 61);
            let sort_out = read_all(ctx, &mut bridge, sorted);
            (copy_out, hits, summary, sort_out)
        })
    };
    let baseline = run(BatchPolicy::Off);
    for depth in [2u32, 8, 32] {
        assert_eq!(run(BatchPolicy::Runs(depth)), baseline, "depth {depth}");
    }
    // And the baseline is right: copy preserves, sort orders by key (the
    // parallel sort is not stable, so only keys are comparable).
    assert_eq!(
        baseline.0,
        records.iter().cloned().map(pad).collect::<Vec<_>>()
    );
    let got_keys: Vec<[u8; 8]> = baseline.3.iter().map(|r| key_of(r)).collect();
    let mut expected_keys: Vec<[u8; 8]> = records.iter().map(|r| key_of(r)).collect();
    expected_keys.sort_unstable();
    assert_eq!(got_keys, expected_keys);
}

#[test]
fn batched_copy_sends_fewer_messages() {
    use bridge_core::BatchPolicy;
    // The headline batching claim at tool level: one LFS round trip per
    // run instead of per block, in both directions.
    let run = |batch: BatchPolicy| {
        let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(4));
        let server = machine.server;
        let (tx, rx) = std::sync::mpsc::channel();
        sim.spawn(machine.frontend, "tool", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let records: Vec<Vec<u8>> = (0..64).map(|i| keyed_record(i, 3)).collect();
            let src = write_file(ctx, &mut bridge, &records, CreateSpec::default());
            let opts = ToolOptions {
                batch,
                ..ToolOptions::default()
            };
            let (_, stats) = copy(ctx, &mut bridge, src, &opts).unwrap();
            let _ = tx.send(stats.blocks);
        });
        let stats = sim.run();
        assert_eq!(rx.try_recv().unwrap(), 64);
        stats.messages
    };
    let unbatched = run(BatchPolicy::Off);
    let batched = run(BatchPolicy::Runs(8));
    assert!(
        batched < unbatched,
        "batched copy should send fewer messages: {batched} < {unbatched}"
    );
}
