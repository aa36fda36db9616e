//! Property tests for the tools: the sort tool against `std` sort, the
//! filters against plain maps, grep against a naive scan — over arbitrary
//! breadths, buffer sizes, and data.

use bridge_core::{BridgeClient, BridgeConfig, BridgeFileId, BridgeMachine, CreateSpec};
use bridge_tools::{copy_with, grep, key_of, sort, transforms, SortOptions, ToolOptions};
use parsim::Ctx;
use proptest::prelude::*;

/// The values `start_arity` and `local_merge_arity` are drawn from: the
/// defaults, three in between, and "all at once".
const ARITIES: [u32; 5] = [2, 3, 4, 8, u32::MAX];

fn record_from(key: u64, body: u8) -> Vec<u8> {
    let mut r = key.to_be_bytes().to_vec();
    r.extend_from_slice(&[body; 24]);
    r
}

fn write_records(ctx: &mut Ctx, bridge: &mut BridgeClient, records: &[Vec<u8>]) -> BridgeFileId {
    let file = bridge.create(ctx, CreateSpec::default()).unwrap();
    for r in records {
        bridge.seq_write(ctx, file, r.clone()).unwrap();
    }
    file
}

fn read_records(ctx: &mut Ctx, bridge: &mut BridgeClient, file: BridgeFileId) -> Vec<Vec<u8>> {
    bridge.open(ctx, file).unwrap();
    let mut out = Vec::new();
    while let Some(b) = bridge.seq_read(ctx, file).unwrap() {
        out.push(b.to_vec());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The full two-phase parallel sort equals a stable std sort by key,
    /// for arbitrary key multisets, machine breadths, in-core buffers,
    /// worker-start arities and local merge arities.
    #[test]
    fn sort_tool_matches_std_sort(
        keys in proptest::collection::vec(0u64..50, 1..120),
        p in 1u32..7,
        in_core in 4u32..32,
        start_pick in 0usize..5,
        merge_pick in 0usize..5,
    ) {
        let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(p));
        let server = machine.server;
        sim.block_on(machine.frontend, "prop", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let records: Vec<Vec<u8>> = keys
                .iter()
                .map(|&k| record_from(k, (k % 251) as u8))
                .collect();
            let src = write_records(ctx, &mut bridge, &records);
            let opts = SortOptions {
                in_core_records: in_core,
                local_merge_arity: ARITIES[merge_pick],
                tool: ToolOptions {
                    start_arity: ARITIES[start_pick],
                    ..ToolOptions::default()
                },
                ..SortOptions::default()
            };
            let (out, stats) = sort(ctx, &mut bridge, src, &opts).unwrap();
            assert_eq!(stats.records, keys.len() as u64);

            let got: Vec<[u8; 8]> = read_records(ctx, &mut bridge, out)
                .iter()
                .map(|b| key_of(b))
                .collect();
            let mut expected: Vec<[u8; 8]> =
                keys.iter().map(|&k| k.to_be_bytes()).collect();
            expected.sort_unstable();
            assert_eq!(got, expected);
        });
    }

    /// copy_with(f) equals mapping f over the blocks, for an arbitrary
    /// translation table and worker-start arity.
    #[test]
    fn filters_equal_plain_maps(
        table in proptest::array::uniform32(any::<u8>()),
        blocks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..30),
        p in 1u32..5,
        start_pick in 0usize..5,
    ) {
        // Expand the 32-byte sample into a full 256-entry table.
        let mut full = [0u8; 256];
        for (i, slot) in full.iter_mut().enumerate() {
            *slot = table[i % 32].wrapping_add(i as u8);
        }
        let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(p));
        let server = machine.server;
        sim.block_on(machine.frontend, "prop", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let src = write_records(ctx, &mut bridge, &blocks);
            let (dst, _) = copy_with(
                ctx,
                &mut bridge,
                src,
                transforms::translate(full),
                &ToolOptions {
                    start_arity: ARITIES[start_pick],
                    ..ToolOptions::default()
                },
            )
            .unwrap();
            let got = read_records(ctx, &mut bridge, dst);
            for (g, b) in got.iter().zip(&blocks) {
                // The tool transforms the whole 960-byte area (zero padding
                // included), exactly like the plain map.
                let mut expected = b.clone();
                expected.resize(bridge_core::BRIDGE_DATA, 0);
                for byte in &mut expected {
                    *byte = full[*byte as usize];
                }
                assert_eq!(g, &expected);
            }
        });
    }

    /// grep equals a naive client-side scan.
    #[test]
    fn grep_equals_naive_scan(
        texts in proptest::collection::vec(".{0,40}", 1..25),
        p in 1u32..5,
    ) {
        let needle = b"ab".to_vec();
        let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::instant(p));
        let server = machine.server;
        sim.block_on(machine.frontend, "prop", move |ctx| {
            let mut bridge = BridgeClient::new(server);
            let blocks: Vec<Vec<u8>> = texts.iter().map(|t| t.clone().into_bytes()).collect();
            let file = write_records(ctx, &mut bridge, &blocks);
            let hits = grep(ctx, &mut bridge, file, needle.clone(), &ToolOptions::default())
                .unwrap();
            // Naive scan over the padded blocks.
            let mut expected = Vec::new();
            for (i, b) in blocks.iter().enumerate() {
                let mut padded = b.clone();
                padded.resize(bridge_core::BRIDGE_DATA, 0);
                for off in 0..padded.len().saturating_sub(needle.len() - 1) {
                    if padded[off..off + needle.len()] == needle[..] {
                        expected.push((i as u64, off as u32));
                    }
                }
            }
            let got: Vec<(u64, u32)> =
                hits.iter().map(|m| (m.global_block, m.offset)).collect();
            assert_eq!(got, expected);
        });
    }
}
