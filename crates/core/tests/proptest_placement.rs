//! Property tests for the placement algebra and the parity layout: the
//! invariants every strict placement must satisfy, over arbitrary
//! breadths, starts, chunk sizes, and seeds.

use bridge_core::{ParityLayout, Placement, PlacementKind};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn kind_strategy() -> impl Strategy<Value = PlacementKind> {
    prop_oneof![
        (0u32..64).prop_map(|start| PlacementKind::RoundRobin { start }),
        (1u32..40).prop_map(|blocks_per_chunk| PlacementKind::Chunked { blocks_per_chunk }),
        any::<u64>().prop_map(|seed| PlacementKind::Hashed { seed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Every strict placement is an injective map whose per-node local
    /// indexes are dense (0, 1, 2, … with no holes) — otherwise columns
    /// would have gaps no LFS append could fill.
    #[test]
    fn strict_placements_are_dense_bijections(
        kind in kind_strategy(),
        breadth in 1u32..17,
        blocks in 1u64..400,
    ) {
        let placement = Placement::new(kind, breadth);
        let mut seen = HashSet::new();
        let mut per_node: HashMap<u32, Vec<u32>> = HashMap::new();
        for b in 0..blocks {
            let ptr = placement.locate(b).expect("strict placement");
            prop_assert!(ptr.lfs.0 < breadth, "node in range");
            prop_assert!(seen.insert((ptr.lfs.0, ptr.local)), "no collision");
            per_node.entry(ptr.lfs.0).or_default().push(ptr.local);
        }
        for (_, mut locals) in per_node {
            locals.sort_unstable();
            for (i, l) in locals.iter().enumerate() {
                prop_assert_eq!(*l as usize, i, "dense locals");
            }
        }
    }

    /// The cursor yields exactly what locate computes, in order.
    #[test]
    fn cursor_matches_locate(
        kind in kind_strategy(),
        breadth in 1u32..17,
        blocks in 1u64..300,
    ) {
        let placement = Placement::new(kind, breadth);
        let mut cursor = placement.cursor();
        for b in 0..blocks {
            prop_assert_eq!(cursor.next(), placement.locate(b));
        }
    }

    /// Round-robin's defining guarantee: every window of p consecutive
    /// blocks covers all p nodes.
    #[test]
    fn round_robin_windows_cover_all_nodes(
        start in 0u32..64,
        breadth in 1u32..17,
        window in 0u64..200,
    ) {
        let placement = Placement::new(PlacementKind::RoundRobin { start }, breadth);
        let nodes: HashSet<u32> = (window..window + u64::from(breadth))
            .map(|b| placement.node_of(b).expect("strict").0)
            .collect();
        prop_assert_eq!(nodes.len(), breadth as usize);
    }

    /// Parity layout: every stripe covers every position exactly once
    /// (one data or parity block per node per stripe), data and parity
    /// locals are dense, and a block never shares its node with its own
    /// stripe's parity.
    #[test]
    fn parity_layout_invariants(breadth in 2u32..17, stripes in 1u64..120) {
        let layout = ParityLayout::new(breadth);
        let width = layout.stripe_width();
        let mut data_locals: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut parity_locals: HashMap<u32, Vec<u32>> = HashMap::new();
        for s in 0..stripes {
            let mut positions = HashSet::new();
            let ppos = layout.parity_position(s);
            positions.insert(ppos);
            parity_locals.entry(ppos).or_default().push(layout.parity_local(s));
            for j in 0..width {
                let b = s * width + j;
                prop_assert_eq!(layout.stripe_of(b), s);
                let dpos = layout.data_position(b);
                prop_assert_ne!(dpos, ppos, "data apart from its parity");
                positions.insert(dpos);
                data_locals.entry(dpos).or_default().push(layout.data_local(b));
            }
            prop_assert_eq!(positions.len(), breadth as usize);
        }
        for locals in data_locals.values().chain(parity_locals.values()) {
            for (i, l) in locals.iter().enumerate() {
                prop_assert_eq!(*l as usize, i, "dense per-position growth");
            }
        }
    }

    /// The parity layout turned by a round-robin start, over every group
    /// size that divides the breadth: each row of stripes (one per group)
    /// puts exactly one block on every position, data and parity locals
    /// stay dense per position, each stripe keeps inside its turned group,
    /// and no data block shares a position with its stripe's parity.
    #[test]
    fn turned_parity_layout_invariants(
        breadth in 2u32..17,
        pick in 0usize..16,
        start in 0u32..64,
        rows in 1u64..40,
    ) {
        let divisors: Vec<u32> = (2..=breadth).filter(|g| breadth % g == 0).collect();
        let group = divisors[pick % divisors.len()];
        let layout = ParityLayout::grouped(breadth, group).starting_at(start);
        let groups = u64::from(breadth / group);
        let width = layout.stripe_width();
        let mut data_locals: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut parity_locals: HashMap<u32, Vec<u32>> = HashMap::new();
        for row in 0..rows {
            let mut row_positions = HashSet::new();
            for s in row * groups..(row + 1) * groups {
                // Stripe s lands in group s mod (p/g), turned by start.
                let first = (s % groups) as u32 * group + start;
                let members: HashSet<u32> =
                    (0..group).map(|k| (first + k) % breadth).collect();
                let ppos = layout.parity_position(s);
                prop_assert!(members.contains(&ppos), "parity inside its group");
                prop_assert!(row_positions.insert(ppos), "one block per position a row");
                parity_locals.entry(ppos).or_default().push(layout.parity_local(s));
                for j in 0..width {
                    let b = s * width + j;
                    let dpos = layout.data_position(b);
                    prop_assert!(members.contains(&dpos), "data inside its group");
                    prop_assert_ne!(dpos, ppos, "data apart from its parity");
                    prop_assert!(row_positions.insert(dpos), "one block per position a row");
                    data_locals.entry(dpos).or_default().push(layout.data_local(b));
                }
            }
            prop_assert_eq!(row_positions.len(), breadth as usize, "a bijection per row");
        }
        for locals in data_locals.values().chain(parity_locals.values()) {
            for (i, l) in locals.iter().enumerate() {
                prop_assert_eq!(*l as usize, i, "dense per-position growth");
            }
        }
    }

    /// Reconstruction algebra: XOR of any stripe's peers and parity
    /// recovers the missing member, for arbitrary payloads.
    #[test]
    fn parity_xor_recovers_any_member(
        breadth in 2u32..9,
        payload_seed in any::<u64>(),
        missing in 0usize..8,
    ) {
        let layout = ParityLayout::new(breadth);
        let width = layout.stripe_width() as usize;
        let missing = missing % width;
        let members: Vec<Vec<u8>> = (0..width)
            .map(|j| {
                (0..64u64)
                    .map(|i| (payload_seed.wrapping_mul(j as u64 + 1).wrapping_add(i * 37) % 251) as u8)
                    .collect()
            })
            .collect();
        let mut parity = Vec::new();
        for m in &members {
            bridge_core::xor_into(&mut parity, m);
        }
        let mut rec = parity;
        for (j, m) in members.iter().enumerate() {
            if j != missing {
                bridge_core::xor_into(&mut rec, m);
            }
        }
        prop_assert_eq!(&rec, &members[missing]);
    }
}

/// Stripes 0–15 of the machine-wide layout at p = 8, as the layout put
/// them before it could be turned: (parity position, data positions,
/// data locals, parity local).
const P8_STRIPES: [(u32, [u32; 7], [u32; 7], u32); 16] = [
    (0, [1, 2, 3, 4, 5, 6, 7], [0, 0, 0, 0, 0, 0, 0], 0),
    (1, [0, 2, 3, 4, 5, 6, 7], [0, 1, 1, 1, 1, 1, 1], 0),
    (2, [0, 1, 3, 4, 5, 6, 7], [1, 1, 2, 2, 2, 2, 2], 0),
    (3, [0, 1, 2, 4, 5, 6, 7], [2, 2, 2, 3, 3, 3, 3], 0),
    (4, [0, 1, 2, 3, 5, 6, 7], [3, 3, 3, 3, 4, 4, 4], 0),
    (5, [0, 1, 2, 3, 4, 6, 7], [4, 4, 4, 4, 4, 5, 5], 0),
    (6, [0, 1, 2, 3, 4, 5, 7], [5, 5, 5, 5, 5, 5, 6], 0),
    (7, [0, 1, 2, 3, 4, 5, 6], [6, 6, 6, 6, 6, 6, 6], 0),
    (0, [1, 2, 3, 4, 5, 6, 7], [7, 7, 7, 7, 7, 7, 7], 1),
    (1, [0, 2, 3, 4, 5, 6, 7], [7, 8, 8, 8, 8, 8, 8], 1),
    (2, [0, 1, 3, 4, 5, 6, 7], [8, 8, 9, 9, 9, 9, 9], 1),
    (3, [0, 1, 2, 4, 5, 6, 7], [9, 9, 9, 10, 10, 10, 10], 1),
    (4, [0, 1, 2, 3, 5, 6, 7], [10, 10, 10, 10, 11, 11, 11], 1),
    (5, [0, 1, 2, 3, 4, 6, 7], [11, 11, 11, 11, 11, 12, 12], 1),
    (6, [0, 1, 2, 3, 4, 5, 7], [12, 12, 12, 12, 12, 12, 13], 1),
    (7, [0, 1, 2, 3, 4, 5, 6], [13, 13, 13, 13, 13, 13, 13], 1),
];

/// Start 0 is the unturned layout, position for position and local for
/// local, so files made at start 0 read back where they were written.
#[test]
fn start_zero_is_the_unturned_layout() {
    let layout = ParityLayout::new(8).starting_at(0);
    assert_eq!(layout, ParityLayout::new(8));
    for (s, (parity, data, locals, parity_local)) in P8_STRIPES.into_iter().enumerate() {
        let s = s as u64;
        assert_eq!(layout.parity_position(s), parity, "stripe {s}");
        assert_eq!(layout.parity_local(s), parity_local, "stripe {s}");
        for j in 0..7u64 {
            let b = s * 7 + j;
            assert_eq!(layout.data_position(b), data[j as usize], "block {b}");
            assert_eq!(layout.data_local(b), locals[j as usize], "block {b}");
        }
    }
}

/// A start turns every position and leaves every local where it was.
#[test]
fn a_start_turns_positions_and_keeps_locals() {
    let layout = ParityLayout::new(8).starting_at(11);
    for (s, (parity, data, locals, parity_local)) in P8_STRIPES.into_iter().enumerate() {
        let s = s as u64;
        assert_eq!(layout.parity_position(s), (parity + 3) % 8, "stripe {s}");
        assert_eq!(layout.parity_local(s), parity_local, "stripe {s}");
        for j in 0..7u64 {
            let b = s * 7 + j;
            assert_eq!(layout.data_position(b), (data[j as usize] + 3) % 8);
            assert_eq!(layout.data_local(b), locals[j as usize], "block {b}");
        }
    }
}
