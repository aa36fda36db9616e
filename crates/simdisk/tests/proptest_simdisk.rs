//! Property tests for the SimDisk timing model.
//!
//! The batched entry points must be pure batching: `read_many` charges
//! exactly what the equivalent block-at-a-time sequence would, and
//! `write_many` on a single-track run charges one positioning plus one
//! transfer per block. The track buffer must never produce phantom hits —
//! a block the device never transferred can never be served at hit cost.

use bytes::Bytes;
use parsim::{Ctx, SimConfig, SimDuration, Simulation};
use proptest::prelude::*;
use simdisk::{BlockAddr, DiskGeometry, DiskProfile, SimDisk};

/// A small disk keeps the generated address space dense: 16 tracks of
/// 8 blocks, 16-byte blocks.
const GEO: DiskGeometry = DiskGeometry {
    block_size: 16,
    blocks_per_track: 8,
    tracks: 16,
};

const CAP: u32 = 16 * 8;

fn on_disk<R: Send + 'static>(f: impl FnOnce(&mut Ctx) -> R + Send + 'static) -> R {
    let mut sim = Simulation::new(SimConfig::default());
    let node = sim.add_node("io");
    sim.block_on(node, "driver", f)
}

fn block_of(byte: u8) -> Vec<u8> {
    vec![byte; GEO.block_size]
}

proptest! {
    /// `read_many` over an arbitrary (possibly repetitive, track-hopping)
    /// run charges exactly the block-at-a-time cost, returns the same
    /// data, and lands on the same counters.
    #[test]
    fn read_many_charges_like_block_at_a_time(
        raw in proptest::collection::vec(0u32..CAP, 1..24),
    ) {
        let (run, single, same_data, batched, looped) = on_disk(move |ctx| {
            let mut a = SimDisk::new(GEO, DiskProfile::wren());
            let mut b = SimDisk::new(GEO, DiskProfile::wren());
            for i in 0..CAP {
                a.write_raw(BlockAddr::new(i), block_of(i as u8).into());
                b.write_raw(BlockAddr::new(i), block_of(i as u8).into());
            }
            let addrs: Vec<BlockAddr> = raw.into_iter().map(BlockAddr::new).collect();
            let t0 = ctx.now();
            let run_data = a.read_many(ctx, &addrs).unwrap();
            let run = ctx.now() - t0;
            let t1 = ctx.now();
            let single_data: Vec<Bytes> = addrs
                .iter()
                .map(|&addr| b.read(ctx, addr).unwrap())
                .collect();
            let single = ctx.now() - t1;
            (run, single, run_data == single_data, a.stats(), b.stats())
        });
        prop_assert_eq!(run, single);
        prop_assert!(same_data);
        prop_assert_eq!(batched.reads, looped.reads);
        prop_assert_eq!(batched.buffer_hits, looped.buffer_hits);
        prop_assert_eq!(batched.track_loads, looped.track_loads);
        prop_assert_eq!(batched.busy, looped.busy);
    }

    /// A single-track `write_many` pays positioning once plus a transfer
    /// per block — the documented run economics — while the equivalent
    /// block-at-a-time sequence pays positioning on every write.
    #[test]
    fn write_many_single_track_pays_one_positioning(
        track in 0u32..GEO.tracks,
        offsets in proptest::collection::vec(0u32..8, 1..8),
    ) {
        let n = offsets.len() as u64;
        let (run, single) = on_disk(move |ctx| {
            let writes: Vec<(BlockAddr, Bytes)> = offsets
                .iter()
                .map(|&o| {
                    (
                        BlockAddr::new(track * GEO.blocks_per_track + o),
                        Bytes::from(block_of(o as u8)),
                    )
                })
                .collect();
            let mut a = SimDisk::new(GEO, DiskProfile::wren());
            let t0 = ctx.now();
            a.write_many(ctx, &writes).unwrap();
            let run = ctx.now() - t0;
            for (addr, data) in &writes {
                assert_eq!(a.read_raw(*addr).unwrap(), data.as_ref());
            }
            let mut b = SimDisk::new(GEO, DiskProfile::wren());
            let t1 = ctx.now();
            for (addr, data) in &writes {
                b.write(ctx, *addr, data).unwrap();
            }
            (run, ctx.now() - t1)
        });
        let wren = DiskProfile::wren();
        prop_assert_eq!(run, wren.positioning + wren.transfer_per_block * n);
        prop_assert_eq!(single, (wren.positioning + wren.transfer_per_block) * n);
    }

    /// One-element runs are indistinguishable from the single-block ops,
    /// wherever the run lands and whatever was buffered before.
    #[test]
    fn single_element_runs_match_single_ops(
        warm in 0u32..CAP,
        addr in 0u32..CAP,
    ) {
        let (run_w, one_w, run_r, one_r) = on_disk(move |ctx| {
            let mut a = SimDisk::new(GEO, DiskProfile::wren());
            let mut b = SimDisk::new(GEO, DiskProfile::wren());
            // Warm both buffers identically before measuring.
            a.write_raw(BlockAddr::new(warm), block_of(1).into());
            b.write_raw(BlockAddr::new(warm), block_of(1).into());
            a.read(ctx, BlockAddr::new(warm)).unwrap();
            b.read(ctx, BlockAddr::new(warm)).unwrap();

            let t0 = ctx.now();
            a.write_many(ctx, &[(BlockAddr::new(addr), Bytes::from(block_of(2)))])
                .unwrap();
            let run_w = ctx.now() - t0;
            let t1 = ctx.now();
            b.write(ctx, BlockAddr::new(addr), &block_of(2)).unwrap();
            let one_w = ctx.now() - t1;

            let t2 = ctx.now();
            a.read_many(ctx, &[BlockAddr::new(addr)]).unwrap();
            let run_r = ctx.now() - t2;
            let t3 = ctx.now();
            b.read(ctx, BlockAddr::new(addr)).unwrap();
            let one_r = ctx.now() - t3;
            (run_w, one_w, run_r, one_r)
        });
        prop_assert_eq!(run_w, one_w);
        prop_assert_eq!(run_r, one_r);
    }

    /// After any single-track batched write, a same-track block the run
    /// did not touch is a full-price miss (the phantom-hit regression),
    /// while the written blocks themselves still hit.
    #[test]
    fn unwritten_neighbors_never_phantom_hit(
        track in 0u32..GEO.tracks,
        written_raw in proptest::collection::vec(0u32..8, 1..7),
    ) {
        let mut written: Vec<u32> = written_raw;
        written.sort_unstable();
        written.dedup();
        let probe = (0..8u32)
            .find(|o| !written.contains(o))
            .expect("at most 6 of 8 offsets are written");
        let reread = written[0];
        let base = track * GEO.blocks_per_track;
        let (hit_cost, miss_cost) = on_disk(move |ctx| {
            let mut disk = SimDisk::new(GEO, DiskProfile::wren());
            disk.write_raw(BlockAddr::new(base + probe), block_of(0xEE).into());
            let writes: Vec<(BlockAddr, Bytes)> = written
                .iter()
                .map(|&o| (BlockAddr::new(base + o), Bytes::from(block_of(o as u8))))
                .collect();
            disk.write_many(ctx, &writes).unwrap();
            // A block the run transferred is buffered...
            let t0 = ctx.now();
            disk.read(ctx, BlockAddr::new(base + reread)).unwrap();
            let hit_cost = ctx.now() - t0;
            // ...but the probe block was never transferred: full miss.
            let t1 = ctx.now();
            disk.read(ctx, BlockAddr::new(base + probe)).unwrap();
            (hit_cost, ctx.now() - t1)
        });
        let wren = DiskProfile::wren();
        prop_assert_eq!(hit_cost, wren.transfer_per_block);
        prop_assert_eq!(
            miss_cost,
            wren.positioning + wren.transfer_per_block * u64::from(GEO.blocks_per_track)
        );
    }

    /// Multi-track batched writes round-trip their data and cost one
    /// positioning per distinct track regardless of interleaving.
    #[test]
    fn write_many_data_survives_and_tracks_amortize(
        raw in proptest::collection::vec(0u32..CAP, 1..24),
    ) {
        // Deduplicate addresses (last write wins would also hold, but a
        // duplicate-free run makes the cost formula exact).
        let mut addrs: Vec<u32> = Vec::new();
        for a in raw {
            if !addrs.contains(&a) {
                addrs.push(a);
            }
        }
        let distinct_tracks = {
            let mut tracks: Vec<u32> = addrs.iter().map(|a| a / GEO.blocks_per_track).collect();
            tracks.sort_unstable();
            tracks.dedup();
            tracks.len() as u64
        };
        let blocks = addrs.len() as u64;
        let elapsed = on_disk(move |ctx| {
            let mut disk = SimDisk::new(GEO, DiskProfile::wren());
            let writes: Vec<(BlockAddr, Bytes)> = addrs
                .iter()
                .map(|&a| (BlockAddr::new(a), Bytes::from(block_of(a as u8))))
                .collect();
            let t0 = ctx.now();
            disk.write_many(ctx, &writes).unwrap();
            let elapsed = ctx.now() - t0;
            for (addr, data) in &writes {
                assert_eq!(disk.read_raw(*addr).unwrap(), data.as_ref());
            }
            elapsed
        });
        let wren = DiskProfile::wren();
        prop_assert_eq!(
            elapsed,
            wren.positioning * distinct_tracks + wren.transfer_per_block * blocks
        );
    }
}

/// The proptest strategies above never charge zero time for a miss; pin
/// the base costs once so the formulas in the properties stay honest.
#[test]
fn wren_base_costs() {
    assert_eq!(
        DiskProfile::wren().positioning,
        SimDuration::from_millis(15)
    );
    assert_eq!(
        DiskProfile::wren().transfer_per_block,
        SimDuration::from_millis(1)
    );
}
