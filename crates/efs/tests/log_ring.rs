//! The frame ring and the field codec that both logs stand on, checked
//! against a model that knows nothing of either: what was framed, which
//! blocks reached the medium, and which byte was flipped.

use bridge_efs::codec::{Reader, Wire, Writer};
use bridge_efs::ring::{Ring, FRAME_HEADER};
use bridge_efs::{EfsError, LfsFileId, PrepareIntent};
use bytes::Bytes;
use proptest::prelude::*;
use simdisk::{BlockAddr, DiskGeometry, DiskProfile, SimDisk};
use std::collections::BTreeMap;

const MAGIC: u32 = 0x5EED_F00D;
/// The live-span test's stand-in length for a checkpoint.
const CHECKPOINT: usize = 3 * 992 + 50;

/// A device for a ring of `slots` blocks from block `start`, `track`
/// blocks to a track, with a spare track past its end.
fn geometry(block_size: usize, track: u32, start: u32, slots: u32) -> DiskGeometry {
    DiskGeometry {
        block_size,
        blocks_per_track: track,
        tracks: (start + slots) / track + 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Any sequence of framed payloads on any track geometry, skips and
    /// wrap-around included, with the last batch torn at any block
    /// boundary and one byte flipped anywhere, scans to exactly the
    /// batches that are wholly and intactly on the medium; every batch of
    /// at most one track lies on one track, in consecutive blocks; and an
    /// append after `resume` takes a fresh stamp and clobbers nothing but
    /// the batch whose slot it takes.
    #[test]
    fn scan_finds_exactly_the_whole_batches(
        small in any::<bool>(),
        // Blocks per track, the ring's first block, and its length in
        // blocks beyond two tracks (and the longest batch) — so it always
        // holds a whole track.
        shape in (1u32..=8, 0u32..24, 0u32..12),
        // Payload lengths framed in order; frames of the last batch that
        // reach the medium; one bit of the ring region to flip afterwards.
        lens in proptest::collection::vec(0usize..3 * 4064 + 100, 1..14),
        cut in 0usize..=4,
        flip in (any::<bool>(), 0u32..64, 0usize..4096, 0u8..8),
    ) {
        let (track, start, extra) = shape;
        let block_size = if small { 1024 } else { 4096 };
        let per_frame = block_size - FRAME_HEADER;
        let slots = (2 * track).max(4) + extra;
        let geometry = geometry(block_size, track, start, slots);
        let mut disk = SimDisk::new(geometry, DiskProfile::instant());
        let mut ring = Ring::new(MAGIC, start, slots, geometry);

        // Frame and write; only `cut` frames of the last batch land.
        let mut batches = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let len = len.min(3 * per_frame + 100);
            let payload: Vec<u8> = (0..len).map(|b| (b * 31 + i * 7 + 1) as u8).collect();
            let frames = ring.frame(&payload);
            prop_assert_eq!(frames.len(), ring.frames_for(len));
            if frames.len() <= track as usize {
                let first = frames[0].0.index();
                for (k, (addr, _)) in frames.iter().enumerate() {
                    prop_assert_eq!(addr.index(), first + k as u32, "batch {} wraps", i);
                    prop_assert_eq!(geometry.track_of(*addr), geometry.track_of(frames[0].0));
                }
            }
            let landing = if i + 1 == lens.len() { cut.min(frames.len()) } else { frames.len() };
            for (addr, frame) in &frames[..landing] {
                disk.write_raw(*addr, frame.clone());
            }
            batches.push((payload, frames));
        }
        let torn = cut < batches.last().unwrap().1.len();

        // The model's verdict, before the flip: a batch is there iff every
        // one of its frames landed and still lies in its slot.
        let holds = |disk: &SimDisk, (addr, frame): &(BlockAddr, Bytes)| {
            disk.read_raw(*addr) == Some(&frame[..])
        };
        let mut expected: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for (i, (payload, frames)) in batches.iter().enumerate() {
            let landed = !(torn && i + 1 == batches.len());
            if landed && frames.iter().all(|f| holds(&disk, f)) {
                expected.insert(i as u64 + 1, payload.clone());
            }
        }

        // Flip one bit. A frame's bytes past its payload are padding the
        // checksum does not cover; anywhere else kills the owning batch.
        if let (true, slot, offset, bit) = flip {
            let (addr, offset) = (BlockAddr::new(start + slot % slots), offset % block_size);
            if let Some(mut block) = disk.read_raw(addr).map(<[u8]>::to_vec) {
                for (i, (payload, frames)) in batches.iter().enumerate() {
                    for (seq, f) in frames.iter().enumerate() {
                        let meaningful = FRAME_HEADER
                            + payload.len().saturating_sub(seq * per_frame).min(per_frame);
                        if f.0 == addr && holds(&disk, f) && offset < meaningful {
                            expected.remove(&(i as u64 + 1));
                        }
                    }
                }
                block[offset] ^= 1 << bit;
                disk.write_raw(addr, block.into());
            }
        }
        prop_assert_eq!(&ring.scan(&disk), &expected);

        // Recovery: resume, append one frame, look again.
        let mut resumed = Ring::new(MAGIC, start, slots, geometry);
        prop_assert_eq!(&resumed.resume(&disk), &expected);
        let appended = resumed.frame(b"after recovery");
        let taken = appended[0].0;
        for (addr, frame) in &appended {
            disk.write_raw(*addr, frame.clone());
        }
        let mut after = resumed.scan(&disk);
        let (stamp, newest) = after.pop_last().expect("the append is there");
        prop_assert_eq!(newest, b"after recovery");
        prop_assert!(expected.keys().all(|&old| old < stamp), "stamp {} reused", stamp);
        // Nothing the scan validated was clobbered, bar the batch whose
        // slot the append took.
        for (i, (_, frames)) in batches.iter().enumerate() {
            if frames.iter().any(|(addr, _)| *addr == taken) {
                expected.remove(&(i as u64 + 1));
            }
        }
        prop_assert_eq!(after, expected);
    }

    /// The write-ahead log's policy over any track geometry: a batch is
    /// admitted only while the slots it uses up — [`Ring::cost`], skipped
    /// ones included — fit beside everything framed since the last
    /// checkpoint, and a checkpoint starts the span afresh. Then no frame
    /// of the live span is ever overwritten, and a scan still finds every
    /// batch of it.
    #[test]
    fn no_frame_of_the_live_span_is_overwritten(
        shape in (1u32..=8, 0u32..24, 0u32..12),
        // Payload lengths up to three 1 KB frames and a bit; one past
        // that is a checkpoint.
        ops in proptest::collection::vec(0usize..=CHECKPOINT, 1..60),
    ) {
        let (track, start, extra) = shape;
        let slots = (2 * track).max(4) + extra;
        let geometry = geometry(1024, track, start, slots);
        let mut disk = SimDisk::new(geometry, DiskProfile::instant());
        let mut ring = Ring::new(MAGIC, start, slots, geometry);
        // The batches since (and including) the last checkpoint, and the
        // slots they used up.
        let mut live: Vec<(u64, Vec<(BlockAddr, Bytes)>)> = Vec::new();
        let mut since = 0;
        let mut stamp = 0;
        for (i, &len) in ops.iter().enumerate() {
            let checkpoint = len == CHECKPOINT;
            let payload: Vec<u8> = (0..len % CHECKPOINT).map(|b| (b + i) as u8).collect();
            let cost = ring.cost(payload.len());
            prop_assert!(cost >= ring.frames_for(payload.len()) as u32);
            if checkpoint {
                live.clear();
                since = ring.frames_for(payload.len()) as u32;
            } else if since + cost > slots {
                continue;
            } else {
                since += cost;
            }
            let frames = ring.frame(&payload);
            stamp += 1;
            for (addr, frame) in &frames {
                disk.write_raw(*addr, frame.clone());
            }
            live.push((stamp, frames));
            for (s, frames) in &live {
                for (addr, frame) in frames {
                    prop_assert_eq!(disk.read_raw(*addr), Some(&frame[..]), "batch {} lost a frame", s);
                }
            }
            let scanned = ring.scan(&disk);
            prop_assert!(live.iter().all(|(s, _)| scanned.contains_key(s)));
        }
    }
}

/// Every record type that rides the codec, truncated at every byte
/// offset, is `Corrupt` — and whole, reads back as itself.
fn truncation_is_corrupt<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
    let mut bytes = Vec::new();
    Writer::new(&mut bytes).put(value);
    let mut whole = Reader::new(&bytes, "sample");
    assert_eq!(&whole.get::<T>().unwrap(), value);
    assert!(whole.raw(1).is_err(), "every byte consumed");
    for cut in 0..bytes.len() {
        let err = Reader::new(&bytes[..cut], "sample").get::<T>().unwrap_err();
        assert_eq!(err, EfsError::Corrupt("sample: truncated".into()), "{cut}");
    }
}

#[test]
fn truncated_fields_and_intents_are_corrupt_never_a_panic() {
    truncation_is_corrupt(&0xA5u8);
    truncation_is_corrupt(&0xDEAD_BEEFu32);
    truncation_is_corrupt(&0x0123_4567_89AB_CDEFu64);
    truncation_is_corrupt(&true);
    truncation_is_corrupt(&Bytes::from_static(b"payload"));
    truncation_is_corrupt(&vec![3u32, 5, 8]);
    truncation_is_corrupt(&PrepareIntent::CreateFiles(vec![
        LfsFileId(1),
        LfsFileId(2),
    ]));
    truncation_is_corrupt(&PrepareIntent::DeleteFiles(vec![]));
    truncation_is_corrupt(&PrepareIntent::WriteBlock {
        file: LfsFileId(7),
        block_no: 3,
        payload: Bytes::from_static(b"parity column"),
    });
}

#[test]
fn an_absurd_count_or_kind_is_corrupt_not_an_allocation() {
    let mut bytes = Vec::new();
    Writer::new(&mut bytes).put(&u32::MAX).put(&1u32);
    let err = Reader::new(&bytes, "list").get::<Vec<u64>>().unwrap_err();
    assert_eq!(err, EfsError::Corrupt("list: truncated".into()));
    let err = Reader::new(&[9], "intent")
        .get::<PrepareIntent>()
        .unwrap_err();
    assert_eq!(
        err,
        EfsError::Corrupt("intent: unknown intent kind 9".into())
    );
}
