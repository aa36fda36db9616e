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
const START: u32 = 3;
const SLOTS: u32 = 8;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Any sequence of framed payloads, wrap-around included, with the
    /// last batch torn at any block boundary and one byte flipped
    /// anywhere, scans to exactly the batches that are wholly and intactly
    /// on the medium; and an append after `resume` takes a fresh stamp and
    /// costs at most the oldest of them.
    #[test]
    fn scan_finds_exactly_the_whole_batches(
        small in any::<bool>(),
        // Payload lengths framed in order; frames of the last batch that
        // reach the medium; one bit of the ring region to flip afterwards.
        lens in proptest::collection::vec(0usize..3 * 4064 + 100, 1..14),
        cut in 0usize..=4,
        flip in (any::<bool>(), 0..SLOTS, 0usize..4096, 0u8..8),
    ) {
        let block_size = if small { 1024 } else { 4096 };
        let per_frame = block_size - FRAME_HEADER;
        let geometry = DiskGeometry { block_size, blocks_per_track: 8, tracks: 2 };
        let mut disk = SimDisk::new(geometry, DiskProfile::instant());
        let mut ring = Ring::new(MAGIC, START, SLOTS, block_size);

        // Frame and write; only `cut` frames of the last batch land.
        let mut batches = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let len = len.min(3 * per_frame + 100);
            let payload: Vec<u8> = (0..len).map(|b| (b * 31 + i * 7 + 1) as u8).collect();
            let frames = ring.frame(&payload);
            prop_assert_eq!(frames.len(), ring.frames_for(len));
            let landing = if i + 1 == lens.len() { cut.min(frames.len()) } else { frames.len() };
            for (addr, frame) in &frames[..landing] {
                disk.write_raw(*addr, frame);
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
            let (addr, offset) = (BlockAddr::new(START + slot), offset % block_size);
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
                disk.write_raw(addr, &block);
            }
        }
        prop_assert_eq!(&ring.scan(&disk), &expected);

        // Recovery: resume, append one frame, look again.
        let mut resumed = Ring::new(MAGIC, START, SLOTS, block_size);
        prop_assert_eq!(&resumed.resume(&disk), &expected);
        for (addr, frame) in resumed.frame(b"after recovery") {
            disk.write_raw(addr, &frame);
        }
        let mut after = resumed.scan(&disk);
        let (stamp, newest) = after.pop_last().expect("the append is there");
        prop_assert_eq!(newest, b"after recovery");
        prop_assert!(expected.keys().all(|&old| old < stamp), "stamp {} reused", stamp);
        // Nothing the scan validated was clobbered, bar the oldest — the
        // slot an overwrite-oldest ring is entitled to.
        let oldest = expected.pop_first();
        if after.len() != expected.len() {
            expected.extend(oldest);
        }
        prop_assert_eq!(after, expected);
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
