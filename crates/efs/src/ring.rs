//! The frame-and-ring mechanism under both logs.
//!
//! A log is a ring of device blocks. An append *frames* one payload —
//! whatever its owner encoded — into as many self-describing blocks as
//! it needs and places them in the next slots; the owner writes them as
//! one device run. Every frame starts with a 32-byte header:
//!
//! ```text
//! magic: u32  stamp: u64  seq: u32  total: u32  len: u32  checksum: u64
//! ```
//!
//! `stamp` is the batch's number — one more than the batch before it —
//! so a scan can order slots after any number of wrap-arounds; `seq` of
//! `total` places the frame in its batch; `len` payload bytes follow the
//! header, and `checksum` mixes the stamp, the position and those bytes.
//! A frame therefore stands or falls on its own, and a batch is valid
//! exactly when all `total` of its frames are: the torn tail a crash
//! leaves mid-run, a flipped bit, a slot an older batch still half
//! occupies — each is unambiguously not a batch.
//!
//! A ring is *track-true*: a disk charges a positioning per track a run
//! touches, so a batch of at most one track's frames is always placed on
//! a single device track. Where the next slots would straddle a track
//! boundary — or the ring's end, which on a ring of several tracks is a
//! jump back to its first — the batch skips ahead to the first slot it
//! fits from: the next track start, or slot 0. The slots skipped keep
//! whatever older frames they held. A longer batch goes at the cursor
//! and may wrap. A ring that lies on one track never skips.
//!
//! What a ring does *not* decide is when a slot may be reused. The LFS
//! write-ahead log ([`crate::WalConfig`]) never overwrites a record
//! newer than its last checkpoint, and counts skipped slots against
//! that span; the coordinator's decision log overwrites the oldest and
//! refuses a transaction too wide to fit. Both are policy, stated by the
//! owner on top of [`Ring::frames_for`] and [`Ring::cost`].

use crate::codec::{Reader, Writer};
use bytes::Bytes;
use parsim::{mix64, Ctx};
use simdisk::{BlockAddr, BlockDevice, DiskError, DiskGeometry};
use std::collections::BTreeMap;

/// Bytes of header in front of every frame's payload.
pub const FRAME_HEADER: usize = 32;

/// One ring of frames on a block device: where it lies, and the stamp
/// and slot its next batch takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    magic: u32,
    start: u32,
    slots: u32,
    block_size: usize,
    /// Blocks per device track: a batch of at most this many frames is
    /// placed on one track.
    track: u32,
    next_stamp: u64,
    next_slot: u32,
}

/// A decoded frame, borrowing its payload from the medium.
struct Frame<'a> {
    stamp: u64,
    seq: u32,
    total: u32,
    chunk: &'a [u8],
}

/// Mixes a frame's stamp, position and payload into its checksum.
fn checksum(stamp: u64, seq: u32, total: u32, chunk: &[u8]) -> u64 {
    let mut acc = mix64(stamp, u64::from(seq) << 32 | u64::from(total));
    for piece in chunk.chunks(8) {
        let mut word = [0u8; 8];
        word[..piece.len()].copy_from_slice(piece);
        acc = mix64(acc, u64::from_le_bytes(word));
    }
    acc
}

impl Ring {
    /// An empty ring of `slots` blocks starting at device block `start`
    /// of a device laid out as `geometry`; its frames carry `magic`, so
    /// two logs never read each other's blocks as their own.
    pub fn new(magic: u32, start: u32, slots: u32, geometry: DiskGeometry) -> Ring {
        Ring {
            magic,
            start,
            slots,
            block_size: geometry.block_size,
            track: geometry.blocks_per_track.max(1),
            next_stamp: 1,
            next_slot: 0,
        }
    }

    /// Ring length in blocks.
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// Blocks per device track.
    pub fn track(&self) -> u32 {
        self.track
    }

    /// Frames a payload of `len` bytes takes (an empty one still takes
    /// one: the batch has to exist).
    pub fn frames_for(&self, len: usize) -> usize {
        len.div_ceil(self.block_size - FRAME_HEADER).max(1)
    }

    /// Slots the next batch of `len` bytes uses up: its frames, and the
    /// slots it skips to stay on one track.
    pub fn cost(&self, len: usize) -> u32 {
        let total = self.frames_for(len) as u32;
        total + (self.place(total) + self.slots - self.next_slot) % self.slots
    }

    fn addr(&self, slot: u32) -> BlockAddr {
        BlockAddr::new(self.start + slot)
    }

    /// The slot a batch of `total` frames starts at: the cursor, unless
    /// the batch fits on one track and would not there — then the first
    /// slot after it, in ring order, from which every frame shares a
    /// track. A ring with no such slot keeps the cursor.
    fn place(&self, total: u32) -> u32 {
        let track_of = |slot: u32| (self.start + slot % self.slots) / self.track;
        let one_track = |first: u32| (1..total).all(|i| track_of(first + i) == track_of(first));
        if total > self.track {
            return self.next_slot;
        }
        (0..self.slots)
            .map(|k| (self.next_slot + k) % self.slots)
            .find(|&slot| one_track(slot))
            .unwrap_or(self.next_slot)
    }

    /// The one place a frame header is written.
    fn encode(&self, seq: u32, total: u32, chunk: &[u8]) -> Bytes {
        let mut block = Vec::with_capacity(self.block_size);
        Writer::new(&mut block)
            .put(&self.magic)
            .put(&self.next_stamp)
            .put(&seq)
            .put(&total)
            .put(&(chunk.len() as u32))
            .put(&checksum(self.next_stamp, seq, total, chunk))
            .raw(chunk);
        block.resize(self.block_size, 0);
        block.into()
    }

    /// The one place a frame header is read: `None` for a blank,
    /// foreign, garbled or checksum-failing block.
    fn decode<'a>(&self, block: &'a [u8]) -> Option<Frame<'a>> {
        if block.len() != self.block_size {
            return None;
        }
        let mut r = Reader::new(block, "log frame");
        if r.get::<u32>().ok()? != self.magic {
            return None;
        }
        let (stamp, seq, total): (u64, u32, u32) = (r.get().ok()?, r.get().ok()?, r.get().ok()?);
        let (len, sum): (u32, u64) = (r.get().ok()?, r.get().ok()?);
        let chunk = r.raw(len as usize).ok()?;
        (seq < total && checksum(stamp, seq, total, chunk) == sum).then_some(Frame {
            stamp,
            seq,
            total,
            chunk,
        })
    }

    /// Frames `payload` as the next batch and gives its frames
    /// consecutive slots from where [`Ring::cost`] placed it: the device
    /// run that carries it into the log. The owner's policy has already
    /// made sure the batch fits.
    pub fn frame(&mut self, payload: &[u8]) -> Vec<(BlockAddr, Bytes)> {
        let total = self.frames_for(payload.len());
        debug_assert!(total <= self.slots as usize, "batch longer than its ring");
        self.next_slot = self.place(total as u32);
        let mut chunks = payload.chunks(self.block_size - FRAME_HEADER);
        let run = (0..total).map(|seq| {
            let chunk = chunks.next().unwrap_or(&[]);
            let placed = (
                self.addr(self.next_slot),
                self.encode(seq as u32, total as u32, chunk),
            );
            self.next_slot = (self.next_slot + 1) % self.slots;
            placed
        });
        let run = run.collect();
        self.next_stamp += 1;
        run
    }

    /// Every complete batch's payload, in stamp order, from raw media
    /// (untimed, like every recovery read). Torn and corrupt batches are
    /// dropped.
    pub fn scan<D: BlockDevice>(&self, disk: &D) -> BTreeMap<u64, Vec<u8>> {
        self.clone().resume(disk)
    }

    /// [`Ring::scan`], and re-seats the cursor for appending: the next
    /// batch goes in the slot after the newest valid frame and takes the
    /// stamp after it — past a torn tail as well as past a whole batch,
    /// so nothing the scan validated is clobbered and no stamp is used
    /// twice. A blank ring restarts at slot 0, stamp 1.
    pub fn resume<D: BlockDevice>(&mut self, disk: &D) -> BTreeMap<u64, Vec<u8>> {
        let mut groups: BTreeMap<u64, Vec<Frame<'_>>> = BTreeMap::new();
        let mut newest = (0, 0);
        (self.next_stamp, self.next_slot) = (1, 0);
        for slot in 0..self.slots {
            let Some(frame) = disk.read_raw(self.addr(slot)).and_then(|b| self.decode(b)) else {
                continue;
            };
            if (frame.stamp, frame.seq) >= newest {
                newest = (frame.stamp, frame.seq);
                (self.next_stamp, self.next_slot) = (frame.stamp + 1, (slot + 1) % self.slots);
            }
            groups.entry(frame.stamp).or_default().push(frame);
        }
        let whole = groups.into_iter().filter_map(|(stamp, mut frames)| {
            frames.sort_by_key(|f| f.seq);
            let total = frames[0].total;
            let complete = frames.len() == total as usize
                && frames
                    .iter()
                    .enumerate()
                    .all(|(i, f)| f.seq as usize == i && f.total == total);
            complete.then(|| {
                (
                    stamp,
                    frames.iter().flat_map(|f| f.chunk).copied().collect(),
                )
            })
        });
        whole.collect()
    }
}

/// Writes `run` as one device run and forces it: the elementary writes
/// of one append, paying one positioning per track the run touches.
///
/// # Errors
///
/// Whatever the device reports — among them [`DiskError::Crashed`] when
/// a scheduled kill tore the run at one of its blocks.
pub fn force<D: BlockDevice>(
    ctx: &mut Ctx,
    disk: &mut D,
    run: &[(BlockAddr, Bytes)],
) -> Result<(), DiskError> {
    disk.write_many(ctx, run)?;
    disk.flush(ctx)
}
