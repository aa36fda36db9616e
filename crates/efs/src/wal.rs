//! Per-LFS write-ahead log: intent records, group commit, recovery scan.
//!
//! The paper's EFS carried a Cronus "resiliency remnant" (sequential
//! tombstoning deletes) but nothing actually survived a node killed between
//! two dependent block writes. This module gives each LFS instance a small
//! log region on its own simdisk:
//!
//! * Mutating operations append intent records in memory
//!   ([`Wal::log`]); the server acknowledges nothing until
//!   [`Efs::commit`](crate::Efs::commit) has made the batch durable.
//! * A *commit* encodes the pending records into one batch (one LSN,
//!   one or more log blocks), writes the blocks into the ring as one
//!   device run — the log is sequential and track-true
//!   ([`crate::ring`]), so a batch of at most one track pays exactly one
//!   positioning — and flushes the device.
//!   EFS uses *ordered journaling*: data-block
//!   payloads go to their home locations before commit, so records only
//!   carry metadata intent (directory entries, allocation effects) plus
//!   enough to reconstruct the client reply. The one exception is a
//!   committed 2PC block write: its payload is already in the log (the
//!   Prepare, or the unprepared Decide, carries it), so the write is
//!   acknowledged once its record is durable and goes home after the
//!   reply — a *redo* record.
//! * Recovery ([`Efs::recover`](crate::Efs::recover)) raw-scans the
//!   ring, discards torn batches (incomplete block sets or checksum
//!   mismatches), replays committed records above the newest checkpoint
//!   in LSN order, redoes the block writes whose home write a crash may
//!   have cut short, and rebuilds the allocator from directory
//!   reachability.
//!
//! ## Batch encoding
//!
//! A batch is one payload — a record count, then the records, each a
//! tag byte and its fields through the one field codec
//! ([`crate::codec`]) — framed into the ring ([`crate::ring`]) under
//! the batch's LSN. Frames are self-describing, so a batch missing any
//! frame — the torn tail a crash mid-commit leaves — is unambiguously
//! invalid. A batch whose frames all check out but whose records do not
//! decode is dropped the same way.
//!
//! ## Checkpoints and ring space
//!
//! A checkpoint persists the deferred directory buckets and the
//! allocation bitmap (one device run), then appends a
//! [`WalRecord::Checkpoint`] batch (a second). Commit never runs a
//! checkpoint while uncommitted records are pending (the checkpoint
//! would persist their in-memory effects before their intent is
//! durable), so [`Efs::commit`](crate::Efs::commit) always writes the
//! pending batch *first* and checkpoints after — and since the batch is
//! durable by then, the server acknowledges it in between. Records since
//! the last durable checkpoint are never overwritten: the slots a batch
//! uses up — its frames and any it skipped to stay on one track — count
//! against that span, the checkpoint policy fires once half the ring is
//! live, and a request whose records would not fit is refused
//! ([`EfsError::LogFull`]) before it applies anything. While a
//! transaction is in doubt the checkpoint waits, so the ring can fill;
//! one track of it is then held back for the Decide that ends the wait.

use crate::codec::{wire_enum, Reader, Wire, Writer};
use crate::error::EfsError;
use crate::layout::LfsFileId;
use crate::lfs::LfsData;
use crate::ring::{self, Ring};
use bytes::Bytes;
use parsim::Ctx;
use simdisk::{BlockAddr, BlockDevice};
use std::collections::BTreeMap;

/// Magic tag at the front of every WAL block.
pub const WAL_MAGIC: u32 = 0x3A11_06ED;

/// WAL tuning knobs for one EFS instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Blocks reserved for the log ring. `0` disables the WAL entirely:
    /// the instance behaves exactly like the pre-WAL EFS (write-through
    /// directory, no commit barrier, no crash recovery).
    pub log_blocks: u32,
    /// Requests the server may acknowledge with one commit (group
    /// commit). `1` commits after every mutating operation.
    pub group_commit: u32,
}

impl WalConfig {
    /// The WAL switched off (the default).
    pub fn disabled() -> Self {
        WalConfig {
            log_blocks: 0,
            group_commit: 1,
        }
    }

    /// The standard crash-consistent configuration: a 64-block ring with
    /// 8-way group commit.
    pub fn standard() -> Self {
        WalConfig {
            log_blocks: 64,
            group_commit: 8,
        }
    }

    /// True when this configuration carves a log region.
    pub fn is_enabled(&self) -> bool {
        self.log_blocks > 0
    }
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig::disabled()
    }
}

/// What a machine-wide transaction asks this participant to do. One
/// prepare covers every file the coordinator touches on this instance
/// (a Bridge primary plus its mirror/parity companion, or a whole
/// `DeleteMany` batch's columns), so a fan-out needs exactly one prepare
/// round trip per node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrepareIntent {
    /// Create these files (empty) on this instance.
    CreateFiles(Vec<LfsFileId>),
    /// Delete these files on this instance. Files absent from the
    /// directory are skipped (they contribute nothing to the freed
    /// count): a column can be legitimately missing on a node that was
    /// failed when the file was created.
    DeleteFiles(Vec<LfsFileId>),
    /// Write one block of this file. The payload rides in the intent, so
    /// the prepare itself applies *nothing*: the participant validates
    /// the write (position, payload size, allocation headroom), forces
    /// the intent, and votes yes. The data write runs at decide(commit)
    /// through the normal write path — a redundant write (data column
    /// plus its parity or mirror companion on another node) therefore
    /// becomes durable on every participant or on none, and recovery has
    /// no tentative block state to unwind.
    WriteBlock {
        /// The file whose block is written.
        file: LfsFileId,
        /// Position in the file: `< size` overwrites, `== size` appends.
        block_no: u32,
        /// The block payload to apply at commit.
        payload: bytes::Bytes,
    },
}

impl PrepareIntent {
    /// The files this intent touches.
    pub fn files(&self) -> &[LfsFileId] {
        match self {
            PrepareIntent::CreateFiles(f) | PrepareIntent::DeleteFiles(f) => f,
            PrepareIntent::WriteBlock { file, .. } => std::slice::from_ref(file),
        }
    }

    /// Encoded size in bytes, which doubles as the simulated wire size of
    /// a request carrying this intent.
    pub fn wire_size(&self) -> usize {
        Writer::measure(|w| {
            w.put(self);
        })
    }
}

/// A kind byte, then the file list or the block write. The coordinator's
/// decision log embeds intents in its BEGIN records through this same
/// impl, so both logs hold them in one format.
impl Wire for PrepareIntent {
    fn put(&self, w: &mut Writer<'_>) {
        match self {
            PrepareIntent::CreateFiles(files) => w.put(&0u8).put(files),
            PrepareIntent::DeleteFiles(files) => w.put(&1u8).put(files),
            PrepareIntent::WriteBlock {
                file,
                block_no,
                payload,
            } => w.put(&2u8).put(file).put(block_no).put(payload),
        };
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, EfsError> {
        match r.get::<u8>()? {
            0 => r.get().map(PrepareIntent::CreateFiles),
            1 => r.get().map(PrepareIntent::DeleteFiles),
            2 => Ok(PrepareIntent::WriteBlock {
                file: r.get()?,
                block_no: r.get()?,
                payload: r.get()?,
            }),
            kind => Err(r.corrupt(format_args!("unknown intent kind {kind}"))),
        }
    }
}

impl Wire for LfsFileId {
    fn put(&self, w: &mut Writer<'_>) {
        w.put(&self.0);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, EfsError> {
        r.get().map(LfsFileId)
    }
}

impl Wire for BlockAddr {
    fn put(&self, w: &mut Writer<'_>) {
        w.put(&self.index());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, EfsError> {
        r.get().map(BlockAddr::new)
    }
}

/// One logged intent. `client`/`id` echo the request so recovery can
/// reconstruct the exact reply and seed the dedup window — a retransmit
/// of a committed-but-crash-interrupted operation replays instead of
/// re-executing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalRecord {
    /// A file was created (empty).
    Create {
        /// Requesting client's process index.
        client: u32,
        /// Request id.
        id: u64,
        /// The new file.
        file: LfsFileId,
    },
    /// A write or write-run left the file's chain in this absolute state.
    /// Replay overwrites the directory entry, which is idempotent.
    SetChain {
        client: u32,
        id: u64,
        file: LfsFileId,
        /// Directory entry after the operation.
        first: BlockAddr,
        /// Directory entry after the operation.
        last: BlockAddr,
        /// File size in blocks after the operation.
        size: u32,
        /// True when the reply is `WrittenRun` (else `Written`).
        run: bool,
        /// Block addresses to echo in the reconstructed reply.
        addrs: Vec<BlockAddr>,
    },
    /// A file was deleted; its blocks return to the allocator (which
    /// recovery rebuilds from reachability, so no address list is
    /// needed).
    Delete {
        client: u32,
        id: u64,
        file: LfsFileId,
        /// Blocks freed, echoed in the reconstructed reply.
        freed: u32,
    },
    /// Directory and bitmap state up to this LSN is durable at home.
    Checkpoint,
    /// Phase 1 of a machine-wide transaction: this participant applied
    /// `intent` tentatively and votes yes. A Prepare with no later
    /// [`WalRecord::Decide`] for the same `txn` is *in doubt*: recovery
    /// rolls the tentative effect back (presumed abort) and drops the
    /// record from the dedup re-seed, so a coordinator retransmit
    /// re-executes against the rolled-back state instead of replaying a
    /// stale "prepared" acknowledgement.
    Prepare {
        client: u32,
        id: u64,
        /// Coordinator-assigned transaction id.
        txn: u64,
        intent: PrepareIntent,
        /// Blocks this participant will free if the transaction commits,
        /// echoed in the prepare acknowledgement (zero for creates).
        freed: u32,
    },
    /// Phase 2 at a participant that does not hold the transaction
    /// prepared: the intent rides along so a participant that already
    /// rolled back (or never prepared) can apply the decision directly and
    /// idempotently.
    Decide {
        client: u32,
        id: u64,
        txn: u64,
        /// True = commit, false = abort.
        commit: bool,
        intent: PrepareIntent,
        /// Blocks actually freed by applying the decision (non-zero only
        /// for a committed delete), echoed in the acknowledgement.
        freed: u32,
    },
    /// Phase 2 at a participant that holds the transaction prepared: the
    /// intent is its [`WalRecord::Prepare`]'s, which recovery pairs it
    /// with by `txn`, so the decision carries no payload of its own.
    DecideRef {
        client: u32,
        id: u64,
        txn: u64,
        /// True = commit, false = abort.
        commit: bool,
        /// Blocks actually freed, echoed in the acknowledgement.
        freed: u32,
    },
}

/// A committed operation reconstructed by recovery, for re-arming the
/// server's dedup window: a delayed duplicate of the request must replay
/// this reply, not re-execute against the recovered state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredOp {
    /// Requesting client's process index.
    pub client: u32,
    /// Request id.
    pub id: u64,
    /// The reply the original execution produced.
    pub reply: LfsData,
}

// The records' wire layouts: tag byte, then the fields in this order.
wire_enum!(WalRecord {
    1 => Create { client, id, file },
    2 => SetChain { client, id, file, first, last, size, run, addrs },
    3 => Delete { client, id, file, freed },
    4 => Checkpoint {},
    5 => Prepare { client, id, txn, freed, intent },
    6 => Decide { client, id, txn, commit, freed, intent },
    7 => DecideRef { client, id, txn, commit, freed },
});

impl WalRecord {
    /// The recovered-reply view of an op record (`None` for checkpoints).
    pub(crate) fn recovered(&self) -> Option<RecoveredOp> {
        let (client, id, reply) = match self {
            WalRecord::Create { client, id, .. } => (client, id, LfsData::Done),
            WalRecord::SetChain {
                client,
                id,
                run,
                addrs,
                ..
            } => {
                let reply = if *run {
                    LfsData::WrittenRun {
                        addrs: addrs.clone(),
                    }
                } else {
                    LfsData::Written {
                        addr: *addrs.first()?,
                    }
                };
                (client, id, reply)
            }
            WalRecord::Delete {
                client, id, freed, ..
            }
            | WalRecord::Decide {
                client, id, freed, ..
            }
            | WalRecord::DecideRef {
                client, id, freed, ..
            } => (client, id, LfsData::Freed(*freed)),
            WalRecord::Checkpoint => return None,
            WalRecord::Prepare {
                client, id, freed, ..
            } => (client, id, LfsData::Prepared { freed: *freed }),
        };
        Some(RecoveredOp {
            client: *client,
            id: *id,
            reply,
        })
    }

    /// The transaction id of a [`WalRecord::Prepare`], for the recovery
    /// rule that excludes in-doubt prepares from the dedup re-seed.
    pub(crate) fn prepare_txn(&self) -> Option<u64> {
        match self {
            WalRecord::Prepare { txn, .. } => Some(*txn),
            _ => None,
        }
    }
}

/// Bytes `record` adds to a batch.
pub(crate) fn wire_len(record: &WalRecord) -> usize {
    Writer::measure(|w| {
        w.put(record);
    })
}

/// Bytes of the [`WalRecord::SetChain`] a write of `blocks` blocks logs,
/// known before the write runs.
pub(crate) fn set_chain_len(blocks: usize) -> usize {
    let at = BlockAddr::new(0);
    let empty = WalRecord::SetChain {
        client: 0,
        id: 0,
        file: LfsFileId(0),
        first: at,
        last: at,
        size: 0,
        run: false,
        addrs: Vec::new(),
    };
    wire_len(&empty)
        + blocks
            * Writer::measure(|w| {
                w.put(&at);
            })
}

/// Bytes of a batch that holds no records: its record count.
fn empty_batch_len() -> usize {
    Writer::measure(|w| {
        w.list(&[] as &[WalRecord]);
    })
}

/// One batch's payload: the record count, then the records.
fn encode_batch(records: &[WalRecord]) -> Vec<u8> {
    Writer::encode(|w| {
        w.list(records);
    })
}

/// All complete batches the ring scan found whose records decode
/// (the inverse of [`encode_batch`]), by LSN.
fn decode_batches(payloads: BTreeMap<u64, Vec<u8>>) -> BTreeMap<u64, Vec<WalRecord>> {
    let decoded = payloads.into_iter().filter_map(|(lsn, payload)| {
        let records = Reader::new(&payload, "wal record").get().ok()?;
        Some((lsn, records))
    });
    decoded.collect()
}

/// Live WAL state for one mounted instance: the ring, the records not
/// yet committed, and the checkpoint policy that decides when a slot may
/// be reused.
#[derive(Debug)]
pub(crate) struct Wal {
    /// The log region; a batch's stamp is its LSN.
    ring: Ring,
    /// Group-commit width for the owning server.
    pub(crate) group_commit: u32,
    /// Ring slots used up since (and including) the last durable
    /// checkpoint batch, skipped ones included. Records in this span must
    /// never be overwritten.
    since_ckpt: u32,
    /// Records logged but not yet committed.
    pending: Vec<WalRecord>,
    /// Their encoded size, as the next batch's payload.
    pending_len: usize,
    /// Batches committed since mount/recovery (stats).
    pub(crate) commits: u64,
    /// Checkpoints taken since mount/recovery (stats).
    pub(crate) checkpoints: u64,
}

impl Wal {
    /// The log over `ring`, nothing pending and nothing live.
    fn over(ring: Ring, group_commit: u32) -> Wal {
        Wal {
            ring,
            group_commit: group_commit.max(1),
            since_ckpt: 0,
            pending: Vec::new(),
            pending_len: empty_batch_len(),
            commits: 0,
            checkpoints: 0,
        }
    }

    /// A fresh ring: format writes an initial checkpoint batch (raw) so
    /// recovery of an untouched file system finds a well-formed log.
    pub(crate) fn format<D: BlockDevice>(
        disk: &mut D,
        start: u32,
        blocks: u32,
        group_commit: u32,
    ) -> Wal {
        assert!(blocks >= 4, "wal ring needs at least 4 blocks");
        let ring = Ring::new(WAL_MAGIC, start, blocks, disk.geometry());
        let mut wal = Wal::over(ring, group_commit);
        wal.append_checkpoint_raw(disk);
        wal
    }

    /// Queues a record for the next commit.
    pub(crate) fn log(&mut self, record: WalRecord) {
        self.pending_len += wire_len(&record);
        self.pending.push(record);
    }

    /// Admits a request that will log `len` more bytes of records: the
    /// pending batch with them must fit in the ring beside the records
    /// since the last checkpoint — and, unless `last_track` is granted,
    /// leave one track of it free. That track is the Decide's: a Decide
    /// for a transaction held prepared here is the one request that ends
    /// a deferred checkpoint, and it adds at most one frame, which with
    /// the slots it may skip fits in one track.
    ///
    /// # Errors
    ///
    /// [`EfsError::LogFull`]; the request has applied nothing yet.
    pub(crate) fn admit(&self, len: usize, last_track: bool) -> Result<(), EfsError> {
        let reserve = if last_track { 0 } else { self.ring.track() };
        let room = self.ring.slots() - self.since_ckpt;
        if self.ring.cost(self.pending_len + len) + reserve <= room {
            Ok(())
        } else {
            Err(EfsError::LogFull)
        }
    }

    /// Records awaiting commit.
    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Writes the pending batch into the ring as one device run (timed)
    /// and flushes. Returns the number of records committed. The caller
    /// checkpoints afterwards if [`Wal::needs_checkpoint`] — never before,
    /// so a checkpoint can never persist in-memory effects of uncommitted
    /// records.
    pub(crate) fn commit<D: BlockDevice>(
        &mut self,
        ctx: &mut Ctx,
        disk: &mut D,
    ) -> Result<usize, EfsError> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        let records = std::mem::take(&mut self.pending);
        let payload = encode_batch(&records);
        debug_assert_eq!(payload.len(), self.pending_len);
        self.pending_len = empty_batch_len();
        // Every request was admitted against this sum (`Wal::admit`).
        self.since_ckpt += self.ring.cost(payload.len());
        assert!(
            self.since_ckpt <= self.ring.slots(),
            "wal batch would overwrite records since the last checkpoint"
        );
        let run = self.ring.frame(&payload);
        ring::force(ctx, disk, &run)?;
        self.commits += 1;
        Ok(records.len())
    }

    /// True once half the ring is live since the last checkpoint.
    pub(crate) fn needs_checkpoint(&self) -> bool {
        self.since_ckpt >= self.ring.slots() / 2
    }

    /// `(ring blocks live since the last durable checkpoint, ring
    /// capacity)` — the occupancy gauge telemetry reports.
    pub(crate) fn ring_usage(&self) -> (u32, u32) {
        (self.since_ckpt.min(self.ring.slots()), self.ring.slots())
    }

    /// The next checkpoint batch, placed in the ring; once it is durable
    /// nothing before it is live any more.
    fn checkpoint_run(&mut self) -> Vec<(BlockAddr, Bytes)> {
        assert!(self.pending.is_empty(), "checkpoint with records pending");
        let run = self.ring.frame(&encode_batch(&[WalRecord::Checkpoint]));
        self.since_ckpt = run.len() as u32;
        run
    }

    /// Appends and flushes a checkpoint batch (timed). The caller must
    /// have already persisted the directory and bitmap, and there must be
    /// no pending records.
    pub(crate) fn checkpoint<D: BlockDevice>(
        &mut self,
        ctx: &mut Ctx,
        disk: &mut D,
    ) -> Result<(), EfsError> {
        ring::force(ctx, disk, &self.checkpoint_run())?;
        self.checkpoints += 1;
        Ok(())
    }

    /// Raw (untimed) checkpoint append, for format and end-of-recovery.
    pub(crate) fn append_checkpoint_raw<D: BlockDevice>(&mut self, disk: &mut D) {
        for (addr, block) in self.checkpoint_run() {
            disk.write_raw(addr, block);
        }
    }
}

/// Scans the ring and rebuilds the write cursor: returns the WAL, the
/// newest checkpoint LSN (0 if none survived), and every valid batch.
/// Recovery appends a fresh checkpoint immediately, in the slot after the
/// newest valid frame, so nothing the scan validated is clobbered.
pub(crate) fn scan_and_resume<D: BlockDevice>(
    disk: &D,
    start: u32,
    blocks: u32,
    group_commit: u32,
) -> (Wal, u64, BTreeMap<u64, Vec<WalRecord>>) {
    let mut ring = Ring::new(WAL_MAGIC, start, blocks, disk.geometry());
    let batches = decode_batches(ring.resume(disk));
    let checkpoint_lsn = batches
        .iter()
        .filter(|(_, recs)| recs.contains(&WalRecord::Checkpoint))
        .map(|(&lsn, _)| lsn)
        .next_back()
        .unwrap_or(0);
    (Wal::over(ring, group_commit), checkpoint_lsn, batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::BLOCK_SIZE;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Create {
                client: 3,
                id: 17,
                file: LfsFileId(9),
            },
            WalRecord::SetChain {
                client: 3,
                id: 18,
                file: LfsFileId(9),
                first: BlockAddr::new(700),
                last: BlockAddr::new(702),
                size: 3,
                run: true,
                addrs: vec![
                    BlockAddr::new(700),
                    BlockAddr::new(701),
                    BlockAddr::new(702),
                ],
            },
            WalRecord::Delete {
                client: 4,
                id: 5,
                file: LfsFileId(2),
                freed: 12,
            },
        ]
    }

    /// The ring the tests frame into: 8 slots from block 10.
    fn test_ring() -> Ring {
        Ring::new(WAL_MAGIC, 10, 8, simdisk::DiskGeometry::default())
    }

    /// An instant disk holding `frames`, as raw blocks.
    fn disk_holding(frames: &[(BlockAddr, Bytes)]) -> simdisk::SimDisk {
        use simdisk::{DiskGeometry, DiskProfile, SimDisk};
        let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::instant());
        for (addr, frame) in frames {
            disk.write_raw(*addr, frame.clone());
        }
        disk
    }

    /// Every complete batch in the ring at `start`, decoded, by LSN.
    fn scan_batches<D: BlockDevice>(
        disk: &D,
        start: u32,
        blocks: u32,
    ) -> BTreeMap<u64, Vec<WalRecord>> {
        decode_batches(Ring::new(WAL_MAGIC, start, blocks, disk.geometry()).scan(disk))
    }

    #[test]
    fn records_round_trip_through_a_batch() {
        let records = sample_records();
        let frames = test_ring().frame(&encode_batch(&records));
        assert_eq!(frames.len(), 1, "small batch fits one block");
        let scanned = scan_batches(&disk_holding(&frames), 10, 8);
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[&1], records, "the first batch carries LSN 1");
    }

    #[test]
    fn large_batches_span_blocks_and_torn_tails_are_dropped() {
        // Enough addresses to overflow one block's payload.
        let addrs: Vec<BlockAddr> = (0..600).map(BlockAddr::new).collect();
        let records = vec![WalRecord::SetChain {
            client: 1,
            id: 2,
            file: LfsFileId(1),
            first: addrs[0],
            last: *addrs.last().unwrap(),
            size: addrs.len() as u32,
            run: true,
            addrs: addrs.clone(),
        }];
        let frames = test_ring().frame(&encode_batch(&records));
        assert!(frames.len() >= 3, "batch spans blocks: {}", frames.len());

        let complete = scan_batches(&disk_holding(&frames), 10, 8);
        assert_eq!(complete.len(), 1);
        assert_eq!(complete[&1], records);

        // Tear the tail: drop the last block of the batch.
        let torn = disk_holding(&frames[..frames.len() - 1]);
        assert!(scan_batches(&torn, 10, 8).is_empty(), "torn batch dropped");
    }

    /// A ring on a Wren disk, one process driving it: `f` gets the clock,
    /// the disk and the freshly formatted log (slot 0 holds format's
    /// checkpoint).
    fn on_wren_ring<R: 'static>(
        start: u32,
        blocks: u32,
        f: impl FnOnce(&mut Ctx, &mut simdisk::SimDisk, &mut Wal) -> R + 'static,
    ) -> R {
        use simdisk::{DiskGeometry, DiskProfile, SimDisk};
        let mut sim = parsim::Simulation::new(parsim::SimConfig::default());
        let node = sim.add_node("n");
        sim.block_on(node, "log", move |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
            let mut wal = Wal::format(&mut disk, start, blocks, 1);
            f(ctx, &mut disk, &mut wal)
        })
    }

    /// A record that fills `blocks` log blocks on its own.
    fn record_of(blocks: usize) -> WalRecord {
        let addrs = (blocks - 1) * (BLOCK_SIZE - crate::ring::FRAME_HEADER) / 4 + 8;
        let addrs: Vec<BlockAddr> = (0..addrs as u32).map(BlockAddr::new).collect();
        let record = WalRecord::SetChain {
            client: 1,
            id: 2,
            file: LfsFileId(3),
            first: addrs[0],
            last: addrs[addrs.len() - 1],
            size: addrs.len() as u32,
            run: true,
            addrs,
        };
        let payload = encode_batch(std::slice::from_ref(&record));
        assert_eq!(test_ring().frames_for(payload.len()), blocks);
        record
    }

    /// Commits one `blocks`-block batch; returns the virtual milliseconds
    /// it took and the elementary writes the disk counted.
    fn commit_of(
        ctx: &mut Ctx,
        disk: &mut simdisk::SimDisk,
        wal: &mut Wal,
        blocks: usize,
    ) -> (u64, u64) {
        let (t0, w0) = (ctx.now(), disk.stats().writes);
        wal.log(record_of(blocks));
        assert_eq!(wal.commit(ctx, disk).unwrap(), 1);
        let ms = (ctx.now() - t0).as_nanos() / 1_000_000;
        (ms, disk.stats().writes - w0)
    }

    #[test]
    fn a_batch_on_one_track_pays_one_positioning() {
        // Track-aligned ring, 8 blocks a track: slots 1..=7 share slot
        // 0's track.
        on_wren_ring(16, 16, |ctx, disk, wal| {
            for k in [1usize, 2, 4] {
                let (ms, writes) = commit_of(ctx, disk, wal, k);
                assert_eq!(ms, 15 + k as u64, "{k} blocks: 15 ms + 1 ms a block");
                assert_eq!(writes, k as u64, "{k} blocks: one elementary write each");
            }
        });
    }

    #[test]
    fn a_batch_pays_one_positioning_per_distinct_track() {
        on_wren_ring(16, 16, |ctx, disk, wal| {
            // Slots 1..=5, on the ring's first track.
            assert_eq!(commit_of(ctx, disk, wal, 5), (20, 5));
            // Slots 6, 7 | 8 would cross into the second track: the batch
            // skips to slot 8 and pays one positioning.
            assert_eq!(commit_of(ctx, disk, wal, 3), (18, 3), "one track");
            assert_eq!(wal.ring_usage().0, 1 + 5 + 2 + 3, "skipped slots are live");
            // A checkpoint (slot 11) frees the ring; slots 12..=16 would
            // run off its end, so the next batch takes slots 0..=4.
            wal.checkpoint(ctx, disk).unwrap();
            assert_eq!(commit_of(ctx, disk, wal, 5), (20, 5), "wrapped");
            assert_eq!(wal.ring_usage().0, 1 + 4 + 5);
            assert_eq!(commit_of(ctx, disk, wal, 3), (18, 3));
            // The scan finds the batches since LSN 3 (slots 8..=10); the
            // first two lost slots to the batches after the checkpoint.
            let lsns: Vec<u64> = scan_batches(&*disk, 16, 16).into_keys().collect();
            assert_eq!(lsns, [3, 4, 5, 6]);
        });
    }

    /// The ring region's bytes, the clock and the write count after a
    /// fixed history — a one-block batch, a three-block batch, a
    /// checkpoint, and a three-block batch that wraps — pinned from the
    /// tree before the frame-and-ring mechanism moved out of this file.
    /// The log's on-disk format and the writes it issues are not allowed
    /// to move.
    #[test]
    fn ring_bytes_clock_and_writes_are_pinned() {
        use simdisk::{DiskGeometry, DiskProfile, SimDisk};
        let wide = |id: u64| {
            let addrs: Vec<BlockAddr> = (0..500).map(|a| BlockAddr::new(a * 3 + 1)).collect();
            WalRecord::SetChain {
                client: 2,
                id,
                file: LfsFileId(11),
                first: addrs[0],
                last: addrs[addrs.len() - 1],
                size: addrs.len() as u32,
                run: false,
                addrs,
            }
        };
        let mut sim = parsim::Simulation::new(parsim::SimConfig::default());
        let node = sim.add_node("n");
        let (digest, nanos, writes) = sim.block_on(node, "log", move |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
            // Slot 0 holds format's checkpoint.
            let mut wal = Wal::format(&mut disk, 16, 8, 1);
            for record in sample_records() {
                wal.log(record);
            }
            wal.log(WalRecord::Prepare {
                client: 5,
                id: 6,
                txn: 7,
                intent: PrepareIntent::DeleteFiles(vec![LfsFileId(1), LfsFileId(2)]),
                freed: 8,
            });
            wal.log(WalRecord::Decide {
                client: 5,
                id: 9,
                txn: 7,
                commit: true,
                intent: PrepareIntent::WriteBlock {
                    file: LfsFileId(4),
                    block_no: 3,
                    payload: bytes::Bytes::from_static(b"decided payload"),
                },
                freed: 0,
            });
            assert_eq!(wal.commit(ctx, &mut disk).unwrap(), 5); // slot 1
            wal.log(wide(20));
            assert_eq!(wal.commit(ctx, &mut disk).unwrap(), 1); // slots 2, 3, 4
            wal.checkpoint(ctx, &mut disk).unwrap(); // slot 5
            wal.log(wide(21));
            assert_eq!(wal.commit(ctx, &mut disk).unwrap(), 1); // slots 6, 7 | 0
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            for slot in 16..24 {
                for &byte in disk.read_raw(BlockAddr::new(slot)).expect("slot written") {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            (digest, ctx.now().as_nanos(), disk.stats().writes)
        });
        assert_eq!(
            (digest, nanos, writes),
            (0x6f82_133f_a630_3a39, 68_000_000, 8),
            "the LFS log's bytes, virtual time or write count moved"
        );
    }

    #[test]
    fn write_block_intent_round_trips() {
        let intent = PrepareIntent::WriteBlock {
            file: LfsFileId(7),
            block_no: 3,
            payload: bytes::Bytes::from_static(b"parity column"),
        };
        let mut buf = Vec::new();
        Writer::new(&mut buf).put(&intent);
        assert_eq!(buf.len(), intent.wire_size());
        let mut r = Reader::new(&buf, "intent");
        assert_eq!(r.get::<PrepareIntent>().unwrap(), intent);
        assert!(r.raw(1).is_err(), "every byte consumed");
        assert_eq!(intent.files(), &[LfsFileId(7)]);
    }

    #[test]
    fn corrupted_block_fails_its_checksum() {
        let frames = test_ring().frame(&encode_batch(&sample_records()));
        let (addr, good) = &frames[0];
        assert_eq!(scan_batches(&disk_holding(&frames), 10, 8).len(), 1);
        let mut bad = good.to_vec();
        bad[40] ^= 0x01;
        let flipped = disk_holding(&[(*addr, bad.into())]);
        assert!(scan_batches(&flipped, 10, 8).is_empty());
        // And garbage is rejected outright.
        let blank = disk_holding(&[(*addr, vec![0u8; BLOCK_SIZE].into())]);
        assert!(scan_batches(&blank, 10, 8).is_empty());
    }

    #[test]
    fn a_record_truncated_at_any_byte_is_corrupt() {
        let intent = PrepareIntent::CreateFiles(vec![LfsFileId(4), LfsFileId(5)]);
        let mut records = sample_records();
        records.push(WalRecord::Checkpoint);
        records.push(WalRecord::Prepare {
            client: 1,
            id: 2,
            txn: 3,
            intent: intent.clone(),
            freed: 0,
        });
        records.push(WalRecord::Decide {
            client: 1,
            id: 4,
            txn: 3,
            commit: false,
            intent,
            freed: 0,
        });
        for record in records {
            let mut bytes = Vec::new();
            Writer::new(&mut bytes).put(&record);
            let read = |bytes| Reader::new(bytes, "wal record").get::<WalRecord>();
            assert_eq!(read(&bytes), Ok(record));
            for cut in 0..bytes.len() {
                assert!(matches!(read(&bytes[..cut]), Err(EfsError::Corrupt(_))));
            }
        }
    }

    #[test]
    fn recovered_reply_shapes_match_records() {
        let recs = sample_records();
        assert_eq!(recs[0].recovered().unwrap().reply, LfsData::Done);
        assert_eq!(
            recs[1].recovered().unwrap().reply,
            LfsData::WrittenRun {
                addrs: vec![
                    BlockAddr::new(700),
                    BlockAddr::new(701),
                    BlockAddr::new(702),
                ]
            }
        );
        assert_eq!(recs[2].recovered().unwrap().reply, LfsData::Freed(12));
        assert_eq!(WalRecord::Checkpoint.recovered(), None);
    }
}
