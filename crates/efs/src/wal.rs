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
//!   device run — the log is sequential, so a batch pays one positioning
//!   per track it touches, not one per block — and flushes the device.
//!   EFS uses *ordered journaling*: data-block
//!   payloads go to their home locations before commit, so records only
//!   carry metadata intent (directory entries, allocation effects) plus
//!   enough to reconstruct the client reply.
//! * Recovery ([`Efs::recover`](crate::Efs::recover)) raw-scans the
//!   ring, discards torn batches (incomplete block sets or checksum
//!   mismatches), replays committed records above the newest checkpoint
//!   in LSN order, and rebuilds the allocator from directory
//!   reachability.
//!
//! ## Batch encoding
//!
//! Every log block is self-describing, so a batch may wrap around the
//! ring with no physical contiguity requirement. Each block starts with
//! a 32-byte header:
//!
//! ```text
//! magic: u32  lsn: u64  seq: u32  total: u32  len: u32  checksum: u64
//! ```
//!
//! The scan groups blocks by LSN, requires the complete `0..total`
//! sequence with consistent `total`, reassembles the payload, and
//! verifies each block's checksum. A batch missing any block — the torn
//! tail a crash mid-commit leaves — is unambiguously invalid.
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
//! the last durable checkpoint are never overwritten: the checkpoint
//! policy fires once half the ring is live, and commit asserts the
//! invariant.

use crate::error::EfsError;
use crate::layout::{LfsFileId, BLOCK_SIZE};
use crate::lfs::LfsData;
use bytes::{Buf, BufMut, Bytes};
use parsim::{mix64, Ctx};
use simdisk::{BlockAddr, BlockDevice};
use std::collections::BTreeMap;

/// Magic tag at the front of every WAL block.
pub const WAL_MAGIC: u32 = 0x3A11_06ED;

/// Per-block WAL header bytes (magic, lsn, seq, total, len, checksum).
pub const WAL_HEADER_SIZE: usize = 32;

/// Record payload bytes that fit in one log block.
pub const WAL_BLOCK_PAYLOAD: usize = BLOCK_SIZE - WAL_HEADER_SIZE;

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
        match self {
            PrepareIntent::CreateFiles(f) | PrepareIntent::DeleteFiles(f) => 5 + f.len() * 4,
            PrepareIntent::WriteBlock { payload, .. } => 13 + payload.len(),
        }
    }

    /// Serializes the intent (kind byte, count, file ids). Public so the
    /// coordinator's decision log can embed intents in its BEGIN records
    /// with the exact same wire format the participant WALs use.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            PrepareIntent::CreateFiles(f) | PrepareIntent::DeleteFiles(f) => {
                let kind = match self {
                    PrepareIntent::CreateFiles(_) => 0u8,
                    _ => 1u8,
                };
                buf.put_u8(kind);
                buf.put_u32_le(f.len() as u32);
                for file in f {
                    buf.put_u32_le(file.0);
                }
            }
            PrepareIntent::WriteBlock {
                file,
                block_no,
                payload,
            } => {
                buf.put_u8(2);
                buf.put_u32_le(file.0);
                buf.put_u32_le(*block_no);
                buf.put_u32_le(payload.len() as u32);
                buf.put_slice(payload);
            }
        }
    }

    /// Inverse of [`PrepareIntent::encode`], consuming from `buf`.
    ///
    /// # Errors
    ///
    /// [`EfsError::Corrupt`] on truncation or an unknown kind byte.
    pub fn decode(buf: &mut &[u8]) -> Result<PrepareIntent, EfsError> {
        let corrupt = |why: &str| EfsError::Corrupt(format!("wal intent: {why}"));
        if buf.is_empty() {
            return Err(corrupt("truncated"));
        }
        let kind = buf.get_u8();
        match kind {
            0 | 1 => {
                if buf.len() < 4 {
                    return Err(corrupt("truncated"));
                }
                let n = buf.get_u32_le() as usize;
                if buf.len() < n.saturating_mul(4) {
                    return Err(corrupt("truncated"));
                }
                let files = (0..n).map(|_| LfsFileId(buf.get_u32_le())).collect();
                if kind == 0 {
                    Ok(PrepareIntent::CreateFiles(files))
                } else {
                    Ok(PrepareIntent::DeleteFiles(files))
                }
            }
            2 => {
                if buf.len() < 12 {
                    return Err(corrupt("truncated"));
                }
                let file = LfsFileId(buf.get_u32_le());
                let block_no = buf.get_u32_le();
                let len = buf.get_u32_le() as usize;
                if buf.len() < len {
                    return Err(corrupt("truncated"));
                }
                let payload = bytes::Bytes::copy_from_slice(&buf[..len]);
                *buf = &buf[len..];
                Ok(PrepareIntent::WriteBlock {
                    file,
                    block_no,
                    payload,
                })
            }
            k => Err(corrupt(&format!("unknown intent kind {k}"))),
        }
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
    /// Phase 2: the coordinator's decision reached this participant. The
    /// intent rides along so a participant that already rolled back (or
    /// never prepared) can apply the decision directly and idempotently.
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

impl WalRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Create { client, id, file } => {
                buf.put_u8(1);
                buf.put_u32_le(*client);
                buf.put_u64_le(*id);
                buf.put_u32_le(file.0);
            }
            WalRecord::SetChain {
                client,
                id,
                file,
                first,
                last,
                size,
                run,
                addrs,
            } => {
                buf.put_u8(2);
                buf.put_u32_le(*client);
                buf.put_u64_le(*id);
                buf.put_u32_le(file.0);
                buf.put_u32_le(first.index());
                buf.put_u32_le(last.index());
                buf.put_u32_le(*size);
                buf.put_u8(u8::from(*run));
                buf.put_u32_le(addrs.len() as u32);
                for a in addrs {
                    buf.put_u32_le(a.index());
                }
            }
            WalRecord::Delete {
                client,
                id,
                file,
                freed,
            } => {
                buf.put_u8(3);
                buf.put_u32_le(*client);
                buf.put_u64_le(*id);
                buf.put_u32_le(file.0);
                buf.put_u32_le(*freed);
            }
            WalRecord::Checkpoint => buf.put_u8(4),
            WalRecord::Prepare {
                client,
                id,
                txn,
                intent,
                freed,
            } => {
                buf.put_u8(5);
                buf.put_u32_le(*client);
                buf.put_u64_le(*id);
                buf.put_u64_le(*txn);
                buf.put_u32_le(*freed);
                intent.encode(buf);
            }
            WalRecord::Decide {
                client,
                id,
                txn,
                commit,
                intent,
                freed,
            } => {
                buf.put_u8(6);
                buf.put_u32_le(*client);
                buf.put_u64_le(*id);
                buf.put_u64_le(*txn);
                buf.put_u8(u8::from(*commit));
                buf.put_u32_le(*freed);
                intent.encode(buf);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<WalRecord, EfsError> {
        let corrupt = |why: &str| EfsError::Corrupt(format!("wal record: {why}"));
        if buf.is_empty() {
            return Err(corrupt("truncated"));
        }
        let tag = buf.get_u8();
        let need = |buf: &&[u8], n: usize| {
            if buf.len() < n {
                Err(corrupt("truncated"))
            } else {
                Ok(())
            }
        };
        match tag {
            1 => {
                need(buf, 16)?;
                Ok(WalRecord::Create {
                    client: buf.get_u32_le(),
                    id: buf.get_u64_le(),
                    file: LfsFileId(buf.get_u32_le()),
                })
            }
            2 => {
                need(buf, 33)?;
                let client = buf.get_u32_le();
                let id = buf.get_u64_le();
                let file = LfsFileId(buf.get_u32_le());
                let first = BlockAddr::new(buf.get_u32_le());
                let last = BlockAddr::new(buf.get_u32_le());
                let size = buf.get_u32_le();
                let run = buf.get_u8() != 0;
                let n = buf.get_u32_le() as usize;
                need(buf, n.saturating_mul(4))?;
                let addrs = (0..n).map(|_| BlockAddr::new(buf.get_u32_le())).collect();
                Ok(WalRecord::SetChain {
                    client,
                    id,
                    file,
                    first,
                    last,
                    size,
                    run,
                    addrs,
                })
            }
            3 => {
                need(buf, 20)?;
                Ok(WalRecord::Delete {
                    client: buf.get_u32_le(),
                    id: buf.get_u64_le(),
                    file: LfsFileId(buf.get_u32_le()),
                    freed: buf.get_u32_le(),
                })
            }
            4 => Ok(WalRecord::Checkpoint),
            5 => {
                need(buf, 24)?;
                let client = buf.get_u32_le();
                let id = buf.get_u64_le();
                let txn = buf.get_u64_le();
                let freed = buf.get_u32_le();
                let intent = PrepareIntent::decode(buf)?;
                Ok(WalRecord::Prepare {
                    client,
                    id,
                    txn,
                    intent,
                    freed,
                })
            }
            6 => {
                need(buf, 25)?;
                let client = buf.get_u32_le();
                let id = buf.get_u64_le();
                let txn = buf.get_u64_le();
                let commit = buf.get_u8() != 0;
                let freed = buf.get_u32_le();
                let intent = PrepareIntent::decode(buf)?;
                Ok(WalRecord::Decide {
                    client,
                    id,
                    txn,
                    commit,
                    intent,
                    freed,
                })
            }
            t => Err(corrupt(&format!("unknown tag {t}"))),
        }
    }

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

/// Mixes the block header fields and payload into the per-block checksum.
fn wal_checksum(lsn: u64, seq: u32, total: u32, payload: &[u8]) -> u64 {
    let mut acc = mix64(lsn, u64::from(seq) << 32 | u64::from(total));
    for chunk in payload.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        acc = mix64(acc, u64::from_le_bytes(word));
    }
    acc
}

/// Encodes one batch: the records' concatenated payload split across
/// self-describing log blocks.
fn encode_batch(lsn: u64, records: &[WalRecord]) -> Vec<Bytes> {
    let mut payload = Vec::new();
    payload.put_u32_le(records.len() as u32);
    for r in records {
        r.encode(&mut payload);
    }
    let total = payload.len().div_ceil(WAL_BLOCK_PAYLOAD).max(1);
    assert!(total <= u32::MAX as usize, "wal batch too large");
    let mut blocks = Vec::with_capacity(total);
    for seq in 0..total {
        let start = seq * WAL_BLOCK_PAYLOAD;
        let end = (start + WAL_BLOCK_PAYLOAD).min(payload.len());
        let chunk = &payload[start..end];
        let mut block = Vec::with_capacity(BLOCK_SIZE);
        block.put_u32_le(WAL_MAGIC);
        block.put_u64_le(lsn);
        block.put_u32_le(seq as u32);
        block.put_u32_le(total as u32);
        block.put_u32_le(chunk.len() as u32);
        block.put_u64_le(wal_checksum(lsn, seq as u32, total as u32, chunk));
        block.put_slice(chunk);
        block.resize(BLOCK_SIZE, 0);
        blocks.push(block.into());
    }
    blocks
}

/// One decoded block, pre-grouping.
struct ScannedBlock {
    seq: u32,
    total: u32,
    payload: Vec<u8>,
}

fn decode_wal_block(bytes: &[u8]) -> Option<(u64, ScannedBlock)> {
    if bytes.len() != BLOCK_SIZE {
        return None;
    }
    let mut buf = bytes;
    if buf.get_u32_le() != WAL_MAGIC {
        return None;
    }
    let lsn = buf.get_u64_le();
    let seq = buf.get_u32_le();
    let total = buf.get_u32_le();
    let len = buf.get_u32_le() as usize;
    let checksum = buf.get_u64_le();
    if total == 0 || seq >= total || len > WAL_BLOCK_PAYLOAD || len > buf.len() {
        return None;
    }
    let payload = &buf[..len];
    if wal_checksum(lsn, seq, total, payload) != checksum {
        return None;
    }
    Some((
        lsn,
        ScannedBlock {
            seq,
            total,
            payload: payload.to_vec(),
        },
    ))
}

/// All complete, checksum-valid batches in the ring, by LSN. Torn batches
/// (missing blocks, inconsistent totals, bad checksums) are dropped.
pub(crate) fn scan_batches<D: BlockDevice>(
    disk: &D,
    start: u32,
    blocks: u32,
) -> BTreeMap<u64, Vec<WalRecord>> {
    let mut groups: BTreeMap<u64, Vec<ScannedBlock>> = BTreeMap::new();
    for i in 0..blocks {
        let Some(bytes) = disk.read_raw(BlockAddr::new(start + i)) else {
            continue;
        };
        if let Some((lsn, block)) = decode_wal_block(bytes) {
            groups.entry(lsn).or_default().push(block);
        }
    }
    let mut batches = BTreeMap::new();
    'group: for (lsn, mut group) in groups {
        let total = group[0].total;
        if group.len() != total as usize || group.iter().any(|b| b.total != total) {
            continue;
        }
        group.sort_by_key(|b| b.seq);
        let mut payload = Vec::new();
        for (i, b) in group.iter().enumerate() {
            if b.seq as usize != i {
                continue 'group;
            }
            payload.extend_from_slice(&b.payload);
        }
        let mut buf = payload.as_slice();
        if buf.len() < 4 {
            continue;
        }
        let count = buf.get_u32_le();
        let mut records = Vec::with_capacity(count as usize);
        for _ in 0..count {
            match WalRecord::decode(&mut buf) {
                Ok(r) => records.push(r),
                Err(_) => continue 'group,
            }
        }
        batches.insert(lsn, records);
    }
    batches
}

/// Live WAL state for one mounted instance.
#[derive(Debug)]
pub(crate) struct Wal {
    /// First block of the log region.
    pub(crate) start: u32,
    /// Ring length in blocks.
    pub(crate) blocks: u32,
    /// Group-commit width for the owning server.
    pub(crate) group_commit: u32,
    /// LSN the next batch will carry.
    next_lsn: u64,
    /// Ring offset the next block lands in.
    next_slot: u32,
    /// Ring blocks written since (and including) the last durable
    /// checkpoint batch. Records in this span must never be overwritten.
    since_ckpt: u32,
    /// Records logged but not yet committed.
    pending: Vec<WalRecord>,
    /// Batches committed since mount/recovery (stats).
    pub(crate) commits: u64,
    /// Checkpoints taken since mount/recovery (stats).
    pub(crate) checkpoints: u64,
}

impl Wal {
    /// A fresh ring: format writes an initial checkpoint batch (raw) so
    /// recovery of an untouched file system finds a well-formed log.
    pub(crate) fn format<D: BlockDevice>(
        disk: &mut D,
        start: u32,
        blocks: u32,
        group_commit: u32,
    ) -> Wal {
        assert!(blocks >= 4, "wal ring needs at least 4 blocks");
        let mut wal = Wal {
            start,
            blocks,
            group_commit: group_commit.max(1),
            next_lsn: 1,
            next_slot: 0,
            since_ckpt: 0,
            pending: Vec::new(),
            commits: 0,
            checkpoints: 0,
        };
        wal.append_checkpoint_raw(disk);
        wal
    }

    /// Re-attaches to a scanned ring: `max_lsn` is the newest valid batch
    /// and `next_slot` where the scan's write cursor should resume.
    fn resume(start: u32, blocks: u32, group_commit: u32, next_lsn: u64, next_slot: u32) -> Wal {
        Wal {
            start,
            blocks,
            group_commit: group_commit.max(1),
            next_lsn,
            next_slot,
            since_ckpt: 0,
            pending: Vec::new(),
            commits: 0,
            checkpoints: 0,
        }
    }

    /// Queues a record for the next commit.
    pub(crate) fn log(&mut self, record: WalRecord) {
        self.pending.push(record);
    }

    /// Records awaiting commit.
    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    fn slot_addr(&self, slot: u32) -> BlockAddr {
        BlockAddr::new(self.start + slot % self.blocks)
    }

    /// Gives `batch` the next ring slots, in order: the device run that
    /// carries it into the log.
    fn place(&mut self, batch: Vec<Bytes>) -> Vec<(BlockAddr, Bytes)> {
        let run = batch.into_iter().map(|block| {
            let addr = self.slot_addr(self.next_slot);
            self.next_slot = (self.next_slot + 1) % self.blocks;
            (addr, block)
        });
        run.collect()
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
        let batch = encode_batch(self.next_lsn, &records);
        assert!(
            self.since_ckpt + batch.len() as u32 <= self.blocks,
            "wal batch would overwrite records since the last checkpoint"
        );
        self.since_ckpt += batch.len() as u32;
        let run = self.place(batch);
        disk.write_many(ctx, &run)?;
        disk.flush(ctx)?;
        self.next_lsn += 1;
        self.commits += 1;
        Ok(records.len())
    }

    /// True once half the ring is live since the last checkpoint.
    pub(crate) fn needs_checkpoint(&self) -> bool {
        self.since_ckpt >= self.blocks / 2
    }

    /// `(ring blocks live since the last durable checkpoint, ring
    /// capacity)` — the occupancy gauge telemetry reports.
    pub(crate) fn ring_usage(&self) -> (u32, u32) {
        (self.since_ckpt.min(self.blocks), self.blocks)
    }

    /// The next checkpoint batch, placed in the ring.
    fn checkpoint_run(&mut self) -> Vec<(BlockAddr, Bytes)> {
        assert!(self.pending.is_empty(), "checkpoint with records pending");
        let batch = encode_batch(self.next_lsn, &[WalRecord::Checkpoint]);
        self.place(batch)
    }

    /// The checkpoint batch of `blocks` blocks is durable: nothing before
    /// it is live any more.
    fn stamped(&mut self, blocks: usize) {
        self.next_lsn += 1;
        self.since_ckpt = blocks as u32;
    }

    /// Appends and flushes a checkpoint batch (timed). The caller must
    /// have already persisted the directory and bitmap, and there must be
    /// no pending records.
    pub(crate) fn checkpoint<D: BlockDevice>(
        &mut self,
        ctx: &mut Ctx,
        disk: &mut D,
    ) -> Result<(), EfsError> {
        let run = self.checkpoint_run();
        disk.write_many(ctx, &run)?;
        disk.flush(ctx)?;
        self.stamped(run.len());
        self.checkpoints += 1;
        Ok(())
    }

    /// Raw (untimed) checkpoint append, for format and end-of-recovery.
    pub(crate) fn append_checkpoint_raw<D: BlockDevice>(&mut self, disk: &mut D) {
        let run = self.checkpoint_run();
        for (addr, block) in &run {
            disk.write_raw(*addr, block);
        }
        self.stamped(run.len());
    }
}

/// Scans the ring and rebuilds the write cursor: returns the WAL, the
/// newest checkpoint LSN (0 if none survived), and every valid batch.
pub(crate) fn scan_and_resume<D: BlockDevice>(
    disk: &D,
    start: u32,
    blocks: u32,
    group_commit: u32,
) -> (Wal, u64, BTreeMap<u64, Vec<WalRecord>>) {
    let batches = scan_batches(disk, start, blocks);
    let max_lsn = batches.keys().next_back().copied().unwrap_or(0);
    let checkpoint_lsn = batches
        .iter()
        .filter(|(_, recs)| recs.contains(&WalRecord::Checkpoint))
        .map(|(&lsn, _)| lsn)
        .next_back()
        .unwrap_or(0);
    // Resume writing after the newest valid block of the newest batch.
    // Recovery appends a fresh checkpoint immediately, so the exact slot
    // only has to avoid clobbering batches the scan just validated; we
    // find the slot holding the newest batch's last block and continue
    // from there.
    let mut next_slot = 0;
    let mut best = 0u64;
    for i in 0..blocks {
        if let Some(bytes) = disk.read_raw(BlockAddr::new(start + i)) {
            if let Some((lsn, block)) = decode_wal_block(bytes) {
                let rank = lsn << 32 | u64::from(block.seq);
                if rank >= best {
                    best = rank;
                    next_slot = (i + 1) % blocks;
                }
            }
        }
    }
    let wal = Wal::resume(start, blocks, group_commit, max_lsn + 1, next_slot);
    (wal, checkpoint_lsn, batches)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn records_round_trip_through_a_batch() {
        let records = sample_records();
        let blocks = encode_batch(42, &records);
        assert_eq!(blocks.len(), 1, "small batch fits one block");
        let (lsn, scanned) = decode_wal_block(&blocks[0]).expect("valid block");
        assert_eq!(lsn, 42);
        let mut buf = scanned.payload.as_slice();
        let count = buf.get_u32_le();
        let decoded: Vec<WalRecord> = (0..count)
            .map(|_| WalRecord::decode(&mut buf).unwrap())
            .collect();
        assert_eq!(decoded, records);
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
        let blocks = encode_batch(7, &records);
        assert!(blocks.len() >= 3, "batch spans blocks: {}", blocks.len());

        use simdisk::{DiskGeometry, DiskProfile, SimDisk};
        let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::instant());
        for (i, b) in blocks.iter().enumerate() {
            disk.write_raw(BlockAddr::new(10 + i as u32), b);
        }
        let complete = scan_batches(&disk, 10, 8);
        assert_eq!(complete.len(), 1);
        assert_eq!(complete[&7], records);

        // Tear the tail: drop the last block of the batch.
        let mut torn = SimDisk::new(DiskGeometry::default(), DiskProfile::instant());
        for (i, b) in blocks.iter().enumerate().take(blocks.len() - 1) {
            torn.write_raw(BlockAddr::new(10 + i as u32), b);
        }
        assert!(scan_batches(&torn, 10, 8).is_empty(), "torn batch dropped");
    }

    /// A ring on a Wren disk, one process driving it: `f` gets the clock,
    /// the disk and the freshly formatted log (slot 0 holds format's
    /// checkpoint).
    fn on_wren_ring<R: Send + 'static>(
        start: u32,
        blocks: u32,
        f: impl FnOnce(&mut Ctx, &mut simdisk::SimDisk, &mut Wal) -> R + Send + 'static,
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
        let addrs = (blocks - 1) * WAL_BLOCK_PAYLOAD / 4 + 8;
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
        assert_eq!(encode_batch(1, std::slice::from_ref(&record)).len(), blocks);
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
            // Slots 1..=5, then 6, 7 | 8: the batch crosses into the
            // ring's second track.
            assert_eq!(commit_of(ctx, disk, wal, 5), (20, 5));
            assert_eq!(commit_of(ctx, disk, wal, 3), (33, 3), "two tracks");
            // A checkpoint (slot 9) frees the ring; slots 10..=14 bring
            // the cursor to the last slot.
            wal.checkpoint(ctx, disk).unwrap();
            assert_eq!(commit_of(ctx, disk, wal, 5), (20, 5));
            // Slots 15 | 0, 1: the batch wraps onto the first track.
            assert_eq!(commit_of(ctx, disk, wal, 3), (33, 3), "wrapped");
            // The scan reassembles the wrapped batch (LSN 6); the first
            // one (LSN 2, below the checkpoint) lost a slot to it.
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
        intent.encode(&mut buf);
        assert_eq!(buf.len(), intent.wire_size());
        let mut slice = buf.as_slice();
        assert_eq!(PrepareIntent::decode(&mut slice).unwrap(), intent);
        assert!(slice.is_empty());
        assert_eq!(intent.files(), &[LfsFileId(7)]);
    }

    #[test]
    fn corrupted_block_fails_its_checksum() {
        let blocks = encode_batch(3, &sample_records());
        let mut bad = blocks[0].to_vec();
        bad[40] ^= 0x01;
        assert!(decode_wal_block(&bad).is_none());
        // And garbage is rejected outright.
        assert!(decode_wal_block(&[0u8; BLOCK_SIZE]).is_none());
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
