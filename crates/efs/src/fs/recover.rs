//! Coming back after a crash: replay of the committed log over the
//! directory, redo of the block writes a crash may have kept from home,
//! presumed abort for whatever is left in doubt, and the rebuild of
//! everything that lives only in memory.
//!
//! A logged transaction is replayed through the same two functions the
//! live participant runs (`txn.rs`: `apply_intent` / `undo_intent`), so
//! what a decision does here and what it does live cannot drift apart.
//!
//! Ordered journaling's one exception is a committed 2PC block write,
//! acknowledged at its record and sent home after the reply. Its home
//! write is done before any later request that names its file is served
//! — the server sends every owed write home before the next batch, and a
//! request in the same batch sends its file's first — so it can only be
//! missing when no later record names the file. Those writes, and only
//! those, are redone, in LSN order: redoing one a later record overtook
//! could undo that record's own home write.

use super::{Efs, FsckReport};
use crate::cache::LinkCache;
use crate::directory::{DirEntry, Via};
use crate::error::EfsError;
use crate::layout::{decode_header, encode_block, EfsHeader, LfsFileId, EFS_HEADER_SIZE};
use crate::wal::{scan_and_resume, PrepareIntent, RecoveredOp, WalRecord};
use parsim::FixedMap;
use simdisk::{BlockAddr, BlockDevice, DiskError};
use std::collections::{BTreeMap, BTreeSet};

impl<D: BlockDevice> Efs<D> {
    /// Brings the instance back after its node's crash fault: revives the
    /// device, discards all in-memory state, replays committed WAL
    /// records above the newest durable checkpoint, rebuilds the
    /// allocator and chain shadow from directory reachability, persists
    /// the result, and stamps a fresh checkpoint. Untimed — the crash
    /// schedule's down window stands in for reboot time.
    ///
    /// Returns every operation whose intent record survived in the ring
    /// (committed before the crash, including already-checkpointed ones
    /// not yet overwritten), so the server can re-seed its dedup window:
    /// a delayed duplicate of a committed operation must replay its
    /// reply, never re-execute against the recovered state.
    ///
    /// # Errors
    ///
    /// [`EfsError::Corrupt`] if replay cannot apply a committed record.
    pub fn recover(&mut self) -> Result<Vec<RecoveredOp>, EfsError> {
        self.disk.revive();
        self.links = LinkCache::new(self.config.link_cache_capacity);
        self.dir = self.layout.directory();
        self.req = (0, 0);
        self.prepared = FixedMap::default();
        self.home.clear();
        if self.layout.wal_blocks == 0 {
            self.fsck();
            return Ok(Vec::new());
        }
        let (mut wal, ckpt, batches) = scan_and_resume(
            &self.disk,
            self.layout.wal_start,
            self.layout.wal_blocks,
            self.config.wal.group_commit,
        );
        // Each recovered op is tagged with its Prepare txn (None for
        // ordinary records) so undecided prepares can be dropped from the
        // dedup re-seed at the end: their effects are rolled back, and a
        // coordinator retransmit must re-execute, not replay a stale
        // "prepared" acknowledgement.
        let mut recovered: Vec<(Option<u64>, RecoveredOp)> = Vec::new();
        // Every transaction with a Decide anywhere in the scanned ring,
        // at or below the checkpoint included: a Prepare this recovery
        // rolls back sits below the checkpoint it stamps, so at the
        // *next* recovery only the missing Decide tells it from a
        // settled one.
        let mut decided = BTreeSet::new();
        // Machine-wide transactions whose Prepare replayed but whose
        // Decide has not (yet) been seen, with the directory entries the
        // tentative apply displaced. BTree order keeps the presumed-
        // abort rollback below deterministic. Checkpoints are deferred
        // while any transaction is in doubt, so a Prepare at or below
        // `ckpt` always has its Decide at or below `ckpt` too — skipping
        // both is sound.
        let mut in_doubt = BTreeMap::new();
        // The committed block writes above the checkpoint, by the ordinal
        // of their decision record, and the ordinal of the last record
        // above it naming each file: a write is redone only if its own
        // decision is that last record.
        let mut writes: Vec<(usize, &PrepareIntent)> = Vec::new();
        let mut last_named: BTreeMap<LfsFileId, usize> = BTreeMap::new();
        let replayed = batches
            .iter()
            .flat_map(|(lsn, records)| records.iter().map(move |r| (*lsn, r)));
        for (ordinal, (lsn, record)) in replayed.enumerate() {
            if let Some(op) = record.recovered() {
                recovered.push((record.prepare_txn(), op));
            }
            if let WalRecord::Decide { txn, .. } | WalRecord::DecideRef { txn, .. } = record {
                decided.insert(*txn);
            }
            if lsn <= ckpt {
                continue;
            }
            let raw = &mut Via::Raw;
            let named = match record {
                WalRecord::Create { file, .. } => {
                    self.dir
                        .upsert(raw, &mut self.disk, DirEntry::empty(*file))?;
                    std::slice::from_ref(file)
                }
                WalRecord::SetChain {
                    file,
                    first,
                    last,
                    size,
                    ..
                } => {
                    let entry = DirEntry {
                        file: *file,
                        first: *first,
                        last: *last,
                        size: *size,
                    };
                    self.dir.upsert(raw, &mut self.disk, entry)?;
                    std::slice::from_ref(file)
                }
                WalRecord::Delete { file, .. } => {
                    self.dir.remove(raw, &mut self.disk, *file)?;
                    std::slice::from_ref(file)
                }
                WalRecord::Checkpoint => &[],
                WalRecord::Prepare { txn, intent, .. } => {
                    let displaced = self.apply_intent(raw, intent)?;
                    in_doubt.insert(*txn, (intent, displaced));
                    intent.files()
                }
                WalRecord::Decide {
                    txn,
                    commit,
                    intent,
                    ..
                } => {
                    match (in_doubt.remove(txn), *commit) {
                        // The tentative apply already ran, and a commit
                        // lets it stand (the allocator is rebuilt from
                        // reachability below).
                        (Some(_), true) => {}
                        (Some((prepared, displaced)), false) => {
                            self.undo_intent(prepared, &displaced)?
                        }
                        // No replayed Prepare — this participant rolled
                        // the transaction back at an earlier recovery, or
                        // the decision was a re-delivery: the decision
                        // applies directly, as it did live.
                        (None, true) => drop(self.apply_intent(raw, intent)?),
                        (None, false) => self.undo_intent(intent, &[])?,
                    }
                    if *commit {
                        writes.push((ordinal, intent));
                    }
                    intent.files()
                }
                // Logged only where the Prepare was held, which — a
                // checkpoint never passing an undecided transaction —
                // replayed above the checkpoint too.
                WalRecord::DecideRef { txn, commit, .. } => {
                    let Some((intent, displaced)) = in_doubt.remove(txn) else {
                        return Err(EfsError::Corrupt(format!(
                            "decision for txn {txn}, which this log never prepared"
                        )));
                    };
                    if *commit {
                        writes.push((ordinal, intent));
                    } else {
                        self.undo_intent(intent, &displaced)?;
                    }
                    intent.files()
                }
            };
            for &file in named {
                last_named.insert(file, ordinal);
            }
        }
        for (ordinal, intent) in writes {
            if let PrepareIntent::WriteBlock {
                file,
                block_no,
                payload,
            } = intent
            {
                if last_named.get(file) == Some(&ordinal) {
                    self.redo_write(*file, *block_no, payload)?;
                }
            }
        }
        // Presumed abort: any Prepare still undecided rolls back.
        for (intent, displaced) in in_doubt.values() {
            self.undo_intent(intent, displaced)?;
        }
        self.fsck();
        self.write_home(&mut Via::Raw)?;
        wal.append_checkpoint_raw(&mut self.disk);
        self.wal = Some(wal);
        Ok(recovered
            .into_iter()
            .filter(|(txn, _)| txn.is_none_or(|t| decided.contains(&t)))
            .map(|(_, op)| op)
            .collect())
    }

    /// Redoes a committed block write from the raw image, against the
    /// directory the replay left, which already holds its `SetChain`:
    /// block `block_no` of `file` takes `payload`. The blocks before it
    /// are home. A tail block — an append, or an overwrite of the last
    /// block — gets the header its chain position fixes, between the old
    /// tail and the head, and the old tail its forward pointer; any
    /// other block keeps the header it has. Idempotent.
    fn redo_write(
        &mut self,
        file: LfsFileId,
        block_no: u32,
        payload: &[u8],
    ) -> Result<(), EfsError> {
        let entry = self
            .dir
            .find(&mut Via::Raw, &mut self.disk, file)?
            .filter(|e| block_no < e.size)
            .ok_or_else(|| EfsError::Corrupt(format!("redo of {file} block {block_no}")))?;
        let tail = block_no + 1 == entry.size;
        let home = DirEntry {
            size: block_no + u32::from(!tail),
            ..entry
        };
        let (chain, torn) =
            self.walk_chain(&mut Via::Raw, false, &home, &mut FsckReport::default());
        if torn.is_some() {
            return Err(EfsError::Corrupt(format!(
                "redo of {file} block {block_no}: torn chain"
            )));
        }
        let (addr, header) = if tail {
            let old_tail = chain.last().copied();
            if let Some(old_tail) = old_tail {
                self.relink_raw(old_tail, entry.last)?;
            }
            let header = EfsHeader {
                file,
                block_no,
                next: entry.first,
                prev: old_tail.unwrap_or(entry.last),
            };
            (entry.last, header)
        } else {
            let addr = chain[block_no as usize];
            (addr, decode_header(self.read_home(addr)?)?)
        };
        self.disk
            .write_raw(addr, encode_block(&header, payload).into());
        Ok(())
    }

    /// Points the block at `addr` forward to `next`, in the raw image.
    fn relink_raw(&mut self, addr: BlockAddr, next: BlockAddr) -> Result<(), EfsError> {
        let block = self.read_home(addr)?;
        let header = decode_header(block)?;
        if header.next != next {
            let relinked = encode_block(&EfsHeader { next, ..header }, &block[EFS_HEADER_SIZE..]);
            self.disk.write_raw(addr, relinked.into());
        }
        Ok(())
    }

    fn read_home(&self, addr: BlockAddr) -> Result<&[u8], EfsError> {
        let block = self
            .disk
            .read_raw(addr)
            .ok_or(DiskError::Unwritten { addr })?;
        Ok(block)
    }
}
