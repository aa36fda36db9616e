//! Coming back after a crash: replay of the committed log over the
//! directory, presumed abort for whatever is left in doubt, and the
//! rebuild of everything that lives only in memory.
//!
//! A logged transaction is replayed through the same two functions the
//! live participant runs (`txn.rs`: `apply_intent` / `undo_intent`), so
//! what a decision does here and what it does live cannot drift apart.

use super::Efs;
use crate::cache::LinkCache;
use crate::directory::{DirEntry, Via};
use crate::error::EfsError;
use crate::wal::{scan_and_resume, RecoveredOp, WalRecord};
use parsim::FixedMap;
use simdisk::BlockDevice;
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
        for (lsn, records) in &batches {
            for record in records {
                if let Some(op) = record.recovered() {
                    recovered.push((record.prepare_txn(), op));
                }
                if let WalRecord::Decide { txn, .. } = record {
                    decided.insert(*txn);
                }
                if *lsn <= ckpt {
                    continue;
                }
                let raw = &mut Via::Raw;
                match record {
                    WalRecord::Create { file, .. } => {
                        self.dir
                            .upsert(raw, &mut self.disk, DirEntry::empty(*file))?
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
                        self.dir.upsert(raw, &mut self.disk, entry)?
                    }
                    WalRecord::Delete { file, .. } => {
                        self.dir.remove(raw, &mut self.disk, *file)?;
                    }
                    WalRecord::Checkpoint => {}
                    WalRecord::Prepare { txn, intent, .. } => {
                        let displaced = self.apply_intent(raw, intent)?;
                        in_doubt.insert(*txn, (intent, displaced));
                    }
                    WalRecord::Decide {
                        txn,
                        commit,
                        intent,
                        ..
                    } => match (in_doubt.remove(txn), *commit) {
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
                        // applies directly, as it did live. A committed
                        // write's own SetChain record rides in the same
                        // batch as its Decide and has already replayed;
                        // the data went home before the batch committed
                        // (ordered journaling).
                        (None, true) => drop(self.apply_intent(raw, intent)?),
                        (None, false) => self.undo_intent(intent, &[])?,
                    },
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
}
