//! The presumed-abort 2PC participant: prepare and decide.
//!
//! What an intent does to the directory is written once, as two
//! idempotent functions — [`Efs::apply_intent`] and [`Efs::undo_intent`]
//! — and every path a transaction can take calls those two: the live
//! prepare and decide here, and recovery's replay of a logged Prepare, a
//! logged Decide and the closing presumed-abort sweep (`recover.rs`). The
//! live paths then settle what only a running instance has (chain
//! shadow, allocator, link cache, counters); recovery rebuilds all of
//! that from the directory afterwards.
//!
//! | intent        | apply                                   | undo                         |
//! |---------------|-----------------------------------------|------------------------------|
//! | `CreateFiles` | insert each file that is missing, empty | remove each file             |
//! | `DeleteFiles` | remove each file present → *displaced*  | put the *displaced* back     |
//! | `WriteBlock`  | nothing: the write runs at commit       | nothing                      |
//!
//! A committed `WriteBlock` is the one write that is logged before it
//! goes home: its payload is in the log already, so the decide settles
//! the write in memory, logs it, is acknowledged once that record is
//! durable, and sends the block home afterwards (`data.rs`,
//! `defer_write`); recovery redoes it from the record if a crash cut the
//! home write short (`recover.rs`).
//!
//! | path                          | calls                                   |
//! |-------------------------------|-----------------------------------------|
//! | prepare (live or replayed)    | apply, keeping the displaced entries    |
//! | decide commit, prepared       | neither — the tentative apply stands    |
//! | decide abort, prepared        | undo with the kept entries              |
//! | decide commit, not prepared   | apply                                   |
//! | decide abort, not prepared    | undo with nothing displaced             |
//! | presumed abort (recovery end) | undo with the kept entries              |

use super::Efs;
use crate::directory::{DirEntry, Via};
use crate::error::EfsError;
use crate::layout::{LfsFileId, EFS_PAYLOAD};
use crate::wal::{set_chain_len, wire_len, PrepareIntent, WalRecord};
use parsim::Ctx;
use simdisk::{BlockAddr, BlockDevice};
use std::cmp::Ordering;

/// Tentative state held between [`Efs::prepare`] and [`Efs::decide`].
#[derive(Debug)]
pub(super) struct PreparedTxn {
    intent: PrepareIntent,
    /// For delete intents: the removed directory entries and their block
    /// chains, so an abort restores the files and a commit frees exactly
    /// these blocks. Empty for create intents.
    stashed: Vec<(DirEntry, Vec<BlockAddr>)>,
    /// For an appending write intent: a block held out of the allocator
    /// so the yes-vote guarantees commit cannot fail with `NoSpace`.
    /// Returned to the allocator at decide (the commit path re-allocates
    /// through the append), and implicitly dropped by a crash —
    /// recovery rebuilds the allocator from reachability, which matches
    /// the presumed-abort rollback.
    reserved: Option<BlockAddr>,
}

/// The files an intent brings into being: their (empty) chains follow
/// the directory entries in and out of the shadow.
fn created(intent: &PrepareIntent) -> &[LfsFileId] {
    match intent {
        PrepareIntent::CreateFiles(files) => files,
        _ => &[],
    }
}

impl<D: BlockDevice> Efs<D> {
    /// Applies an intent's directory effect and returns the entries it
    /// displaced. Idempotent: applying over a (partly) applied intent
    /// changes nothing more.
    pub(super) fn apply_intent(
        &mut self,
        via: &mut Via<'_>,
        intent: &PrepareIntent,
    ) -> Result<Vec<DirEntry>, EfsError> {
        let mut displaced = Vec::new();
        match intent {
            PrepareIntent::CreateFiles(files) => {
                for &file in files {
                    match self.dir.insert(via, &mut self.disk, DirEntry::empty(file)) {
                        Ok(()) | Err(EfsError::FileExists(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
            // A file named but absent is skipped: a column can be
            // legitimately missing on a node that was failed when the
            // file was created.
            PrepareIntent::DeleteFiles(files) => {
                for &file in files {
                    displaced.extend(self.dir.remove(via, &mut self.disk, file)?);
                }
            }
            // Deferred apply: the payload rides in the logged intent and
            // the write runs at decide(commit), so nothing tentative
            // touches the directory or the data region.
            PrepareIntent::WriteBlock { .. } => {}
        }
        Ok(displaced)
    }

    /// Takes an intent's directory effect back, given the entries its
    /// apply displaced. Idempotent, and always through raw bucket access:
    /// a rollback is never on a client's clock, and a bucket it is the
    /// first to touch after recovery must stay free.
    pub(super) fn undo_intent(
        &mut self,
        intent: &PrepareIntent,
        displaced: &[DirEntry],
    ) -> Result<(), EfsError> {
        match intent {
            PrepareIntent::CreateFiles(files) => {
                for &file in files {
                    self.dir.remove(&mut Via::Raw, &mut self.disk, file)?;
                }
            }
            PrepareIntent::DeleteFiles(_) => {
                for &entry in displaced {
                    self.dir.upsert(&mut Via::Raw, &mut self.disk, entry)?;
                }
            }
            PrepareIntent::WriteBlock { .. } => {}
        }
        Ok(())
    }

    /// [`Efs::apply_intent`] on a running instance: the chain shadow
    /// follows the directory. Returns the displaced files with the chains
    /// a commit will free.
    fn apply_live(
        &mut self,
        via: &mut Via<'_>,
        intent: &PrepareIntent,
    ) -> Result<Vec<(DirEntry, Vec<BlockAddr>)>, EfsError> {
        let displaced = self.apply_intent(via, intent)?;
        for &file in created(intent) {
            self.chains.entry(file).or_default();
        }
        Ok(displaced
            .into_iter()
            .map(|entry| (entry, self.take_chain(&entry)))
            .collect())
    }

    /// [`Efs::undo_intent`] on a running instance: the displaced files
    /// get their chains back with their entries.
    fn undo_live(
        &mut self,
        intent: &PrepareIntent,
        stashed: Vec<(DirEntry, Vec<BlockAddr>)>,
    ) -> Result<(), EfsError> {
        let displaced: Vec<DirEntry> = stashed.iter().map(|(entry, _)| *entry).collect();
        self.undo_intent(intent, &displaced)?;
        for file in created(intent) {
            self.chains.remove(file);
        }
        for (entry, chain) in stashed {
            self.chains.insert(entry.file, chain);
        }
        Ok(())
    }

    /// Phase 1 of a machine-wide transaction (presumed-abort 2PC):
    /// applies `intent` tentatively, logs a `WalRecord::Prepare`, and
    /// returns the number of blocks this participant will free if the
    /// transaction commits. The yes-vote becomes binding once the server
    /// loop's group commit makes the record durable and acknowledges it;
    /// until a [`Efs::decide`] arrives, a crash rolls the tentative
    /// effect back (presumed abort).
    ///
    /// Tentative semantics: a create intent inserts size-0 directory
    /// entries (deferred, like [`Efs::create`]); a delete intent removes
    /// its entries and stashes them with their block chains *without
    /// releasing any block*, so an abort restores the files bit-for-bit
    /// and a commit frees exactly the stashed chains. Files named by a
    /// delete intent but absent from the directory are skipped and
    /// contribute nothing to the freed count.
    ///
    /// # Errors
    ///
    /// [`EfsError::FileExists`] / [`EfsError::DirectoryFull`] when a
    /// create intent cannot apply (any partial tentative insert is
    /// undone before the no-vote propagates); [`EfsError::Corrupt`] when
    /// this instance runs no WAL (2PC requires one) or `txn` is already
    /// prepared; [`EfsError::LogFull`] when the log cannot take the
    /// record.
    pub fn prepare(
        &mut self,
        ctx: &mut Ctx,
        txn: u64,
        intent: PrepareIntent,
    ) -> Result<u32, EfsError> {
        self.flush_home(ctx, None)?;
        self.charge_cpu(ctx);
        if self.wal.is_none() {
            return Err(EfsError::Corrupt("prepare requires a WAL".into()));
        }
        if self.prepared.contains_key(&txn) {
            return Err(EfsError::Corrupt(format!("txn {txn} already prepared")));
        }
        let len = || {
            wire_len(&WalRecord::Prepare {
                client: 0,
                id: 0,
                txn,
                intent: intent.clone(),
                freed: 0,
            })
        };
        self.admit(len, false)?;
        // A yes-vote promises the commit cannot fail: check what the
        // intent needs before anything is touched.
        let mut reserved: Option<BlockAddr> = None;
        match &intent {
            PrepareIntent::CreateFiles(files) => {
                for &file in files {
                    if self
                        .dir
                        .find(&mut Via::Timed(ctx), &mut self.disk, file)?
                        .is_some()
                    {
                        return Err(EfsError::FileExists(file));
                    }
                }
            }
            PrepareIntent::DeleteFiles(_) => {}
            PrepareIntent::WriteBlock {
                file,
                block_no,
                payload,
            } => {
                if payload.len() > EFS_PAYLOAD {
                    return Err(EfsError::PayloadTooLarge {
                        provided: payload.len(),
                    });
                }
                let entry = self.entry(ctx, *file)?;
                match block_no.cmp(&entry.size) {
                    Ordering::Less => {}
                    Ordering::Equal => {
                        reserved = Some(self.alloc.allocate().ok_or(EfsError::NoSpace)?);
                    }
                    Ordering::Greater => {
                        return Err(EfsError::WriteBeyondEnd {
                            file: *file,
                            block_no: *block_no,
                            size: entry.size,
                        })
                    }
                }
            }
        }
        let stashed = match self.apply_live(&mut Via::Timed(ctx), &intent) {
            Ok(stashed) => stashed,
            Err(e) => {
                self.undo_live(&intent, Vec::new())?;
                return Err(e);
            }
        };
        let freed: u32 = stashed.iter().map(|(entry, _)| entry.size).sum();
        self.log(|client, id| WalRecord::Prepare {
            client,
            id,
            txn,
            intent: intent.clone(),
            freed,
        });
        self.prepared.insert(
            txn,
            PreparedTxn {
                intent,
                stashed,
                reserved,
            },
        );
        Ok(freed)
    }

    /// Phase 2 of a machine-wide transaction: applies the coordinator's
    /// decision, logs it, and returns the blocks actually freed (non-zero
    /// only for a committed delete — the figure a coordinator redoing
    /// phase 2 after its own crash needs, since the original prepare
    /// acknowledgements died with it). Idempotent, and defined even when
    /// `txn` is not prepared here — because this participant's recovery
    /// already rolled it back (presumed abort), or the decision is a
    /// re-delivery. The intent rides along with the decision for exactly
    /// that case: commit-create inserts whatever is missing, commit-delete
    /// removes and frees whatever is still present, abort-create removes
    /// whatever is present, abort-delete leaves the (already restored)
    /// files alone. Where `txn` *is* prepared here the prepared intent is
    /// the one decided, and the record is a payload-free
    /// `WalRecord::DecideRef` that recovery pairs with its Prepare; a
    /// `WalRecord::Decide` carries the intent otherwise.
    ///
    /// A committed `WriteBlock` is settled in memory and logged, and its
    /// block goes home after the reply (see [`Efs::commit`]). Re-driven
    /// after this participant's presumed-abort rollback, or delivered
    /// twice, an already-applied append shows up as an in-range overwrite
    /// of identical bytes.
    ///
    /// # Errors
    ///
    /// [`EfsError::Corrupt`] when this instance runs no WAL or a bucket
    /// fails to decode; [`EfsError::LogFull`] when the log cannot take the
    /// record — never for a transaction held prepared here, whose
    /// decision the ring keeps a track free for.
    pub fn decide(
        &mut self,
        ctx: &mut Ctx,
        txn: u64,
        commit: bool,
        intent: PrepareIntent,
    ) -> Result<u32, EfsError> {
        self.flush_home(ctx, None)?;
        self.charge_cpu(ctx);
        if self.wal.is_none() {
            return Err(EfsError::Corrupt("decide requires a WAL".into()));
        }
        let held = self.prepared.get(&txn).map(|p| &p.intent);
        let writes = commit && matches!(held.unwrap_or(&intent), PrepareIntent::WriteBlock { .. });
        let len = || {
            let record = match held {
                Some(_) => WalRecord::DecideRef {
                    client: 0,
                    id: 0,
                    txn,
                    commit,
                    freed: 0,
                },
                None => WalRecord::Decide {
                    client: 0,
                    id: 0,
                    txn,
                    commit,
                    intent: intent.clone(),
                    freed: 0,
                },
            };
            wire_len(&record) + if writes { set_chain_len(1) } else { 0 }
        };
        self.admit(len, held.is_some())?;
        let prepared = self.prepared.remove(&txn);
        let held = prepared.is_some();
        // The prepare's allocation hold is returned either way; a commit
        // re-allocates through the append.
        if let Some(addr) = prepared.as_ref().and_then(|p| p.reserved) {
            self.alloc.release(addr);
        }
        // The files the decision finally deletes, with their chains.
        let doomed = match (prepared, commit) {
            // Creates are already in place; deletes free their stashed
            // chains now that the outcome is settled.
            (Some(p), true) => {
                self.commit_write(ctx, &p.intent)?;
                p.stashed
            }
            (None, true) => {
                let displaced = self.apply_live(&mut Via::Raw, &intent)?;
                self.commit_write(ctx, &intent)?;
                displaced
            }
            (Some(p), false) => {
                self.undo_live(&p.intent, p.stashed)?;
                Vec::new()
            }
            (None, false) => {
                self.undo_live(&intent, Vec::new())?;
                Vec::new()
            }
        };
        let mut freed = 0;
        for (entry, chain) in doomed {
            freed += self.free_chain(entry.file, &chain);
        }
        self.log(|client, id| match held {
            true => WalRecord::DecideRef {
                client,
                id,
                txn,
                commit,
                freed,
            },
            false => WalRecord::Decide {
                client,
                id,
                txn,
                commit,
                intent,
                freed,
            },
        });
        Ok(freed)
    }

    /// A committed intent's block write, if it has one, through
    /// [`Efs::defer_write`].
    fn commit_write(&mut self, ctx: &mut Ctx, intent: &PrepareIntent) -> Result<(), EfsError> {
        match intent {
            PrepareIntent::WriteBlock {
                file,
                block_no,
                payload,
            } => self.defer_write(ctx, *file, *block_no, payload.clone()),
            _ => Ok(()),
        }
    }
}
