//! Redundancy on the data path: reads that survive a lost column, and the
//! one planner that turns a block write into the columns it must land on —
//! in two halves around a commit group's read round — and, for a
//! redundant file, into the transaction that lands them.

use super::blockio::{check_header, BlockResult, Target};
use super::txn::Txn;
use super::Server;
use crate::error::BridgeError;
use crate::header::{encode_payload, GlobalPtr};
use crate::ids::BridgeFileId;
use crate::redundancy::{xor_into, Redundancy};
use crate::txlog::TxParticipant;
use bridge_efs::{EfsError, PrepareIntent};
use bridge_trace::HealthEvent;
use bytes::Bytes;
use parsim::Ctx;

/// One column of a planned write: which LFS file, where, and what.
type Column = (Target, GlobalPtr, Bytes);

/// A block write of a strictly placed file, planned: the columns it
/// lands on, and the old blocks its parity update must read first.
pub(super) struct WritePlan {
    pub file: BridgeFileId,
    pub block: u64,
    /// The write extends the file: once it lands, the file holds
    /// `block + 1` blocks.
    pub grows: bool,
    /// The file is redundant: its columns land as one transaction, which
    /// tolerates a lost column.
    redundant: bool,
    /// The data block first, then its mirror copy or its stripe's parity.
    columns: Vec<Column>,
    /// A parity read-modify-write's reads: the stripe's parity block,
    /// then — for an overwrite — the block's old data.
    rmw: Vec<(Target, GlobalPtr)>,
}

impl WritePlan {
    /// What landing came to, given the columns lost on the way: a
    /// redundant write tolerates a lost column (failed node, lost disk,
    /// unrebuilt spare); landing on none is an error.
    pub fn landed(&self, lost: usize) -> Result<(), BridgeError> {
        if lost < self.columns.len() {
            Ok(())
        } else {
            Err(BridgeError::Lfs(EfsError::NodeFailed))
        }
    }

    /// The LFS reads the plan needs before its columns are known.
    pub fn reads(&self) -> &[(Target, GlobalPtr)] {
        &self.rmw
    }

    /// A redundant write's columns as one transaction's participants, every
    /// one of them tolerant: with the decision log each column's
    /// `WriteBlock` intent prepares (payload durable in that participant's
    /// WAL) and applies on decide, so a crash leaves the data block and its
    /// companion both updated or both untouched, and a commit group's
    /// writes share one BEGIN and one COMMIT. `None` for an unprotected
    /// write, which lands directly ([`Server::write_unprotected`]).
    pub fn txn(&self) -> Option<Txn> {
        if !self.redundant {
            return None;
        }
        let participants = self
            .columns
            .iter()
            .map(|(target, ptr, payload)| TxParticipant {
                node: ptr.lfs.0,
                intent: PrepareIntent::WriteBlock {
                    file: target.lfs_file,
                    block_no: ptr.local,
                    payload: payload.clone(),
                },
            })
            .collect();
        Some(Txn {
            participants,
            tolerant: vec![true; self.columns.len()],
            relayed: false,
        })
    }
}

/// The XOR of `blocks`: a stripe's parity from its data blocks, or any
/// one member of a stripe from all the others — the one fold a degraded
/// read and the scrub share. A mirror's stripe is a block and its copy,
/// so the fold of one member is that member.
pub(super) fn xor_fold<'a>(blocks: impl IntoIterator<Item = &'a Bytes>) -> Bytes {
    let mut acc = Vec::new();
    for block in blocks {
        xor_into(&mut acc, block);
    }
    acc.into()
}

impl Server {
    /// Reads `count` consecutive strictly placed globals from `first` at
    /// `depth`, handing each block's data to `sink` as its reply is
    /// processed.
    pub(super) fn read_strict(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        first: u64,
        count: u64,
        depth: u32,
        mut sink: impl FnMut(&mut Ctx, u64, Bytes),
    ) -> Result<(), BridgeError> {
        let mut ptrs = std::mem::take(&mut self.located);
        ptrs.clear();
        let meta = self.meta(file)?;
        let target = Target::hinted(file, meta.lfs_file);
        for block in first..first + count {
            ptrs.push(meta.locate(block)?);
        }
        let blocks = ptrs.iter().map(|&ptr| (target, ptr));
        let read = self.read_blocks(ctx, blocks, depth, |server, ctx, i, read| {
            let block = first + i as u64;
            let body = server.strict_body(ctx, file, block, read)?;
            sink(ctx, block, body);
            Ok(())
        });
        self.located = ptrs;
        read
    }

    /// The body of strictly placed `block` of `file` as its read answered,
    /// its header checked. A block whose column is lost is recovered on
    /// the spot from the redundancy, without knocking on the dead node
    /// again.
    pub(super) fn strict_body(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
        read: BlockResult,
    ) -> Result<Bytes, BridgeError> {
        let redundant = self.files[&file].redundancy != Redundancy::None;
        let payload = match read {
            Ok(p) => p,
            Err(e) if redundant && e.column_lost() => self.recover_block(ctx, file, block)?,
            Err(e) => return Err(BridgeError::Lfs(e)),
        };
        Ok(check_header(file, block, &payload)?.1)
    }

    /// The payload of a strictly placed block whose primary column is
    /// lost, as a degraded read recovers it (and accounts for it).
    fn recover_block(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
    ) -> Result<Bytes, BridgeError> {
        let lost = self.file_mut(file).locate(block)?.lfs;
        // Journal only the onset — the first degraded read — so a long
        // outage cannot flood the event ring.
        if self.tally(|s| s.note_degraded_read()) == Some(true) {
            self.journal(
                ctx,
                HealthEvent::DegradedOnset {
                    lfs: lost.0,
                    file: u64::from(file.0),
                },
            );
        }
        if ctx.trace_enabled() {
            ctx.trace_instant(
                "redundancy",
                "redundancy.degraded_read",
                &[("file", u64::from(file.0)), ("block", block)],
            );
        }
        // What the redundancy says the block holds: its mirror copy, or
        // the stripe's parity XORed with its surviving peers.
        let meta = self.file_mut(file);
        match meta.redundancy {
            Redundancy::None => unreachable!("only redundant files recover"),
            Redundancy::Mirror => {
                let pos = meta.locate_pos(block)?;
                let (mirror_file, m) = meta.mirror_ptr(pos);
                self.read_one(ctx, Target::raw(file, mirror_file), m)
            }
            Redundancy::Parity { .. } => self.reconstruct_payload(ctx, file, block),
        }
    }

    /// Rebuilds a lost data block's payload from its stripe peers and the
    /// stripe's parity block, read as one round.
    fn reconstruct_payload(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
    ) -> Result<Bytes, BridgeError> {
        let meta = &self.files[&file];
        let layout = meta.parity_layout();
        let (parity_file, parity) = meta.parity_ptr(layout.stripe_of(block));
        let data = Target::raw(file, meta.lfs_file);
        let peers = layout.stripe_peers(block, meta.size).into_iter();
        let members: Vec<(Target, GlobalPtr)> =
            std::iter::once((Target::raw(file, parity_file), parity))
                .chain(peers.map(|peer| (data, meta.to_machine(layout.locate(peer)))))
                .collect();
        let round = self.send_reads(ctx, members.into_iter());
        let reads = self.take_reads(ctx, round)?;
        let reads = reads.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(xor_fold(&reads))
    }

    /// Writes `data` at `block` of strictly placed `file` as a commit
    /// group of one ([`Server::plan_write`] says what the arguments
    /// mean).
    pub(super) fn write_block(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
        data: &[u8],
        size_after: u64,
    ) -> Result<(), BridgeError> {
        let plan = self.plan_write(file, block, data, size_after)?;
        self.run_write(ctx, plan).map(drop)
    }

    /// The plan half of a write of `data` at `block` of strictly placed
    /// `file` — an append when `block` is the file's size, an overwrite
    /// before it; `size_after` is the file size once the write lands (for
    /// the circular header pointers). A redundant write's columns are the
    /// data block plus its mirror copy or its stripe's updated parity:
    /// the classic small-write read-modify-write, whose old parity — and
    /// for an overwrite old data, on another node — is read in the commit
    /// group's read round and XORed by [`Server::finish_write`]. The reads
    /// come before any column is written: the server is the only writer,
    /// and a group's members name distinct files, so the values read
    /// cannot go stale, and an aborted commit leaves them valid for the
    /// retry.
    pub(super) fn plan_write(
        &mut self,
        file: BridgeFileId,
        block: u64,
        data: &[u8],
        size_after: u64,
    ) -> Result<WritePlan, BridgeError> {
        let meta = self.file_mut(file);
        let header = meta.strict_header(file, block, size_after)?;
        let payload: Bytes = encode_payload(&header, data).into();
        let pos = meta.locate_pos(block)?;
        let ptr = meta.to_machine(pos);
        let data_file = meta.lfs_file;
        let mut plan = WritePlan {
            file,
            block,
            grows: block == meta.size,
            redundant: meta.redundancy != Redundancy::None,
            columns: Vec::with_capacity(2),
            rmw: Vec::new(),
        };
        match meta.redundancy {
            Redundancy::None => {
                plan.columns
                    .push((Target::hinted(file, data_file), ptr, payload));
            }
            Redundancy::Mirror => {
                let (mirror_file, m) = meta.mirror_ptr(pos);
                plan.columns
                    .push((Target::hinted(file, data_file), ptr, payload.clone()));
                plan.columns
                    .push((Target::raw(file, mirror_file), m, payload));
            }
            Redundancy::Parity { .. } => {
                let layout = meta.parity_layout();
                let (parity_file, parity) = meta.parity_ptr(layout.stripe_of(block));
                let target = Target::raw(file, parity_file);
                let data = Target::raw(file, data_file);
                plan.columns.push((data, ptr, payload.clone()));
                if plan.grows && block.is_multiple_of(layout.stripe_width()) {
                    // First member of a fresh stripe: parity = payload.
                    plan.columns.push((target, parity, payload));
                } else {
                    plan.rmw.push((target, parity));
                    if !plan.grows {
                        plan.rmw.push((data, ptr));
                    }
                }
            }
        }
        Ok(plan)
    }

    /// The compute half of a planned write, given its reads' results in
    /// [`WritePlan::reads`] order: the stripe's parity XOR-updated for the
    /// new data — `parity ^= old ^ new`, the old block reconstructed from
    /// the stripe if its own column is lost — or no parity column at all
    /// when the parity column is gone (the data lands degraded; a rebuild
    /// recomputes the parity later, and an overwrite's data read was
    /// spent in parallel for nothing).
    pub(super) fn finish_write(
        &mut self,
        ctx: &mut Ctx,
        mut plan: WritePlan,
        reads: Vec<BlockResult>,
    ) -> Result<WritePlan, BridgeError> {
        let mut reads = reads.into_iter();
        let Some(old_parity) = reads.next() else {
            return Ok(plan);
        };
        let mut acc = match old_parity {
            Ok(p) => p.to_vec(),
            Err(e) if e.column_lost() => return Ok(plan),
            Err(e) => return Err(BridgeError::Lfs(e)),
        };
        if let Some(read) = reads.next() {
            // The old data block, or — its column gone — what the
            // stripe's parity and peers say it held.
            let old = match read {
                Err(e) if e.column_lost() => {
                    self.reconstruct_payload(ctx, plan.file, plan.block)?
                }
                read => read?,
            };
            xor_into(&mut acc, &old);
        }
        xor_into(&mut acc, &plan.columns[0].2);
        let (target, ptr) = plan.rmw[0];
        plan.columns.push((target, ptr, acc.into()));
        Ok(plan)
    }

    /// Lands an unprotected write: its one column, hinted.
    pub(super) fn write_unprotected(
        &mut self,
        ctx: &mut Ctx,
        plan: &WritePlan,
    ) -> Result<(), BridgeError> {
        let (target, ptr, payload) = &plan.columns[0];
        self.write_blocks(ctx, *target, &[(*ptr, payload.clone())], 1)
    }
}
