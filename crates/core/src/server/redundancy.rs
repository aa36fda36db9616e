//! Redundancy on the data path: reads that survive a lost column, and the
//! one planner that turns a block write into the columns it must land on.

use super::blockio::{check_header, Target};
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

impl Server {
    /// Reads `count` consecutive strictly placed globals from `first` at
    /// `depth`, handing each block's data to `sink` as its reply is
    /// processed. A block whose column is lost is recovered on the spot
    /// from the redundancy, without knocking on the dead node again.
    pub(super) fn read_strict(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        first: u64,
        count: u64,
        depth: u32,
        mut sink: impl FnMut(&mut Ctx, u64, Bytes),
    ) -> Result<(), BridgeError> {
        let meta = self.meta(file)?;
        let redundant = meta.redundancy != Redundancy::None;
        let target = Target::hinted(file, meta.lfs_file);
        let ptrs = (first..first + count)
            .map(|block| meta.locate(block))
            .collect::<Result<Vec<_>, _>>()?;
        let blocks = ptrs.into_iter().map(|ptr| (target, ptr));
        self.read_blocks(ctx, blocks, depth, |server, ctx, i, payload| {
            let block = first + i as u64;
            let payload = match payload {
                Ok(p) => p,
                Err(e) if redundant && e.column_lost() => server.recover_block(ctx, file, block)?,
                Err(e) => return Err(BridgeError::Lfs(e)),
            };
            sink(ctx, block, check_header(file, block, &payload)?.1);
            Ok(())
        })
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
        self.redundant_payload(ctx, file, block)
    }

    /// What the redundancy says strictly placed `block` holds: its mirror
    /// copy, or the stripe's parity XORed with its surviving peers.
    pub(super) fn redundant_payload(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
    ) -> Result<Bytes, BridgeError> {
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
    /// stripe's parity block.
    fn reconstruct_payload(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
    ) -> Result<Bytes, BridgeError> {
        let meta = &self.files[&file];
        let (layout, size, data_file) = (meta.parity_layout(), meta.size, meta.lfs_file);
        let (parity_file, p) = meta.parity_ptr(layout.stripe_of(block));
        let mut acc = self
            .read_one(ctx, Target::raw(file, parity_file), p)?
            .to_vec();
        for peer in layout.stripe_peers(block, size) {
            let ptr = self.files[&file].to_machine(layout.locate(peer));
            let payload = self.read_one(ctx, Target::raw(file, data_file), ptr)?;
            xor_into(&mut acc, &payload);
        }
        Ok(acc.into())
    }

    /// A data block's raw payload, reconstructed from parity if its
    /// column is gone.
    pub(super) fn data_payload(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
    ) -> Result<Bytes, BridgeError> {
        let meta = self.file_mut(file);
        let (ptr, data_file) = (meta.locate(block)?, meta.lfs_file);
        let read = self.read_one(ctx, Target::raw(file, data_file), ptr);
        self.or_reconstruct(ctx, file, block, read)
    }

    /// What a read of data block `block` answered, or — its column gone —
    /// what the stripe's parity and peers say it holds.
    fn or_reconstruct(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
        read: Result<Bytes, BridgeError>,
    ) -> Result<Bytes, BridgeError> {
        match read {
            Err(BridgeError::Lfs(e)) if e.column_lost() => {
                self.reconstruct_payload(ctx, file, block)
            }
            other => other,
        }
    }

    /// Redundancy-aware write of a strictly placed block: an append when
    /// `block == size`, an overwrite otherwise. `size_after` is the file
    /// size once the write lands (for the circular header pointers). A
    /// redundant write's columns — the data block plus its mirror copy or
    /// its stripe's updated parity — are planned once, then committed.
    pub(super) fn write_block(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
        data: &[u8],
        size_after: u64,
    ) -> Result<(), BridgeError> {
        let meta = self.file_mut(file);
        let header = meta.strict_header(file, block, size_after)?;
        let payload: Bytes = encode_payload(&header, data).into();
        let pos = meta.locate_pos(block)?;
        let ptr = meta.to_machine(pos);
        let data_file = meta.lfs_file;
        match meta.redundancy {
            Redundancy::None => {
                self.write_blocks(ctx, Target::hinted(file, data_file), &[(ptr, payload)], 1)
            }
            Redundancy::Mirror => {
                let (mirror_file, m) = meta.mirror_ptr(pos);
                let columns = [
                    (Target::hinted(file, data_file), ptr, payload.clone()),
                    (Target::raw(file, mirror_file), m, payload),
                ];
                self.commit_columns(ctx, &columns)
            }
            Redundancy::Parity { .. } => {
                let parity = self.plan_parity(ctx, file, block, &payload)?;
                let mut columns = vec![(Target::raw(file, data_file), ptr, payload)];
                columns.extend(parity);
                self.commit_columns(ctx, &columns)
            }
        }
    }

    /// The parity column of a write of `payload` at `block`: the stripe's
    /// parity block XOR-updated for the new data — the classic small-write
    /// read-modify-write — or `None` when the parity column is gone (the
    /// data lands degraded; a rebuild recomputes the parity later). An
    /// overwrite's two old blocks, parity and data, sit on different
    /// nodes and are read together. The reads happen before any column
    /// is written: the single-threaded server is the only writer, so the
    /// values read cannot go stale, and an aborted commit leaves them
    /// valid for the retry.
    fn plan_parity(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
        payload: &Bytes,
    ) -> Result<Option<Column>, BridgeError> {
        let meta = &self.files[&file];
        let layout = meta.parity_layout();
        let (parity_file, ptr) = meta.parity_ptr(layout.stripe_of(block));
        let target = Target::raw(file, parity_file);
        let overwrite = block < meta.size;
        if !overwrite && block.is_multiple_of(layout.stripe_width()) {
            // First member of a fresh stripe: parity = payload.
            return Ok(Some((target, ptr, payload.clone())));
        }
        let (old_parity, old_data) = if overwrite {
            let data_ptr = meta.to_machine(layout.locate(block));
            let data = (Target::raw(file, meta.lfs_file), data_ptr);
            let [parity, data] = self.read_together(ctx, [(target, ptr), data])?;
            (parity, Some(data))
        } else {
            let [parity] = self.read_together(ctx, [(target, ptr)])?;
            (parity, None)
        };
        let mut acc = match old_parity {
            Ok(p) => p.to_vec(),
            Err(e) if e.column_lost() => return Ok(None),
            Err(e) => return Err(BridgeError::Lfs(e)),
        };
        if let Some(read) = old_data {
            // parity ^= old ^ new (old reconstructed if the data column
            // itself is lost).
            let old = self.or_reconstruct(ctx, file, block, read.map_err(BridgeError::Lfs))?;
            xor_into(&mut acc, &old);
        }
        xor_into(&mut acc, payload);
        Ok(Some((target, ptr, acc.into())))
    }

    /// Commits one redundant write's columns — the single place that
    /// decides how. With a decision log every column's `WriteBlock` intent
    /// prepares (payload durable in that participant's WAL) and applies
    /// on decide, so a crash leaves the data block and its companion both
    /// updated or both untouched. Without one the columns are written
    /// directly, in order. Either way a lost column (failed node, lost
    /// disk, unrebuilt spare) is tolerated; landing on none is an error.
    fn commit_columns(&mut self, ctx: &mut Ctx, columns: &[Column]) -> Result<(), BridgeError> {
        let lost = if self.txlog.is_some() {
            let participants: Vec<TxParticipant> = columns
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
            let tolerant = vec![true; columns.len()];
            self.run_2pc(ctx, &participants, &tolerant, false)?.1 as usize
        } else {
            let mut lost = 0;
            for (target, ptr, payload) in columns {
                match self.write_blocks(ctx, *target, &[(*ptr, payload.clone())], 1) {
                    Ok(()) => {}
                    Err(BridgeError::Lfs(e)) if e.column_lost() => lost += 1,
                    Err(e) => return Err(e),
                }
            }
            lost
        };
        if lost >= columns.len() {
            return Err(BridgeError::Lfs(EfsError::NodeFailed));
        }
        Ok(())
    }
}
