//! Rebuild: repairing a redundant file's columns after node failures or
//! onto a freshly installed spare.

use super::agent::Shape;
use super::blockio::Target;
use super::Server;
use crate::error::BridgeError;
use crate::header::GlobalPtr;
use crate::ids::BridgeFileId;
use crate::protocol::BridgeData;
use crate::redundancy::{xor_into, Redundancy};
use bridge_efs::{EfsError, LfsData, LfsFileId, LfsOp};
use bridge_trace::HealthEvent;
use bytes::Bytes;
use parsim::Ctx;
use std::collections::HashMap;

impl Server {
    /// Repairs global blocks `[first, first + count)` (clipped at the
    /// file size) of a redundant file after node failures: every data
    /// block, mirror copy, and parity block of a stripe the range touches
    /// is checked against its recoverable value and rewritten if missing
    /// or stale. Blocks are visited in global order, so repaired locals
    /// land as ordinary appends — which is also why a chunked rebuild of
    /// a freshly installed spare must walk ranges front to back.
    pub(super) fn rebuild_range(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        first: u64,
        count: u64,
    ) -> Result<BridgeData, BridgeError> {
        let (redundancy, size, lfs_file) = {
            let meta = self.meta(file)?;
            (meta.redundancy, meta.size, meta.lfs_file)
        };
        if redundancy == Redundancy::None {
            return Err(BridgeError::RedundancyUnsupported {
                why: "rebuild applies only to redundant files",
            });
        }
        let first = first.min(size);
        let end = first.saturating_add(count).min(size);
        if first == 0 {
            self.tally(|s| s.note_rebuild_start(size));
            self.journal(
                ctx,
                HealthEvent::RebuildStart {
                    file: u64::from(file.0),
                    total: size,
                },
            );
        }
        // A freshly installed spare holds no files at all: recreate this
        // file's columns there before repairing, so the repair writes
        // below land as ordinary appends instead of `UnknownFile`.
        self.ensure_columns(ctx, file)?;
        let data = Target::raw(file, lfs_file);
        let mut ptrs = Vec::with_capacity((end - first) as usize);
        for block in first..end {
            ptrs.push(self.file_mut(file).locate(block)?);
        }
        // Under `Runs(d)`, pool the canonical primary reads into per-LFS
        // runs up front; blocks whose run fails (a lost node) fall back to
        // the per-block recovery path below. Repairs only touch blocks
        // absent from this map, so prefetching cannot go stale.
        let mut prefetched: HashMap<u64, Bytes> = HashMap::new();
        let depth = self.depth();
        if depth > 1 {
            let blocks = ptrs.iter().map(|&ptr| (data, ptr));
            self.read_blocks(ctx, blocks, depth, |_, _, i, payload| {
                if let Ok(p) = payload {
                    prefetched.insert(first + i as u64, p);
                }
                Ok(())
            })?;
        }
        let mut repaired = 0u64;
        for (block, &ptr) in (first..end).zip(&ptrs) {
            // Canonical payload: primary if intact, else recovered.
            let payload = match prefetched
                .remove(&block)
                .ok_or(())
                .or_else(|()| self.read_one(ctx, data, ptr))
            {
                Ok(p) => p,
                Err(_) => {
                    let p = self.redundant_payload(ctx, file, block)?;
                    self.write_blocks(ctx, data, &[(ptr, p.clone())], 1)?;
                    repaired += 1;
                    p
                }
            };
            if redundancy == Redundancy::Mirror {
                let meta = self.file_mut(file);
                let pos = meta.locate_pos(block)?;
                let (mirror_file, m) = meta.mirror_ptr(pos);
                repaired += self.refresh(ctx, Target::raw(file, mirror_file), m, payload)?;
            }
        }
        if matches!(redundancy, Redundancy::Parity { .. }) && end > first {
            // Recompute the parity of every stripe the range touches —
            // except a stripe spilling past a chunk boundary, whose tail
            // blocks a spare may not hold yet; the next (front-to-back)
            // chunk covers that stripe once its tail is repaired.
            let layout = self.files[&file].parity_layout();
            for stripe in layout.stripe_of(first)..layout.stripe_of(end - 1) + 1 {
                let start = stripe * layout.stripe_width();
                let hi = ((stripe + 1) * layout.stripe_width()).min(size);
                if hi > end {
                    continue;
                }
                let mut expected = Vec::new();
                for block in start..hi {
                    let p = self.data_payload(ctx, file, block)?;
                    xor_into(&mut expected, &p);
                }
                let (parity_file, m) = self.files[&file].parity_ptr(stripe);
                repaired +=
                    self.refresh(ctx, Target::raw(file, parity_file), m, expected.into())?;
            }
        }
        self.tally(|s| s.note_rebuild_progress(end, size));
        self.journal_and_trace(
            ctx,
            HealthEvent::RebuildChunk {
                file: u64::from(file.0),
                chunk: first,
                done: end,
                total: size,
            },
            &[("repaired", repaired)],
        );
        if end >= size {
            self.tally(|s| s.rebuilds_done += 1);
            self.journal(
                ctx,
                HealthEvent::RebuildDone {
                    file: u64::from(file.0),
                    total: size,
                },
            );
        }
        Ok(BridgeData::Rebuilt { repaired })
    }

    /// Rewrites a companion block unless it already holds `expected`;
    /// returns the number of blocks rewritten (0 or 1).
    fn refresh(
        &mut self,
        ctx: &mut Ctx,
        target: Target,
        ptr: GlobalPtr,
        expected: Bytes,
    ) -> Result<u64, BridgeError> {
        if matches!(self.read_one(ctx, target, ptr), Ok(p) if p == expected) {
            return Ok(0);
        }
        self.write_blocks(ctx, target, &[(ptr, expected)], 1)?;
        Ok(1)
    }

    /// Stats every column of `file` (and its companion) and recreates the
    /// LFS files missing on otherwise healthy nodes — the state of a
    /// freshly installed spare. Nodes that are down still fail rebuild:
    /// repair needs somewhere to write.
    fn ensure_columns(&mut self, ctx: &mut Ctx, file: BridgeFileId) -> Result<(), BridgeError> {
        let (nodes, lfs_file, companion) = {
            let meta = self.file_mut(file);
            (meta.nodes.clone(), meta.lfs_file, meta.companion())
        };
        let mut names = vec![lfs_file];
        names.extend(companion);
        let columns: Vec<(u32, LfsFileId)> = (nodes.iter())
            .flat_map(|&n| names.iter().map(move |&name| (n, name)))
            .collect();
        let targets = columns.iter().map(|&(n, _)| (n, false, 1));
        let ops = columns.iter().map(|&(_, file)| LfsOp::Stat { file });
        let fan = self.tier.send_round(ctx, Shape::Direct, targets, ops);
        // Each column keeps its own answer: a missing file is what this
        // round looks for, not a veto.
        let mut stats = vec![Ok(LfsData::Done); columns.len()];
        let _ = self.tier.gather(ctx, fan, |at, r| stats[at] = r);
        let mut missing = Vec::new();
        for (&column, stat) in columns.iter().zip(stats) {
            match stat {
                Ok(_) => {}
                Err(EfsError::UnknownFile(_)) => missing.push(column),
                Err(e) => return Err(BridgeError::Lfs(e)),
            }
        }
        let targets = missing.iter().map(|&(n, _)| (n, false, 1));
        let ops = missing.iter().map(|&(_, file)| LfsOp::Create { file });
        let fan = self.tier.send_round(ctx, Shape::Direct, targets, ops);
        self.tier.gather(ctx, fan, |_, _| {})?;
        Ok(())
    }
}
