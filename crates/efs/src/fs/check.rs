//! Consistency checks: the offline `fsck`, the online `fsck_timed` that
//! `pfsck` drives, the reachability rebuild mount and recovery need, and
//! the corruption seeding that exercises them. All of them read a file's
//! blocks through one chain walk.

use super::data::check_label;
use super::Efs;
use crate::alloc::BlockAllocator;
use crate::directory::{DirEntry, Via};
use crate::error::EfsError;
use crate::layout::{decode_header, encode_block, EfsHeader, LfsFileId, EFS_HEADER_SIZE};
use bytes::Bytes;
use parsim::{Ctx, FixedMap};
use simdisk::{BlockAddr, BlockDevice, DiskError};

/// Result of a consistency check ([`Efs::fsck`] / [`Efs::fsck_timed`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FsckReport {
    /// Files found in the directory.
    pub files: u32,
    /// Live data blocks accounted for.
    pub blocks: u32,
    /// Inconsistencies found (empty means clean).
    pub errors: Vec<String>,
    /// Inconsistencies repaired (repair mode only).
    pub repaired: u32,
}

impl FsckReport {
    fn note_repair(&mut self, ctx: &mut Ctx, what: &'static str) {
        self.repaired += 1;
        if ctx.trace_enabled() {
            ctx.trace_instant("fsck", "fsck.repair", &[(what, 1)]);
        }
    }
}

/// A corruption a test or CI smoke step can plant with
/// [`Efs::seed_corruption`], for exercising [`Efs::fsck_timed`] repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Clobber the last block of the largest file: a torn tail the check
    /// must truncate away.
    TornTail,
    /// Mark a free block allocated with no file referencing it: the check
    /// must return it to the allocator.
    OrphanBlock,
    /// Plant a directory entry whose first block is garbage: the check
    /// must drop the dangling entry.
    DanglingEntry,
}

/// The allocator and chain shadow that reachability from the directory
/// implies.
type Reachable = (BlockAllocator, FixedMap<LfsFileId, Vec<BlockAddr>>);

impl<D: BlockDevice> Efs<D> {
    /// The header of the block at `addr`, which must be block `block_no`
    /// of `file`: from the raw image, or by a timed read — which also
    /// hands back the block, for a repair to rewrite.
    fn chain_header(
        &mut self,
        via: &mut Via<'_>,
        addr: BlockAddr,
        file: LfsFileId,
        block_no: u32,
    ) -> Result<(EfsHeader, Option<Bytes>), EfsError> {
        let (header, block) = match via {
            Via::Timed(ctx) => {
                let bytes = self.disk.read(ctx, addr)?;
                (decode_header(&bytes)?, Some(bytes))
            }
            Via::Raw => {
                let bytes = self.disk.read_raw(addr);
                (
                    decode_header(bytes.ok_or(DiskError::Unwritten { addr })?)?,
                    None,
                )
            }
        };
        check_label(&header, file, block_no, addr)?;
        Ok((header, block))
    }

    /// Walks one file's chain from its directory entry. The rules every
    /// check shares live here:
    ///
    /// * a block that is unreadable, undecodable or labeled for another
    ///   position ends the chain — a torn tail; the walk reports it and
    ///   returns the block number it stopped at;
    /// * an interior back-pointer that disagrees with the walk is
    ///   reported — and with `repair`, on timed reads, rewritten in place
    ///   — but the walk goes on. The head's back-pointer is represented
    ///   by the directory's `last` field and repaired lazily, so only
    ///   interior links are checked: the same rule appends rely on.
    ///
    /// Returns the addresses of the blocks that belong to the file, in
    /// order.
    pub(super) fn walk_chain(
        &mut self,
        via: &mut Via<'_>,
        repair: bool,
        entry: &DirEntry,
        report: &mut FsckReport,
    ) -> (Vec<BlockAddr>, Option<u32>) {
        let file = entry.file;
        let mut chain = Vec::new();
        let mut addr = entry.first;
        let mut prev_addr = entry.last;
        for block_no in 0..entry.size {
            let (mut header, block) = match self.chain_header(via, addr, file, block_no) {
                Ok(found) => found,
                Err(e) => {
                    let torn = format!("{file}: block {block_no} at {addr}: {e}");
                    report.errors.push(torn);
                    return (chain, Some(block_no));
                }
            };
            if block_no > 0 && header.prev != prev_addr {
                report.errors.push(format!(
                    "{file}: block {block_no} back-pointer {} != {prev_addr}",
                    header.prev
                ));
                if let (true, Via::Timed(ctx), Some(bytes)) = (repair, &mut *via, block) {
                    header.prev = prev_addr;
                    let fixed = encode_block(&header, &bytes[EFS_HEADER_SIZE..]);
                    let _ = self.disk.write(ctx, addr, &fixed);
                    report.note_repair(ctx, "back-pointer");
                }
            }
            chain.push(addr);
            report.blocks += 1;
            prev_addr = addr;
            addr = header.next;
        }
        (chain, None)
    }

    /// Raw walk of every file in the directory: the allocator and chain
    /// shadow reachability implies. Mount and recovery rebuild from this;
    /// [`Efs::fsck`] is this plus the report.
    pub(super) fn reachable_raw(&mut self, report: &mut FsckReport) -> Result<Reachable, EfsError> {
        let mut alloc = BlockAllocator::new(self.layout.data_start, self.disk.capacity_blocks());
        let mut chains = FixedMap::default();
        for entry in self.dir.scan_raw(&self.disk)? {
            report.files += 1;
            let (chain, _) = self.walk_chain(&mut Via::Raw, false, &entry, report);
            for &addr in &chain {
                alloc.reserve(addr);
            }
            chains.insert(entry.file, chain);
        }
        Ok((alloc, chains))
    }

    /// Offline consistency check (untimed): walks every file's block list,
    /// validates headers and back-pointers, and rebuilds the allocator and
    /// chain shadow from what it finds. It reads the image as it lies: a
    /// decided block write still on its way home (see [`Efs::decide`])
    /// is not on it yet.
    pub fn fsck(&mut self) -> FsckReport {
        let mut report = FsckReport::default();
        match self.reachable_raw(&mut report) {
            Ok((alloc, chains)) => {
                self.alloc = alloc;
                self.chains = chains;
            }
            Err(e) => report.errors.push(format!("directory scan failed: {e}")),
        }
        report
    }

    /// Online consistency check over timed disk reads — the per-instance
    /// half of the `pfsck` tool. Passes are *pipelined within the
    /// instance*: as each directory bucket read completes, the chains of
    /// its entries are walked and cross-labeled while later buckets are
    /// still unread; the allocator cross-check runs over the accumulated
    /// reachability set at the end. With `repair` set, the check also
    /// fixes what it finds — truncating torn chain tails, dropping
    /// dangling directory entries, rewriting bad back-pointers, and
    /// returning orphaned blocks to the allocator — and persists the
    /// repaired state before returning, so a second pass reports clean.
    ///
    /// Emits `fsck.scan` and `fsck.alloc` trace spans and an
    /// `fsck.repair` instant per repair when tracing is enabled.
    pub fn fsck_timed(&mut self, ctx: &mut Ctx, repair: bool) -> FsckReport {
        let mut report = FsckReport::default();
        if let Err(e) = self.flush_home(ctx, None) {
            report
                .errors
                .push(format!("block writes owed could not go home: {e}"));
        }
        self.charge_cpu(ctx);
        let t0 = ctx.now();
        let mut rebuilt = BlockAllocator::new(self.layout.data_start, self.disk.capacity_blocks());
        let mut chains: FixedMap<LfsFileId, Vec<BlockAddr>> = FixedMap::default();
        // Entries whose chain tore, with the block number it tore at:
        // truncated (or dropped) after the scan so bucket iteration stays
        // stable.
        let mut torn: Vec<(DirEntry, u32)> = Vec::new();

        // Pass 1+2, pipelined per bucket: bucket read, then chain walks.
        for b in 0..self.layout.dir_buckets {
            let via = &mut Via::Timed(ctx);
            let entries = match self.dir.entries(via, &mut self.disk, b) {
                Ok(e) => e,
                Err(e) => {
                    report.errors.push(format!("bucket {b} unreadable: {e}"));
                    continue;
                }
            };
            for entry in entries {
                report.files += 1;
                let (chain, torn_at) = self.walk_chain(via, repair, &entry, &mut report);
                for &addr in &chain {
                    rebuilt.reserve(addr);
                }
                chains.entry(entry.file).or_default().extend(chain);
                torn.extend(torn_at.map(|n| (entry, n)));
            }
        }
        if ctx.trace_enabled() {
            ctx.trace_span(
                "fsck",
                "fsck.scan",
                t0,
                &[
                    ("files", u64::from(report.files)),
                    ("blocks", u64::from(report.blocks)),
                ],
            );
        }

        // Pass 3: allocator cross-check against the reachability set.
        let t_alloc = ctx.now();
        let live = self.alloc.to_bytes();
        let want = rebuilt.to_bytes();
        let mut orphaned = 0u32;
        let mut unreserved = 0u32;
        for (a, w) in live.iter().zip(want.iter()) {
            orphaned += (a & !w).count_ones();
            unreserved += (!a & w).count_ones();
        }
        if orphaned > 0 {
            report.errors.push(format!(
                "{orphaned} allocated blocks unreachable (orphaned)"
            ));
        }
        if unreserved > 0 {
            report
                .errors
                .push(format!("{unreserved} reachable blocks not allocated"));
        }
        if ctx.trace_enabled() {
            ctx.trace_span(
                "fsck",
                "fsck.alloc",
                t_alloc,
                &[
                    ("orphaned", u64::from(orphaned)),
                    ("unreserved", u64::from(unreserved)),
                ],
            );
        }

        if repair {
            for (mut entry, size) in torn {
                let file = entry.file;
                self.links.invalidate_file(file);
                let chain = chains.entry(file).or_default();
                chain.truncate(size as usize);
                if let Some(&last) = chain.last() {
                    entry.size = size;
                    entry.last = last;
                    let _ = self.dir.upsert(&mut Via::Timed(ctx), &mut self.disk, entry);
                    report.note_repair(ctx, "truncate");
                } else {
                    // A dropped entry goes home at once, even where the
                    // directory otherwise waits for the checkpoint: no
                    // log record stands for it.
                    let removed = self.dir.remove(&mut Via::Timed(ctx), &mut self.disk, file);
                    if let Ok(Some(_)) = removed {
                        let _ = self.dir.persist(ctx, &mut self.disk, file);
                    }
                    chains.remove(&file);
                    report.note_repair(ctx, "drop-entry");
                }
            }
            for _ in 0..orphaned.saturating_add(unreserved) {
                report.note_repair(ctx, "allocator");
            }
            self.alloc = rebuilt;
            self.chains = chains;
            // Persist the repaired state so the verdict survives a
            // remount (and, with a WAL, stamp a checkpoint).
            let _ = self.sync(ctx);
        }
        report
    }

    /// Plants one corruption for repair tests and the CI pfsck smoke step
    /// (untimed, raw). Returns a description of what was corrupted, or
    /// `None` when the instance has no suitable target.
    pub fn seed_corruption(&mut self, kind: CorruptionKind) -> Option<String> {
        match kind {
            CorruptionKind::OrphanBlock => {
                let addr = self.alloc.allocate()?;
                Some(format!("orphaned allocated block at {addr}"))
            }
            CorruptionKind::TornTail => {
                let (&file, chain) = self
                    .chains
                    .iter()
                    .filter(|(_, c)| c.len() >= 2)
                    .max_by_key(|(_, c)| c.len())?;
                let addr = *chain.last()?;
                let block_size = self.disk.geometry().block_size;
                self.disk.write_raw(addr, vec![0u8; block_size].into());
                self.links.invalidate_file(file);
                Some(format!("torn tail of {file} at {addr}"))
            }
            CorruptionKind::DanglingEntry => {
                let mut id = 0xDEAD_0000u32;
                while self.chains.contains_key(&LfsFileId(id)) {
                    id += 1;
                }
                let target = BlockAddr::new(self.layout.data_start);
                let entry = DirEntry {
                    file: LfsFileId(id),
                    first: target,
                    last: target,
                    size: 1,
                };
                self.dir.upsert(&mut Via::Raw, &mut self.disk, entry).ok()?;
                Some(format!("dangling entry {} -> {target}", LfsFileId(id)))
            }
        }
    }
}
