//! The block path: reads, writes and runs over a file's doubly linked
//! chain, and the search that finds a block's disk address.

use super::Efs;
use crate::cache::LinkInfo;
use crate::directory::{DirEntry, Via};
use crate::error::EfsError;
use crate::layout::{decode_block, decode_header, encode_block, EfsHeader, LfsFileId, EFS_PAYLOAD};
use crate::wal::{set_chain_len, WalRecord};
use bytes::Bytes;
use parsim::Ctx;
use simdisk::{BlockAddr, BlockDevice, DiskError};
use std::cmp::Ordering;

/// A committed block write whose record is logged but whose block has
/// not gone home yet: the directory entry and chain shadow already show
/// it, and [`Efs::flush_home`] writes it exactly as the normal write path
/// would have.
#[derive(Debug)]
pub(super) struct HomeWrite {
    file: LfsFileId,
    block_no: u32,
    /// Where the block lands.
    addr: BlockAddr,
    payload: Bytes,
    /// For an append: the file's head and its old tail (none for a first
    /// block), the two pointers the new block and the tail fix-up need.
    append: Option<(BlockAddr, Option<BlockAddr>)>,
}

/// A block must be the one its chain position says it is.
pub(super) fn check_label(
    header: &EfsHeader,
    file: LfsFileId,
    block_no: u32,
    addr: BlockAddr,
) -> Result<(), EfsError> {
    if header.file != file || header.block_no != block_no {
        return Err(EfsError::Corrupt(format!(
            "expected {file} block {block_no} at {addr}, found {} block {}",
            header.file, header.block_no
        )));
    }
    Ok(())
}

impl<D: BlockDevice> Efs<D> {
    /// Reads local block `block_no` of `file`, returning the 1000-byte
    /// payload and the block's disk address (the natural hint for the next
    /// request).
    ///
    /// # Errors
    ///
    /// [`EfsError::UnknownFile`], [`EfsError::BlockOutOfRange`], or
    /// [`EfsError::Corrupt`].
    pub fn read(
        &mut self,
        ctx: &mut Ctx,
        file: LfsFileId,
        block_no: u32,
        hint: Option<BlockAddr>,
    ) -> Result<(Bytes, BlockAddr), EfsError> {
        self.flush_home(ctx, Some(file))?;
        self.charge_cpu(ctx);
        self.stats.reads += 1;
        let entry = self.entry(ctx, file)?;
        if block_no >= entry.size {
            return Err(EfsError::BlockOutOfRange {
                file,
                block_no,
                size: entry.size,
            });
        }
        let addr = self.locate(ctx, &entry, block_no, hint)?;
        let (header, payload) = self.read_and_check(ctx, addr, file, block_no)?;
        self.link(file, block_no, addr, &header);
        Ok((payload, addr))
    }

    /// Writes local block `block_no` of `file`: an in-place overwrite when
    /// `block_no < size`, an append when `block_no == size`. Returns the
    /// block's disk address.
    ///
    /// # Errors
    ///
    /// [`EfsError::UnknownFile`], [`EfsError::WriteBeyondEnd`],
    /// [`EfsError::PayloadTooLarge`], [`EfsError::NoSpace`], or
    /// [`EfsError::LogFull`].
    pub fn write(
        &mut self,
        ctx: &mut Ctx,
        file: LfsFileId,
        block_no: u32,
        payload: &[u8],
        hint: Option<BlockAddr>,
    ) -> Result<BlockAddr, EfsError> {
        self.flush_home(ctx, Some(file))?;
        self.charge_cpu(ctx);
        if payload.len() > EFS_PAYLOAD {
            return Err(EfsError::PayloadTooLarge {
                provided: payload.len(),
            });
        }
        self.admit(|| set_chain_len(1), false)?;
        let addr = self.write_block(ctx, file, block_no, payload, hint)?;
        self.log_set_chain(ctx, file, false, &[addr])?;
        Ok(addr)
    }

    /// The committed block write of a decided 2PC transaction, made a
    /// redo record: its payload is already in the log, so the write is
    /// settled in memory now — directory entry, chain shadow, the
    /// `SetChain` record, which carries the block's address — and the
    /// block itself is queued for [`Efs::flush_home`], after the reply. An
    /// append allocates its block now, so a redo rewrites that block and
    /// the same two pointers; an overwrite is located now, and reads
    /// nothing more until it goes home. The request's CPU has already been
    /// charged.
    pub(super) fn defer_write(
        &mut self,
        ctx: &mut Ctx,
        file: LfsFileId,
        block_no: u32,
        payload: Bytes,
    ) -> Result<(), EfsError> {
        if payload.len() > EFS_PAYLOAD {
            return Err(EfsError::PayloadTooLarge {
                provided: payload.len(),
            });
        }
        self.stats.writes += 1;
        let mut entry = self.entry(ctx, file)?;
        let (addr, append) = match block_no.cmp(&entry.size) {
            Ordering::Less => (self.locate(ctx, &entry, block_no, None)?, None),
            Ordering::Equal => {
                let addr = self.alloc.allocate().ok_or(EfsError::NoSpace)?;
                self.stats.appends += 1;
                let tail = (entry.size > 0).then_some(entry.last);
                let head = tail.map_or(addr, |_| entry.first);
                entry.first = head;
                entry.last = addr;
                entry.size += 1;
                self.dir
                    .upsert(&mut Via::Timed(ctx), &mut self.disk, entry)?;
                self.chains.entry(file).or_default().push(addr);
                (addr, Some((head, tail)))
            }
            Ordering::Greater => {
                return Err(EfsError::WriteBeyondEnd {
                    file,
                    block_no,
                    size: entry.size,
                })
            }
        };
        self.log_set_chain(ctx, file, false, &[addr])?;
        self.home.push(HomeWrite {
            file,
            block_no,
            addr,
            payload,
            append,
        });
        Ok(())
    }

    /// Sends the deferred block writes home — `file`'s, or all of them —
    /// in the order they were decided. A request that names a file with
    /// a write owed runs this first, so it never sees the block before
    /// it is home; the server runs it for everything after the replies.
    /// Returns whether anything was written. A write the device refuses
    /// stays owed, with everything behind it.
    ///
    /// # Errors
    ///
    /// Propagates device errors ([`simdisk::DiskError::Crashed`] when the
    /// node died on the way: recovery redoes the write from its record).
    pub(crate) fn flush_home(
        &mut self,
        ctx: &mut Ctx,
        file: Option<LfsFileId>,
    ) -> Result<bool, EfsError> {
        if self.home.is_empty() {
            return Ok(false);
        }
        let mut wrote = false;
        let mut i = 0;
        while i < self.home.len() {
            if file.is_some_and(|f| f != self.home[i].file) {
                i += 1;
                continue;
            }
            let owed = self.home.remove(i);
            if let Err(e) = self.write_home_block(ctx, &owed) {
                self.home.insert(i, owed);
                return Err(e);
            }
            wrote = true;
        }
        // A kill on the last write leaves it durable and the device dead.
        match self.disk.crash_down() {
            Some(_) if wrote => Err(DiskError::Crashed.into()),
            _ => Ok(wrote),
        }
    }

    fn write_home_block(&mut self, ctx: &mut Ctx, owed: &HomeWrite) -> Result<(), EfsError> {
        let HomeWrite {
            file,
            block_no,
            addr,
            ref payload,
            append,
        } = *owed;
        match append {
            None => self.overwrite(ctx, file, block_no, addr, payload),
            Some(ends) => self.append_home(ctx, file, block_no, addr, ends, payload),
        }
    }

    /// Reads `count` consecutive local blocks starting at `first` in one
    /// request: a single CPU charge and one hint search, then a walk of the
    /// doubly-linked list that hands the device a whole run
    /// ([`BlockDevice::read_many`]) whenever the upcoming addresses are
    /// already known from the link cache. Returns each block's payload and
    /// disk address in order; the last address is the natural hint for the
    /// next run.
    ///
    /// # Errors
    ///
    /// [`EfsError::UnknownFile`], [`EfsError::BlockOutOfRange`] (when any
    /// part of the run is past the end), or [`EfsError::Corrupt`].
    pub fn read_run(
        &mut self,
        ctx: &mut Ctx,
        file: LfsFileId,
        first: u32,
        count: u32,
        hint: Option<BlockAddr>,
    ) -> Result<Vec<(Bytes, BlockAddr)>, EfsError> {
        self.flush_home(ctx, Some(file))?;
        self.charge_cpu(ctx);
        if count == 0 {
            return Ok(Vec::new());
        }
        let entry = self.entry(ctx, file)?;
        let end = first
            .checked_add(count)
            .filter(|&e| e <= entry.size)
            .ok_or(EfsError::BlockOutOfRange {
                file,
                block_no: first.saturating_add(count - 1),
                size: entry.size,
            })?;
        self.stats.reads += u64::from(count);
        let mut out: Vec<(Bytes, BlockAddr)> = Vec::with_capacity(count as usize);
        let mut no = first;
        let mut addr = self.locate(ctx, &entry, first, hint)?;
        while no < end {
            // Extend the segment through link-cache knowledge so the disk
            // sees one run, not one block; a cold walk degrades to chained
            // single-block reads (each block names its successor).
            let mut addrs = vec![addr];
            let mut cur_no = no;
            let mut cur_addr = addr;
            while cur_no + 1 < end {
                let Some(info) = self.links.peek(file, cur_no) else {
                    break;
                };
                if info.addr != cur_addr {
                    break;
                }
                cur_addr = info.next;
                cur_no += 1;
                addrs.push(cur_addr);
            }
            let blocks = self.disk.read_many(ctx, &addrs)?;
            let mut next_addr = addr;
            for (bytes, &a) in blocks.iter().zip(&addrs) {
                let (header, payload) = decode_block(bytes)?;
                check_label(&header, file, no, a)?;
                self.link(file, no, a, &header);
                out.push((payload, a));
                next_addr = header.next;
                no += 1;
            }
            addr = next_addr;
        }
        Ok(out)
    }

    /// Writes `payloads.len()` consecutive local blocks starting at `first`
    /// in one request, charging CPU once for the whole run. A pure append
    /// run (`first == size`) allocates all its blocks up front, links them
    /// in memory, and hands the device a single
    /// [`BlockDevice::write_many`] — positioning once per track — followed
    /// by one directory update. Runs that overwrite existing blocks fall
    /// back to block-at-a-time servicing.
    ///
    /// Returns the disk address of every block written, in order.
    ///
    /// # Errors
    ///
    /// As [`Efs::write`]. On an error mid-run, earlier blocks of the run
    /// may already be written — the same partial-failure contract as
    /// issuing the writes separately.
    pub fn write_run(
        &mut self,
        ctx: &mut Ctx,
        file: LfsFileId,
        first: u32,
        payloads: &[Bytes],
        hint: Option<BlockAddr>,
    ) -> Result<Vec<BlockAddr>, EfsError> {
        self.flush_home(ctx, Some(file))?;
        self.charge_cpu(ctx);
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        for p in payloads {
            if p.len() > EFS_PAYLOAD {
                return Err(EfsError::PayloadTooLarge { provided: p.len() });
            }
        }
        self.admit(|| set_chain_len(payloads.len()), false)?;
        let entry = self.entry(ctx, file)?;
        if first > entry.size {
            return Err(EfsError::WriteBeyondEnd {
                file,
                block_no: first,
                size: entry.size,
            });
        }
        let addrs = if first == entry.size {
            self.append_run(ctx, entry, payloads)?
        } else {
            // The run overwrites existing blocks (and possibly appends
            // past the end): block-at-a-time, but still one message and
            // one CPU charge for the caller.
            let mut addrs = Vec::with_capacity(payloads.len());
            let mut hint = hint;
            for (block_no, payload) in (first..).zip(payloads) {
                let addr = self.write_block(ctx, file, block_no, payload, hint)?;
                hint = Some(addr);
                addrs.push(addr);
            }
            addrs
        };
        self.log_set_chain(ctx, file, true, &addrs)?;
        Ok(addrs)
    }

    // ----- internals ---------------------------------------------------

    /// One block to its place: an overwrite below the end of the file, an
    /// append at it.
    fn write_block(
        &mut self,
        ctx: &mut Ctx,
        file: LfsFileId,
        block_no: u32,
        payload: &[u8],
        hint: Option<BlockAddr>,
    ) -> Result<BlockAddr, EfsError> {
        self.stats.writes += 1;
        let entry = self.entry(ctx, file)?;
        match block_no.cmp(&entry.size) {
            Ordering::Less => {
                let addr = self.locate(ctx, &entry, block_no, hint)?;
                self.overwrite(ctx, file, block_no, addr, payload)?;
                Ok(addr)
            }
            Ordering::Equal => {
                self.stats.appends += 1;
                self.append(ctx, entry, payload)
            }
            Ordering::Greater => Err(EfsError::WriteBeyondEnd {
                file,
                block_no,
                size: entry.size,
            }),
        }
    }

    /// Logs the absolute post-write chain state of `file` (no-op without
    /// a WAL). The entry lookup is free: the serving operation has just
    /// loaded and updated the bucket, so it is cached.
    fn log_set_chain(
        &mut self,
        ctx: &mut Ctx,
        file: LfsFileId,
        run: bool,
        addrs: &[BlockAddr],
    ) -> Result<(), EfsError> {
        if self.wal.is_none() {
            return Ok(());
        }
        let entry = self.entry(ctx, file)?;
        let addrs = addrs.to_vec();
        self.log(|client, id| WalRecord::SetChain {
            client,
            id,
            file,
            first: entry.first,
            last: entry.last,
            size: entry.size,
            run,
            addrs,
        });
        Ok(())
    }

    /// Remembers where a block lives and what it links to.
    fn link(&mut self, file: LfsFileId, block_no: u32, addr: BlockAddr, header: &EfsHeader) {
        let (next, prev) = (header.next, header.prev);
        self.links
            .put(file, block_no, LinkInfo { addr, next, prev });
    }

    /// Reads and validates a data block.
    fn read_and_check(
        &mut self,
        ctx: &mut Ctx,
        addr: BlockAddr,
        file: LfsFileId,
        block_no: u32,
    ) -> Result<(EfsHeader, Bytes), EfsError> {
        let bytes = self.disk.read(ctx, addr)?;
        let (header, payload) = decode_block(&bytes)?;
        check_label(&header, file, block_no, addr)?;
        Ok((header, payload))
    }

    /// Reads a block for its link pointers alone.
    fn read_links(
        &mut self,
        ctx: &mut Ctx,
        file: LfsFileId,
        block_no: u32,
        addr: BlockAddr,
    ) -> Result<LinkInfo, EfsError> {
        let (header, _) = self.read_and_check(ctx, addr, file, block_no)?;
        let (next, prev) = (header.next, header.prev);
        Ok(LinkInfo { addr, next, prev })
    }

    /// Finds the disk address of `block_no`, searching "from the closest of
    /// three locations: the beginning, the end, and the hint", with the
    /// link cache consulted first.
    fn locate(
        &mut self,
        ctx: &mut Ctx,
        entry: &DirEntry,
        block_no: u32,
        hint: Option<BlockAddr>,
    ) -> Result<BlockAddr, EfsError> {
        let file = entry.file;
        if let Some(info) = self.links.get(file, block_no) {
            return Ok(info.addr);
        }
        // A cached neighbor points straight at the target.
        if block_no > 0 {
            if let Some(info) = self.links.peek(file, block_no - 1) {
                return Ok(info.next);
            }
        }
        if block_no + 1 < entry.size {
            if let Some(info) = self.links.peek(file, block_no + 1) {
                return Ok(info.prev);
            }
        }

        // Candidate start positions: beginning, end, and the hint (which
        // costs a probe read to validate).
        let size = entry.size;
        let mut candidates: Vec<(u32, BlockAddr)> = vec![(0, entry.first), (size - 1, entry.last)];
        if let Some(hint_addr) = hint {
            self.stats.hint_probes += 1;
            if let Ok(bytes) = self.disk.read(ctx, hint_addr) {
                if let Ok(header) = decode_header(&bytes) {
                    if header.file == file && header.block_no < size {
                        self.link(file, header.block_no, hint_addr, &header);
                        candidates.push((header.block_no, hint_addr));
                    }
                }
            }
        }

        // Pick the start with the shortest circular walk.
        let dist = |from: u32| -> (u32, bool) {
            let fwd = (block_no + size - from) % size;
            let back = (from + size - block_no) % size;
            if fwd <= back {
                (fwd, true)
            } else {
                (back, false)
            }
        };
        let (mut cur_no, mut cur_addr) = candidates
            .iter()
            .copied()
            .min_by_key(|c| dist(c.0).0)
            .unwrap_or((0, entry.first));
        let (steps, forward) = dist(cur_no);

        for _ in 0..steps {
            self.stats.walk_steps += 1;
            let info = match self.links.peek(file, cur_no) {
                Some(info) => info,
                None => {
                    let info = self.read_links(ctx, file, cur_no, cur_addr)?;
                    self.links.put(file, cur_no, info);
                    info
                }
            };
            if forward {
                cur_addr = info.next;
                cur_no = (cur_no + 1) % size;
            } else {
                cur_addr = info.prev;
                cur_no = (cur_no + size - 1) % size;
            }
        }
        Ok(cur_addr)
    }

    /// Rewrites block `block_no` of `file` at `addr` in place. The
    /// rebuilt header needs the block's link pointers: from the cache, or
    /// by reading the block.
    fn overwrite(
        &mut self,
        ctx: &mut Ctx,
        file: LfsFileId,
        block_no: u32,
        addr: BlockAddr,
        payload: &[u8],
    ) -> Result<(), EfsError> {
        let info = match self.links.peek(file, block_no) {
            Some(info) => info,
            None => self.read_links(ctx, file, block_no, addr)?,
        };
        let header = EfsHeader {
            file,
            block_no,
            next: info.next,
            prev: info.prev,
        };
        self.disk
            .write(ctx, addr, &encode_block(&header, payload))?;
        self.links.put(file, block_no, info);
        Ok(())
    }

    fn append(
        &mut self,
        ctx: &mut Ctx,
        mut entry: DirEntry,
        payload: &[u8],
    ) -> Result<BlockAddr, EfsError> {
        let file = entry.file;
        let addr = self.alloc.allocate().ok_or(EfsError::NoSpace)?;
        // A one-block file is its own circular neighborhood.
        let tail = (entry.size > 0).then_some(entry.last);
        let head = tail.map_or(addr, |_| entry.first);
        self.append_home(ctx, file, entry.size, addr, (head, tail), payload)?;
        entry.first = head;
        entry.last = addr;
        entry.size += 1;
        self.dir
            .upsert(&mut Via::Timed(ctx), &mut self.disk, entry)?;
        self.chains.entry(file).or_default().push(addr);
        Ok(addr)
    }

    /// The two device writes of an append: the new block at `addr`,
    /// between the old `tail` and the `head` it wraps back to, then the
    /// old tail's forward pointer (read-modify-write; the track buffer
    /// makes the read cheap on sequential appends). The head's
    /// back-pointer is represented by the directory's `last` field and
    /// repaired lazily, so appends stay O(1) in disk operations.
    fn append_home(
        &mut self,
        ctx: &mut Ctx,
        file: LfsFileId,
        block_no: u32,
        addr: BlockAddr,
        (head, tail): (BlockAddr, Option<BlockAddr>),
        payload: &[u8],
    ) -> Result<(), EfsError> {
        let header = EfsHeader {
            file,
            block_no,
            next: head,
            prev: tail.unwrap_or(addr),
        };
        self.disk
            .write(ctx, addr, &encode_block(&header, payload))?;
        if let Some(old_last) = tail {
            let tail_no = block_no - 1;
            let (tail_header, tail_payload) = self.read_and_check(ctx, old_last, file, tail_no)?;
            let fixed = EfsHeader {
                next: addr,
                ..tail_header
            };
            self.disk
                .write(ctx, old_last, &encode_block(&fixed, &tail_payload))?;
            self.link(file, tail_no, old_last, &fixed);
        }
        self.link(file, block_no, addr, &header);
        Ok(())
    }

    /// Appends a whole run: preallocate every block, link them in memory,
    /// one device run (old-tail fixup folded in), one directory update.
    fn append_run(
        &mut self,
        ctx: &mut Ctx,
        mut entry: DirEntry,
        payloads: &[Bytes],
    ) -> Result<Vec<BlockAddr>, EfsError> {
        let file = entry.file;
        let n = payloads.len() as u32;
        let mut addrs = Vec::with_capacity(payloads.len());
        for _ in 0..n {
            match self.alloc.allocate() {
                Some(a) => addrs.push(a),
                None => {
                    for &a in &addrs {
                        self.alloc.release(a);
                    }
                    return Err(EfsError::NoSpace);
                }
            }
        }
        self.stats.writes += u64::from(n);
        self.stats.appends += u64::from(n);

        let (new_first, new_last) = (addrs[0], addrs[addrs.len() - 1]);
        let head = if entry.size == 0 {
            new_first
        } else {
            entry.first
        };
        let old_last = (entry.size > 0).then_some(entry.last);
        let mut writes: Vec<(BlockAddr, Bytes)> = Vec::with_capacity(payloads.len() + 1);

        // The old tail's forward pointer moves to the first new block; the
        // read-modify-write joins the same device run as the new blocks.
        if let Some(tail_addr) = old_last {
            let tail_no = entry.size - 1;
            let (tail_header, tail_payload) = self.read_and_check(ctx, tail_addr, file, tail_no)?;
            let fixed = EfsHeader {
                next: new_first,
                ..tail_header
            };
            writes.push((tail_addr, encode_block(&fixed, &tail_payload).into()));
            self.link(file, tail_no, tail_addr, &fixed);
        }

        for (i, payload) in payloads.iter().enumerate() {
            let header = EfsHeader {
                file,
                block_no: entry.size + i as u32,
                next: addrs.get(i + 1).copied().unwrap_or(head),
                prev: match i {
                    0 => old_last.unwrap_or(new_last),
                    _ => addrs[i - 1],
                },
            };
            writes.push((addrs[i], encode_block(&header, payload).into()));
            self.link(file, header.block_no, addrs[i], &header);
        }
        self.disk.write_many(ctx, &writes)?;

        entry.first = head;
        entry.last = new_last;
        entry.size += n;
        self.dir
            .upsert(&mut Via::Timed(ctx), &mut self.disk, entry)?;
        self.chains
            .entry(file)
            .or_default()
            .extend_from_slice(&addrs);
        Ok(addrs)
    }
}
