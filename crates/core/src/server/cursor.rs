//! The naive view's cursors and random access, linked (disordered)
//! files, and the parallel-open view's lock-step job rounds.

use super::blockio::{check_header, Target};
use super::group::Op;
use super::Server;
use crate::error::BridgeError;
use crate::header::{encode_payload, BridgeHeader, GlobalPtr, BRIDGE_DATA};
use crate::ids::{BridgeFileId, JobId, LfsIndex};
use crate::placement::PlacementKind;
use crate::protocol::{BridgeData, JobDeliver, JobRequest, JobSupply};
use crate::redundancy::Redundancy;
use bytes::Bytes;
use parsim::{Ctx, ProcId};
use std::collections::VecDeque;

/// Per-(client, file) sequential cursor.
#[derive(Debug, Clone, Default)]
pub(super) struct Cursor {
    next_block: u64,
    /// Linked files: where `next_block` lives, when known.
    linked_pos: Option<GlobalPtr>,
    /// Blocks already fetched by a batched read, `next_block` first.
    prefetch: VecDeque<Bytes>,
}

/// The append train of one plain (strictly placed, unprotected) file,
/// acknowledged at once and flushed through the block-write primitive
/// when it reaches the batch depth — immediately at depth 1 — or any
/// other command arrives.
pub(super) struct PendingAppends {
    pub file: BridgeFileId,
    payloads: Vec<Bytes>,
}

#[derive(Debug)]
pub(super) struct Job {
    pub file: BridgeFileId,
    controller: ProcId,
    workers: Vec<ProcId>,
    cursor: u64,
}

fn check_size(data: &[u8]) -> Result<(), BridgeError> {
    if data.len() > BRIDGE_DATA {
        return Err(BridgeError::DataTooLarge {
            provided: data.len(),
        });
    }
    Ok(())
}

impl Server {
    fn is_linked(&self, file: BridgeFileId) -> bool {
        matches!(self.files[&file].placement.kind(), PlacementKind::Linked)
    }

    /// Reads one block of a file by explicit pointer (linked files have
    /// no computable placement) and checks its Bridge header.
    fn read_checked(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
        ptr: GlobalPtr,
    ) -> Result<(BridgeHeader, Bytes), BridgeError> {
        let target = Target::hinted(file, self.files[&file].lfs_file);
        let payload = self.read_one(ctx, target, ptr)?;
        check_header(file, block, &payload)
    }

    /// Writes one block of a file by explicit pointer.
    fn write_checked(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        ptr: GlobalPtr,
        header: &BridgeHeader,
        data: &[u8],
    ) -> Result<(), BridgeError> {
        let target = Target::hinted(file, self.files[&file].lfs_file);
        let payload = Bytes::from(encode_payload(header, data));
        self.write_blocks(ctx, target, &[(ptr, payload)], 1)
    }

    pub(super) fn seq_read(
        &mut self,
        ctx: &mut Ctx,
        from: ProcId,
        file: BridgeFileId,
    ) -> Result<BridgeData, BridgeError> {
        let size = self.meta(file)?.size;
        let cursor = self.cursors.entry((from, file)).or_default();
        if let Some(body) = cursor.prefetch.pop_front() {
            cursor.next_block += 1;
            return Ok(BridgeData::Block(body));
        }
        let block = cursor.next_block;
        let linked_pos = cursor.linked_pos;
        // The (empty) read-ahead window, refilled and put back below.
        let mut window = std::mem::take(&mut cursor.prefetch);
        if block >= size {
            return Ok(BridgeData::Eof);
        }
        if self.is_linked(file) {
            let pos = match linked_pos {
                Some(p) => p,
                None if block == 0 => self.files[&file]
                    .head
                    .ok_or_else(|| BridgeError::Corrupt("linked file has no head".into()))?,
                None => self.linked_walk(ctx, file, block)?,
            };
            let (header, body) = self.read_checked(ctx, file, block, pos)?;
            let cursor = self.cursors.entry((from, file)).or_default();
            cursor.next_block = block + 1;
            // A tail block's forward pointer is a provisional self-pointer
            // until the next append fixes it; never cache that as a cursor
            // position.
            cursor.linked_pos = (header.next != pos).then_some(header.next);
            return Ok(BridgeData::Block(body));
        }
        // Fetch up to `depth` consecutive globals (one, with batching
        // off) into the window — by index, because runs complete out of
        // global order — then answer with the first.
        let depth = self.depth();
        let count = u64::from(depth).min(size - block);
        window.resize(count as usize, Bytes::new());
        self.read_strict(ctx, file, block, count, depth, |_, global, body| {
            window[(global - block) as usize] = body;
        })?;
        let first = window.pop_front().expect("count >= 1");
        let cursor = self.cursors.entry((from, file)).or_default();
        cursor.next_block = block + 1;
        cursor.prefetch = window;
        Ok(BridgeData::Block(first))
    }

    /// `RandRead` of a linked file: a walk of its chain. A strictly placed
    /// file's block is read through the commit-group rounds
    /// ([`Server::plan_rand_read`]).
    pub(super) fn rand_read(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
    ) -> Result<BridgeData, BridgeError> {
        let size = self.meta(file)?.size;
        if block >= size {
            return Err(BridgeError::BlockOutOfRange { file, block, size });
        }
        let ptr = self.linked_walk(ctx, file, block)?;
        Ok(BridgeData::Block(
            self.read_checked(ctx, file, block, ptr)?.1,
        ))
    }

    /// `RandRead`'s plan half for a strictly placed file: where the block
    /// lives. Its read is the commit group's read round, and
    /// [`Server::strict_body`] its compute.
    pub(super) fn plan_rand_read(
        &mut self,
        file: BridgeFileId,
        block: u64,
    ) -> Result<Op, BridgeError> {
        let meta = self.meta(file)?;
        if block >= meta.size {
            let size = meta.size;
            return Err(BridgeError::BlockOutOfRange { file, block, size });
        }
        let target = Target::hinted(file, meta.lfs_file);
        let at = (target, meta.locate(block)?);
        Ok(Op::Read { file, block, at })
    }

    /// Appends `bodies` as globals `size..size + n` of a plain file
    /// through the block-write primitive at the machine's batch depth.
    fn write_range(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        bodies: &[Bytes],
    ) -> Result<(), BridgeError> {
        let meta = self.meta(file)?;
        let size = meta.size;
        let size_after = size + bodies.len() as u64;
        let target = Target::hinted(file, meta.lfs_file);
        let mut blocks = Vec::with_capacity(bodies.len());
        for (global, body) in (size..).zip(bodies) {
            let header = meta.strict_header(file, global, size_after)?;
            let payload = Bytes::from(encode_payload(&header, body));
            blocks.push((meta.locate(global)?, payload));
        }
        self.write_blocks(ctx, target, &blocks, self.depth())?;
        self.file_mut(file).size = size_after;
        Ok(())
    }

    /// `SeqWrite` of a linked file — a scattered append — or of a plain
    /// strictly placed one, which joins the append train
    /// ([`PendingAppends`]) and is acknowledged at once. A redundant
    /// file's append is a block write through the commit-group rounds
    /// ([`Server::plan_append`]).
    pub(super) fn seq_write(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        data: Bytes,
    ) -> Result<BridgeData, BridgeError> {
        let size = self.meta(file)?.size;
        check_size(&data)?;
        if self.is_linked(file) {
            self.append_linked(ctx, file, size, &data)?;
            return Ok(BridgeData::Written { block: size });
        }
        debug_assert_eq!(self.files[&file].redundancy, Redundancy::None);
        let pending = self.pending.get_or_insert_with(|| PendingAppends {
            file,
            payloads: Vec::new(),
        });
        pending.payloads.push(data);
        let block = size + pending.payloads.len() as u64 - 1;
        if pending.payloads.len() as u32 >= self.depth() {
            self.flush_appends(ctx)?;
        }
        Ok(BridgeData::Written { block })
    }

    /// `SeqWrite`'s plan half for a redundant file: a block write one
    /// past the end.
    pub(super) fn plan_append(
        &mut self,
        file: BridgeFileId,
        data: &[u8],
    ) -> Result<Op, BridgeError> {
        let size = self.meta(file)?.size;
        check_size(data)?;
        self.plan_write(file, size, data, size + 1).map(Op::Write)
    }

    /// Flushes the buffered append train, if any.
    pub(super) fn flush_appends(&mut self, ctx: &mut Ctx) -> Result<(), BridgeError> {
        let Some(PendingAppends { file, payloads }) = self.pending.take() else {
            return Ok(());
        };
        self.write_range(ctx, file, &payloads)
    }

    /// Forgets batched read-ahead for `file` (called before overwrites;
    /// appends and value-preserving repairs cannot stale it).
    fn drop_prefetch(&mut self, file: BridgeFileId) {
        for ((_, f), cursor) in self.cursors.iter_mut() {
            if *f == file {
                cursor.prefetch.clear();
            }
        }
    }

    /// Linked append of global `block`: scatter to a pseudo-random node,
    /// then fix the old tail's forward pointer (an extra read-modify-write
    /// — the price of disorder).
    fn append_linked(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
        data: &[u8],
    ) -> Result<(), BridgeError> {
        let meta = self.file_mut(file);
        // Deterministic scatter: a hash of (file, block) picks the
        // position; the local block is that column's next slot.
        let pos = {
            let mut z = u64::from(file.0) << 32 | block;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % meta.nodes.len() as u64
        } as usize;
        let ptr = GlobalPtr {
            lfs: LfsIndex(meta.nodes[pos]),
            local: meta.linked_locals[pos],
        };
        meta.linked_locals[pos] += 1;
        let old_tail = meta.tail;
        let header = BridgeHeader {
            file,
            global_block: block,
            breadth: meta.placement.breadth(),
            next: ptr, // provisional self-pointer; fixed when block+1 arrives
            prev: old_tail.unwrap_or(ptr),
        };
        self.write_checked(ctx, file, ptr, &header, data)?;

        if let Some(tail) = old_tail {
            // Read-modify-write the old tail to point at the new block.
            let (tail_header, tail_body) = self.read_checked(ctx, file, block - 1, tail)?;
            let fixed = BridgeHeader {
                next: ptr,
                ..tail_header
            };
            self.write_checked(ctx, file, tail, &fixed, &tail_body)?;
        } else {
            self.file_mut(file).head = Some(ptr);
        }
        let meta = self.file_mut(file);
        meta.tail = Some(ptr);
        meta.size = block + 1;
        Ok(())
    }

    /// Walks a linked file's chain to `block`. O(distance) LFS reads — the
    /// "very slow random access" the paper concedes for disordered files.
    fn linked_walk(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
    ) -> Result<GlobalPtr, BridgeError> {
        let meta = &self.files[&file];
        let size = meta.size;
        let (mut at, mut pos, forward) = if block <= size / 2 {
            (
                0u64,
                meta.head
                    .ok_or_else(|| BridgeError::Corrupt("linked file has no head".into()))?,
                true,
            )
        } else {
            (
                size - 1,
                meta.tail
                    .ok_or_else(|| BridgeError::Corrupt("linked file has no tail".into()))?,
                false,
            )
        };
        while at != block {
            let (header, _) = self.read_checked(ctx, file, at, pos)?;
            if forward {
                pos = header.next;
                at += 1;
            } else {
                pos = header.prev;
                at -= 1;
            }
        }
        Ok(pos)
    }

    /// `RandWrite` of a linked file: an append one past the end, else a
    /// walk to the block and a rewrite in place. A strictly placed file's
    /// block is written through the commit-group rounds
    /// ([`Server::plan_rand_write`]).
    pub(super) fn rand_write(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        block: u64,
        data: &[u8],
    ) -> Result<BridgeData, BridgeError> {
        check_size(data)?;
        self.drop_prefetch(file);
        let size = self.meta(file)?.size;
        if block == size {
            self.append_linked(ctx, file, block, data)?;
        } else if block > size {
            return Err(BridgeError::BlockOutOfRange { file, block, size });
        } else {
            let ptr = self.linked_walk(ctx, file, block)?;
            let (header, _) = self.read_checked(ctx, file, block, ptr)?;
            self.write_checked(ctx, file, ptr, &header, data)?;
        }
        Ok(BridgeData::Written { block })
    }

    /// `RandWrite`'s plan half for a strictly placed file: an overwrite,
    /// or an append one past the end.
    pub(super) fn plan_rand_write(
        &mut self,
        file: BridgeFileId,
        block: u64,
        data: &[u8],
    ) -> Result<Op, BridgeError> {
        check_size(data)?;
        self.drop_prefetch(file);
        let size = self.meta(file)?.size;
        if block > size {
            return Err(BridgeError::BlockOutOfRange { file, block, size });
        }
        let size_after = size.max(block + 1);
        self.plan_write(file, block, data, size_after)
            .map(Op::Write)
    }

    pub(super) fn parallel_open(
        &mut self,
        from: ProcId,
        file: BridgeFileId,
        workers: Vec<ProcId>,
    ) -> Result<BridgeData, BridgeError> {
        if workers.is_empty() {
            return Err(BridgeError::EmptyWorkerList);
        }
        self.meta(file)?;
        if self.is_linked(file) {
            return Err(BridgeError::LinkedUnsupported {
                op: "parallel open",
            });
        }
        let job = JobId(self.next_job);
        self.next_job += 1;
        self.jobs.insert(
            job,
            Job {
                file,
                controller: from,
                workers,
                cursor: 0,
            },
        );
        Ok(BridgeData::JobOpened(job))
    }

    fn job_of(&self, from: ProcId, job: JobId) -> Result<&Job, BridgeError> {
        match self.jobs.get(&job) {
            Some(j) if j.controller == from => Ok(j),
            _ => Err(BridgeError::UnknownJob(job)),
        }
    }

    pub(super) fn job_close(
        &mut self,
        from: ProcId,
        job: JobId,
    ) -> Result<BridgeData, BridgeError> {
        self.job_of(from, job)?;
        self.jobs.remove(&job);
        Ok(BridgeData::JobClosed)
    }

    /// One lock-step read round: deliver the next `t` blocks, one to each
    /// worker, as their LFS replies are processed — in waves of at most
    /// `p` pipelined reads with batching off ("the server will perform
    /// groups of p disk accesses in parallel until the high-level request
    /// is satisfied"), as one run per LFS with it on.
    pub(super) fn job_read(
        &mut self,
        ctx: &mut Ctx,
        from: ProcId,
        job_id: JobId,
    ) -> Result<BridgeData, BridgeError> {
        let (file, workers, cursor) = {
            let job = self.job_of(from, job_id)?;
            (job.file, job.workers.clone(), job.cursor)
        };
        let size = self.meta(file)?.size;
        let count = (workers.len() as u64).min(size.saturating_sub(cursor));
        self.read_strict(
            ctx,
            file,
            cursor,
            count,
            self.depth(),
            |ctx, block, body| {
                ctx.send_sized(
                    workers[(block - cursor) as usize],
                    JobDeliver {
                        job: job_id,
                        block,
                        data: Some(body),
                    },
                    1024,
                );
            },
        )?;
        // Lock step: workers beyond the data get an explicit empty round.
        for w in &workers[count as usize..] {
            ctx.send(
                *w,
                JobDeliver {
                    job: job_id,
                    block: 0,
                    data: None,
                },
            );
        }
        let job = self.jobs.get_mut(&job_id).expect("validated");
        job.cursor += count;
        let eof = job.cursor >= size;
        Ok(BridgeData::JobReadDone {
            delivered: count as u32,
            eof,
        })
    }

    /// One lock-step write round: collect one block from every worker,
    /// then append the contiguous prefix.
    pub(super) fn job_write(
        &mut self,
        ctx: &mut Ctx,
        from: ProcId,
        job_id: JobId,
    ) -> Result<BridgeData, BridgeError> {
        let (file, workers) = {
            let job = self.job_of(from, job_id)?;
            (job.file, job.workers.clone())
        };
        let size = self.meta(file)?.size;

        // Poll every worker (requests are small; pipelining them all is
        // harmless — the disk waves below are the real lock step).
        for (i, w) in workers.iter().enumerate() {
            ctx.send(
                *w,
                JobRequest {
                    job: job_id,
                    block: size + i as u64,
                },
            );
        }
        let mut supplies: Vec<Option<Bytes>> = vec![None; workers.len()];
        let mut received = vec![false; workers.len()];
        for _ in 0..workers.len() {
            let env = ctx.recv_where(|e| {
                e.downcast_ref::<JobSupply>()
                    .is_some_and(|s| s.job == job_id)
            });
            let from_worker = env.from();
            let supply = env.downcast::<JobSupply>().expect("matched");
            let idx = supply
                .block
                .checked_sub(size)
                .map(|i| i as usize)
                .filter(|&i| i < workers.len() && workers[i] == from_worker && !received[i])
                .ok_or(BridgeError::UnknownJob(job_id))?;
            received[idx] = true;
            supplies[idx] = supply.data;
        }

        // The accepted prefix ends at the first None.
        let accepted = supplies
            .iter()
            .position(Option::is_none)
            .unwrap_or(supplies.len());
        if supplies[accepted..].iter().any(Option::is_some) {
            return Err(BridgeError::WriteGap { job: job_id });
        }
        let prefix: Vec<Bytes> = supplies.into_iter().flatten().collect();
        for data in &prefix {
            check_size(data)?;
        }

        if self.meta(file)?.redundancy == Redundancy::None {
            // In waves of p pipelined writes, or one run per LFS.
            self.write_range(ctx, file, &prefix)?;
        } else {
            // Redundant files append one block at a time (each write
            // carries a parity or mirror companion that must not
            // interleave).
            let size_after = size + accepted as u64;
            for (block, data) in (size..).zip(&prefix) {
                self.write_block(ctx, file, block, data, size_after)?;
            }
        }
        Ok(BridgeData::JobWritten {
            accepted: accepted as u32,
        })
    }
}
