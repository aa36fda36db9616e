//! Streaming one *column* of an interleaved file — the portion held by a
//! single LFS — with hint chaining, the access pattern at the heart of
//! every tool: "a lengthy series of interactions between the subprocesses
//! and the instances of LFS".
//!
//! Both directions move `depth` blocks per round trip through one path:
//! the reader refills a prefetch queue, the writer buffers appends until
//! it holds a full run. With [`BatchPolicy::Runs`] a round trip is one
//! [`LfsOp::ReadRun`] / [`LfsOp::WriteRun`], turning `depth` request/reply
//! pairs into one; [`BatchPolicy::Off`] is depth 1, where it is the
//! [`LfsOp::Read`] / [`LfsOp::Write`] of the paper's block-at-a-time
//! protocol.

use crate::error::ToolError;
use bridge_core::{decode_payload, encode_payload, BatchPolicy, BridgeHeader};
use bridge_efs::{LfsClient, LfsFileId, LfsOp};
use bytes::Bytes;
use parsim::{Ctx, ProcId};
use simdisk::BlockAddr;
use std::collections::VecDeque;

/// Sequentially reads the local blocks of one constituent LFS file.
#[derive(Debug)]
pub struct ColumnReader {
    lfs: ProcId,
    file: LfsFileId,
    size: u32,
    next: u32,
    hint: Option<BlockAddr>,
    depth: u32,
    prefetched: VecDeque<Bytes>,
}

impl ColumnReader {
    /// A reader over `size` local blocks of `file` on the LFS server `lfs`.
    pub fn new(lfs: ProcId, file: LfsFileId, size: u32) -> Self {
        ColumnReader {
            lfs,
            file,
            size,
            next: 0,
            hint: None,
            depth: 1,
            prefetched: VecDeque::new(),
        }
    }

    /// Enables run prefetching per `batch` (builder style).
    #[must_use]
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.depth = batch.depth();
        self
    }

    /// Local blocks remaining.
    pub fn remaining(&self) -> u32 {
        self.size - self.next
    }

    /// Reads the next local block's raw 1000-byte EFS payload, or `None`
    /// at the end of the column.
    ///
    /// # Errors
    ///
    /// Propagates LFS errors.
    pub fn next_raw(
        &mut self,
        ctx: &mut Ctx,
        client: &mut LfsClient,
    ) -> Result<Option<Bytes>, ToolError> {
        let payload = match self.prefetched.pop_front() {
            Some(payload) => payload,
            None if self.next >= self.size => return Ok(None),
            None => self.fetch(ctx, client)?,
        };
        self.next += 1;
        Ok(Some(payload))
    }

    /// One round trip for the next `depth` blocks (fewer at the end of the
    /// column): a [`LfsOp::Read`] at depth 1 — the paper's block-at-a-time
    /// protocol — and a [`LfsOp::ReadRun`] at any other depth, however
    /// short the run. Returns the first block; the rest wait in
    /// `prefetched`.
    fn fetch(&mut self, ctx: &mut Ctx, client: &mut LfsClient) -> Result<Bytes, ToolError> {
        let (file, first, hint) = (self.file, self.next, self.hint);
        if self.depth == 1 {
            let op = LfsOp::Read {
                file,
                block: first,
                hint,
            };
            let (data, addr) = client.call(ctx, self.lfs, op)?.into_block()?;
            self.hint = Some(addr);
            return Ok(data);
        }
        let count = self.depth.min(self.size - first);
        let t0 = ctx.now();
        let op = LfsOp::ReadRun {
            file,
            first,
            count,
            hint,
        };
        let reply = client.call(ctx, self.lfs, op)?;
        if ctx.trace_enabled() {
            ctx.trace_span(
                "tool",
                "tool.read_batch",
                t0,
                &[("blocks", u64::from(count))],
            );
        }
        let blocks = reply.into_run()?;
        if blocks.len() != count as usize {
            return Err(ToolError::Protocol(format!(
                "run of {count} blocks answered with {}",
                blocks.len()
            )));
        }
        self.hint = blocks.last().map(|b| b.1);
        // Collected in place: the queue takes over the reply's buffer.
        self.prefetched = blocks.into_iter().map(|(data, _)| data).collect();
        self.prefetched
            .pop_front()
            .ok_or_else(|| ToolError::Protocol("empty run".into()))
    }

    /// Reads and decodes the next Bridge block: `(header, 960-byte data)`.
    /// The data is a zero-copy slice of the block's payload.
    ///
    /// # Errors
    ///
    /// Propagates LFS errors; [`ToolError::Bridge`] on a corrupt header.
    pub fn next_block(
        &mut self,
        ctx: &mut Ctx,
        client: &mut LfsClient,
    ) -> Result<Option<(BridgeHeader, Bytes)>, ToolError> {
        match self.next_raw(ctx, client)? {
            None => Ok(None),
            Some(payload) => {
                let (header, data) = decode_payload(&payload).map_err(ToolError::Bridge)?;
                Ok(Some((header, data)))
            }
        }
    }
}

/// Appends local blocks to one constituent LFS file.
///
/// Under [`BatchPolicy::Runs`] appends are buffered and shipped as
/// [`LfsOp::WriteRun`]s; call [`ColumnWriter::flush`] before relying on
/// the column's on-disk contents (readers, size reports).
#[derive(Debug)]
pub struct ColumnWriter {
    lfs: ProcId,
    file: LfsFileId,
    next: u32,
    hint: Option<BlockAddr>,
    depth: u32,
    pending: Vec<Bytes>,
}

impl ColumnWriter {
    /// A writer appending to `file` on `lfs`, starting at local block
    /// `start` (pass the current local size to append to an existing
    /// column).
    pub fn new(lfs: ProcId, file: LfsFileId, start: u32) -> Self {
        ColumnWriter {
            lfs,
            file,
            next: start,
            hint: None,
            depth: 1,
            pending: Vec::new(),
        }
    }

    /// Enables run write-behind per `batch` (builder style).
    #[must_use]
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.depth = batch.depth();
        self
    }

    /// Local blocks written so far through this writer (plus the starting
    /// offset), counting blocks still buffered for the next run.
    pub fn position(&self) -> u32 {
        self.next
    }

    /// Appends a raw 1000-byte EFS payload.
    ///
    /// # Errors
    ///
    /// Propagates LFS errors.
    pub fn append_raw(
        &mut self,
        ctx: &mut Ctx,
        client: &mut LfsClient,
        payload: impl Into<Bytes>,
    ) -> Result<(), ToolError> {
        self.pending.push(payload.into());
        self.next += 1;
        if self.pending.len() as u32 >= self.depth {
            self.flush(ctx, client)?;
        }
        Ok(())
    }

    /// Ships any buffered appends in one round trip: a [`LfsOp::Write`] at
    /// depth 1 (where each append flushes at once), a [`LfsOp::WriteRun`]
    /// at any other depth. A no-op when nothing is pending.
    ///
    /// # Errors
    ///
    /// Propagates LFS errors.
    pub fn flush(&mut self, ctx: &mut Ctx, client: &mut LfsClient) -> Result<(), ToolError> {
        let (file, hint) = (self.file, self.hint);
        let first = self.next - self.pending.len() as u32;
        if self.depth == 1 {
            let Some(data) = self.pending.pop() else {
                return Ok(());
            };
            let op = LfsOp::Write {
                file,
                block: first,
                data,
                hint,
            };
            self.hint = Some(client.call(ctx, self.lfs, op)?.into_written()?);
            return Ok(());
        }
        if self.pending.is_empty() {
            return Ok(());
        }
        let data = std::mem::take(&mut self.pending);
        let blocks = data.len() as u64;
        let t0 = ctx.now();
        let op = LfsOp::WriteRun {
            file,
            first,
            data,
            hint,
        };
        let reply = client.call(ctx, self.lfs, op)?;
        if ctx.trace_enabled() {
            ctx.trace_span("tool", "tool.write_batch", t0, &[("blocks", blocks)]);
        }
        self.hint = reply.into_written_run()?.last().copied();
        Ok(())
    }

    /// Encodes and appends one Bridge block.
    ///
    /// # Errors
    ///
    /// Propagates LFS errors.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds 960 bytes.
    pub fn append_block(
        &mut self,
        ctx: &mut Ctx,
        client: &mut LfsClient,
        header: &BridgeHeader,
        data: &[u8],
    ) -> Result<(), ToolError> {
        self.append_raw(ctx, client, encode_payload(header, data))
    }
}
