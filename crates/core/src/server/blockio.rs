//! Block I/O: the one pipelined read primitive and the one pipelined
//! write primitive every data path of the server goes through. Both take
//! a list of machine pointers into a constituent LFS file (a single block
//! is a list of one; a read names the file per block, since the parity
//! read-modify-write's two old blocks live in two) and group it into
//! per-LFS runs of at most `depth` consecutive locals. At depth 1 —
//! `BatchPolicy::Off`, and every inherently single-block access — a run
//! is one `Read`/`Write`; at depth `d > 1` it is one `ReadRun`/`WriteRun`.
//! Blocks read *together* — a commit group's read round, whatever files
//! they belong to — skip the lock step: every read is sent before the
//! first reply is awaited ([`Server::read_together`]), and the round may
//! stay on the wire while the server does other work
//! ([`Server::send_reads`], [`Server::take_reads`]).

use super::agent::{self, Fan, Shape};
use super::directory::FileMeta;
use super::Server;
use crate::error::BridgeError;
use crate::header::{decode_payload, BridgeHeader, GlobalPtr};
use crate::ids::{BridgeFileId, LfsIndex};
use crate::protocol::TierCmd;
use bridge_efs::{EfsError, LfsData, LfsFileId, LfsOp};
use bytes::Bytes;
use parsim::{Ctx, FixedMap};
use simdisk::BlockAddr;

/// What an access addresses: a constituent LFS file of a Bridge file,
/// and whether it rides (and refreshes) that file's disk-address hints.
#[derive(Debug, Clone, Copy)]
pub(super) struct Target {
    pub file: BridgeFileId,
    pub lfs_file: LfsFileId,
    hinted: bool,
}

impl Target {
    /// A file's own data blocks as the naive and job views reach them.
    pub fn hinted(file: BridgeFileId, lfs_file: LfsFileId) -> Self {
        Target {
            file,
            lfs_file,
            hinted: true,
        }
    }

    /// Companions, stripe peers and repair traffic: no hint either way.
    pub fn raw(file: BridgeFileId, lfs_file: LfsFileId) -> Self {
        Target {
            file,
            lfs_file,
            hinted: false,
        }
    }
}

/// A planned run: blocks of one constituent file on one LFS with
/// consecutive local numbers.
struct RunPlan {
    to: Target,
    lfs: LfsIndex,
    first: u32,
    /// Indexes into the planned list, in visit order: the first member,
    /// then the rest (so a run of one allocates nothing).
    head: usize,
    tail: Vec<usize>,
    /// The run's request id once it is on the wire.
    id: u64,
}

impl RunPlan {
    fn len(&self) -> usize {
        1 + self.tail.len()
    }

    fn members(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.head).chain(self.tail.iter().copied())
    }
}

/// Groups located blocks into per-LFS runs of consecutive locals, at most
/// `depth` long, preserving each LFS's visit order. Strict placements
/// hand consecutive locals to each node, so a window of consecutive
/// globals collapses to one run per LFS; at depth 1 every block is its
/// own run, in list order.
fn plan_runs(blocks: impl Iterator<Item = (Target, GlobalPtr)>, depth: u32) -> Vec<RunPlan> {
    let mut runs: Vec<RunPlan> = Vec::new();
    let mut open: FixedMap<LfsIndex, usize> = FixedMap::default();
    for (i, (to, ptr)) in blocks.enumerate() {
        let extend = open.get(&ptr.lfs).copied().filter(|&r| {
            runs[r].to.lfs_file == to.lfs_file
                && runs[r].first + runs[r].len() as u32 == ptr.local
                && (runs[r].len() as u32) < depth
        });
        match extend {
            Some(r) => runs[r].tail.push(i),
            None => {
                if depth > 1 {
                    open.insert(ptr.lfs, runs.len());
                }
                runs.push(RunPlan {
                    to,
                    lfs: ptr.lfs,
                    first: ptr.local,
                    head: i,
                    tail: Vec::new(),
                    id: 0,
                });
            }
        }
    }
    runs
}

/// A read round on the wire ([`Server::send_reads`]): its sends, and
/// the block each answers for.
pub(super) struct ReadRound {
    pub fan: Fan,
    pub blocks: Vec<(Target, GlobalPtr)>,
}

type LfsResult = Result<LfsData, EfsError>;
type Files = FixedMap<BridgeFileId, FileMeta>;
/// One block's raw payload, or the error that failed its run.
pub(super) type BlockResult = Result<Bytes, EfsError>;

/// The one Bridge-header check: `payload` must be block `block` of `file`.
pub(super) fn check_header(
    file: BridgeFileId,
    block: u64,
    payload: &Bytes,
) -> Result<(BridgeHeader, Bytes), BridgeError> {
    let (header, body) = decode_payload(payload)?;
    if header.file != file || header.global_block != block {
        return Err(BridgeError::Corrupt(format!(
            "expected {file} block {block}, found {} block {}",
            header.file, header.global_block
        )));
    }
    Ok((header, body))
}

/// The one hint update: where `lfs` last touched the file.
fn note_hint(files: &mut Files, to: Target, lfs: LfsIndex, addr: BlockAddr) {
    if to.hinted {
        files.get_mut(&to.file).expect("exists").hints[lfs.index()] = Some(addr);
    }
}

impl Server {
    /// The pipeline under both primitives: plan `blocks` (all of one
    /// Bridge file) into runs, then — wave by wave — send every run's `op`
    /// and hand each reply to `reply` in send order. At depth 1 a wave is
    /// the prototype's lock step ("the server will perform groups of p
    /// disk accesses in parallel"); batched runs all go out at once. The
    /// first error `reply` returns ends the pipeline only once the rest of
    /// its wave is taken, so a failed wave strands no reply.
    fn pipeline(
        &mut self,
        ctx: &mut Ctx,
        blocks: impl Iterator<Item = (Target, GlobalPtr)>,
        depth: u32,
        op: impl Fn(&RunPlan, Option<BlockAddr>) -> LfsOp,
        mut reply: impl FnMut(&mut Server, &mut Ctx, &RunPlan, LfsResult) -> Result<(), BridgeError>,
    ) -> Result<(), BridgeError> {
        let mut runs = plan_runs(blocks, depth);
        let width = match (depth, runs.first()) {
            (1, Some(run)) => self.files[&run.to.file].placement.breadth() as usize,
            _ => runs.len().max(1),
        };
        for wave in runs.chunks_mut(width) {
            for run in wave.iter_mut() {
                let hints = &self.files[&run.to.file].hints;
                let hint = run.to.hinted.then(|| hints[run.lfs.index()]).flatten();
                let cmd = TierCmd::Lfs(op(run, hint));
                run.id = self.client.send(ctx, self.lfs_proc(run.lfs), cmd);
            }
            let mut outcome = Ok(());
            for run in wave.iter() {
                let result = self.client.wait(ctx, self.lfs_proc(run.lfs), run.id);
                outcome = outcome.and_then(|()| reply(self, ctx, run, result));
            }
            outcome?;
        }
        Ok(())
    }

    /// Reads `blocks` — each a constituent file and a machine pointer into
    /// it, all of one Bridge file — and hands each [`BlockResult`] to
    /// `sink` as its reply is processed, tagged with its index in
    /// `blocks`. The sink may itself do I/O (degraded recovery, job
    /// delivery); only a protocol violation or the sink's own error aborts
    /// the read.
    pub(super) fn read_blocks(
        &mut self,
        ctx: &mut Ctx,
        blocks: impl Iterator<Item = (Target, GlobalPtr)>,
        depth: u32,
        mut sink: impl FnMut(&mut Server, &mut Ctx, usize, BlockResult) -> Result<(), BridgeError>,
    ) -> Result<(), BridgeError> {
        let op = |run: &RunPlan, hint| match depth {
            1 => LfsOp::Read {
                file: run.to.lfs_file,
                block: run.first,
                hint,
            },
            _ => LfsOp::ReadRun {
                file: run.to.lfs_file,
                first: run.first,
                count: run.len() as u32,
                hint,
            },
        };
        self.pipeline(ctx, blocks, depth, op, |server, ctx, run, result| {
            let blocks = match result {
                Err(e) => {
                    return run
                        .members()
                        .try_for_each(|i| sink(server, ctx, i, Err(e.clone())));
                }
                Ok(data) if depth == 1 => {
                    let (payload, addr) = data.into_block()?;
                    note_hint(&mut server.files, run.to, run.lfs, addr);
                    return sink(server, ctx, run.head, Ok(payload));
                }
                Ok(data) => data.into_run()?,
            };
            if blocks.len() != run.len() {
                return Err(BridgeError::Corrupt(format!(
                    "run of {} blocks answered with {}",
                    run.len(),
                    blocks.len()
                )));
            }
            for (i, (payload, addr)) in run.members().zip(blocks) {
                note_hint(&mut server.files, run.to, run.lfs, addr);
                sink(server, ctx, i, Ok(payload))?;
            }
            Ok(())
        })
    }

    /// Reads one block of `from`, returning its raw payload.
    pub(super) fn read_one(
        &mut self,
        ctx: &mut Ctx,
        from: Target,
        ptr: GlobalPtr,
    ) -> Result<Bytes, BridgeError> {
        let mut read = self.read_together(ctx, &[(from, ptr)])?;
        Ok(read.pop().expect("one block, one reply")?)
    }

    /// Reads one block for each of `blocks` — each a constituent file and
    /// a machine pointer into it, of any Bridge files — every request in
    /// flight before the first reply is awaited: blocks on different
    /// nodes cost one round trip between them, not one each. Returns each
    /// block's raw payload or the error that failed it, in order.
    pub(super) fn read_together(
        &mut self,
        ctx: &mut Ctx,
        blocks: &[(Target, GlobalPtr)],
    ) -> Result<Vec<BlockResult>, BridgeError> {
        let round = self.send_reads(ctx, blocks.to_vec());
        self.take_reads(ctx, round)
    }

    /// Sends the reads of [`Server::read_together`] and returns them in
    /// flight, to be taken by [`Server::take_reads`].
    pub(super) fn send_reads(
        &mut self,
        ctx: &mut Ctx,
        blocks: Vec<(Target, GlobalPtr)>,
    ) -> ReadRound {
        let ops: Vec<LfsOp> = (blocks.iter())
            .map(|&(to, ptr)| {
                let hints = &self.files[&to.file].hints;
                let hint = to.hinted.then(|| hints[ptr.lfs.index()]).flatten();
                LfsOp::Read {
                    file: to.lfs_file,
                    block: ptr.local,
                    hint,
                }
            })
            .collect();
        let targets = blocks.iter().map(|&(_, ptr)| (ptr.lfs.0, false, 1));
        let fan = self.send_round(ctx, Shape::Direct, targets, ops.into_iter());
        ReadRound { fan, blocks }
    }

    /// Takes every reply of `round`, in order. A reply of the wrong shape
    /// is a protocol violation that fails the lot — reported once every
    /// reply is taken, so none is stranded.
    pub(super) fn take_reads(
        &mut self,
        ctx: &mut Ctx,
        round: ReadRound,
    ) -> Result<Vec<BlockResult>, BridgeError> {
        let ReadRound { fan, blocks } = round;
        // Each block keeps its own answer, so the round's fold is not its
        // verdict; every slot is overwritten by its reply.
        let mut out: Vec<BlockResult> = vec![Err(EfsError::NodeFailed); blocks.len()];
        let mut violation = None;
        let files = &mut self.files;
        let _ = agent::gather(ctx, &mut self.client, &self.config, fan, |pos, read| {
            let (to, ptr) = blocks[pos];
            out[pos] = match read.map(LfsData::into_block) {
                Err(e) => Err(e),
                Ok(Ok((payload, addr))) => {
                    note_hint(files, to, ptr.lfs, addr);
                    Ok(payload)
                }
                Ok(Err(e)) => Err(violation.get_or_insert(e).clone()),
            };
        });
        match violation {
            Some(e) => Err(BridgeError::Lfs(e)),
            None => Ok(out),
        }
    }

    /// Writes `blocks` (machine pointer and encoded payload each) to
    /// `to`. The first failed run aborts the write.
    pub(super) fn write_blocks(
        &mut self,
        ctx: &mut Ctx,
        to: Target,
        blocks: &[(GlobalPtr, Bytes)],
        depth: u32,
    ) -> Result<(), BridgeError> {
        let file = to.lfs_file;
        let op = |run: &RunPlan, hint| match depth {
            1 => LfsOp::Write {
                file,
                block: run.first,
                data: blocks[run.head].1.clone(),
                hint,
            },
            _ => LfsOp::WriteRun {
                file,
                first: run.first,
                data: run.members().map(|i| blocks[i].1.clone()).collect(),
                hint,
            },
        };
        let ptrs = blocks.iter().map(|b| (to, b.0));
        self.pipeline(ctx, ptrs, depth, op, |server, _, run, result| {
            let landed = match depth {
                1 => Some(result?.into_written()?),
                _ => result?.into_written_run()?.last().copied(),
            };
            if let Some(addr) = landed {
                note_hint(&mut server.files, to, run.lfs, addr);
            }
            Ok(())
        })
    }
}
