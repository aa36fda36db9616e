//! Block I/O: the one read primitive and the one write primitive every
//! data path of the server goes through. Both take a list of machine
//! pointers into a constituent LFS file (a single block is a list of one;
//! a read names the file per block, since the parity read-modify-write's
//! two old blocks live in two) and group it into per-LFS runs of at most
//! `depth` consecutive locals. At depth 1 — `BatchPolicy::Off`, and every
//! inherently single-block access — a run is one `Read`/`Write`; at depth
//! `d > 1` it is one `ReadRun`/`WriteRun`. Every wave of runs is a round
//! of the server's one round routine ([`Server::send_runs`]), its replies
//! taken as they arrive ([`Server::take_runs`]). Blocks read *together* —
//! a commit group's read round, whatever files they belong to — are one
//! wave of depth-1 runs, which may stay on the wire while the server does
//! other work ([`Server::send_reads`], [`Server::take_reads`]).

use super::agent::{Fan, LfsResult, Shape};
use super::directory::FileMeta;
use super::Server;
use crate::error::BridgeError;
use crate::header::{decode_payload, BridgeHeader, GlobalPtr};
use crate::ids::{BridgeFileId, LfsIndex};
use bridge_efs::{EfsError, LfsFileId, LfsOp};
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
pub(super) struct RunPlan {
    to: Target,
    lfs: LfsIndex,
    first: u32,
    /// Indexes into the planned list, in visit order: the first member,
    /// then the rest (so a run of one allocates nothing).
    head: usize,
    tail: Vec<usize>,
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
                });
            }
        }
    }
    runs
}

/// A read round on the wire ([`Server::send_reads`]): its sends, and
/// the runs they answer for.
pub(super) struct ReadRound(pub Fan, pub Vec<RunPlan>);

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

/// Hands each block of a read run's reply — its raw payload, or the
/// error that failed the run — to `sink` with the block's index in the
/// planned list, noting where the block was found. A reply of the wrong
/// shape is a protocol violation.
fn read_reply(
    depth: u32,
    mut sink: impl FnMut(&mut Server, &mut Ctx, usize, BlockResult) -> Result<(), BridgeError>,
) -> impl FnMut(&mut Server, &mut Ctx, &RunPlan, LfsResult) -> Result<(), BridgeError> {
    move |server, ctx, run, result| {
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
    }
}

/// The one hint update: where `lfs` last touched the file.
fn note_hint(files: &mut Files, to: Target, lfs: LfsIndex, addr: BlockAddr) {
    if to.hinted {
        files.get_mut(&to.file).expect("exists").hints[lfs.index()] = Some(addr);
    }
}

impl Server {
    /// Sends one round of `runs`: each run's read — or, given `writes`,
    /// the planned blocks' pointers and payloads, its write — as one op
    /// at depth 1 and one run op above it, carrying the disk-address hint
    /// where its target rides the file's hints. The one place a hinted
    /// LFS data request is built, each as the round sends it.
    pub(super) fn send_runs(
        &mut self,
        ctx: &mut Ctx,
        runs: &[RunPlan],
        depth: u32,
        writes: Option<&[(GlobalPtr, Bytes)]>,
    ) -> Fan {
        let files = &self.files;
        let ops = runs.iter().map(|run| {
            let hints = &files[&run.to.file].hints;
            let hint = run.to.hinted.then(|| hints[run.lfs.index()]).flatten();
            let (file, first) = (run.to.lfs_file, run.first);
            match (writes, depth) {
                (None, 1) => LfsOp::Read {
                    file,
                    block: first,
                    hint,
                },
                (None, _) => LfsOp::ReadRun {
                    file,
                    first,
                    count: run.len() as u32,
                    hint,
                },
                (Some(blocks), 1) => LfsOp::Write {
                    file,
                    block: first,
                    data: blocks[run.head].1.clone(),
                    hint,
                },
                (Some(blocks), _) => LfsOp::WriteRun {
                    file,
                    first,
                    data: run.members().map(|i| blocks[i].1.clone()).collect(),
                    hint,
                },
            }
        });
        let targets = runs.iter().map(|run| (run.lfs.0, false, 1));
        self.tier.send_round(ctx, Shape::Direct, targets, ops)
    }

    /// Takes every reply of `fan`, a round of `runs`, as it arrives and
    /// hands it to `reply` with the run it answers for; `reply` may itself
    /// do I/O. The first error `reply` returns is kept — no later reply
    /// is handed on — and returned once every reply is in, so a failed
    /// round strands none.
    fn take_runs(
        &mut self,
        ctx: &mut Ctx,
        runs: &[RunPlan],
        mut fan: Fan,
        mut reply: impl FnMut(&mut Server, &mut Ctx, &RunPlan, LfsResult) -> Result<(), BridgeError>,
    ) -> Result<(), BridgeError> {
        let mut outcome = Ok(());
        while let Some((i, _, result)) = self.tier.next(ctx, &mut fan) {
            outcome = outcome.and_then(|()| reply(self, ctx, &runs[i], result));
        }
        outcome
    }

    /// Plans `blocks` (all of one Bridge file) into runs and sends them
    /// wave by wave, each wave one round, taken before the next is sent.
    /// At depth 1 a wave is the prototype's lock step ("the server will
    /// perform groups of p disk accesses in parallel"); batched runs all
    /// go out at once. `writes` is as for [`Server::send_runs`]. A wave's
    /// first error ends the waves.
    fn waves(
        &mut self,
        ctx: &mut Ctx,
        blocks: impl Iterator<Item = (Target, GlobalPtr)>,
        depth: u32,
        writes: Option<&[(GlobalPtr, Bytes)]>,
        mut reply: impl FnMut(&mut Server, &mut Ctx, &RunPlan, LfsResult) -> Result<(), BridgeError>,
    ) -> Result<(), BridgeError> {
        let runs = plan_runs(blocks, depth);
        let width = match (depth, runs.first()) {
            (1, Some(run)) => self.files[&run.to.file].placement.breadth() as usize,
            _ => runs.len().max(1),
        };
        for wave in runs.chunks(width) {
            let fan = self.send_runs(ctx, wave, depth, writes);
            self.take_runs(ctx, wave, fan, &mut reply)?;
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
        sink: impl FnMut(&mut Server, &mut Ctx, usize, BlockResult) -> Result<(), BridgeError>,
    ) -> Result<(), BridgeError> {
        self.waves(ctx, blocks, depth, None, read_reply(depth, sink))
    }

    /// Reads one block of `from`, returning its raw payload.
    pub(super) fn read_one(
        &mut self,
        ctx: &mut Ctx,
        from: Target,
        ptr: GlobalPtr,
    ) -> Result<Bytes, BridgeError> {
        let round = self.send_reads(ctx, std::iter::once((from, ptr)));
        Ok(self
            .take_reads(ctx, round)?
            .pop()
            .expect("one block, one reply")?)
    }

    /// Sends a read of each of `blocks` — each a constituent file and a
    /// machine pointer into it, of any Bridge files — in one round, and
    /// returns it in flight, to be taken by [`Server::take_reads`]: blocks
    /// on different nodes cost one round trip between them, not one each.
    pub(super) fn send_reads(
        &mut self,
        ctx: &mut Ctx,
        blocks: impl Iterator<Item = (Target, GlobalPtr)>,
    ) -> ReadRound {
        let runs = plan_runs(blocks, 1);
        let fan = self.send_runs(ctx, &runs, 1, None);
        ReadRound(fan, runs)
    }

    /// Takes every reply of `round` and returns each block's raw payload
    /// or the error that failed it, in order. A reply of the wrong shape
    /// is a protocol violation that fails the lot — reported once every
    /// reply is taken, so none is stranded.
    pub(super) fn take_reads(
        &mut self,
        ctx: &mut Ctx,
        round: ReadRound,
    ) -> Result<Vec<BlockResult>, BridgeError> {
        let ReadRound(fan, runs) = round;
        // Every slot is overwritten by its block's reply.
        let mut out: Vec<BlockResult> = vec![Err(EfsError::NodeFailed); runs.len()];
        let sink = |_: &mut Server, _: &mut Ctx, i: usize, read| {
            out[i] = read;
            Ok(())
        };
        self.take_runs(ctx, &runs, fan, read_reply(1, sink))?;
        Ok(out)
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
        let ptrs = blocks.iter().map(|b| (to, b.0));
        self.waves(ctx, ptrs, depth, Some(blocks), |server, _, run, result| {
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
