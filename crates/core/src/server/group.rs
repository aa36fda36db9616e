//! Commit groups: the requests the server serves together.
//!
//! The Bridge Server is one process, so requests that arrive while it is
//! busy queue in its stash. The loop serves the request it received
//! together with every `BridgeRequest` already stashed: a *commit group*
//! of requests on distinct files. A group runs in rounds:
//!
//! 1. every member's LFS reads, as one pipelined round — a `RandRead`'s
//!    block, a parity write's old parity and old data (a Create or a
//!    Delete reads nothing);
//! 2. each member's compute — the header check, the parity XOR into its
//!    columns, a Create's, a Delete's or a redundant write's transaction
//!    — after which a member with nothing to commit is answered;
//! 3. every member's transaction through [`Server::commit`]: with the
//!    decision log one two-phase commit — all PREPAREs pipelined, one
//!    BEGIN force naming every transaction, the votes, the next group's
//!    read round sent (below), one COMMIT force naming the committed
//!    ones, every decision pipelined and parked — and without it one
//!    direct round of plain LFS ops each;
//! 4. the remaining replies, each member's directory update made only if
//!    its transaction committed: an append's size, a Create's entry, a
//!    Delete's removals, with the blocks its votes said it frees.
//!
//! A parked DECIDE round fences the files of the group's ops: a later
//! read round naming one first takes the round's acks
//! ([`Server::settle_decisions`]).
//!
//! What queues while the group reads joins it in one more read round, so
//! the transactions of requests that arrive a round apart still share the
//! forces. What queues while it prepares and votes is *carried*: a shared
//! group whose transactions fit under one BEGIN gathers those requests
//! once its votes are in, plans them and sends their read round before
//! its COMMIT force, so the reads overlap the force and reach each LFS
//! ahead of the DECIDE round. Once the group is answered they run as the
//! next group, round 1 already on the wire. None names a file the group
//! commits, and the group's decisions are the only ones in flight, so no
//! carried read needs a fence. A group of one is the sequence a lone
//! request always ran, send for send, so a lone client sees nothing new;
//! and strictly placed reads and block writes, Creates and Deletes are
//! served nowhere else. Which requests share a group is
//! [`Server::route`]'s call.

use super::agent::Tally;
use super::blockio::Target;
use super::directory::FileMeta;
use super::redundancy::WritePlan;
use super::txn::{self, Txn};
use super::Server;
use crate::error::BridgeError;
use crate::header::GlobalPtr;
use crate::ids::BridgeFileId;
use crate::placement::PlacementKind;
use crate::protocol::{BridgeCmd, BridgeData, BridgeRequest};
use crate::redundancy::Redundancy;
use parsim::{Ctx, ProcId, SimTime};
use std::slice;

/// How the server loop serves a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Route<'c> {
    /// Alone, through `dispatch`.
    Alone,
    /// Through a commit group's rounds, as an op on `files` (none for a
    /// Create); `shared` when it may be served in a group with other
    /// requests.
    Rounds {
        files: &'c [BridgeFileId],
        shared: bool,
    },
}

/// A command's work as the rounds run it.
pub(super) enum Op {
    /// A strictly placed block read: where the block lives.
    Read {
        file: BridgeFileId,
        block: u64,
        at: (Target, GlobalPtr),
    },
    /// A planned block write.
    Write(WritePlan),
    /// A Create: the file it makes, entered in the directory once its
    /// transaction commits.
    Create {
        file: BridgeFileId,
        meta: Box<FileMeta>,
    },
    /// A Delete of every file of the batch, checked.
    Delete { files: Vec<BridgeFileId> },
}

impl Op {
    /// The LFS reads the op needs in the read round.
    fn reads(&self) -> &[(Target, GlobalPtr)] {
        match self {
            Op::Read { at, .. } => slice::from_ref(at),
            Op::Write(plan) => plan.reads(),
            Op::Create { .. } | Op::Delete { .. } => &[],
        }
    }

    /// The files a pending op holds until it is settled: no later member
    /// of the group may name them, and once it commits they are fenced
    /// until its decision is acked.
    fn files(&self) -> &[BridgeFileId] {
        match self {
            Op::Read { file, .. } | Op::Create { file, .. } => slice::from_ref(file),
            Op::Write(plan) => slice::from_ref(&plan.file),
            Op::Delete { files } => files,
        }
    }
}

/// A request being served: who sent it, and when it was taken — its
/// `bridge` span opens there.
#[derive(Debug, Clone, Copy)]
pub(super) struct Member {
    pub from: ProcId,
    pub id: u64,
    pub name: &'static str,
    pub t0: SimTime,
}

impl Member {
    /// The member `req` from `from` makes, taken at `t0`.
    pub fn of(from: ProcId, req: &BridgeRequest, t0: SimTime) -> Member {
        Member {
            from,
            id: req.id,
            name: req.cmd.name(),
            t0,
        }
    }
}

/// What the server answers a request with.
pub(super) type Outcome = Result<BridgeData, BridgeError>;

/// Where a commit group's members come from and where their outcomes go.
pub(super) trait Host {
    /// Whatever the host knows a member by.
    type Member;

    /// Hands `member` its outcome, once known.
    fn answer(&mut self, server: &Server, ctx: &mut Ctx, member: &Self::Member, outcome: Outcome);

    /// The requests that queued while the server was busy and may join
    /// the group, on files other than `busy`.
    fn gather(
        &mut self,
        server: &Server,
        ctx: &mut Ctx,
        busy: &[BridgeFileId],
    ) -> Vec<(Self::Member, BridgeCmd)>;
}

/// The host of a block write with no request behind it: the outcome is
/// kept, and no other request joins.
struct Kept(Option<Outcome>);

impl Host for Kept {
    type Member = ();

    fn answer(&mut self, _: &Server, _: &mut Ctx, _: &(), outcome: Outcome) {
        self.0 = Some(outcome);
    }

    fn gather(&mut self, _: &Server, _: &mut Ctx, _: &[BridgeFileId]) -> Vec<((), BridgeCmd)> {
        Vec::new()
    }
}

/// The files of a group's transactions, which no other request may name
/// while it runs.
fn busy(commits: &[(usize, Op, Txn)]) -> Vec<BridgeFileId> {
    (commits.iter())
        .flat_map(|(_, op, _)| op.files())
        .copied()
        .collect()
}

impl Server {
    /// How `cmd` is served. Every Create and Delete runs the rounds. A
    /// strictly placed file's `RandRead` shares a group with any other such
    /// request; on a machine with a decision log, so do a redundant file's
    /// `SeqWrite` and `RandWrite`, a Create, and a Delete of files in the
    /// directory — one naming a file not (yet) in it runs as a group of
    /// one, after the group that may be creating it. Other strictly placed
    /// block writes run through the rounds as a group of one, but a plain
    /// file's append extends the append train. Everything else, an unknown
    /// file's block op included, is dispatched alone.
    pub(super) fn route<'c>(&self, cmd: &'c BridgeCmd) -> Route<'c> {
        let two_pc = self.txlog.is_some();
        let file = match cmd {
            BridgeCmd::Create(_) | BridgeCmd::Delete { .. } | BridgeCmd::DeleteMany { .. } => {
                let files = match cmd {
                    BridgeCmd::Delete { file } => slice::from_ref(file),
                    BridgeCmd::DeleteMany { files } => files,
                    _ => &[],
                };
                let shared = two_pc && files.iter().all(|f| self.files.contains_key(f));
                return Route::Rounds { files, shared };
            }
            BridgeCmd::RandRead { file, .. }
            | BridgeCmd::RandWrite { file, .. }
            | BridgeCmd::SeqWrite { file, .. } => file,
            _ => return Route::Alone,
        };
        let Some(meta) = self.files.get(file) else {
            return Route::Alone;
        };
        let redundant = meta.redundancy != Redundancy::None;
        if matches!(meta.placement.kind(), PlacementKind::Linked) {
            return Route::Alone;
        }
        let files = slice::from_ref(file);
        match cmd {
            BridgeCmd::RandRead { .. } => Route::Rounds {
                files,
                shared: true,
            },
            BridgeCmd::SeqWrite { .. } if !redundant => Route::Alone,
            _ => Route::Rounds {
                files,
                shared: redundant && two_pc,
            },
        }
    }

    /// The op of a command [`Server::route`] sends through the rounds.
    fn plan(&mut self, cmd: BridgeCmd) -> Result<Op, BridgeError> {
        match cmd {
            BridgeCmd::RandRead { file, block } => self.plan_rand_read(file, block),
            BridgeCmd::SeqWrite { file, data } => self.plan_append(file, &data),
            BridgeCmd::RandWrite { file, block, data } => self.plan_rand_write(file, block, &data),
            BridgeCmd::Create(spec) => {
                let (file, meta) = self.plan_create(spec)?;
                let meta = Box::new(meta);
                Ok(Op::Create { file, meta })
            }
            BridgeCmd::Delete { file } => self.plan_delete(vec![file]),
            BridgeCmd::DeleteMany { files } => self.plan_delete(files),
            _ => unreachable!("only block ops, Creates and Deletes are routed to the rounds"),
        }
    }

    /// A Delete's op, its batch checked.
    fn plan_delete(&self, files: Vec<BridgeFileId>) -> Result<Op, BridgeError> {
        self.check_doomed(&files)?;
        Ok(Op::Delete { files })
    }

    /// Serves a commit group — `members` in join order, on distinct files
    /// — answering each through `host` as soon as its outcome is known.
    /// Unless `shared`, the group is its one member.
    pub(super) fn serve_group<H: Host>(
        &mut self,
        ctx: &mut Ctx,
        host: &mut H,
        members: Vec<(H::Member, BridgeCmd)>,
        shared: bool,
    ) {
        let (members, cmds): (Vec<_>, Vec<_>) = members.into_iter().unzip();
        let ops = self.plan_all(ctx, cmds);
        self.run_group(ctx, host, members, ops, shared);
    }

    /// Writes a planned block as a group of one with no request behind
    /// it, returning its outcome.
    pub(super) fn run_write(&mut self, ctx: &mut Ctx, plan: WritePlan) -> Outcome {
        let mut kept = Kept(None);
        self.run_group(ctx, &mut kept, vec![()], vec![Ok(Op::Write(plan))], false);
        kept.0.expect("one op, one outcome")
    }

    /// Plans each command's op. The append train is flushed first, as
    /// `dispatch` does for every command but the train's next append; a
    /// failed flush is the first op's outcome, as it would have been
    /// alone.
    fn plan_all(&mut self, ctx: &mut Ctx, cmds: Vec<BridgeCmd>) -> Vec<Result<Op, BridgeError>> {
        cmds.into_iter()
            .map(|cmd| self.flush_appends(ctx).and_then(|()| self.plan(cmd)))
            .collect()
    }

    /// Runs a group's rounds: `ops[i]` is `members[i]`'s. The requests a
    /// shared group carries under its COMMIT force run as the next group,
    /// until one carries nothing.
    fn run_group<H: Host>(
        &mut self,
        ctx: &mut Ctx,
        host: &mut H,
        mut members: Vec<H::Member>,
        mut ops: Vec<Result<Op, BridgeError>>,
        shared: bool,
    ) {
        loop {
            let commits = self.read_rounds(ctx, host, &mut members, ops, shared);
            // Rounds 3 and 4: every transaction landed, and the replies.
            // What queued by the votes is planned and its reads sent under
            // the COMMIT force, on files other than the group's.
            let busy = busy(&commits);
            let mut next = None;
            let mut carry = |server: &mut Server, ctx: &mut Ctx| {
                if !shared {
                    return;
                }
                let (joined, cmds): (Vec<_>, Vec<_>) =
                    host.gather(server, ctx, &busy).into_iter().unzip();
                if !joined.is_empty() {
                    let ops = server.plan_all(ctx, cmds);
                    let wanted = ops.iter().flatten().flat_map(Op::reads).copied();
                    server.carried = Some(server.send_reads(ctx, wanted));
                    next = Some((joined, ops));
                }
            };
            let (settling, txns): (Vec<_>, Vec<_>) = (commits.into_iter())
                .map(|(i, op, txn)| ((i, op), txn))
                .unzip();
            let outcomes = self.commit(ctx, &txns, &mut carry);
            if let Some(parked) = &mut self.parked {
                parked.files.extend(busy);
            }
            for ((i, op), outcome) in settling.into_iter().zip(outcomes) {
                let outcome = self.settle(op, outcome);
                host.answer(self, ctx, &members[i], outcome);
            }
            let Some((joined, planned)) = next else {
                return;
            };
            (members, ops) = (joined, planned);
        }
    }

    /// Runs a group's read rounds and compute, answering each member with
    /// nothing to commit, and returns the ops that commit as transactions,
    /// each with its member's position and its transaction.
    fn read_rounds<H: Host>(
        &mut self,
        ctx: &mut Ctx,
        host: &mut H,
        members: &mut Vec<H::Member>,
        mut ops: Vec<Result<Op, BridgeError>>,
        shared: bool,
    ) -> Vec<(usize, Op, Txn)> {
        let mut commits: Vec<(usize, Op, Txn)> = Vec::new();
        let mut first = 0;
        loop {
            let writers = commits.len();
            // Round 1: every op's LFS reads, all in flight at once — a
            // carried group's went out under the last group's COMMIT force.
            let round = match self.carried.take() {
                Some(round) => round,
                None => {
                    // A file the last group's transactions named waits for
                    // their decisions to be acked.
                    let fenced =
                        |f: &BridgeFileId| (self.parked.iter()).any(|p| p.files.contains(f));
                    if ops.iter().flatten().flat_map(Op::files).any(fenced) {
                        self.settle_decisions(ctx);
                    }
                    let wanted = ops.iter().flatten().flat_map(Op::reads).copied();
                    self.send_reads(ctx, wanted)
                }
            };
            let mut read = match self.take_reads(ctx, round) {
                Ok(read) => read.into_iter(),
                Err(e) => {
                    ops.iter_mut().for_each(|op| *op = Err(e.clone()));
                    Vec::new().into_iter()
                }
            };
            // Round 2: each op's compute. An op with nothing to commit is
            // done.
            for (i, op) in (first..).zip(ops.drain(..)) {
                let outcome = match op {
                    Err(e) => Err(e),
                    Ok(Op::Read { file, block, .. }) => {
                        let read = read.next().expect("one read");
                        let body = self.strict_body(ctx, file, block, read);
                        body.map(BridgeData::Block)
                    }
                    Ok(Op::Write(plan)) => {
                        let read = read.by_ref().take(plan.reads().len()).collect();
                        match self.finish_write(ctx, plan, read) {
                            Ok(plan) => match plan.txn() {
                                Some(txn) => {
                                    commits.push((i, Op::Write(plan), txn));
                                    continue;
                                }
                                None => (self.write_unprotected(ctx, &plan))
                                    .and_then(|()| self.settle_write(&plan, 0)),
                            },
                            Err(e) => Err(e),
                        }
                    }
                    Ok(Op::Create { file, meta }) => {
                        let txn = self.create_txn(&meta);
                        commits.push((i, Op::Create { file, meta }, txn));
                        continue;
                    }
                    Ok(Op::Delete { files }) => {
                        let txn = self.delete_txn(&files);
                        commits.push((i, Op::Delete { files }, txn));
                        continue;
                    }
                };
                host.answer(self, ctx, &members[i], outcome);
            }
            // What queued meanwhile joins in one more read round — after
            // the first, and after each that brought a transaction, so a
            // stream of reads cannot hold the group's transactions back.
            if !shared || (first > 0 && commits.len() == writers) {
                return commits;
            }
            first = members.len();
            let busy = busy(&commits);
            let (joined, cmds): (Vec<_>, Vec<_>) =
                host.gather(self, ctx, &busy).into_iter().unzip();
            if joined.is_empty() {
                return commits;
            }
            members.extend(joined);
            ops = self.plan_all(ctx, cmds);
        }
    }

    /// A transaction's reply, and its directory update if it committed:
    /// a write counts its lost columns against the plan, a Create enters
    /// its file, a Delete retires its files and reports the blocks freed.
    fn settle(&mut self, op: Op, outcome: txn::Outcome) -> Outcome {
        let Tally { lost, freed } = outcome?;
        match op {
            Op::Write(plan) => self.settle_write(&plan, lost as usize),
            Op::Create { file, meta } => {
                self.files.insert(file, *meta);
                Ok(BridgeData::Created(file))
            }
            Op::Delete { files } => {
                self.forget(&files);
                Ok(BridgeData::Deleted { blocks: freed })
            }
            Op::Read { .. } => unreachable!("reads commit nothing"),
        }
    }

    /// A landed write's reply: it counts `lost` columns against the plan,
    /// and an append that landed grows its file.
    fn settle_write(&mut self, plan: &WritePlan, lost: usize) -> Outcome {
        plan.landed(lost)?;
        if plan.grows {
            self.file_mut(plan.file).size = plan.block + 1;
        }
        Ok(BridgeData::Written { block: plan.block })
    }
}
