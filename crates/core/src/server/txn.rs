//! Machine-wide transactions: every multi-column mutation — a Create, a
//! Delete, a redundant block write — is planned as a [`Txn`] and landed
//! by [`Server::commit`], the one place the decision log picks the
//! protocol: with it, presumed-abort two-phase commit over the per-LFS
//! write-ahead logs for a whole commit group at a time, plus the
//! coordinator's own fail-stop recovery; without it, one direct round of
//! plain LFS ops per transaction.

use super::agent::{self, Fan, Shape, Tally};
use super::blockio::ReadRound;
use super::directory::FileMeta;
use super::Server;
use crate::error::BridgeError;
use crate::ids::BridgeFileId;
use crate::redundancy::Redundancy;
use crate::txlog::TxParticipant;
use bridge_efs::{EfsError, LfsData, LfsFileId, LfsOp, PrepareIntent};
use bridge_trace::HealthEvent;
use parsim::{Ctx, SimDuration};
use std::iter;

/// One transaction: its participants, for each whether the transaction
/// survives its column being lost, and whether its rounds ride the relay
/// tree.
pub(super) struct Txn {
    pub participants: Vec<TxParticipant>,
    pub tolerant: Vec<bool>,
    /// A Create's transaction, whose PREPAREs and DECIDEs ride the relay
    /// tree ([`Shape::Tree`]) rather than going straight to each
    /// participant: the PREPARE round is charged Create's initiation and
    /// termination CPU per group at each hop, as a plain Create's round
    /// is, and each hop folds its subtree's votes into one.
    pub relayed: bool,
}

impl Txn {
    /// How the transaction's rounds are sent: a Create's down the relay
    /// tree, `charged` its initiation and termination CPU, and every
    /// other straight to each participant.
    fn shape(&self, charged: bool) -> Shape {
        if self.relayed {
            Shape::Tree { charged }
        } else {
            Shape::Direct
        }
    }
}

/// What a transaction came to: its tolerated lost columns and the blocks
/// it freed (none for creates, writes and aborts).
pub(super) type Outcome = Result<Tally, BridgeError>;

/// A commit group's DECIDE round, sent and not yet awaited: the outcome
/// is on record with the COMMIT, so the group's replies leave without it.
/// Later requests on the files the group's ops named are fenced until its
/// acks are in ([`Server::settle_decisions`]).
pub(super) struct Parked {
    txns: Vec<u64>,
    /// Every decision's sends, each answering for its transaction's
    /// position in `txns`.
    pub round: Fan,
    pub files: Vec<BridgeFileId>,
}

/// Sends the read round of the requests that queued under a commit
/// group, once the group's votes are in and before its COMMIT force
/// ([`Server::vote`]), leaving it in [`Server::carried`].
pub(super) type Carry<'c> = &'c mut dyn FnMut(&mut Server, &mut Ctx);

/// A decision to fan out to a transaction's participants.
struct Decision<'t> {
    txn: u64,
    commit: bool,
    participants: &'t [TxParticipant],
    /// As the transaction's PREPAREs went.
    shape: Shape,
}

/// The plain LFS ops that apply `intent` at once: a `Create` or a
/// `Delete` per file, or one unhinted `Write`.
fn plain_ops(intent: &PrepareIntent) -> impl Iterator<Item = LfsOp> + '_ {
    let (files, write) = match intent {
        PrepareIntent::CreateFiles(files) | PrepareIntent::DeleteFiles(files) => (&files[..], None),
        PrepareIntent::WriteBlock {
            file,
            block_no,
            payload,
        } => {
            let write = LfsOp::Write {
                file: *file,
                block: *block_no,
                data: payload.clone(),
                hint: None,
            };
            (&[][..], Some(write))
        }
    };
    let create = matches!(intent, PrepareIntent::CreateFiles(_));
    let per_file = files.iter().map(move |&file| {
        if create {
            LfsOp::Create { file }
        } else {
            LfsOp::Delete { file }
        }
    });
    per_file.chain(write)
}

impl Server {
    /// A Create's transaction: every placement node creates the file's
    /// constituent files. With the decision log each column's create
    /// prepares tentatively, so a crash anywhere in the fan-out leaves the
    /// file on all its placement nodes or on none, and a redundant file's
    /// create proceeds without a lost column: its (empty) constituent
    /// files appear on the spare when a rebuild reaches it. Without the
    /// log nothing can be undone, so no participant failure is tolerated.
    pub(super) fn create_txn(&self, meta: &FileMeta) -> Txn {
        let mut files = vec![meta.lfs_file];
        files.extend(meta.companion());
        let participants: Vec<TxParticipant> = meta
            .nodes
            .iter()
            .map(|&n| TxParticipant {
                node: n,
                intent: PrepareIntent::CreateFiles(files.clone()),
            })
            .collect();
        let redundant = meta.redundancy != Redundancy::None;
        let tolerant = vec![redundant && self.txlog.is_some(); participants.len()];
        Txn {
            participants,
            tolerant,
            relayed: true,
        }
    }

    /// A Delete's transaction: one participant per node, covering every
    /// doomed file (and companion) it holds, in batch order — "the Delete
    /// operation runs in parallel on all instances of the LFS", and a
    /// batch discards a whole generation of a tool's intermediates in one
    /// wave. A participant
    /// is tolerant — its column may come back lost without failing the
    /// Delete — only when every *primary* column it holds belongs to a
    /// redundant file (companion columns are always expendable): the
    /// column on a failed node is already gone, and the rest must still
    /// go.
    pub(super) fn delete_txn(&self, files: &[BridgeFileId]) -> Txn {
        let breadth = self.breadth() as usize;
        let mut per_node: Vec<Vec<LfsFileId>> = vec![Vec::new(); breadth];
        let mut node_tolerant: Vec<bool> = vec![true; breadth];
        for meta in files.iter().map(|file| &self.files[file]) {
            let redundant = meta.redundancy != Redundancy::None;
            for &n in &meta.nodes {
                per_node[n as usize].extend(iter::once(meta.lfs_file).chain(meta.companion()));
                node_tolerant[n as usize] &= redundant;
            }
        }
        let participants: Vec<TxParticipant> = per_node
            .into_iter()
            .enumerate()
            .filter(|(_, files)| !files.is_empty())
            .map(|(n, files)| TxParticipant {
                node: n as u32,
                intent: PrepareIntent::DeleteFiles(files),
            })
            .collect();
        let tolerant: Vec<bool> = participants
            .iter()
            .map(|p| node_tolerant[p.node as usize])
            .collect();
        Txn {
            participants,
            tolerant,
            relayed: false,
        }
    }

    /// Lands `txns`, one outcome each, in order — the one place the
    /// protocol is picked. With the decision log they commit through
    /// [`Server::run_2pc`]. Without it each is one round of its intents as
    /// plain LFS ops, every round sent before any reply is awaited: a
    /// Create's relayed at `create_arity` and charged as the paper's
    /// Create is, the rest straight to each participant. Nothing is
    /// undone, so a participant that fails where it is not tolerated
    /// fails its transaction with whatever the others did left standing;
    /// and nothing is carried.
    pub(super) fn commit(&mut self, ctx: &mut Ctx, txns: &[Txn], carry: Carry) -> Vec<Outcome> {
        if self.txlog.is_some() {
            return self.run_2pc(ctx, txns, carry);
        }
        let rounds: Vec<Fan> = (txns.iter())
            .map(|t| {
                let targets = (t.participants.iter().zip(&t.tolerant))
                    .map(|(p, &tolerant)| (p.node, tolerant, plain_ops(&p.intent).count() as u32));
                let ops = (t.participants.iter()).flat_map(|p| plain_ops(&p.intent));
                self.send_round(ctx, t.shape(true), targets, ops)
            })
            .collect();
        (rounds.into_iter())
            .map(|fan| {
                let tally = agent::gather(ctx, &mut self.client, &self.config, fan, |_, _| {});
                tally.map_err(BridgeError::Lfs)
            })
            .collect()
    }

    /// Presumed-abort two-phase commit of `txns`, one outcome each, in
    /// order. One BEGIN names as many of them as the decision log holds
    /// beside the COMMIT that decides them ([`TxLog::admit`]) — every one
    /// for any group a client mix can queue — and the rest follow under
    /// BEGINs of their own, each once the one before it is decided, so at
    /// most one group is ever in doubt. A transaction too wide to fit even
    /// alone is refused with [`BridgeError::TxnTooLarge`] before any
    /// PREPARE is sent. Only a group under one BEGIN runs `carry`, so a
    /// carried read is never in flight across a BEGIN.
    ///
    /// [`TxLog::admit`]: crate::txlog::TxLog::admit
    fn run_2pc(&mut self, ctx: &mut Ctx, txns: &[Txn], carry: Carry) -> Vec<Outcome> {
        let mut outcomes = Vec::with_capacity(txns.len());
        let mut rest = txns;
        while !rest.is_empty() {
            let admits = |n: usize| {
                let txlog = self
                    .txlog
                    .as_ref()
                    .expect("two-phase commit requires a log");
                let group: Vec<&[TxParticipant]> =
                    rest[..n].iter().map(|t| &t.participants[..]).collect();
                txlog.admit(&group)
            };
            let n = (1..=rest.len()).take_while(|&n| admits(n).is_ok()).count();
            if n == 0 {
                outcomes.push(Err(admits(1).expect_err("refused alone")));
                rest = &rest[1..];
                continue;
            }
            let mut none = |_: &mut Server, _: &mut Ctx| {};
            let carry: Carry = if n == txns.len() { carry } else { &mut none };
            outcomes.extend(self.commit_group(ctx, &rest[..n], carry));
            rest = &rest[n..];
        }
        outcomes
    }

    /// One presumed-abort two-phase commit round over transactions the
    /// decision log has admitted under one BEGIN.
    ///
    /// The wire protocol: every transaction's PREPAREs are pipelined to
    /// its participants — a Create's down the relay tree — one BEGIN
    /// record naming every transaction and its participants is forced to
    /// the decision log while they are in flight, votes are collected
    /// transaction by transaction, one COMMIT record naming
    /// every transaction whose participants all voted yes is forced, and
    /// every decision is fanned out in one pipelined round, which is
    /// parked: each outcome is returned at once — a committed
    /// transaction's at its COMMIT, a vetoed one's at its vote — and the
    /// acks are taken before the next group's first PREPARE, so every
    /// decision-log write happens with no decision in flight. Between the
    /// votes and the COMMIT force `carry` runs once: the read round of the
    /// requests that queued meanwhile goes out under the force, ahead of
    /// the decisions, and the caller takes it once it has answered the
    /// group. The server's
    /// only elementary disk writes are the two log forces (a BEGIN of
    /// several frames is one device run, each frame a write), so a crash
    /// schedule against [`parsim::SERVER_DISK`] kills the coordinator at
    /// exactly those points per group:
    ///
    /// * killed on BEGIN — participants hold durable PREPAREs with no
    ///   decision on record. Recovery presumes every transaction of the
    ///   group aborted and drives the rollback, and the group prepares
    ///   again under fresh txns.
    /// * killed on COMMIT — the decision is durable. Recovery aborts the
    ///   group's vetoed transactions, and phase 2 then redoes every
    ///   decision; participants apply them idempotently. A carried read
    ///   round is forgotten with the old incarnation and sent again.
    ///
    /// A no-vote (any hard error, or `NodeFailed` where the participant
    /// is not tolerant) aborts that transaction alone, and costs no log
    /// write: no decision record is the abort record. After a durable
    /// COMMIT nothing fails a committed transaction short of corruption —
    /// a participant dead at decision time is repaired later from the
    /// logged decision (`pfsck`'s machine pass).
    ///
    /// A Create's transaction ([`Txn::relayed`]) runs both rounds through
    /// Create's fan-out: its PREPARE round is charged the paper's
    /// initiation/termination CPU per group at each hop of the tree, as a
    /// plain Create is, and each hop folds its subtree's votes into one
    /// — all yes with the tolerated lost columns, or the earliest veto. A
    /// relay that never answers is a missing vote, which aborts. The
    /// decision round is charged nothing — with pipelined fan-out and
    /// group commit at the participants it is the prepare round's cheap
    /// echo. Each outcome counts the blocks its
    /// commit frees, as its participants' votes promised, and its
    /// tolerated lost columns — participants whose
    /// vote came back `NodeFailed` (or `UnknownFile`, a freshly formatted
    /// spare not yet rebuilt) and were carried anyway. Redundant-write
    /// callers use the count to tell a degraded-but-landed write from one
    /// that landed nowhere.
    fn commit_group(&mut self, ctx: &mut Ctx, txns: &[Txn], carry: Carry) -> Vec<Outcome> {
        self.settle_decisions(ctx);
        let (ids, verdicts) = loop {
            let ids: Vec<u64> = txns
                .iter()
                .map(|_| {
                    let txn = self.next_txn;
                    self.next_txn += 1;
                    self.tally(|s| s.note_txn_begun());
                    txn
                })
                .collect();
            // Phase 1: every transaction's PREPAREs, a Create's down the
            // relay tree.
            let ballots: Vec<Fan> = (ids.iter().zip(txns))
                .map(|(&txn, t)| {
                    let targets = (t.participants.iter().zip(&t.tolerant))
                        .map(|(p, &tolerant)| (p.node, tolerant, 1));
                    let ops = (t.participants.iter()).map(|p| LfsOp::Prepare {
                        txn,
                        intent: p.intent.clone(),
                    });
                    self.send_round(ctx, t.shape(true), targets, ops)
                })
                .collect();
            // Force BEGIN while the prepares are in flight, so a kill on
            // this write leaves exactly the in-doubt window the protocol
            // must survive: durable PREPAREs, no decision.
            let group: Vec<(u64, &[TxParticipant])> = (ids.iter().copied())
                .zip(txns.iter().map(|t| &t.participants[..]))
                .collect();
            let txlog = self.txlog.as_mut().expect("checked");
            txlog.begin(ctx, &group);
            if txlog.crash_down().is_some() {
                let pending: Vec<u64> = ballots.iter().flat_map(Fan::ids).collect();
                if let Err(e) = self.server_crash_recover(ctx, &ids, &pending) {
                    return vec![Err(e); txns.len()];
                }
                for _ in &ids {
                    self.tally(|s| s.note_txn_decided(false));
                }
                continue;
            }
            match self.vote(ctx, &ids, ballots, carry) {
                Ok(verdicts) => break (ids, verdicts),
                Err(e) => return vec![Err(e); txns.len()],
            }
        };
        // Phase 2: fan every decision out in one round, and park it.
        let decisions: Vec<Decision> = (ids.iter().zip(&verdicts).zip(txns))
            .map(|((&txn, v), t)| Decision {
                txn,
                commit: v.is_ok(),
                participants: &t.participants,
                shape: t.shape(false),
            })
            .collect();
        self.parked = Some(Parked {
            txns: ids,
            round: self.decide(ctx, &decisions),
            files: Vec::new(),
        });
        (verdicts.into_iter())
            .map(|verdict| verdict.map_err(BridgeError::Lfs))
            .collect()
    }

    /// Collects every transaction's votes, in order — per transaction its
    /// tolerated lost columns and the blocks it frees, or the veto that
    /// aborts it — runs `carry`, and forces the COMMIT. A relayed
    /// transaction's votes come folded, a reply per subtree.
    fn vote(
        &mut self,
        ctx: &mut Ctx,
        ids: &[u64],
        ballots: Vec<Fan>,
        carry: Carry,
    ) -> Result<Vec<Result<Tally, EfsError>>, BridgeError> {
        // A tolerant participant's column is already lost with its node
        // (or sits on a spare that has not been rebuilt yet); the
        // transaction proceeds without it — the decision is still sent,
        // and its failure ack is tolerated there too.
        let verdicts: Vec<Result<Tally, EfsError>> = (ballots.into_iter())
            .map(|fan| agent::gather(ctx, &mut self.client, &self.config, fan, |_, _| {}))
            .collect();
        carry(self, ctx);
        // The commit point, for every transaction nobody vetoed. A vetoed
        // one is presumed aborted: no log write. Participants that never
        // prepared (its vetoer included) apply the abort intent
        // idempotently as a no-op.
        let committed: Vec<u64> = (ids.iter().zip(&verdicts))
            .filter(|(_, v)| v.is_ok())
            .map(|(&txn, _)| txn)
            .collect();
        if !committed.is_empty() {
            let txlog = self.txlog.as_mut().expect("checked");
            txlog.commit(ctx, &committed);
            if ctx.trace_enabled() {
                let args = [("txn", committed[0]), ("txns", committed.len() as u64)];
                ctx.trace_instant("2pc", "2pc.commit", &args);
            }
            if txlog.crash_down().is_some() {
                let carried: Vec<u64> = self.carried.iter().flat_map(|r| r.0.ids()).collect();
                let recovered = self.server_crash_recover(ctx, &committed, &carried);
                // The carried reads died with the old incarnation; reads
                // are idempotent, so they go out again.
                if let Some(ReadRound(_, runs)) = self.carried.take() {
                    let fan = self.send_runs(ctx, &runs, 1, None);
                    self.carried = Some(ReadRound(fan, runs));
                }
                recovered?;
            }
        }
        for verdict in &verdicts {
            self.tally(|s| s.note_txn_decided(verdict.is_ok()));
        }
        Ok(verdicts)
    }

    /// Fans each decision out to its participants, as its transaction's
    /// PREPAREs went, in one round: decision i's sends answer for
    /// position i.
    fn decide(&mut self, ctx: &mut Ctx, decisions: &[Decision]) -> Fan {
        let mut round = Fan::default();
        for (i, d) in decisions.iter().enumerate() {
            let targets = d.participants.iter().map(|p| (p.node, true, 1));
            let ops = d.participants.iter().map(|p| LfsOp::Decide {
                txn: d.txn,
                commit: d.commit,
                intent: p.intent.clone(),
            });
            let sent = self.send_round(ctx, d.shape, targets, ops);
            round.join(sent, i);
        }
        round
    }

    /// Takes every ack of `round`, the decisions of `txns`, as it
    /// arrives, and returns per decision whether its participants applied
    /// it, tracing a failed one as `2pc.decide_failed`. A lost column is
    /// tolerated — every participant of a decision is tolerant — and
    /// traced as `2pc.decide_lost`: before the commit
    /// point the participant never prepared or is already being
    /// abandoned; after it, the logged decision repairs the column when
    /// the node returns (or `pfsck` does), and an `UnknownFile` column on
    /// a freshly formatted spare has nothing to apply to until a rebuild
    /// repopulates it. A hard error — or a relay that never answers —
    /// fails its decision once every ack has been consumed, so none is
    /// left orphaned in flight.
    fn acks(&mut self, ctx: &mut Ctx, txns: &[u64], round: Fan) -> Vec<Result<(), EfsError>> {
        let mut acks = vec![(0, Ok(())); txns.len()];
        let _ = agent::gather(ctx, &mut self.client, &self.config, round, |i, ack| {
            let (lost, applied) = &mut acks[i];
            match ack {
                Ok(LfsData::Tally { lost: more, .. }) => *lost += more,
                Err(e) if e.column_lost() => *lost += 1,
                Err(e) if applied.is_ok() => *applied = Err(e),
                Ok(_) | Err(_) => {}
            }
        });
        (txns.iter().zip(acks))
            .map(|(&txn, (lost, applied))| {
                if ctx.trace_enabled() {
                    for _ in 0..lost {
                        ctx.trace_instant("2pc", "2pc.decide_lost", &[("txn", txn)]);
                    }
                    if applied.is_err() {
                        ctx.trace_instant("2pc", "2pc.decide_failed", &[("txn", txn)]);
                    }
                }
                applied
            })
            .collect()
    }

    /// Fans each decision out in one round and takes every ack.
    fn decide_all(&mut self, ctx: &mut Ctx, decisions: &[Decision]) -> Vec<Result<(), EfsError>> {
        let round = self.decide(ctx, decisions);
        let txns: Vec<u64> = decisions.iter().map(|d| d.txn).collect();
        self.acks(ctx, &txns, round)
    }

    /// Takes the parked DECIDE round's acks ([`Server::acks`]), if one is
    /// out, and lifts its fence. The server settles before the next
    /// group's first PREPARE, before a read round whose ops name a fenced
    /// file, before every request it serves alone, and when it goes idle.
    /// An ack that fails cannot fail its reply, which has left: the
    /// COMMIT is on record, and the column is repaired as one lost at
    /// decision time is (`pfsck`'s machine pass).
    pub(super) fn settle_decisions(&mut self, ctx: &mut Ctx) {
        if let Some(Parked { txns, round, .. }) = self.parked.take() {
            self.acks(ctx, &txns, round);
        }
    }

    /// Inline fail-stop recovery for the coordinator, entered when a
    /// decision-log force finds the server's disk dead: the crash
    /// schedule killed this node on that (durable) write. The server's
    /// volatile state is gone, so it forgets its in-flight LFS calls,
    /// stays silent for the scheduled down window, discards everything
    /// that arrived meanwhile (clients retransmit; vote replies died
    /// with the old incarnation), revives the log, and applies presumed
    /// abort: the at-most-one in-doubt group — the coordinator never
    /// overlaps two — is aborted at the participants named by its own
    /// BEGIN record. `group` is the transactions of the record being
    /// forced: if none of them is on record — the kill tore a BEGIN of
    /// several frames — each is aborted at every node.
    fn server_crash_recover(
        &mut self,
        ctx: &mut Ctx,
        group: &[u64],
        pending: &[u64],
    ) -> Result<(), BridgeError> {
        let down = self
            .txlog
            .as_ref()
            .expect("recovering a log")
            .crash_down()
            .expect("called on a dead log");
        if ctx.trace_enabled() {
            ctx.trace_instant(
                "fault",
                "crash.server",
                &[("txn", group[0]), ("down", down.as_nanos())],
            );
        }
        for &id in pending {
            self.client.forget(ctx, id);
        }
        ctx.delay(down);
        // Everything delivered while the node was down is lost.
        while ctx.recv_timeout(SimDuration::ZERO).is_some() {}
        let txlog = self.txlog.as_mut().expect("checked");
        txlog.revive();
        txlog.reseat();
        let mut doubted: Vec<(u64, Vec<TxParticipant>)> = txlog
            .in_doubt()
            .into_iter()
            .map(|d| (d.txn, d.participants))
            .collect();
        // A kill inside a BEGIN of several frames leaves a torn record,
        // which the scan drops: PREPAREs for the group are out, and the
        // log names neither its transactions nor their participants. No
        // decision on record is still abort; with no list to go by, every
        // node is told, and the abort carries an empty intent — a
        // participant that holds the PREPARE undoes its own, the rest
        // have nothing to undo.
        let on_record = |txn: &u64| {
            txlog.is_committed(*txn) || doubted.iter().any(|(doubted, _)| doubted == txn)
        };
        if !group.iter().any(on_record) {
            let everyone: Vec<TxParticipant> = (0..self.breadth())
                .map(|node| TxParticipant {
                    node,
                    intent: PrepareIntent::CreateFiles(Vec::new()),
                })
                .collect();
            doubted.extend(group.iter().map(|&txn| (txn, everyone.clone())));
        }
        // Presumed abort: no decision on record means abort. Driving the
        // rollback now (rather than waiting for participants to ask)
        // keeps the client-visible retry path simple: by the time the
        // group re-executes, every column is rolled back and
        // acknowledged.
        for &(txn, _) in &doubted {
            self.journal(ctx, HealthEvent::TxnInDoubt { txn });
        }
        let aborts: Vec<Decision> = (doubted.iter())
            .map(|(txn, participants)| Decision {
                txn: *txn,
                commit: false,
                participants,
                shape: Shape::Direct,
            })
            .collect();
        let acks = self.decide_all(ctx, &aborts);
        for (&(txn, _), ack) in doubted.iter().zip(acks) {
            ack.map_err(BridgeError::Lfs)?;
            let committed = false;
            self.journal(ctx, HealthEvent::TxnResolved { txn, committed });
        }
        Ok(())
    }
}
