//! Machine-wide transactions: presumed-abort two-phase commit over the
//! per-LFS write-ahead logs, driven from the server's decision log, and
//! the coordinator's own fail-stop recovery.

use super::directory::FileMeta;
use super::Server;
use crate::error::BridgeError;
use crate::ids::BridgeFileId;
use crate::protocol::TierCmd;
use crate::redundancy::Redundancy;
use crate::txlog::TxParticipant;
use bridge_efs::{EfsError, LfsData, LfsFileId, LfsOp, PrepareIntent};
use bridge_trace::HealthEvent;
use parsim::{Ctx, ProcId, SimDuration};

impl Server {
    /// Transactional Create: every column's create prepares tentatively
    /// under 2PC, so a crash anywhere in the fan-out leaves the file on
    /// all its placement nodes or on none. An unprotected file's create
    /// tolerates no participant failure — the serial fan-out propagates
    /// every error too, it just can't undo. A redundant file's create
    /// proceeds without a lost column: its (empty) constituent files
    /// appear on the spare when a rebuild reaches it.
    pub(super) fn create_2pc(&mut self, ctx: &mut Ctx, meta: &FileMeta) -> Result<(), BridgeError> {
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
        let tolerant = vec![meta.redundancy != Redundancy::None; participants.len()];
        self.run_2pc(ctx, &participants, &tolerant, true)?;
        Ok(())
    }

    /// Transactional Delete: one PREPARE per participating node covering
    /// every doomed file (and companion) it holds, committed through the
    /// decision log. A participant is tolerant — its vote may come back
    /// `NodeFailed` without aborting the transaction — only when every
    /// *primary* column it holds belongs to a redundant file (companion
    /// columns are always expendable); the column on the failed node is
    /// already lost, and deleting the rest must still succeed.
    pub(super) fn delete_2pc(
        &mut self,
        ctx: &mut Ctx,
        files: &[BridgeFileId],
    ) -> Result<u64, BridgeError> {
        let breadth = self.breadth() as usize;
        let mut per_node: Vec<Vec<LfsFileId>> = vec![Vec::new(); breadth];
        let mut node_tolerant: Vec<bool> = vec![true; breadth];
        for (n, lfs_file, expendable) in self.doomed_columns(files) {
            per_node[n as usize].push(lfs_file);
            node_tolerant[n as usize] &= expendable;
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
        self.run_2pc(ctx, &participants, &tolerant, false)
            .map(|(freed, _)| freed)
    }

    /// One presumed-abort two-phase commit round over `participants`.
    ///
    /// The wire protocol: PREPAREs are pipelined to every participant,
    /// the BEGIN record (txn + participants) is forced to the decision
    /// log while they are in flight, votes are collected in order, the
    /// COMMIT record is forced, and the decision is fanned out. The
    /// server's only elementary disk writes are the two log forces, so a
    /// crash schedule against [`parsim::SERVER_DISK`] kills the
    /// coordinator at exactly those two points per transaction:
    ///
    /// * killed on BEGIN — participants hold durable PREPAREs with no
    ///   decision on record. Recovery presumes abort, drives the logged
    ///   participants' rollback, and re-executes with a fresh txn.
    /// * killed on COMMIT — the decision is durable. Recovery redoes
    ///   phase 2 from the log; participants apply it idempotently.
    ///
    /// A no-vote (any hard error, or `NodeFailed` where `tolerant` is
    /// false) aborts without writing anything: no decision record is the
    /// abort record. After a durable COMMIT nothing fails the operation
    /// short of corruption — a participant dead at decision time is
    /// repaired later from the logged decision (`pfsck`'s machine pass).
    ///
    /// `create_costs` charges the paper's serial initiation/termination
    /// CPU per participant, making a 2PC Create cost-comparable to the
    /// legacy serial fan-out; the decision round is charged nothing —
    /// with pipelined fan-out and group commit at the participants it is
    /// the prepare round's cheap echo. Returns the blocks freed by the
    /// commit (zero for creates and aborts) and the number of tolerated
    /// lost columns — participants whose vote came back `NodeFailed` (or
    /// `UnknownFile`, a freshly formatted spare not yet rebuilt) and were
    /// carried anyway. Redundant-write callers use the count to tell a
    /// degraded-but-landed write from one that landed nowhere.
    pub(super) fn run_2pc(
        &mut self,
        ctx: &mut Ctx,
        participants: &[TxParticipant],
        tolerant: &[bool],
        create_costs: bool,
    ) -> Result<(u64, u32), BridgeError> {
        // A BEGIN the log ring cannot hold beside its COMMIT is refused
        // here, before any PREPARE is sent.
        let txlog = self.txlog.as_ref().expect("run_2pc requires a log");
        txlog.admit(participants)?;
        'retry: loop {
            let txn = self.next_txn;
            self.next_txn += 1;
            self.tally(|s| s.note_txn_begun());
            // Phase 1: pipeline a PREPARE to every participant.
            let mut pending = Vec::with_capacity(participants.len());
            for p in participants {
                if create_costs {
                    ctx.delay(self.config.create_init_cpu);
                }
                let proc = self.lfs[p.node as usize].0;
                let id = self.client.send(
                    ctx,
                    proc,
                    TierCmd::Lfs(LfsOp::Prepare {
                        txn,
                        intent: p.intent.clone(),
                    }),
                );
                pending.push((proc, id));
            }
            // Force BEGIN while the prepares are in flight, so a kill on
            // this write leaves exactly the in-doubt window the protocol
            // must survive: durable PREPAREs, no decision.
            let txlog = self.txlog.as_mut().expect("checked");
            txlog.begin(ctx, txn, participants);
            if txlog.crash_down().is_some() {
                let committed = self.server_crash_recover(ctx, txn, &pending)?;
                self.tally(|s| s.note_txn_decided(committed));
                if committed {
                    // The redo path cannot recount votes; report every
                    // column landed — the logged decision repairs any
                    // that were lost.
                    return self
                        .decide_all(ctx, txn, true, participants)
                        .map(|f| (f, 0));
                }
                continue 'retry;
            }
            // Collect votes in order (the serial termination of Create).
            let mut veto: Option<EfsError> = None;
            let mut lost = 0u32;
            for (i, &(proc, id)) in pending.iter().enumerate() {
                let vote = self.client.wait(ctx, proc, id);
                if create_costs {
                    ctx.delay(self.config.create_ack_cpu);
                }
                match vote {
                    Ok(_) => {}
                    // A tolerant participant's column is already lost
                    // with its node (or sits on a spare that has not been
                    // rebuilt yet); the transaction proceeds without it —
                    // the decision is still sent, and its failure ack is
                    // tolerated there too.
                    Err(e) if tolerant[i] && e.column_lost() => lost += 1,
                    Err(e) => veto = veto.or(Some(e)),
                }
            }
            if let Some(e) = veto {
                // Presumed abort: no log write. Participants that never
                // prepared (the vetoer included) apply the abort intent
                // idempotently as a no-op.
                self.tally(|s| s.note_txn_decided(false));
                self.decide_all(ctx, txn, false, participants)?;
                return Err(BridgeError::Lfs(e));
            }
            // The commit point.
            let txlog = self.txlog.as_mut().expect("checked");
            txlog.commit(ctx, txn);
            if txlog.crash_down().is_some() && !self.server_crash_recover(ctx, txn, &[])? {
                unreachable!("a forced COMMIT record cannot be lost");
            }
            self.tally(|s| s.note_txn_decided(true));
            // Phase 2: fan the decision out.
            return self
                .decide_all(ctx, txn, true, participants)
                .map(|f| (f, lost));
        }
    }

    /// Fans `commit`/abort for `txn` out to every participant (pipelined)
    /// and collects acknowledgements, returning the blocks they freed.
    /// `NodeFailed` is tolerated: before the commit point the participant
    /// never prepared or is already being abandoned; after it, the logged
    /// decision repairs the column when the node returns (or `pfsck`
    /// does). Hard errors are corruption and surface after every ack has
    /// been consumed, so no acknowledgement is left orphaned in flight.
    fn decide_all(
        &mut self,
        ctx: &mut Ctx,
        txn: u64,
        commit: bool,
        participants: &[TxParticipant],
    ) -> Result<u64, BridgeError> {
        let calls = participants
            .iter()
            .map(|p| {
                let op = LfsOp::Decide {
                    txn,
                    commit,
                    intent: p.intent.clone(),
                };
                (self.lfs[p.node as usize].0, op)
            })
            .collect();
        let mut freed = 0u64;
        let mut hard: Option<EfsError> = None;
        for ack in self.call_many(ctx, calls) {
            match ack {
                Ok(LfsData::Freed(n)) => freed += u64::from(n),
                Ok(_) => {}
                // `UnknownFile` here is a column on a freshly formatted
                // spare: the decision has nothing to apply to until a
                // rebuild repopulates the instance.
                Err(e) if e.column_lost() => {
                    if ctx.trace_enabled() {
                        ctx.trace_instant("2pc", "2pc.decide_lost", &[("txn", txn)]);
                    }
                }
                Err(e) => hard = hard.or(Some(e)),
            }
        }
        match hard {
            Some(e) => Err(BridgeError::Lfs(e)),
            None => Ok(freed),
        }
    }

    /// Inline fail-stop recovery for the coordinator, entered when a
    /// decision-log force finds the server's disk dead: the crash
    /// schedule killed this node on that (durable) write. The server's
    /// volatile state is gone, so it forgets its in-flight LFS calls,
    /// stays silent for the scheduled down window, discards everything
    /// that arrived meanwhile (clients retransmit; vote replies died
    /// with the old incarnation), revives the log, and applies presumed
    /// abort: the at-most-one in-doubt transaction — the serial
    /// coordinator never overlaps two — is aborted at the participants
    /// named by its own BEGIN record, and `txn` itself at every node if
    /// the kill tore its BEGIN. Returns whether `txn` has a
    /// durable COMMIT, i.e. whether the caller must redo phase 2 instead
    /// of re-executing.
    fn server_crash_recover(
        &mut self,
        ctx: &mut Ctx,
        txn: u64,
        pending: &[(ProcId, u64)],
    ) -> Result<bool, BridgeError> {
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
                &[("txn", txn), ("down", down.as_nanos())],
            );
        }
        for &(_, id) in pending {
            self.client.forget(ctx, id);
        }
        ctx.delay(down);
        // Everything delivered while the node was down is lost.
        while ctx.recv_timeout(SimDuration::ZERO).is_some() {}
        let txlog = self.txlog.as_mut().expect("checked");
        txlog.revive();
        txlog.reseat();
        let committed = txlog.is_committed(txn);
        let in_doubt = txlog.in_doubt();
        // A kill inside a BEGIN of several frames leaves a torn record,
        // which the scan drops: PREPAREs for `txn` are out, and the log
        // names neither it nor its participants. No decision on record
        // is still abort; with no list to go by, every node is told, and
        // the abort carries an empty intent — a participant that holds
        // the PREPARE undoes its own, the rest have nothing to undo.
        let torn = !committed && in_doubt.as_ref().is_none_or(|d| d.txn != txn);
        let mut doubted: Vec<_> = in_doubt
            .map(|d| (d.txn, d.participants))
            .into_iter()
            .collect();
        if torn {
            let everyone = (0..self.breadth()).map(|node| TxParticipant {
                node,
                intent: PrepareIntent::CreateFiles(Vec::new()),
            });
            doubted.push((txn, everyone.collect()));
        }
        for (doubted, participants) in doubted {
            // Presumed abort: no decision on record means abort. Driving
            // the rollback now (rather than waiting for participants to
            // ask) keeps the client-visible retry path simple: by the
            // time the operation re-executes, every column is rolled
            // back and acknowledged.
            self.journal(ctx, HealthEvent::TxnInDoubt { txn: doubted });
            self.decide_all(ctx, doubted, false, &participants)?;
            self.journal(
                ctx,
                HealthEvent::TxnResolved {
                    txn: doubted,
                    committed: false,
                },
            );
        }
        Ok(committed)
    }
}
