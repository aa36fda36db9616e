//! A request in service: the server loop, the group-commit batch, what
//! happens when the node crashes or its medium is lost under it, and the
//! dispatch of one operation onto [`Efs`].

use super::protocol::{
    reply_wire_size, LfsData, LfsFailAck, LfsFailControl, LfsOp, LfsReply, LfsRequest, LfsSpareAck,
    LfsSpareControl,
};
use super::sched::SchedState;
use crate::error::EfsError;
use crate::fs::Efs;
use crate::retry::DedupWindow;
use bridge_trace::HealthEvent;
use parsim::{Ctx, ProcId, SimDuration, Simulation};
use simdisk::{BlockDevice, SchedConfig};

/// Spawns an LFS server process owning `efs` on `node`; returns its id.
///
/// The server loops forever serving [`LfsRequest`] messages in arrival
/// order; it simply stays blocked in `recv` when traffic ends, which is
/// how a simulation quiesces. An [`LfsFailControl`] message toggles
/// fail-stop behaviour for failure-injection experiments.
///
/// Equivalent to [`spawn_lfs_sched`] with [`SchedConfig::fifo`]: the
/// paper-faithful arrival-order service discipline.
pub fn spawn_lfs<D: BlockDevice + 'static>(
    sim: &mut Simulation,
    node: parsim::NodeId,
    name: impl Into<String>,
    efs: Efs<D>,
) -> ProcId {
    spawn_lfs_sched(sim, node, name, efs, SchedConfig::fifo())
}

/// Spawns an LFS server whose pending-request queue is serviced in
/// `sched` policy order; returns its id.
///
/// Each service cycle the server first drains *all* deliverable messages
/// (a zero-duration receive costs no virtual time), admits them into the
/// scheduler, then serves one request chosen by the policy from the
/// current head position. Per-(client, file) order is preserved — see
/// `SchedState` — so scheduling changes only *whose* request goes next,
/// never the order any one client observes.
///
/// When tracing is enabled, every serviced request emits an
/// `lfs.queue_wait` span covering its time in the queue, with `wait`
/// (nanoseconds) and `depth` (requests pending at service start,
/// including this one) arguments.
pub fn spawn_lfs_sched<D: BlockDevice + 'static>(
    sim: &mut Simulation,
    node: parsim::NodeId,
    name: impl Into<String>,
    mut efs: Efs<D>,
    sched: SchedConfig,
) -> ProcId {
    sim.spawn(node, name, move |ctx| {
        let mut state = SchedState::new(sched);
        let mut dedup: DedupWindow<LfsReply> = DedupWindow::default();
        let mut failed = false;
        loop {
            // Drain the mailbox into the scheduler. Block only when idle.
            let env = if state.has_work() {
                let Some(env) = ctx.recv_timeout(SimDuration::ZERO) else {
                    // Nothing more deliverable now: service a batch (one
                    // request, or up to the group-commit width with a
                    // WAL), then come back for whatever arrived meanwhile.
                    if service_batch(ctx, &mut efs, &mut state, &mut dedup) {
                        if efs.media_lost() {
                            // Permanent loss, not a restartable crash:
                            // recovery has no medium to scan. Everything
                            // queued fails over to the surviving group
                            // members, and so does all later traffic
                            // until a spare is racked in.
                            announce(ctx, &efs, |lfs| HealthEvent::DiskLost { lfs });
                            efs.publish_telemetry();
                            media_lost_drain(ctx, &mut state, &mut dedup);
                        } else {
                            crash_recover(ctx, &mut efs, &mut state, &mut dedup);
                        }
                    }
                    continue;
                };
                env
            } else {
                ctx.recv()
            };
            let from = env.from();
            let delivered_at = env.delivered_at();
            let env = match env.downcast::<LfsFailControl>() {
                Ok(control) => {
                    failed = control.failed;
                    if failed {
                        // Fail-stop: everything already queued dies with
                        // the node. Nothing executed, so retransmits of
                        // these ids must run fresh after a revive.
                        for q in state.drain_all() {
                            dedup.forget(q.from, q.req.id);
                            refuse(ctx, q.from, q.req.id);
                        }
                    }
                    ctx.send_sized(from, LfsFailAck { failed }, 16);
                    continue;
                }
                Err(env) => env,
            };
            let env = match env.downcast::<LfsSpareControl>() {
                Ok(_) => {
                    let installed = efs.install_spare();
                    if installed {
                        // The instance is factory-fresh: no request ever
                        // executed on it, so the dedup window restarts.
                        dedup = DedupWindow::default();
                        announce(ctx, &efs, |lfs| HealthEvent::SpareInstalled { lfs });
                    }
                    ctx.send_sized(from, LfsSpareAck { installed }, 16);
                    continue;
                }
                Err(env) => env,
            };
            match env.downcast::<LfsRequest>() {
                Ok(req) if failed || efs.media_lost() => refuse(ctx, from, req.id),
                Ok(req) => {
                    if let Ok(req) = dedup.admit_or_settle(ctx, from, req, reply_wire_size) {
                        state.admit(&efs, req, from, delivered_at);
                    }
                }
                Err(env) => panic!("LFS received a non-request message: {env:?}"),
            }
        }
    })
}

/// States a health event once: the trace instant (when tracing) and the
/// journal entry (when telemetry is armed, which is also what knows the
/// instance's index) are made from the same value, so they cannot drift.
fn announce<D: BlockDevice>(ctx: &Ctx, efs: &Efs<D>, event: impl FnOnce(u32) -> HealthEvent) {
    let telemetry = efs.telemetry();
    let event = event(telemetry.map_or(0, |t| t.index));
    if ctx.trace_enabled() {
        match event {
            HealthEvent::NodeCrash { down_nanos, .. } => {
                ctx.trace_instant("lfs", "lfs.crash", &[("down_nanos", down_nanos)])
            }
            HealthEvent::DiskLost { .. } => ctx.trace_instant("lfs", "lfs.media_lost", &[]),
            HealthEvent::SpareInstalled { .. } => {
                ctx.trace_instant("lfs", "lfs.spare_installed", &[])
            }
            _ => {}
        }
    }
    if let Some(t) = telemetry {
        t.registry.record_event(ctx.now(), event);
    }
}

/// Answers request `id` of client `to` with [`EfsError::NodeFailed`]: the
/// node is failed, or its medium lost, and nothing executed.
fn refuse(ctx: &mut Ctx, to: ProcId, id: u64) {
    let reply = LfsReply {
        id,
        result: Err(EfsError::NodeFailed),
    };
    let bytes = reply_wire_size(&reply);
    ctx.send_sized_cloneable(to, reply, bytes);
}

/// Serves one scheduler batch: up to [`Efs::group_commit_width`]
/// requests back-to-back, one group commit, then the acknowledgements,
/// then the housekeeping — the block writes the batch's decisions owe
/// their homes, and the checkpoint if the batch made one due. Nothing is
/// acknowledged before its records are durable — the WAL's
/// commit-before-ack rule — and nothing waits for the housekeeping: a
/// crash inside it redoes the owed writes and replays the acknowledged
/// records from the previous checkpoint. The next batch does wait; the
/// server is one process. Without a WAL the width is 1 and the commit
/// and housekeeping are no-ops, so the cycle is exactly the pre-WAL
/// serve-then-reply, bit for bit.
///
/// Returns `true` when the node's crash fault fired mid-batch: the
/// caller must run [`crash_recover`]. Nothing unacknowledged survives —
/// buffered replies are forgotten so retransmits re-execute (or replay
/// from the WAL if their records committed before the crash).
fn service_batch<D: BlockDevice>(
    ctx: &mut Ctx,
    efs: &mut Efs<D>,
    state: &mut SchedState,
    dedup: &mut DedupWindow<LfsReply>,
) -> bool {
    let width = efs.group_commit_width().max(1);
    let armed = efs.telemetry().is_some();
    let dead = |efs: &Efs<D>| efs.crash_down().is_some() || efs.media_lost();
    // Per-op measurements accumulate in plain locals and flush to the
    // registry once per batch, so arming telemetry adds no per-op
    // atomics or locks to this loop.
    let mut served = std::mem::take(&mut state.served_scratch);
    served.clear();
    let mut wait_nanos = 0u64;
    let mut depth_peak = 0u64;
    let mut replies: Vec<(ProcId, LfsReply)> = Vec::new();
    for _ in 0..width {
        // Queue depth at service start, this request included.
        let depth = state.pending as u64;
        let Some(q) = state.take_next(efs) else {
            break;
        };
        let wait = ctx.now().saturating_duration_since(q.delivered_at);
        if armed {
            wait_nanos += wait.as_nanos();
            depth_peak = depth_peak.max(depth);
        }
        if ctx.trace_enabled() {
            ctx.trace_span(
                "lfs",
                "lfs.queue_wait",
                q.delivered_at,
                &[
                    ("wait", wait.as_nanos()),
                    ("depth", depth),
                    ("id", q.req.id),
                    ("client", q.from.index() as u64),
                ],
            );
        }
        let from = q.from;
        efs.begin_request(from.index() as u32, q.req.id);
        let service_from = ctx.now();
        let reply = serve(ctx, efs, q.req);
        if armed {
            served.push(ctx.now().saturating_duration_since(service_from).as_nanos());
        }
        if dead(efs) {
            // The node died mid-operation: the op is not acknowledged
            // (its record may or may not have committed — recovery and
            // the dedup re-seed decide), and neither is anything
            // buffered behind the commit barrier.
            dedup.forget(from, reply.id);
            for (client, r) in &replies {
                dedup.forget(*client, r.id);
            }
            state.served_scratch = served;
            return true;
        }
        replies.push((from, reply));
        // Serving this request may unblock the next op of its
        // (client, file) chain — possibly into this same batch.
        state.offer_lane(efs, from);
    }
    if efs.commit_log(ctx).is_err() || dead(efs) {
        for (client, r) in &replies {
            dedup.forget(*client, r.id);
        }
        state.served_scratch = served;
        return true;
    }
    if let Some(t) = efs.telemetry() {
        t.counters()
            .flush_batch(&served, wait_nanos, depth_peak, state.pending as u64);
    }
    state.served_scratch = served;
    efs.publish_telemetry();
    for (from, reply) in replies {
        dedup.answer(ctx, from, reply, reply_wire_size);
    }
    // A write the device refused stays owed, and holds the checkpoint
    // back until a later request sends it home.
    let homed = efs.flush_home(ctx, None);
    if dead(efs) {
        return true;
    }
    let checkpointed = efs.checkpoint_if_due(ctx);
    if checkpointed.is_err() || dead(efs) {
        return true;
    }
    if homed == Ok(true) || checkpointed == Ok(true) {
        // The ring gauge and the disk's counters moved after the batch
        // was published; an idle node would show them stale for good.
        efs.publish_telemetry();
    }
    false
}

/// One-time transition into the media-lost state: every queued request
/// dies with the medium and is answered [`EfsError::NodeFailed`], so
/// clients fail over to the surviving redundancy group members instead
/// of retrying into a void. Later requests are refused at admission
/// until an [`LfsSpareControl`] racks in a fresh medium.
fn media_lost_drain(ctx: &mut Ctx, state: &mut SchedState, dedup: &mut DedupWindow<LfsReply>) {
    for q in state.drain_all() {
        dedup.forget(q.from, q.req.id);
        refuse(ctx, q.from, q.req.id);
    }
}

/// Rides out a node crash: everything queued in memory dies silently
/// (clients recover by retransmit), the node stays down for the fault's
/// window, messages that arrived meanwhile are lost, and the instance
/// comes back through [`Efs::recover`]. The fresh dedup window is seeded
/// from the WAL's committed records, so a delayed duplicate of a
/// committed operation replays its reconstructed reply instead of
/// re-executing against the recovered state.
fn crash_recover<D: BlockDevice>(
    ctx: &mut Ctx,
    efs: &mut Efs<D>,
    state: &mut SchedState,
    dedup: &mut DedupWindow<LfsReply>,
) {
    let down = efs.crash_down().unwrap_or(SimDuration::ZERO);
    for q in state.drain_all() {
        dedup.forget(q.from, q.req.id);
    }
    let down_nanos = down.as_nanos();
    announce(ctx, efs, |lfs| HealthEvent::NodeCrash { lfs, down_nanos });
    efs.publish_telemetry();
    ctx.delay(down);
    // Messages delivered while the node was dead are lost.
    while ctx.recv_timeout(SimDuration::ZERO).is_some() {}
    let recovered = efs
        .recover()
        .expect("recovery replays only committed records");
    let records = recovered.len() as u64;
    *dedup = DedupWindow::default();
    for op in recovered {
        let client = ProcId::from_index(op.client as usize);
        let (id, result) = (op.id, Ok(op.reply));
        dedup.complete(client, id, LfsReply { id, result });
    }
    if ctx.trace_enabled() {
        ctx.trace_instant("lfs", "lfs.recover", &[("records", records)]);
    }
    efs.publish_telemetry();
}

/// Handles one request against `efs`, producing the reply.
pub fn serve<D: simdisk::BlockDevice>(
    ctx: &mut Ctx,
    efs: &mut Efs<D>,
    req: LfsRequest,
) -> LfsReply {
    let op_name = req.cmd.name();
    let t0 = ctx.now();
    let result = match req.cmd {
        LfsOp::Create { file } => efs.create(ctx, file).map(|()| LfsData::Done),
        LfsOp::Delete { file } => efs.delete(ctx, file).map(LfsData::Freed),
        LfsOp::Read { file, block, hint } => efs
            .read(ctx, file, block, hint)
            .map(|(data, addr)| LfsData::Block { data, addr }),
        LfsOp::Write {
            file,
            block,
            data,
            hint,
        } => efs
            .write(ctx, file, block, &data, hint)
            .map(|addr| LfsData::Written { addr }),
        LfsOp::ReadRun {
            file,
            first,
            count,
            hint,
        } => efs
            .read_run(ctx, file, first, count, hint)
            .map(|blocks| LfsData::Run { blocks }),
        LfsOp::WriteRun {
            file,
            first,
            data,
            hint,
        } => efs
            .write_run(ctx, file, first, &data, hint)
            .map(|addrs| LfsData::WrittenRun { addrs }),
        LfsOp::Stat { file } => efs.stat(ctx, file).map(LfsData::Info),
        LfsOp::Sync => efs.sync(ctx).map(|()| LfsData::Done),
        LfsOp::DiskStats => Ok(LfsData::DiskCounters(efs.disk().stats())),
        LfsOp::GetTelemetry => Ok(LfsData::Telemetry(Box::new(efs.telemetry_snapshot()))),
        LfsOp::Fsck { repair } => Ok(LfsData::Fsck(efs.fsck_timed(ctx, repair))),
        LfsOp::ListFiles => efs.list_files_raw().map(LfsData::Files),
        LfsOp::Prepare { txn, intent } => efs
            .prepare(ctx, txn, intent)
            .map(|freed| LfsData::Prepared { freed }),
        LfsOp::Decide {
            txn,
            commit,
            intent,
        } => efs.decide(ctx, txn, commit, intent).map(LfsData::Freed),
    };
    if ctx.trace_enabled() {
        ctx.trace_span(
            "lfs",
            op_name,
            t0,
            &[("ok", u64::from(result.is_ok())), ("id", req.id)],
        );
    }
    LfsReply { id: req.id, result }
}
