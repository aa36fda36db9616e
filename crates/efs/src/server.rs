//! The LFS server process: a message loop wrapping an [`Efs`] instance.
//!
//! "The instances of EFS are self-sufficient, and operate in ignorance of
//! one another." Both the Bridge Server and tools talk to LFS instances
//! with the same stateless request protocol; each request carries a client
//! supplied id that is echoed in the reply, so a client may pipeline
//! requests to many LFS instances and collect replies out of order.

use crate::error::EfsError;
use crate::fs::{Efs, FileInfo, FsckReport};
use crate::layout::{LfsFileId, BLOCK_SIZE};
use crate::retry::{Admission, DedupWindow, RpcClient, RpcProtocol};
use crate::wal::PrepareIntent;
use bridge_trace::HealthEvent;
use bytes::Bytes;
use parsim::{Ctx, FixedMap, ProcId, SimDuration, SimTime, Simulation};
use simdisk::{BlockAddr, BlockDevice, RequestQueue, SchedConfig};
use std::collections::VecDeque;

/// A request to an LFS server process.
#[derive(Debug, Clone)]
pub struct LfsRequest {
    /// Client-chosen id echoed in the reply.
    pub id: u64,
    /// The operation.
    pub op: LfsOp,
}

/// Operations understood by an LFS server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LfsOp {
    /// Create an empty file.
    Create {
        /// Numeric file name.
        file: LfsFileId,
    },
    /// Delete a file: its blocks return to the allocator in one step.
    Delete {
        /// Numeric file name.
        file: LfsFileId,
    },
    /// Read one local block.
    Read {
        /// Numeric file name.
        file: LfsFileId,
        /// Local block number.
        block: u32,
        /// Optional disk-address hint.
        hint: Option<BlockAddr>,
    },
    /// Overwrite or append one local block.
    Write {
        /// Numeric file name.
        file: LfsFileId,
        /// Local block number (`size` means append).
        block: u32,
        /// Payload (at most 1000 bytes; zero-padded on disk).
        data: Bytes,
        /// Optional disk-address hint.
        hint: Option<BlockAddr>,
    },
    /// Read a run of consecutive local blocks in one round trip: one hint
    /// search, one walk of the doubly-linked list, all payloads in a
    /// single reply ([`LfsData::Run`]).
    ReadRun {
        /// Numeric file name.
        file: LfsFileId,
        /// First local block number of the run.
        first: u32,
        /// Blocks to read.
        count: u32,
        /// Optional disk-address hint for the first block.
        hint: Option<BlockAddr>,
    },
    /// Write a run of consecutive local blocks in one round trip (see
    /// [`Efs::write_run`]; a pure append run pays positioning once per
    /// track).
    WriteRun {
        /// Numeric file name.
        file: LfsFileId,
        /// First local block number of the run (`size` means append).
        first: u32,
        /// Payloads, one per block (each at most 1000 bytes).
        data: Vec<Bytes>,
        /// Optional disk-address hint for the first block.
        hint: Option<BlockAddr>,
    },
    /// Fetch file metadata.
    Stat {
        /// Numeric file name.
        file: LfsFileId,
    },
    /// Flush directory and allocation state.
    Sync,
    /// Fetch the underlying disk's operation counters (free: a control
    /// query, not a media access). Lets tools and trace reconciliation
    /// reach the per-node [`simdisk::DiskStats`] that only the LFS
    /// process can see.
    DiskStats,
    /// Run the timed consistency check ([`Efs::fsck_timed`]) on this
    /// instance, optionally repairing what it finds. A barrier op: it
    /// orders after every pending operation of its client.
    Fsck {
        /// Repair inconsistencies (and persist the repaired state) rather
        /// than only reporting them.
        repair: bool,
    },
    /// List every file on this instance (directory scan; a control query,
    /// untimed like `DiskStats`). `pfsck`'s machine-wide pass collects one
    /// listing per instance to cross-check against the server's manifest.
    /// A barrier op: it orders after every pending operation of its
    /// client.
    ListFiles,
    /// Fetch this instance's live telemetry
    /// ([`bridge_trace::LfsTelemetry`]): disk counters, WAL ring
    /// occupancy, group-commit and queue gauges. A free control query
    /// like `DiskStats` — pollable mid-run without perturbing the
    /// workload's timing.
    GetTelemetry,
    /// Phase 1 of a machine-wide transaction ([`Efs::prepare`]): apply
    /// `intent` tentatively and vote. The [`LfsData::Prepared`] ack is a
    /// binding yes-vote — it is only sent after the server loop's group
    /// commit made the Prepare record durable. A barrier op: it orders
    /// after every pending operation of its client.
    Prepare {
        /// Coordinator-assigned transaction id.
        txn: u64,
        /// What to apply tentatively.
        intent: PrepareIntent,
    },
    /// Phase 2 ([`Efs::decide`]): the coordinator's commit/abort decision.
    /// Idempotent; the intent rides along so a participant whose recovery
    /// already rolled the transaction back can apply the decision
    /// directly. A barrier op like `Prepare`.
    Decide {
        /// Coordinator-assigned transaction id.
        txn: u64,
        /// True = commit, false = abort.
        commit: bool,
        /// The intent being decided.
        intent: PrepareIntent,
    },
}

impl LfsOp {
    /// Stable span/metric name for this operation, e.g. `"lfs.read_run"`.
    pub fn name(&self) -> &'static str {
        match self {
            LfsOp::Create { .. } => "lfs.create",
            LfsOp::Delete { .. } => "lfs.delete",
            LfsOp::Read { .. } => "lfs.read",
            LfsOp::Write { .. } => "lfs.write",
            LfsOp::ReadRun { .. } => "lfs.read_run",
            LfsOp::WriteRun { .. } => "lfs.write_run",
            LfsOp::Stat { .. } => "lfs.stat",
            LfsOp::Sync => "lfs.sync",
            LfsOp::DiskStats => "lfs.disk_stats",
            LfsOp::Fsck { .. } => "lfs.fsck",
            LfsOp::ListFiles => "lfs.list_files",
            LfsOp::GetTelemetry => "lfs.get_telemetry",
            LfsOp::Prepare { .. } => "lfs.prepare",
            LfsOp::Decide { .. } => "lfs.decide",
        }
    }

    /// The file an operation targets, if any. `None` (Sync, DiskStats)
    /// means the operation is ordered as a barrier against *all* of its
    /// client's pending operations.
    pub fn file(&self) -> Option<LfsFileId> {
        match self {
            LfsOp::Create { file }
            | LfsOp::Delete { file }
            | LfsOp::Read { file, .. }
            | LfsOp::Write { file, .. }
            | LfsOp::ReadRun { file, .. }
            | LfsOp::WriteRun { file, .. }
            | LfsOp::Stat { file } => Some(*file),
            LfsOp::Sync
            | LfsOp::DiskStats
            | LfsOp::Fsck { .. }
            | LfsOp::ListFiles
            | LfsOp::GetTelemetry
            | LfsOp::Prepare { .. }
            | LfsOp::Decide { .. } => None,
        }
    }
}

/// A reply from an LFS server.
#[derive(Debug, Clone)]
pub struct LfsReply {
    /// Echo of the request id.
    pub id: u64,
    /// Outcome.
    pub result: Result<LfsData, EfsError>,
}

/// Successful reply payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LfsData {
    /// Create or Sync completed.
    Done,
    /// Delete completed; blocks freed.
    Freed(u32),
    /// Read completed.
    Block {
        /// The 1000-byte payload.
        data: Bytes,
        /// Where the block lives; a good hint for the next request.
        addr: BlockAddr,
    },
    /// Write completed.
    Written {
        /// Where the block landed; a good hint for the next request.
        addr: BlockAddr,
    },
    /// ReadRun completed.
    Run {
        /// Payload and disk address of each block, in run order; the last
        /// address is the natural hint for the next run.
        blocks: Vec<(Bytes, BlockAddr)>,
    },
    /// WriteRun completed.
    WrittenRun {
        /// Where each block landed, in run order.
        addrs: Vec<BlockAddr>,
    },
    /// Stat completed.
    Info(FileInfo),
    /// DiskStats completed.
    DiskCounters(simdisk::DiskStats),
    /// Fsck completed: the instance's verdict (clean when
    /// [`FsckReport::errors`] is empty).
    Fsck(FsckReport),
    /// ListFiles completed: every file on the instance.
    Files(Vec<FileInfo>),
    /// Prepare completed: this participant votes yes, and will free this
    /// many blocks if the transaction commits (zero for creates).
    Prepared {
        /// Blocks to be freed at commit.
        freed: u32,
    },
    /// GetTelemetry completed: the instance's live telemetry snapshot.
    Telemetry(Box<bridge_trace::LfsTelemetry>),
}

impl LfsData {
    /// The payload and disk address of a `Read` reply.
    ///
    /// # Errors
    ///
    /// [`EfsError::Corrupt`] when the reply is of any other kind — a
    /// protocol violation, shared by the three accessors below.
    pub fn into_block(self) -> Result<(Bytes, BlockAddr), EfsError> {
        match self {
            LfsData::Block { data, addr } => Ok((data, addr)),
            other => Err(other.unexpected("Block")),
        }
    }

    /// Where a `Write` landed.
    pub fn into_written(self) -> Result<BlockAddr, EfsError> {
        match self {
            LfsData::Written { addr } => Ok(addr),
            other => Err(other.unexpected("Written")),
        }
    }

    /// The payloads and disk addresses of a `ReadRun` reply, in run order.
    pub fn into_run(self) -> Result<Vec<(Bytes, BlockAddr)>, EfsError> {
        match self {
            LfsData::Run { blocks } => Ok(blocks),
            other => Err(other.unexpected("Run")),
        }
    }

    /// Where each block of a `WriteRun` landed, in run order.
    pub fn into_written_run(self) -> Result<Vec<BlockAddr>, EfsError> {
        match self {
            LfsData::WrittenRun { addrs } => Ok(addrs),
            other => Err(other.unexpected("WrittenRun")),
        }
    }

    fn unexpected(&self, wanted: &str) -> EfsError {
        EfsError::Corrupt(format!(
            "unexpected LFS reply: wanted {wanted}, got {self:?}"
        ))
    }
}

/// Fault-injection control for an LFS server process (experiments only):
/// a failed server answers every request with
/// [`EfsError::NodeFailed`] until revived — a fail-stop node whose peers
/// learn of the failure when they next talk to it. The server confirms
/// every control with an [`LfsFailAck`], so a controller that waits for
/// the ack (see [`set_failed`]) knows the toggle has taken effect no
/// matter what the message latency is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LfsFailControl {
    /// `true` = fail-stop; `false` = revive.
    pub failed: bool,
}

/// Acknowledgement of an [`LfsFailControl`], echoing the new state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LfsFailAck {
    /// The state the server is now in.
    pub failed: bool,
}

/// Sets or clears fail-stop on an LFS server and waits for the server's
/// [`LfsFailAck`] before returning.
///
/// This replaces the old fire-and-forget control plus "sleep longer than
/// the message latency" idiom, which silently broke ordering whenever a
/// topology's latency exceeded the magic delay: once the ack is back,
/// every later request from *any* client is guaranteed to be ordered
/// after the toggle.
pub fn set_failed(ctx: &mut Ctx, lfs: ProcId, failed: bool) {
    ctx.send_sized(lfs, LfsFailControl { failed }, 16);
    let env = ctx.recv_where(|e| e.from() == lfs && e.downcast_ref::<LfsFailAck>().is_some());
    let ack = env
        .downcast::<LfsFailAck>()
        .expect("predicate guarantees type");
    assert_eq!(ack.failed, failed, "server acknowledged the wrong state");
}

/// Control message: rack a factory-fresh spare medium into an LFS server
/// whose disk was permanently lost. The server formats a blank instance
/// onto the spare and resumes service; the rebuild driver then
/// repopulates its columns from the surviving redundancy group members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LfsSpareControl;

/// Acknowledgement of an [`LfsSpareControl`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LfsSpareAck {
    /// `true` when a spare was installed; `false` when the device cannot
    /// produce one ([`BlockDevice::spare`] returned `None`).
    pub installed: bool,
}

/// Installs a spare medium on an LFS server and waits for the server's
/// [`LfsSpareAck`] before returning (same ordering guarantee as
/// [`set_failed`]). Returns whether a spare was actually installed.
pub fn install_spare(ctx: &mut Ctx, lfs: ProcId) -> bool {
    ctx.send_sized(lfs, LfsSpareControl, 16);
    let env = ctx.recv_where(|e| e.from() == lfs && e.downcast_ref::<LfsSpareAck>().is_some());
    env.downcast::<LfsSpareAck>()
        .expect("predicate guarantees type")
        .installed
}

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

/// One admitted request parked in the scheduler.
struct Queued {
    req: LfsRequest,
    from: ProcId,
    delivered_at: SimTime,
    /// Already handed to the policy queue.
    offered: bool,
}

/// Pending-request bookkeeping for a scheduled LFS server.
///
/// Requests are admitted into per-client *lanes* (arrival order) and only
/// a lane's schedulable prefix is exposed to the policy queue: at most one
/// op per (client, file) chain, and nothing past a file-less barrier op
/// (Sync, DiskStats). Reordering is therefore invisible to any single
/// client — its operations on one file, and around barriers, complete in
/// the order it issued them.
struct SchedState {
    sched: RequestQueue<u64>,
    /// Every admitted, not-yet-serviced request, indexed by
    /// `seq - window_base`; `None` once served. Sequence numbers are dense
    /// and requests leave in roughly arrival order, so the window stays as
    /// short as the queue is deep.
    window: VecDeque<Option<Queued>>,
    window_base: u64,
    /// Live entries in `window`.
    pending: usize,
    /// Per-client arrival order: (seq, target file; `None` = barrier). A
    /// drained lane keeps its (empty) queue for the client's next request.
    lanes: FixedMap<ProcId, VecDeque<(u64, Option<LfsFileId>)>>,
    /// Scratch for per-op service times within one batch, flushed to the
    /// telemetry registry at batch end (kept here so the armed hot path
    /// never allocates).
    served_scratch: Vec<u64>,
}

impl SchedState {
    fn new(config: SchedConfig) -> Self {
        SchedState {
            sched: RequestQueue::new(config),
            window: VecDeque::new(),
            window_base: 0,
            pending: 0,
            lanes: FixedMap::default(),
            served_scratch: Vec::new(),
        }
    }

    fn has_work(&self) -> bool {
        self.pending > 0
    }

    /// Admits one request and refreshes its client's schedulable prefix.
    fn admit<D: BlockDevice>(&mut self, efs: &Efs<D>, req: LfsRequest, from: ProcId, at: SimTime) {
        let seq = self.window_base + self.window.len() as u64;
        let key = req.op.file();
        self.window.push_back(Some(Queued {
            req,
            from,
            delivered_at: at,
            offered: false,
        }));
        self.pending += 1;
        self.lanes.entry(from).or_default().push_back((seq, key));
        self.offer_lane(efs, from);
    }

    /// Pushes a lane's newly schedulable requests into the policy queue:
    /// the head of each (client, file) chain, up to the first barrier.
    fn offer_lane<D: BlockDevice>(&mut self, efs: &Efs<D>, client: ProcId) {
        let Some(lane) = self.lanes.get(&client) else {
            return;
        };
        for (i, &(seq, key)) in lane.iter().enumerate() {
            let schedulable = match key {
                // A barrier is schedulable only once it is the oldest
                // pending op of its client, and blocks everything behind
                // it.
                None => i == 0,
                // Lanes are a few entries long: looking back beats keeping
                // a set of the files seen.
                Some(file) => !lane.iter().take(i).any(|&(_, k)| k == Some(file)),
            };
            if schedulable {
                let q = self.window[(seq - self.window_base) as usize]
                    .as_mut()
                    .expect("lane entries are queued");
                if !q.offered {
                    q.offered = true;
                    self.sched.push(track_hint(efs, &q.req.op), seq);
                }
            }
            if key.is_none() {
                break;
            }
        }
    }

    /// Removes and returns the request the policy serves next.
    fn take_next<D: BlockDevice>(&mut self, efs: &Efs<D>) -> Option<Queued> {
        let (_, seq) = self.sched.pop(efs.disk().head_track())?;
        let q = self.window[(seq - self.window_base) as usize]
            .take()
            .expect("scheduled request queued");
        self.pending -= 1;
        while let Some(None) = self.window.front() {
            self.window.pop_front();
            self.window_base += 1;
        }
        let lane = self.lanes.get_mut(&q.from).expect("lane exists");
        let pos = lane
            .iter()
            .position(|&(s, _)| s == seq)
            .expect("request in its lane");
        lane.remove(pos);
        Some(q)
    }

    /// Drains every pending request in arrival order (fail-stop flush).
    fn drain_all(&mut self) -> Vec<Queued> {
        self.window_base += self.window.len() as u64;
        self.pending = 0;
        self.lanes.clear();
        while self.sched.pop(0).is_some() {}
        self.window.drain(..).flatten().collect()
    }
}

/// Estimates the disk track a request will touch, for scheduling. Costs
/// nothing: uses only the client's address hint, the in-memory link
/// cache, and the current head position — never the media.
fn track_hint<D: BlockDevice>(efs: &Efs<D>, op: &LfsOp) -> u32 {
    let geometry = efs.disk().geometry();
    let addr = match op {
        LfsOp::Read { file, block, hint }
        | LfsOp::Write {
            file, block, hint, ..
        } => hint
            .or_else(|| efs.link_addr(*file, *block))
            .or_else(|| efs.link_addr(*file, block.saturating_sub(1))),
        LfsOp::ReadRun {
            file, first, hint, ..
        }
        | LfsOp::WriteRun {
            file, first, hint, ..
        } => hint
            .or_else(|| efs.link_addr(*file, *first))
            .or_else(|| efs.link_addr(*file, first.saturating_sub(1))),
        // Metadata ops work against the directory and bitmap at the front
        // of the disk.
        LfsOp::Create { .. }
        | LfsOp::Delete { .. }
        | LfsOp::Stat { .. }
        | LfsOp::Sync
        | LfsOp::Fsck { .. }
        | LfsOp::Prepare { .. }
        | LfsOp::Decide { .. } => {
            return 0;
        }
        // A pure control query touches no media: wherever the head is.
        LfsOp::DiskStats | LfsOp::ListFiles | LfsOp::GetTelemetry => {
            return efs.disk().head_track()
        }
    };
    match addr {
        Some(a) => geometry.track_of(a),
        None => efs.disk().head_track(),
    }
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
        let mut dedup: DedupWindow<LfsReply> = DedupWindow::standard();
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
                            if let Some(t) = efs.telemetry() {
                                t.registry.record_event(
                                    ctx.now(),
                                    HealthEvent::DiskLost { lfs: t.index },
                                );
                            }
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
                        dedup = DedupWindow::standard();
                        if let Some(t) = efs.telemetry() {
                            t.registry.record_event(
                                ctx.now(),
                                HealthEvent::SpareInstalled { lfs: t.index },
                            );
                        }
                        if ctx.trace_enabled() {
                            ctx.trace_instant("lfs", "lfs.spare_installed", &[]);
                        }
                    }
                    ctx.send_sized(from, LfsSpareAck { installed }, 16);
                    continue;
                }
                Err(env) => env,
            };
            match env.downcast::<LfsRequest>() {
                Ok(req) => {
                    if failed || efs.media_lost() {
                        refuse(ctx, from, req.id);
                    } else {
                        match dedup.admit(from, req.id) {
                            Admission::New => state.admit(&efs, req, from, delivered_at),
                            Admission::InFlight => {
                                // Retransmit of a queued/in-service request:
                                // the original's reply will serve.
                                if ctx.trace_enabled() {
                                    ctx.trace_instant(
                                        "retry",
                                        "retry.dup_dropped",
                                        &[("id", req.id)],
                                    );
                                }
                            }
                            Admission::Replay(reply) => {
                                // Already executed: resend the cached reply
                                // instead of re-running a possibly
                                // non-idempotent operation.
                                if ctx.trace_enabled() {
                                    ctx.trace_instant("retry", "retry.replay", &[("id", req.id)]);
                                }
                                let bytes = reply_wire_size(&reply);
                                ctx.send_sized_cloneable(from, reply, bytes);
                            }
                        }
                    }
                }
                Err(env) => panic!("LFS received a non-request message: {env:?}"),
            }
        }
    })
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
/// then the checkpoint if the batch made one due. Nothing is acknowledged
/// before its intent records are durable — the WAL's commit-before-ack
/// rule — and nothing waits for the checkpoint, which only bounds the
/// ring: a crash inside it replays the acknowledged records from the
/// previous one. The next batch does wait; the server is one process.
/// Without a WAL the width is 1 and both halves are no-ops, so the cycle
/// is exactly the pre-WAL serve-then-reply, bit for bit.
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
        dedup.complete(from, reply.id, ctx.now(), reply.clone());
        let bytes = reply_wire_size(&reply);
        ctx.send_sized_cloneable(from, reply, bytes);
    }
    let checkpointed = efs.checkpoint_if_due(ctx);
    if checkpointed.is_err() || dead(efs) {
        return true;
    }
    if checkpointed == Ok(true) {
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
    if ctx.trace_enabled() {
        ctx.trace_instant("lfs", "lfs.media_lost", &[]);
    }
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
    if let Some(t) = efs.telemetry() {
        t.registry.record_event(
            ctx.now(),
            HealthEvent::NodeCrash {
                lfs: t.index,
                down_nanos: down.as_nanos(),
            },
        );
    }
    efs.publish_telemetry();
    if ctx.trace_enabled() {
        ctx.trace_instant("lfs", "lfs.crash", &[("down_nanos", down.as_nanos())]);
    }
    ctx.delay(down);
    // Messages delivered while the node was dead are lost.
    while ctx.recv_timeout(SimDuration::ZERO).is_some() {}
    let recovered = efs
        .recover()
        .expect("recovery replays only committed records");
    let records = recovered.len() as u64;
    *dedup = DedupWindow::standard();
    for op in recovered {
        let client = ProcId::from_index(op.client as usize);
        let (id, result) = (op.id, Ok(op.reply));
        dedup.restore(client, id, ctx.now(), LfsReply { id, result });
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
    let op_name = req.op.name();
    let t0 = ctx.now();
    let result = match req.op {
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

/// Wire size charged to a request (block writes carry their blocks).
pub fn request_wire_size(op: &LfsOp) -> usize {
    match op {
        LfsOp::Write { data, .. } => 32 + data.len(),
        LfsOp::WriteRun { data, .. } => 32 + data.iter().map(|d| d.len() + 8).sum::<usize>(),
        LfsOp::Prepare { intent, .. } | LfsOp::Decide { intent, .. } => 32 + intent.wire_size(),
        _ => 32,
    }
}

/// Wire size charged to a reply (block reads carry their blocks).
pub fn reply_wire_size(reply: &LfsReply) -> usize {
    match &reply.result {
        Ok(LfsData::Block { .. }) => BLOCK_SIZE + 16,
        Ok(LfsData::Run { blocks }) => 16 + blocks.len() * (BLOCK_SIZE + 8),
        Ok(LfsData::WrittenRun { addrs }) => 32 + addrs.len() * 8,
        Ok(LfsData::Files(files)) => 32 + files.len() * 24,
        Ok(LfsData::Telemetry(_)) => 256,
        _ => 32,
    }
}

/// The LFS request/reply protocol as the at-least-once engine sees it.
#[derive(Debug)]
pub struct LfsRpc;

impl RpcProtocol for LfsRpc {
    type Cmd = LfsOp;
    type Request = LfsRequest;
    type Reply = LfsReply;
    type Data = LfsData;
    type Error = EfsError;

    fn name(op: &LfsOp) -> &'static str {
        op.name()
    }
    fn wire_size(op: &LfsOp) -> usize {
        request_wire_size(op)
    }
    fn request(id: u64, op: LfsOp) -> LfsRequest {
        LfsRequest { id, op }
    }
    fn reply_id(reply: &LfsReply) -> u64 {
        reply.id
    }
    fn result(reply: LfsReply) -> Result<LfsData, EfsError> {
        reply.result
    }
    fn timed_out(attempts: u32) -> EfsError {
        EfsError::TimedOut { attempts }
    }
}

/// Client-side helper for talking to LFS servers from inside a simulated
/// process: [`RpcClient`] speaking the LFS protocol. `send`/`wait`/`call`
/// take an [`LfsOp`] and the server's process id and answer
/// `Result<LfsData, EfsError>`; with a [`RetryPolicy`](crate::RetryPolicy) installed a spent
/// budget surfaces as [`EfsError::TimedOut`].
pub type LfsClient = RpcClient<LfsRpc>;
