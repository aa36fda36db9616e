//! What crosses the wire: requests, replies, their simulated sizes, the
//! at-least-once RPC binding, and the fault-injection controls.

use crate::error::EfsError;
use crate::fs::{FileInfo, FsckReport};
use crate::layout::{LfsFileId, BLOCK_SIZE};
use crate::retry::{Reply, Request, RpcClient, RpcProtocol};
use crate::wal::PrepareIntent;
use bytes::Bytes;
use parsim::{Ctx, ProcId};
use simdisk::BlockAddr;
#[cfg(doc)]
use {crate::fs::Efs, simdisk::BlockDevice};

/// A request to an LFS server process.
pub type LfsRequest = Request<LfsOp>;

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
pub type LfsReply = Reply<LfsData, EfsError>;

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
    /// Several instances' votes or acknowledgements folded into one reply
    /// by a relay: every one succeeded, save `lost` columns whose loss
    /// the sender tolerates, and together they free `freed` blocks.
    Tally {
        /// Tolerated lost columns.
        lost: u32,
        /// Blocks freed (or to be freed at commit).
        freed: u64,
    },
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

/// Wire size charged to a request (block writes carry their blocks). The
/// 32-byte header holds the id and the mark.
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
    type Data = LfsData;
    type Error = EfsError;

    fn name(op: &LfsOp) -> &'static str {
        op.name()
    }
    fn wire_size(op: &LfsOp) -> usize {
        request_wire_size(op)
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
