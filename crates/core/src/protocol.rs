//! The Bridge Server command set (the paper's Table 1) and its replies.
//!
//! Three views are expressed over one protocol:
//!
//! 1. the **naive view**: `Create`, `Delete`, `Open`, `SeqRead`/`SeqWrite`,
//!    `RandRead`/`RandWrite` — "users who want to access data without
//!    bothering with the interleaved structure";
//! 2. the **parallel-open view**: `ParallelOpen` groups a controller and
//!    `t` workers into a job; each `JobRead`/`JobWrite` moves `t` blocks in
//!    lock step, with the server simulating any degree of parallelism;
//! 3. the **tool view**: `GetInfo` and the structural contents of
//!    [`OpenInfo`] let a program become part of the file system, talking to
//!    the LFS instances directly.

use crate::error::BridgeError;
use crate::header::GlobalPtr;
use crate::ids::{BridgeFileId, JobId, LfsIndex};
use crate::placement::PlacementKind;
use crate::redundancy::Redundancy;
use bridge_efs::{EfsError, LfsData, LfsFileId, LfsOp, LfsRpc, Reply, Request, RpcProtocol};
use bytes::Bytes;
use parsim::{Ctx, NodeId, ProcId};

/// Placement requested at file creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementSpec {
    /// Round-robin interleaving; the server picks the start node (rotating
    /// across creations to balance block 0 hot-spots).
    #[default]
    RoundRobin,
    /// Round-robin with an explicit start node.
    RoundRobinAt {
        /// Position (within the file's node list) of block 0.
        start: u32,
    },
    /// Gamma-style chunking; requires `size_hint` in the [`CreateSpec`].
    Chunked,
    /// Gamma-style hashed placement.
    Hashed {
        /// Hash seed.
        seed: u64,
    },
    /// Disordered file: linked global pointers, arbitrary scattering.
    Linked,
}

/// Arguments to `Create`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CreateSpec {
    /// Placement strategy.
    pub placement: PlacementSpec,
    /// LFS positions (machine indexes) the file spans, in placement order;
    /// `None` means all of them. Subsets are how the sort tool builds files
    /// "interleaved across 2^k processors".
    pub nodes: Option<Vec<u32>>,
    /// Expected final size in blocks; required for chunked placement.
    pub size_hint: Option<u64>,
    /// Redundancy mode (requires round-robin placement and breadth ≥ 2
    /// when not [`Redundancy::None`]).
    pub redundancy: Redundancy,
}

/// A request to the Bridge Server.
pub type BridgeRequest = Request<BridgeCmd>;

/// Commands understood by the Bridge Server (Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BridgeCmd {
    /// Create a file; returns the new file id.
    Create(CreateSpec),
    /// Delete a file on every constituent LFS (in parallel).
    Delete {
        /// File to delete.
        file: BridgeFileId,
    },
    /// Delete several files at once, pipelining every LFS delete across
    /// all of them — how tools "discard the old files in parallel".
    DeleteMany {
        /// Files to delete.
        files: Vec<BridgeFileId>,
    },
    /// Open: a *hint* that sets up an optimized path (cursor reset, LFS
    /// stats gathered); "there is no close operation".
    Open {
        /// File to open.
        file: BridgeFileId,
    },
    /// Read the next block sequentially (per-client cursor).
    SeqRead {
        /// File to read.
        file: BridgeFileId,
    },
    /// Append one block of data (at most 960 bytes).
    SeqWrite {
        /// File to append to.
        file: BridgeFileId,
        /// Block data.
        data: Bytes,
    },
    /// Read a specific global block.
    RandRead {
        /// File to read.
        file: BridgeFileId,
        /// Global block number.
        block: u64,
    },
    /// Overwrite a specific global block (must exist).
    RandWrite {
        /// File to write.
        file: BridgeFileId,
        /// Global block number.
        block: u64,
        /// Block data (at most 960 bytes).
        data: Bytes,
    },
    /// Group the sender (controller) and `workers` into a job on `file`.
    ParallelOpen {
        /// File the job reads or writes.
        file: BridgeFileId,
        /// The worker processes, in block-delivery order.
        workers: Vec<ProcId>,
    },
    /// Move the next `t` blocks to the job's workers, one each, in lock
    /// step ("groups of p disk accesses in parallel" when `t > p`).
    JobRead {
        /// The job.
        job: JobId,
    },
    /// Gather one block from each worker and append them in worker order.
    JobWrite {
        /// The job.
        job: JobId,
    },
    /// Discard a job's state. (Not in Table 1 — the paper's jobs die with
    /// their processes; a testbed prefers explicit cleanup.)
    JobClose {
        /// The job.
        job: JobId,
    },
    /// Repair a redundant file after a node failure: re-derive every
    /// missing or stale component (data copy, mirror copy, parity block)
    /// from the surviving ones. Requires all nodes up.
    Rebuild {
        /// File to repair.
        file: BridgeFileId,
    },
    /// Repair only global blocks `[first, first + count)` of a redundant
    /// file (plus the parity stripes they touch). A paced rebuild driver
    /// issues these in small chunks so foreground traffic interleaves at
    /// the LFS schedulers between chunks — the rebuild-rate vs foreground
    /// p99 tradeoff is the chunk size.
    RebuildRange {
        /// File to repair.
        file: BridgeFileId,
        /// First global block of the range.
        first: u64,
        /// Number of global blocks (clipped at the file size).
        count: u64,
    },
    /// Structural information for tools.
    GetInfo,
    /// Machine-wide health: the live telemetry snapshot
    /// ([`bridge_trace::HealthSnapshot`]) — per-LFS disk/WAL/queue gauges,
    /// 2PC and redundancy counters, the typed event journal, and any
    /// watchdog alerts. Pollable mid-run; a control query that never
    /// touches media.
    GetHealth,
    /// The full directory — every file with its placement — plus the
    /// coordinator's logged 2PC decisions. `pfsck`'s machine-wide pass
    /// cross-checks this manifest against what each LFS actually holds.
    GetManifest,
}

impl BridgeCmd {
    /// Stable span/metric name for this command, e.g. `"bridge.seq_read"`.
    pub fn name(&self) -> &'static str {
        match self {
            BridgeCmd::Create(_) => "bridge.create",
            BridgeCmd::Delete { .. } => "bridge.delete",
            BridgeCmd::DeleteMany { .. } => "bridge.delete_many",
            BridgeCmd::Open { .. } => "bridge.open",
            BridgeCmd::SeqRead { .. } => "bridge.seq_read",
            BridgeCmd::SeqWrite { .. } => "bridge.seq_write",
            BridgeCmd::RandRead { .. } => "bridge.rand_read",
            BridgeCmd::RandWrite { .. } => "bridge.rand_write",
            BridgeCmd::ParallelOpen { .. } => "bridge.parallel_open",
            BridgeCmd::JobRead { .. } => "bridge.job_read",
            BridgeCmd::JobWrite { .. } => "bridge.job_write",
            BridgeCmd::JobClose { .. } => "bridge.job_close",
            BridgeCmd::Rebuild { .. } => "bridge.rebuild",
            BridgeCmd::RebuildRange { .. } => "bridge.rebuild_range",
            BridgeCmd::GetInfo => "bridge.get_info",
            BridgeCmd::GetHealth => "bridge.get_health",
            BridgeCmd::GetManifest => "bridge.get_manifest",
        }
    }
}

/// A reply from the Bridge Server.
pub type BridgeReply = Reply<BridgeData, BridgeError>;

/// Successful reply payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BridgeData {
    /// `Create` succeeded.
    Created(BridgeFileId),
    /// `Delete` succeeded; total blocks freed across all LFS instances.
    Deleted {
        /// Blocks freed.
        blocks: u64,
    },
    /// `Open` succeeded.
    Opened(OpenInfo),
    /// A block's 960 data bytes.
    Block(Bytes),
    /// Sequential read reached end of file.
    Eof,
    /// A write landed; which global block it became.
    Written {
        /// Global block number written.
        block: u64,
    },
    /// `ParallelOpen` succeeded.
    JobOpened(JobId),
    /// `JobRead` finished a lock-step round.
    JobReadDone {
        /// Blocks delivered to workers this round (< t means EOF hit).
        delivered: u32,
        /// True if the file is exhausted.
        eof: bool,
    },
    /// `JobWrite` finished a lock-step round.
    JobWritten {
        /// Blocks accepted (< t means some worker signalled end).
        accepted: u32,
    },
    /// `JobClose` succeeded.
    JobClosed,
    /// `Rebuild` finished.
    Rebuilt {
        /// Components (data blocks, mirror copies, parity blocks)
        /// rewritten.
        repaired: u64,
    },
    /// `GetInfo` result.
    Info(MachineInfo),
    /// `GetHealth` result: the machine-wide telemetry snapshot.
    Health(Box<bridge_trace::HealthSnapshot>),
    /// `GetManifest` result.
    Manifest(MachineManifest),
}

/// Everything a tool needs to bypass the server: the paper's `Open` returns
/// "LFS local names for all the pieces of a file, allowing it to translate
/// between global and local block names".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenInfo {
    /// The file.
    pub file: BridgeFileId,
    /// Global size in blocks.
    pub size: u64,
    /// Resolved placement (with the actual start node / chunk size).
    pub placement: PlacementKind,
    /// Redundancy mode.
    pub redundancy: Redundancy,
    /// The constituent LFS instances, in placement order.
    pub nodes: Vec<LfsSlice>,
    /// The numeric local file name (the same on every constituent LFS).
    pub lfs_file: LfsFileId,
    /// Head of the chain (linked files).
    pub head: Option<GlobalPtr>,
    /// Tail of the chain (linked files).
    pub tail: Option<GlobalPtr>,
}

/// One constituent of an open file: where its column lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LfsSlice {
    /// The machine-wide LFS index.
    pub index: LfsIndex,
    /// The LFS server process.
    pub proc: ProcId,
    /// The node it runs on (spawn tool workers here).
    pub node: NodeId,
    /// Blocks of this file held locally.
    pub local_size: u32,
}

/// Machine-level structural information (`GetInfo`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInfo {
    /// Number of LFS instances (p).
    pub breadth: u32,
    /// Each LFS server process and its node, by machine index.
    pub lfs: Vec<(ProcId, NodeId)>,
    /// The Bridge Server's own node.
    pub server_node: NodeId,
    /// The request-scheduling policy the LFS instances run.
    pub sched: simdisk::SchedPolicy,
}

/// One directory entry as `pfsck`'s machine-wide pass sees it: which LFS
/// columns the server believes this file occupies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The Bridge file.
    pub file: BridgeFileId,
    /// Its numeric local name on every constituent LFS.
    pub lfs_file: LfsFileId,
    /// The redundancy companion's local name (mirror/parity), if any.
    pub companion: Option<LfsFileId>,
    /// The file's redundancy mode (drives `pfsck`'s parity audit).
    pub redundancy: Redundancy,
    /// The server's cached global size in blocks — the stripe extent the
    /// parity audit recomputes.
    pub size: u64,
    /// Round-robin start rotation: block 0's position within `nodes`.
    /// The mirror audit needs it to map blocks to columns, and the parity
    /// audit turns the file's parity layout by it
    /// ([`ParityLayout::starting_at`](crate::ParityLayout::starting_at)).
    pub start: u32,
    /// Machine indexes of the LFS instances holding its columns. Entries
    /// here are *claims*: an index may be stale (≥ the current breadth
    /// after a placement-spec change), which the machine pass must report
    /// rather than chase.
    pub nodes: Vec<u32>,
}

/// `GetManifest` reply: the server's directory plus the decision history
/// of its two-phase commit log (empty when 2PC is off). Cross-checking
/// the two against per-instance listings is how the machine-wide fsck
/// pass tells an orphaned column (a crash artefact with a logged verdict)
/// from unexplained damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineManifest {
    /// Machine breadth (p) — listings index space.
    pub breadth: u32,
    /// Every live directory entry, sorted by file id for determinism.
    pub files: Vec<ManifestEntry>,
    /// Logged 2PC decisions still in the ring, oldest first.
    pub decisions: Vec<crate::txlog::LoggedDecision>,
}

/// Server → worker: one lock-step block delivery (`None` = no block for
/// you this round; the file ran out).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobDeliver {
    /// The job.
    pub job: JobId,
    /// Global block number (meaningful when `data` is `Some`).
    pub block: u64,
    /// The 960 data bytes, or `None` at end of file.
    pub data: Option<Bytes>,
}

/// Server → worker: request for the worker's next block during `JobWrite`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRequest {
    /// The job.
    pub job: JobId,
    /// Global block number this worker's data will become.
    pub block: u64,
}

/// Worker → server: the block requested by [`JobRequest`] (`None` = this
/// worker has no more data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSupply {
    /// The job.
    pub job: JobId,
    /// Echo of the requested global block number.
    pub block: u64,
    /// The data, or `None` to signal end.
    pub data: Option<Bytes>,
}

/// Server/agent → agent: one relayed round of LFS ops over `targets`.
/// The receiver is `targets[0]`, which sends its own ops to its own LFS,
/// splits the rest among its children, and answers for its whole subtree
/// with one reply: an [`LfsData::Tally`](bridge_efs::LfsData::Tally) of
/// the lost columns its tolerant targets report and the blocks freed, or
/// else the earliest target's veto. At an arity of 2 the hops form the
/// "embedded binary tree" the paper's §4.5 suggests for removing Create's
/// serial initiation and termination; only a Create's rounds relay — a
/// plain Create's, a 2PC Create's PREPAREs and DECIDEs.
#[derive(Debug, Clone)]
pub struct Round {
    /// Every target's ops, target after target: `targets[i].ops` of them
    /// each — a plain Create's `Create` per local file (the data file,
    /// then its redundancy companion if it has one), or a 2PC Create's
    /// one `Prepare` or one `Decide`.
    pub ops: Vec<LfsOp>,
    /// The targets to cover, the receiver first.
    pub targets: Vec<RelayTarget>,
    /// Whether each hop pays `create_init_cpu` per group it sends to and
    /// `create_ack_cpu` per reply it takes — Create's initiation and
    /// termination. A 2PC Create's decision round is not charged: it is
    /// the prepare round's cheap echo.
    pub charged: bool,
}

/// One node a [`Round`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayTarget {
    /// The node's fan-out agent, which relays a subtree headed there.
    pub agent: ProcId,
    /// The node's LFS server, which a leaf's ops go to.
    pub lfs: ProcId,
    /// Whether the round survives this node's column being lost (its LFS
    /// failed, or a freshly formatted spare that lacks the file).
    pub tolerant: bool,
    /// How many of the round's ops are this node's.
    pub ops: u32,
}

/// A [`Round`] under its request id.
pub type RelayRequest = Request<Round>;

impl Round {
    /// Wire size charged for the relay: it carries its (agent, LFS)
    /// pairs, each target's tolerance flag and op count in its pair's
    /// spare bits.
    pub fn wire_size(&self) -> usize {
        48 + 16 * self.targets.len()
    }
}

/// One request from the Bridge server or an agent to the LFS tier.
#[derive(Debug, Clone)]
pub enum TierCmd {
    /// An LFS operation straight to that LFS.
    Lfs(LfsOp),
    /// A subtree of a relayed round to its head's agent.
    Relay(Round),
}

/// The server's and the agents' traffic to the LFS tier as the
/// at-least-once engine sees it: an LFS operation is the LFS protocol
/// itself, and a relay hop is retried under the same policy and
/// deduplicated by each agent, which answers for its whole subtree as one
/// LFS would for itself — an [`LfsReply`](bridge_efs::LfsReply) carrying
/// the subtree's folded tally or its earliest veto. One reply type is
/// what lets a sender take both kinds of reply in one arrival-order wait.
#[derive(Debug)]
pub struct TierRpc;

impl RpcProtocol for TierRpc {
    type Cmd = TierCmd;
    type Data = LfsData;
    type Error = EfsError;

    fn name(cmd: &TierCmd) -> &'static str {
        match cmd {
            TierCmd::Lfs(op) => LfsRpc::name(op),
            TierCmd::Relay(_) => "bridge.relay",
        }
    }
    fn wire_size(cmd: &TierCmd) -> usize {
        match cmd {
            TierCmd::Lfs(op) => LfsRpc::wire_size(op),
            TierCmd::Relay(relay) => relay.wire_size(),
        }
    }
    /// An LFS operation goes out as the [`LfsRequest`](bridge_efs::LfsRequest)
    /// it is, a relay as a [`RelayRequest`].
    fn post(ctx: &mut Ctx, server: ProcId, id: u64, cmd: TierCmd) {
        let (bytes, low) = (Self::wire_size(&cmd), ctx.low_id());
        match cmd {
            TierCmd::Lfs(cmd) => ctx.send_sized_cloneable(server, Request { id, low, cmd }, bytes),
            TierCmd::Relay(cmd) => {
                ctx.send_sized_cloneable(server, Request { id, low, cmd }, bytes)
            }
        }
    }
    fn timed_out(attempts: u32) -> EfsError {
        EfsError::TimedOut { attempts }
    }
}

/// Wire size charged for a request; the 48-byte header holds the id and
/// the mark.
pub fn request_wire_size(cmd: &BridgeCmd) -> usize {
    match cmd {
        BridgeCmd::SeqWrite { data, .. } | BridgeCmd::RandWrite { data, .. } => 48 + data.len(),
        BridgeCmd::ParallelOpen { workers, .. } => 48 + workers.len() * 8,
        _ => 48,
    }
}

/// Wire size charged for a reply.
pub fn reply_wire_size(reply: &BridgeReply) -> usize {
    match &reply.result {
        Ok(BridgeData::Block(data)) => 48 + data.len(),
        Ok(BridgeData::Opened(info)) => 64 + info.nodes.len() * 24,
        Ok(BridgeData::Info(info)) => 48 + info.lfs.len() * 16,
        Ok(BridgeData::Health(h)) => 256 + h.lfs.len() * 128 + h.events.len() * 24,
        Ok(BridgeData::Manifest(m)) => {
            48 + m
                .files
                .iter()
                .map(|f| 28 + f.nodes.len() * 4)
                .sum::<usize>()
                + m.decisions.len() * 32
        }
        _ => 48,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_scale_with_payload() {
        let small = request_wire_size(&BridgeCmd::GetInfo);
        let write = request_wire_size(&BridgeCmd::SeqWrite {
            file: BridgeFileId(1),
            data: vec![0; 960].into(),
        });
        assert!(write > small + 900);

        let block = reply_wire_size(&BridgeReply {
            id: 1,
            result: Ok(BridgeData::Block(vec![0; 960].into())),
        });
        let done = reply_wire_size(&BridgeReply {
            id: 1,
            result: Ok(BridgeData::Eof),
        });
        assert!(block > done + 900);

        // A relay carries its (agent, LFS) pairs: 16 KB at p = 1024.
        let target = RelayTarget {
            agent: ProcId::from_index(0),
            lfs: ProcId::from_index(1),
            tolerant: false,
            ops: 1,
        };
        let relay = Round {
            ops: vec![LfsOp::Create { file: LfsFileId(1) }; 1024],
            targets: vec![target; 1024],
            charged: true,
        };
        assert_eq!(relay.wire_size(), 48 + 16 * 1024);
    }

    #[test]
    fn create_spec_default_is_round_robin_all_nodes() {
        let spec = CreateSpec::default();
        assert_eq!(spec.placement, PlacementSpec::RoundRobin);
        assert!(spec.nodes.is_none());
        assert!(spec.size_hint.is_none());
    }
}
