//! The Bridge Server process.
//!
//! "The Bridge Server is the interface between the Bridge file system and
//! user programs. Its function is to glue the local file systems together
//! into a single logical structure. In our implementation the Bridge
//! Server is a single centralized process" — as here. It owns the Bridge
//! directory (file id → constituent LFS files, placement, size), enforces
//! the monitor discipline around Create/Delete/Open, forwards naive
//! requests to the right LFS with disk-address hints, and runs
//! parallel-open jobs in lock-step waves of `p`.
//!
//! One module per stage a request passes through — `group`, `directory`,
//! `blockio`, `redundancy`, `txn`, `cursor`, `rebuild`, plus `agent` — and
//! one path per job: DESIGN.md §3 has the module map and the mode table.
//! Requests that queue while the server is busy are served together, as a
//! commit group (`group`, DESIGN.md §11).

mod agent;
mod blockio;
mod cursor;
mod directory;
mod group;
mod rebuild;
mod redundancy;
mod txn;

pub use agent::{fan_groups, spawn_bridge_agent};

use crate::error::BridgeError;
use crate::ids::{BridgeFileId, JobId};
use crate::placement::PlacementKind;
use crate::protocol::{
    reply_wire_size, BridgeCmd, BridgeData, BridgeReply, BridgeRequest, MachineInfo,
    MachineManifest, ManifestEntry,
};
use crate::redundancy::Redundancy;
use crate::txlog::TxLog;
use bridge_efs::{DedupWindow, RetryPolicy};
use bridge_trace::{HealthEvent, HealthSnapshot, ServerTelemetry, TelemetryRegistry};
use cursor::{Cursor, Job, PendingAppends};
use directory::FileMeta;
use group::{Host, Member, Outcome, Route};
use parsim::{Ctx, Envelope, FixedMap, NodeId, ProcId, SimDuration, SimTime, Simulation, TraceArg};
use simdisk::SchedPolicy;
use std::sync::Arc;

/// Tuning knobs for the Bridge Server.
///
/// The two `create_*` costs model the serial initiation and completion
/// handling the paper blames for Create's `145 + 17.5p` ms profile:
/// "initiation and termination are sequential, leading to an almost linear
/// increase in overhead for additional processors".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeServerConfig {
    /// CPU time charged to accept and decode any request.
    pub cpu_per_request: SimDuration,
    /// Serial CPU time to initiate one LFS operation during Create.
    pub create_init_cpu: SimDuration,
    /// Serial CPU time to process one LFS completion during Create.
    pub create_ack_cpu: SimDuration,
    /// The k of the k-nomial tree ([`fan_groups`]) each hop of Create's
    /// fan-out splits its targets by: a group of one is that node's LFS, a
    /// larger one goes to its first node's agent to split again, and a
    /// group of two is sent as two leaves, since a relay to two costs more
    /// than two sends. The default, 2, is the binomial tree — the paper's
    /// §4.5 "embedded binary tree", largest subtree first — which leaves a
    /// Create over four nodes or fewer (the sort tool's intermediate
    /// files) the serial sequence; [`SERIAL_ARITY`] spells the prototype's
    /// sequential initiation (Table 2's `145 + 17.5p`) at every breadth.
    pub create_arity: u32,
    /// Scatter-gather batching of the server's LFS traffic.
    pub batch: BatchPolicy,
    /// Timeout/retry policy for the server's and the agents' internal
    /// clients — on the LFS instances and, for Create's relay hops, on the
    /// agents. [`RetryPolicy::none`] — the default — waits indefinitely,
    /// the pre-retry behaviour; under a fault plan that drops that
    /// traffic, install [`RetryPolicy::standard`].
    pub lfs_retry: RetryPolicy,
    /// Redundancy applied to files whose [`CreateSpec`](crate::CreateSpec) asks for
    /// [`Redundancy::None`] (the spec default) — the machine-wide mode
    /// installed by [`BridgeConfig::with_redundancy`](crate::BridgeConfig::with_redundancy).
    pub default_redundancy: Redundancy,
}

/// Scatter-gather batching policy for server ↔ LFS traffic.
///
/// `Off` (the default) reproduces the prototype exactly: one LFS message
/// per block. `Runs(d)` lets sequential reads/appends, parallel-open
/// rounds and rebuilds pool up to `d` consecutive blocks per LFS into a
/// single `ReadRun`/`WriteRun` message, cutting both message counts and
/// per-request CPU charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchPolicy {
    /// One LFS message per block (the prototype's behaviour).
    #[default]
    Off,
    /// Pool up to this many consecutive blocks per LFS message.
    Runs(u32),
}

impl BatchPolicy {
    /// Maximum blocks per LFS message under this policy.
    pub fn depth(self) -> u32 {
        match self {
            BatchPolicy::Off => 1,
            BatchPolicy::Runs(d) => d.max(1),
        }
    }
}

/// The [`BridgeServerConfig::create_arity`] under which the server
/// initiates every LFS create itself, serially, as the prototype did: no
/// file spans more nodes, so every group of the fan-out is a single LFS.
pub const SERIAL_ARITY: u32 = u32::MAX;

impl Default for BridgeServerConfig {
    fn default() -> Self {
        BridgeServerConfig {
            cpu_per_request: SimDuration::from_millis(1),
            create_init_cpu: SimDuration::from_millis(9),
            create_ack_cpu: SimDuration::from_millis(8),
            create_arity: 2,
            batch: BatchPolicy::Off,
            lfs_retry: RetryPolicy::none(),
            default_redundancy: Redundancy::None,
        }
    }
}

struct Server {
    /// The round routine's wiring: each node's LFS and fan-out agent, and
    /// the server's one client to the LFS tier, which every LFS operation
    /// and Create's relay hops to the agents go through.
    tier: agent::Tier,
    my_node: NodeId,
    config: BridgeServerConfig,
    /// The request-scheduling policy the machine's LFS instances run
    /// (reported via `GetInfo`).
    sched: SchedPolicy,
    files: FixedMap<BridgeFileId, FileMeta>,
    cursors: FixedMap<(ProcId, BridgeFileId), Cursor>,
    jobs: FixedMap<JobId, Job>,
    next_file: u32,
    next_job: u64,
    next_start: u32,
    pending: Option<PendingAppends>,
    /// The presumed-abort decision log; `Some` lands every transaction —
    /// a Create, a Delete/DeleteMany, a redundant block write — by
    /// two-phase commit ([`Server::commit`]).
    txlog: Option<TxLog>,
    /// The last commit group's DECIDE round while its acks are out.
    parked: Option<txn::Parked>,
    /// The read round of the next commit group, sent under the last
    /// one's COMMIT force and not yet taken.
    carried: Option<blockio::ReadRound>,
    /// Next transaction id. Monotonic across the server's life — a
    /// modeling shortcut: the real coordinator would recover the high
    /// txn from its log, and [`TxLog::reseat`] shows where it would.
    next_txn: u64,
    /// The machine's live-telemetry registry (`None` = unarmed). Counter
    /// updates are host-side only and never touch virtual time.
    telemetry: Option<Arc<TelemetryRegistry>>,
}

/// Spawns the Bridge Server on `node`, gluing together the given LFS
/// server processes. `agents` are the per-node fan-out agents, one per
/// LFS. `txlog` is the coordinator's presumed-abort decision log; passing
/// `Some` routes every multi-instance mutation through two-phase commit
/// over the per-LFS WALs (which every instance must then run). Returns
/// the server's process id.
#[allow(clippy::too_many_arguments)]
pub fn spawn_bridge_server(
    sim: &mut Simulation,
    node: NodeId,
    name: impl Into<String>,
    lfs: Vec<(ProcId, NodeId)>,
    agents: Vec<ProcId>,
    config: BridgeServerConfig,
    sched: SchedPolicy,
    txlog: Option<TxLog>,
    telemetry: Option<Arc<TelemetryRegistry>>,
) -> ProcId {
    assert!(!lfs.is_empty(), "a Bridge machine needs at least one LFS");
    assert_eq!(agents.len(), lfs.len(), "agents must be one per LFS");
    sim.spawn(node, name, move |ctx| {
        let mut server = Server {
            tier: agent::Tier::new(lfs, agents, config),
            my_node: ctx.node(),
            config,
            sched,
            files: FixedMap::default(),
            cursors: FixedMap::default(),
            jobs: FixedMap::default(),
            next_file: 1,
            next_job: 1,
            next_start: 0,
            pending: None,
            txlog,
            parked: None,
            carried: None,
            next_txn: 1,
            telemetry,
        };
        let mut front = Front::default();
        loop {
            let (from, req) = match front.next.take() {
                Some(taken) => taken,
                None => {
                    let stashed = ctx.take_stashed(|e| e.is::<BridgeRequest>());
                    let env = stashed.unwrap_or_else(|| {
                        server.settle_decisions(ctx);
                        ctx.recv_where(|e| e.is::<BridgeRequest>())
                    });
                    match front.admit(&server, ctx, env) {
                        Some(new) => new,
                        None => continue,
                    }
                }
            };
            let member = Member::of(from, &req, ctx.now());
            match server.route(&req.cmd) {
                Route::Alone => {
                    server.settle_decisions(ctx);
                    let result = server.dispatch(ctx, from, req.cmd);
                    front.answer(&server, ctx, &member, result);
                }
                Route::Rounds { files, shared } => {
                    let joined = if shared {
                        front.gather(&server, ctx, files)
                    } else {
                        Vec::new()
                    };
                    let mut members = vec![(member, req.cmd)];
                    members.extend(joined);
                    server.serve_group(ctx, &mut front, members, shared);
                }
            }
            let parked = server.parked.as_ref().map_or(0, |p| p.round.ids().count());
            debug_assert_eq!(ctx.open_ids(), parked, "serving left an LFS call open");
        }
    })
}

/// The server's front door: the dedup window every request passes, and
/// the request taken from the stash that could not join the group before
/// it, which is served next.
#[derive(Default)]
struct Front {
    /// Duplicate suppression for retransmitted requests: a retransmit
    /// finds its original's recorded reply here, or — a second delivery
    /// stashed beside its original — is dropped while the original is
    /// served.
    dedup: DedupWindow<BridgeReply>,
    next: Option<(ProcId, BridgeRequest)>,
}

impl Front {
    /// Charges a request taken from the mailbox or the stash its CPU and
    /// admits it through the dedup window: `Some` if it is new. A
    /// duplicate is settled there — answered from the window, or dropped
    /// when nobody awaits an answer.
    fn admit(
        &mut self,
        server: &Server,
        ctx: &mut Ctx,
        env: Envelope,
    ) -> Option<(ProcId, BridgeRequest)> {
        let from = env.from();
        let req = env.downcast::<BridgeRequest>().expect("matched type");
        ctx.delay(server.config.cpu_per_request);
        match self.dedup.admit_or_settle(ctx, from, req, reply_wire_size) {
            Ok(req) => Some((from, req)),
            Err(replayed) => {
                if replayed {
                    server.tally(|s| s.replays += 1);
                }
                None
            }
        }
    }
}

impl Host for Front {
    type Member = Member;

    /// Closes the member's `bridge` span, records its reply in the dedup
    /// window, and sends it.
    fn answer(&mut self, server: &Server, ctx: &mut Ctx, member: &Member, result: Outcome) {
        let Member { from, id, name, t0 } = *member;
        trace_served(ctx, name, t0, result.is_ok(), id, from);
        let reply = BridgeReply { id, result };
        self.dedup.answer(ctx, from, reply, reply_wire_size);
        let occupancy = self.dedup.len() as u64;
        server.tally(|s| s.note_request(occupancy, server.tier.client.resends()));
    }

    /// Takes the stashed requests in arrival order, each joining while it
    /// may share a group and names no file another member does; the first
    /// that cannot is served next, and nothing is gathered past it.
    fn gather(
        &mut self,
        server: &Server,
        ctx: &mut Ctx,
        busy: &[BridgeFileId],
    ) -> Vec<(Member, BridgeCmd)> {
        let mut files = busy.to_vec();
        let mut joined = Vec::new();
        while self.next.is_none() {
            let Some(env) = ctx.take_stashed(|e| e.is::<BridgeRequest>()) else {
                break;
            };
            let Some((from, req)) = self.admit(server, ctx, env) else {
                continue;
            };
            match server.route(&req.cmd) {
                Route::Rounds {
                    files: named,
                    shared: true,
                } if !named.iter().any(|f| files.contains(f)) => {
                    files.extend_from_slice(named);
                    joined.push((Member::of(from, &req, ctx.now()), req.cmd));
                }
                _ => self.next = Some((from, req)),
            }
        }
        joined
    }
}

/// Closes the `bridge` span of a request the server or an agent has just
/// served. The profiler pairs it with the caller's `client.*` span by
/// `(id, client)`; `stashed` is the serving process's set-aside mail, which
/// a dispatch that consumed every reply it asked for leaves where it was.
fn trace_served(ctx: &Ctx, name: &str, t0: SimTime, ok: bool, id: u64, client: ProcId) {
    if ctx.trace_enabled() {
        let args = [
            ("ok", u64::from(ok)),
            ("id", id),
            ("client", client.index() as u64),
            ("stashed", ctx.stashed() as u64),
        ];
        ctx.trace_span("bridge", name, t0, &args);
    }
}

impl Server {
    /// Runs `update` on the server's telemetry under its lock; `None`
    /// (and nothing run) on an unarmed machine. Host-side only — never
    /// touches virtual time.
    fn tally<R>(&self, update: impl FnOnce(&mut ServerTelemetry) -> R) -> Option<R> {
        self.telemetry.as_ref().map(|reg| update(&mut reg.server()))
    }

    /// States a health event once: appended to the machine's journal, if
    /// armed, and — where the trace names the same fact — emitted as the
    /// trace instant made from the same value (`only_traced` adds what
    /// the journal does not keep), so the two cannot drift.
    fn journal(&self, ctx: &Ctx, event: HealthEvent) {
        self.journal_and_trace(ctx, event, &[]);
    }

    /// [`Server::journal`] with arguments only the trace instant carries.
    fn journal_and_trace(&self, ctx: &Ctx, event: HealthEvent, only_traced: &[TraceArg]) {
        if ctx.trace_enabled() {
            match event {
                HealthEvent::TxnInDoubt { txn } => {
                    ctx.trace_instant("2pc", "2pc.presume_abort", &[("txn", txn)])
                }
                HealthEvent::RebuildChunk {
                    file, done, total, ..
                } => {
                    let mut args = vec![("file", file), ("done", done), ("total", total)];
                    args.extend_from_slice(only_traced);
                    ctx.trace_instant("redundancy", "redundancy.rebuild_progress", &args)
                }
                _ => {}
            }
        }
        if let Some(reg) = &self.telemetry {
            reg.record_event(ctx.now(), event);
        }
    }

    fn breadth(&self) -> u32 {
        self.tier.lfs.len() as u32
    }

    /// Maximum blocks per LFS message under the machine's batch policy.
    fn depth(&self) -> u32 {
        self.config.batch.depth()
    }

    fn meta(&mut self, file: BridgeFileId) -> Result<&mut FileMeta, BridgeError> {
        self.files
            .get_mut(&file)
            .ok_or(BridgeError::UnknownFile(file))
    }

    /// The directory record of a file the caller has already validated.
    fn file_mut(&mut self, file: BridgeFileId) -> &mut FileMeta {
        self.files.get_mut(&file).expect("exists")
    }

    fn dispatch(
        &mut self,
        ctx: &mut Ctx,
        from: ProcId,
        cmd: BridgeCmd,
    ) -> Result<BridgeData, BridgeError> {
        // Buffered appends survive only an unbroken train of SeqWrites to
        // the same file; anything else sees fully flushed state.
        let buffering = matches!(
            (&cmd, &self.pending),
            (BridgeCmd::SeqWrite { file, .. }, Some(p)) if *file == p.file
        );
        if !buffering {
            self.flush_appends(ctx)?;
        }
        match cmd {
            BridgeCmd::Create(_) | BridgeCmd::Delete { .. } | BridgeCmd::DeleteMany { .. } => {
                unreachable!("Creates and Deletes are served in the rounds (`Server::route`)")
            }
            BridgeCmd::Open { file } => self.open(ctx, from, file),
            BridgeCmd::SeqRead { file } => self.seq_read(ctx, from, file),
            BridgeCmd::SeqWrite { file, data } => self.seq_write(ctx, file, data),
            // Strictly placed files' reads and block writes go through
            // the commit-group rounds (`Server::route`); these serve the
            // rest.
            BridgeCmd::RandRead { file, block } => self.rand_read(ctx, file, block),
            BridgeCmd::RandWrite { file, block, data } => self.rand_write(ctx, file, block, &data),
            BridgeCmd::ParallelOpen { file, workers } => self.parallel_open(from, file, workers),
            BridgeCmd::JobRead { job } => self.job_read(ctx, from, job),
            BridgeCmd::JobWrite { job } => self.job_write(ctx, from, job),
            BridgeCmd::JobClose { job } => self.job_close(from, job),
            BridgeCmd::Rebuild { file } => self.rebuild_range(ctx, file, 0, u64::MAX),
            BridgeCmd::RebuildRange { file, first, count } => {
                self.rebuild_range(ctx, file, first, count)
            }
            BridgeCmd::GetInfo => Ok(BridgeData::Info(MachineInfo {
                breadth: self.breadth(),
                lfs: self.tier.lfs.clone(),
                server_node: self.my_node,
                sched: self.sched,
            })),
            BridgeCmd::GetHealth => Ok(BridgeData::Health(Box::new(self.health_snapshot(ctx)))),
            BridgeCmd::GetManifest => Ok(BridgeData::Manifest(self.manifest())),
        }
    }

    /// Assembles the in-band health snapshot. The retransmit total is
    /// published after every dispatch; it is refreshed here for the
    /// resends of the append flush this very dispatch may have run.
    /// Unarmed machines answer an empty snapshot rather than an error,
    /// so polling tools need no mode flag.
    fn health_snapshot(&self, ctx: &Ctx) -> HealthSnapshot {
        match &self.telemetry {
            Some(reg) => {
                reg.server().lfs_resends = self.tier.client.resends();
                reg.snapshot(ctx.now(), None)
            }
            None => HealthSnapshot::empty(ctx.now()),
        }
    }

    /// The directory as [`ManifestEntry`] claims plus the decision log's
    /// history, for `pfsck`'s machine-wide pass.
    fn manifest(&self) -> MachineManifest {
        let mut files: Vec<ManifestEntry> = self
            .files
            .iter()
            .map(|(&file, meta)| ManifestEntry {
                file,
                lfs_file: meta.lfs_file,
                companion: meta.companion(),
                redundancy: meta.redundancy,
                size: meta.size,
                start: match meta.placement.kind() {
                    PlacementKind::RoundRobin { start } => start,
                    _ => 0,
                },
                nodes: meta.nodes.clone(),
            })
            .collect();
        files.sort_by_key(|e| e.file);
        MachineManifest {
            breadth: self.breadth(),
            files,
            decisions: self
                .txlog
                .as_ref()
                .map(|log| log.decisions())
                .unwrap_or_default(),
        }
    }
}
