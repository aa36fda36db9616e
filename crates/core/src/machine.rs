//! Building a whole Bridge machine inside a simulation.
//!
//! Reproduces the paper's Figure 2 hardware layout: `p` processing nodes,
//! each with its own simulated disk and LFS server process, plus one node
//! running the centralized Bridge Server; all connected by a uniform
//! interconnect.

use crate::redundancy::Redundancy;
use crate::server::{spawn_bridge_agent, spawn_bridge_server, BridgeServerConfig, SERIAL_ARITY};
use crate::txlog::TxLog;
use bridge_efs::{spawn_lfs_sched, Efs, EfsConfig, RetryPolicy};
use bridge_trace::TelemetryRegistry;
use parsim::{
    FaultPlan, NodeId, ProcId, SimConfig, SimDuration, Simulation, TracerHandle, UniformLatency,
    SERVER_DISK,
};
use simdisk::{
    CrashSchedule, DiskFaultState, DiskGeometry, DiskProfile, LossSchedule, SchedConfig, SimDisk,
};
use std::sync::Arc;

/// Everything needed to stand up a Bridge machine.
#[derive(Debug, Clone)]
pub struct BridgeConfig {
    /// Number of LFS instances / disks (the paper's `p`).
    pub breadth: u32,
    /// Disk layout per node.
    pub disk_geometry: DiskGeometry,
    /// Disk timing per node.
    pub disk_profile: DiskProfile,
    /// EFS tuning per node.
    pub efs: EfsConfig,
    /// Bridge Server tuning.
    pub server: BridgeServerConfig,
    /// Interconnect latency model.
    pub latency: UniformLatency,
    /// Write-behind queue depth per disk (`None` = synchronous
    /// write-through, the prototype's behaviour; `Some(d)` models the
    /// paper's §6 assumption that LFS instances perform write-behind).
    pub write_behind: Option<u32>,
    /// Per-LFS request scheduling (policy + aging bound). The default,
    /// [`SchedConfig::fifo`], is the prototype's arrival-order service;
    /// other policies reorder pending requests by head distance while
    /// preserving per-(client, file) order.
    pub sched: SchedConfig,
    /// Simulation seed (determinism).
    pub seed: u64,
    /// Optional virtual-time tracer (see the `bridge-trace` crate).
    /// `None` installs the no-op tracer; tracing never changes timing.
    pub tracer: Option<TracerHandle>,
    /// Deterministic fault plan. [`FaultPlan::none`] (the default)
    /// installs no fault state anywhere — the machine takes the exact
    /// pre-fault-layer code path. The plan's `disk` section is keyed by
    /// LFS ordinal: [`BlockFaultRule::disk`](parsim::BlockFaultRule) `i`
    /// targets the disk of `lfs[i]`. Plans that drop or duplicate
    /// messages need retrying clients: set
    /// [`BridgeServerConfig::lfs_retry`] for the server↔LFS leg and use
    /// [`BridgeClient::with_retry`](crate::BridgeClient::with_retry) for
    /// the application leg.
    pub faults: FaultPlan,
    /// Give the server a decision log on its own disk and route every
    /// multi-instance mutation through presumed-abort two-phase commit
    /// (see [`TxLog`]). Off by default: without it the machine takes the
    /// exact pre-2PC code path, bit for bit. Implies per-LFS WALs — the
    /// participants' PREPARE records live there — so enable via
    /// [`BridgeConfig::with_2pc`].
    pub two_pc: bool,
    /// Arm the live telemetry registry ([`TelemetryRegistry`]): the
    /// counters every layer updates in place, pollable mid-run via
    /// [`BridgeCmd::GetHealth`](crate::BridgeCmd::GetHealth). On by
    /// default — updating counters is host-side work only, so an armed
    /// but unpolled machine produces bit-identical
    /// [`RunStats`](parsim::RunStats) to a disarmed one.
    pub telemetry: bool,
}

impl BridgeConfig {
    /// The paper's experimental setup with `breadth` nodes: Wren-class
    /// disks, 64 MB each, default EFS and server constants.
    pub fn paper(breadth: u32) -> Self {
        BridgeConfig {
            breadth,
            disk_geometry: DiskGeometry::default(),
            disk_profile: DiskProfile::wren(),
            efs: EfsConfig::default(),
            server: BridgeServerConfig::default(),
            latency: UniformLatency::default(),
            write_behind: None,
            sched: SchedConfig::fifo(),
            seed: 0x00B2_1D6E,
            tracer: None,
            faults: FaultPlan::none(),
            two_pc: false,
            telemetry: true,
        }
    }

    /// A functional-test setup: free disks and interconnect, so tests
    /// exercise logic without burning virtual (or wall) time.
    pub fn instant(breadth: u32) -> Self {
        BridgeConfig {
            breadth,
            disk_geometry: DiskGeometry {
                block_size: 1024,
                blocks_per_track: 8,
                tracks: 512,
            },
            disk_profile: DiskProfile::instant(),
            efs: EfsConfig {
                cpu_per_request: SimDuration::ZERO,
                ..EfsConfig::default()
            },
            server: BridgeServerConfig {
                cpu_per_request: SimDuration::ZERO,
                create_init_cpu: SimDuration::ZERO,
                create_ack_cpu: SimDuration::ZERO,
                ..BridgeServerConfig::default()
            },
            latency: UniformLatency::constant(SimDuration::ZERO),
            write_behind: None,
            sched: SchedConfig::fifo(),
            seed: 0x00B2_1D6E,
            tracer: None,
            faults: FaultPlan::none(),
            two_pc: false,
            telemetry: true,
        }
    }

    /// `self` with fault plan `faults` and [`RetryPolicy::standard`] on
    /// the server's internal LFS clients — the one-liner chaos tests and
    /// benches use to fault an otherwise stock machine.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self.server.lfs_retry = RetryPolicy::standard();
        self
    }

    /// `self` as the prototype the paper measured: Create's fan-out at
    /// [`SERIAL_ARITY`], the server initiating every LFS create itself —
    /// Table 2's `145 + 17.5p`. What anything pinning the paper's own
    /// numbers builds on, whatever the stock arity is.
    pub fn with_serial_create(mut self) -> Self {
        self.server.create_arity = SERIAL_ARITY;
        self
    }

    /// `self` with the standard per-LFS write-ahead log
    /// ([`WalConfig::standard`](bridge_efs::WalConfig::standard)): every
    /// mutating operation's intent record is group-committed to a log
    /// ring on the node's own disk before the operation is acknowledged,
    /// which is what makes crash faults
    /// ([`CrashAt`](parsim::CrashAt)) survivable without losing
    /// acknowledged writes.
    pub fn with_wal(mut self) -> Self {
        self.efs.wal = bridge_efs::WalConfig::standard();
        self
    }

    /// `self` with machine-wide atomicity: [`with_wal`](Self::with_wal)
    /// plus a presumed-abort two-phase commit coordinator in the server,
    /// logging its decisions to a ring on the server node's own disk.
    /// Every Create and Delete/DeleteMany then either lands on all of a
    /// file's placement nodes or on none, across any crash point —
    /// participant or coordinator.
    pub fn with_2pc(mut self) -> Self {
        self = self.with_wal();
        self.two_pc = true;
        self
    }

    /// `self` creating every file with redundancy `r` unless the
    /// [`CreateSpec`](crate::CreateSpec) overrides it. Redundant
    /// mutations only survive crashes atomically (data and its mirror or
    /// parity never diverge) when combined with
    /// [`with_2pc`](Self::with_2pc).
    pub fn with_redundancy(mut self, r: Redundancy) -> Self {
        self.server.default_redundancy = r;
        self
    }
}

impl Default for BridgeConfig {
    fn default() -> Self {
        BridgeConfig::paper(8)
    }
}

/// Handles to a built Bridge machine.
#[derive(Debug)]
pub struct BridgeMachine {
    /// The Bridge Server process.
    pub server: ProcId,
    /// The node the server runs on.
    pub server_node: NodeId,
    /// LFS server processes, by machine index.
    pub lfs: Vec<ProcId>,
    /// The node of each LFS instance, by machine index.
    pub lfs_nodes: Vec<NodeId>,
    /// Per-node fan-out agents (the inner nodes of Create's fan-out).
    pub agents: Vec<ProcId>,
    /// A spare node for application / tool controller processes (a
    /// "front-end" not holding any disk).
    pub frontend: NodeId,
    /// The live-telemetry registry all layers update in place (`None`
    /// when the machine was built with `telemetry: false`). Host-side
    /// handle: read it between [`Simulation`] steps, or poll in-band via
    /// [`BridgeCmd::GetHealth`](crate::BridgeCmd::GetHealth).
    pub telemetry: Option<Arc<TelemetryRegistry>>,
}

impl BridgeMachine {
    /// The machine's breadth (p).
    pub fn breadth(&self) -> u32 {
        self.lfs.len() as u32
    }

    /// Builds a fresh simulation plus machine from `config`.
    pub fn build(config: &BridgeConfig) -> (Simulation, BridgeMachine) {
        let mut sim = Simulation::new(SimConfig {
            latency: Box::new(config.latency),
            seed: config.seed,
            tracer: config.tracer.clone(),
            faults: config.faults.clone(),
        });
        let machine = BridgeMachine::build_in(&mut sim, config);
        (sim, machine)
    }

    /// Builds a machine inside an existing simulation.
    ///
    /// # Panics
    ///
    /// Panics if `config.breadth` is zero.
    pub fn build_in(sim: &mut Simulation, config: &BridgeConfig) -> BridgeMachine {
        assert!(
            config.breadth > 0,
            "a Bridge machine needs at least one LFS"
        );
        let server_node = sim.add_node("bridge-server");
        let frontend = sim.add_node("frontend");
        let telemetry = config
            .telemetry
            .then(|| Arc::new(TelemetryRegistry::new(config.breadth)));
        let mut lfs = Vec::with_capacity(config.breadth as usize);
        let mut lfs_nodes = Vec::with_capacity(config.breadth as usize);
        let mut agents = Vec::with_capacity(config.breadth as usize);
        for i in 0..config.breadth {
            let node = sim.add_node(format!("p{i}"));
            let mut disk = SimDisk::new(config.disk_geometry, config.disk_profile);
            if let Some(depth) = config.write_behind {
                disk.enable_write_behind(depth);
            }
            disk.inject_faults(DiskFaultState::from_plan(
                &config.faults.disk,
                config.faults.seed,
                i,
            ));
            disk.schedule_crashes(CrashSchedule::from_plan(&config.faults.crashes, i));
            disk.schedule_loss(LossSchedule::from_plan(&config.faults.losses, i));
            let mut efs = Efs::format(disk, config.efs);
            if let Some(reg) = &telemetry {
                efs.set_telemetry(Arc::clone(reg), i);
            }
            let proc = spawn_lfs_sched(sim, node, format!("lfs{i}"), efs, config.sched);
            agents.push(spawn_bridge_agent(
                sim,
                node,
                format!("agent{i}"),
                config.server,
            ));
            lfs.push(proc);
            lfs_nodes.push(node);
        }
        let pairs: Vec<(ProcId, NodeId)> =
            lfs.iter().copied().zip(lfs_nodes.iter().copied()).collect();
        let txlog = config.two_pc.then(|| {
            // The coordinator's decision log rides its own small disk on
            // the server node; crash plans address it as [`SERVER_DISK`],
            // so LFS-ordinal rules never alias it.
            let mut disk = SimDisk::new(TxLog::geometry(), config.disk_profile);
            disk.schedule_crashes(CrashSchedule::from_plan(
                &config.faults.crashes,
                SERVER_DISK,
            ));
            TxLog::format(disk)
        });
        let server = spawn_bridge_server(
            sim,
            server_node,
            "bridge-server",
            pairs,
            agents.clone(),
            config.server,
            config.sched.policy,
            txlog,
            telemetry.clone(),
        );
        BridgeMachine {
            server,
            server_node,
            lfs,
            lfs_nodes,
            agents,
            frontend,
            telemetry,
        }
    }
}
