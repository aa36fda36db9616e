//! # bridge-core — the Bridge parallel file system
//!
//! A reproduction of *Bridge: A High-Performance File System for Parallel
//! Processors* (Dibble, Ellis, Scott; ICDCS 1988). Bridge distributes each
//! file's blocks round-robin across `p` local file systems — an
//! *interleaved file* — and exposes three views:
//!
//! 1. a **naive sequential interface** (open/read/write) for programs that
//!    neither know nor care about the interleaving;
//! 2. a **parallel-open interface** that moves `t` blocks per operation to
//!    a job's workers in lock step, simulating any degree of parallelism;
//! 3. a **tool interface**: `Get Info` and `Open` expose the constituent
//!    LFS files so an application can *become part of the file system*,
//!    exporting its code to the processors that hold the data.
//!
//! The crate provides the Bridge Server ([`spawn_bridge_server`]), typed
//! clients ([`BridgeClient`], [`JobWorker`]), the placement algebra
//! ([`Placement`]), the 40-byte Bridge block header with global pointers,
//! and a [`BridgeMachine`] builder that stands up a whole simulated
//! multiprocessor.
//!
//! ## Example
//!
//! ```
//! use bridge_core::{BridgeClient, BridgeConfig, BridgeMachine, CreateSpec};
//!
//! let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::paper(4));
//! let server = machine.server;
//! let text = sim.block_on(machine.frontend, "app", move |ctx| {
//!     let mut bridge = BridgeClient::new(server);
//!     let file = bridge.create(ctx, CreateSpec::default())?;
//!     bridge.seq_write(ctx, file, b"block zero".to_vec())?;
//!     bridge.seq_write(ctx, file, b"block one".to_vec())?;
//!     bridge.open(ctx, file)?; // reset the cursor
//!     let block = bridge.seq_read(ctx, file)?.expect("has data");
//!     Ok::<_, bridge_core::BridgeError>(block)
//! }).unwrap();
//! assert_eq!(&text[..10], b"block zero");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod error;
mod header;
mod ids;
mod machine;
mod placement;
mod protocol;
mod redundancy;
mod server;
mod txlog;

pub use client::{BridgeClient, JobWorker};
pub use error::BridgeError;
pub use header::{
    decode_payload, encode_payload, BridgeHeader, GlobalPtr, BRIDGE_DATA, BRIDGE_HEADER_SIZE,
    BRIDGE_MAGIC,
};
pub use ids::{BridgeFileId, JobId, LfsIndex};
pub use machine::{BridgeConfig, BridgeMachine};
pub use placement::{Placement, PlacementCursor, PlacementKind};
pub use protocol::{
    reply_wire_size, request_wire_size, BridgeCmd, BridgeData, BridgeReply, BridgeRequest,
    CreateSpec, JobDeliver, JobRequest, JobSupply, LfsSlice, MachineInfo, MachineManifest,
    ManifestEntry, OpenInfo, PlacementSpec, RelayRequest, RelayTarget, Round, TierCmd, TierRpc,
};
pub use redundancy::{xor_into, ParityLayout, Redundancy};
pub use server::{
    fan_groups, spawn_bridge_agent, spawn_bridge_server, BatchPolicy, BridgeServerConfig,
    SERIAL_ARITY,
};
pub use txlog::{LoggedDecision, TxLog, TxParticipant, TxRecord, TXLOG_MAGIC};
// Re-exported so machine builders can set a policy without naming simdisk.
pub use simdisk::{SchedConfig, SchedPolicy};
// Re-exported so applications can install client retries (and fault plans
// via `BridgeConfig::faults`) without naming the lower crates.
pub use bridge_efs::RetryPolicy;
pub use parsim::{DiskLost, FaultPlan, MsgFaults, Outage, OutageKind};
// Re-exported so health pollers can name the snapshot types without
// depending on bridge-trace directly.
pub use bridge_trace::{HealthSnapshot, TelemetryRegistry, WatchdogConfig};
