//! # parsim — a deterministic multiprocessor simulator
//!
//! `parsim` is the substrate on which the Bridge parallel file system
//! reproduction runs. The original Bridge prototype ran on a BBN Butterfly:
//! one process per node, message passing over shared-memory atomic queues,
//! and disks *simulated in memory* with a sleep standing in for seek and
//! rotational delay. `parsim` recreates that environment as a discrete-event
//! simulation:
//!
//! * Every simulated process runs ordinary Rust code, so file-system
//!   servers and tools are written exactly like the paper's pseudo-code
//!   (loops around `recv`/`send`), not as state machines. Each process
//!   executes on a stackful fiber on the scheduler's own thread
//!   ([`Engine::RunToCompletion`]) — one event dispatch is a pair of
//!   register-window swaps, which is what lets machines of 1024 simulated
//!   processors run in seconds. The fibers are written for x86-64 and
//!   aarch64.
//! * Blocking operations advance a *virtual* clock instead of wall time, so
//!   experiments the paper ran for six hours replay in seconds.
//! * Exactly one process executes at any instant and events are ordered by
//!   (virtual time, sequence number), so runs are deterministic.
//!
//! ## Example
//!
//! ```
//! use parsim::{SimConfig, SimDuration, Simulation};
//!
//! let mut sim = Simulation::new(SimConfig::default());
//! let node = sim.add_node("cpu0");
//! let disk_like = sim.spawn(node, "server", |ctx| {
//!     // A toy server: every request costs 15ms of "device time".
//!     while ctx.stashed() > 0 || true {
//!         let (client, n) = ctx.recv_as::<u64>();
//!         ctx.delay(SimDuration::from_millis(15));
//!         ctx.send(client, n * 2);
//!         if n == 3 {
//!             break;
//!         }
//!     }
//! });
//! let answers = sim.block_on(node, "client", move |ctx| {
//!     (1..=3u64)
//!         .map(|n| {
//!             ctx.send(disk_like, n);
//!             ctx.recv_as::<u64>().1
//!         })
//!         .collect::<Vec<_>>()
//! });
//! assert_eq!(answers, vec![2, 4, 6]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod envelope;
mod fault;
mod fiber;
mod hash;
mod process;
mod scheduler;
mod time;
mod topology;
pub mod trace;

pub use envelope::Envelope;
pub use fault::{
    mix64, splitmix64, BlockFaultRule, CrashAt, DiskFaults, DiskLost, FaultPlan, MsgFaults, Outage,
    OutageKind, SERVER_DISK,
};
pub use hash::{FixedHasher, FixedMap, FixedSet, FixedState};
pub use process::{Ctx, ProcFn, ProcId};
pub use scheduler::{Engine, RunStats, SimConfig, Simulation};
pub use time::{SimDuration, SimTime};
pub use topology::{LatencyModel, NodeId, UniformLatency, ZeroLatency};
pub use trace::{nop_tracer, NopTracer, TraceArg, Tracer, TracerHandle};
