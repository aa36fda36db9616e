//! Virtual-time tracing hooks.
//!
//! A [`Tracer`] installed on a [`Simulation`](crate::Simulation) observes
//! the run as it unfolds: scheduler run intervals, message send/receive
//! pairs, and any spans or instants the simulated code itself emits
//! through [`Ctx`](crate::Ctx). All timestamps are *virtual* times, so a
//! trace is a faithful picture of the model, not of host scheduling.
//!
//! The contract that keeps traces trustworthy:
//!
//! * **Observation only.** A tracer receives shared references and returns
//!   nothing; it cannot steer the simulation. A run with tracing enabled
//!   must produce bit-identical [`RunStats`](crate::RunStats) and virtual
//!   end time to the same run with tracing off.
//! * **Cheap when off.** The default tracer is [`NopTracer`]; every
//!   emission site is gated on [`Tracer::enabled`], so a disabled tracer
//!   costs one virtual call (or less) per potential event and allocates
//!   nothing.
//! * **Single-threaded delivery.** Exactly one simulated process executes
//!   at any instant, all on the scheduler's thread, so tracer callbacks
//!   are never concurrent. The `Send + Sync` bound lets a collector be
//!   shared as an `Arc` and read from any host thread once the run is
//!   over.
//!
//! Exporters (Chrome trace-event JSON, metrics registries) live in the
//! `bridge-trace` crate; `parsim` defines only the hook.

use crate::process::ProcId;
use crate::time::SimTime;
use crate::topology::NodeId;
use std::fmt;
use std::sync::Arc;

/// A numeric annotation attached to a span or instant (e.g. blocks
/// transferred, track loads, bytes). Kept to integers so emission never
/// allocates and exporters can aggregate without parsing.
pub type TraceArg = (&'static str, u64);

/// A shared, thread-safe tracer installed on a simulation.
pub type TracerHandle = Arc<dyn Tracer>;

/// Observer of virtual-time events. All methods default to no-ops so
/// implementations override only what they record.
///
/// Categories used by the Bridge reproduction (exporters key off them):
/// `"sched"` (scheduler run intervals), `"msg"` (interconnect flows),
/// `"disk"` (device service intervals), `"lfs"` (EFS request service),
/// `"bridge"` (Bridge Server requests), `"tool"` (tool phases).
pub trait Tracer: Send + Sync + fmt::Debug {
    /// Global gate: when `false`, emission sites skip event construction
    /// entirely. Implementations should make this a constant or a relaxed
    /// atomic load.
    fn enabled(&self) -> bool;

    /// A node was added to the simulation.
    fn node_named(&self, node: NodeId, name: &str) {
        let _ = (node, name);
    }

    /// A process was spawned on `node`.
    fn proc_named(&self, pid: ProcId, node: NodeId, name: &str) {
        let _ = (pid, node, name);
    }

    /// A completed span of virtual time attributed to `pid`.
    ///
    /// Spans emitted by one process are properly nested (they mirror its
    /// call stack); spans of different processes may overlap freely.
    fn span(
        &self,
        pid: ProcId,
        cat: &'static str,
        name: &str,
        start: SimTime,
        end: SimTime,
        args: &[TraceArg],
    ) {
        let _ = (pid, cat, name, start, end, args);
    }

    /// A zero-duration marker attributed to `pid`.
    fn instant(&self, pid: ProcId, cat: &'static str, name: &str, at: SimTime, args: &[TraceArg]) {
        let _ = (pid, cat, name, at, args);
    }

    /// A message left `from` for `to` at virtual time `at`. `id` is unique
    /// per message and pairs this event with its [`Tracer::flow_recv`].
    ///
    /// Besides every posted message (request, reply, and retry-resend legs
    /// alike), the scheduler emits a zero-byte flow for each process spawn,
    /// from the parent at spawn time to the child at its `Start` event, so
    /// causal analyses can reach spawned processes from their spawner.
    fn flow_send(&self, id: u64, from: ProcId, to: ProcId, at: SimTime, bytes: usize) {
        let _ = (id, from, to, at, bytes);
    }

    /// The message `id` reached `to`'s mailbox at virtual time `at`. For
    /// spawn flows this is the child's start time.
    fn flow_recv(&self, id: u64, from: ProcId, to: ProcId, at: SimTime) {
        let _ = (id, from, to, at);
    }
}

/// The default tracer: permanently disabled, records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NopTracer;

impl Tracer for NopTracer {
    fn enabled(&self) -> bool {
        false
    }
}

/// A fresh handle to the no-op tracer.
pub fn nop_tracer() -> TracerHandle {
    Arc::new(NopTracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_tracer_is_disabled_and_inert() {
        let t = nop_tracer();
        assert!(!t.enabled());
        // Default methods accept events without effect.
        t.node_named(NodeId(0), "n");
        t.proc_named(ProcId(0), NodeId(0), "p");
        t.span(ProcId(0), "disk", "x", SimTime::ZERO, SimTime::ZERO, &[]);
        t.instant(ProcId(0), "disk", "x", SimTime::ZERO, &[("a", 1)]);
        t.flow_send(1, ProcId(0), ProcId(1), SimTime::ZERO, 10);
        t.flow_recv(1, ProcId(0), ProcId(1), SimTime::ZERO);
    }
}
