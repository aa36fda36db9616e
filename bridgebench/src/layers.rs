//! The adapter: this module (this file and `layers/`) is the only code in
//! the benchmark that names a repository API, and it keeps to a pinned
//! surface — `Simulation`/`Ctx`, `SimDisk::{read, write, read_many,
//! write_many}`, `Efs::{format, create, read, write, read_run, write_run,
//! delete, commit, stats}`, `spawn_lfs_sched` + `LfsClient::call`,
//! `BridgeConfig`/`BridgeMachine`/`BridgeClient`,
//! `bridge_tools::{copy, sort, pfsck}`, `TraceCollector`/`ProfileReport`
//! and the telemetry snapshot. A refactor that moves one of these breaks
//! the benchmark here and nowhere else.
//!
//! Everything that crosses this boundary outward is plain data: counts,
//! nanoseconds, named metric values.

mod ledger;
mod probe;
mod workloads;

pub use ledger::ledger;
pub use probe::{categories, counters, TRACE_SHRINK};
pub use workloads::Round;

use parsim::{Engine, Simulation};

/// Named per-layer metric values, in output order.
pub type Metrics = Vec<(String, f64)>;

/// Calls attempted and calls that failed (an `Err`, or a result that did
/// not verify).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls and checks made.
    pub attempted: u64,
    /// Those that returned `Err` or verified wrong.
    pub failed: u64,
}

impl Tally {
    /// Counts one call or check.
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds `other` in.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The scheduler's counters, as plain numbers. Bit-stable: two runs of
/// the same inputs must agree on every field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Kernel {
    pub events: u64,
    pub messages: u64,
    pub bytes_sent: u64,
    pub dispatches: u64,
    pub queue_high_water: u64,
    pub ready_peak: u64,
    /// Virtual clock, nanoseconds.
    pub now_ns: u64,
}

fn kernel_of(sim: &Simulation) -> Kernel {
    let s = sim.stats();
    Kernel {
        events: s.events,
        messages: s.messages,
        bytes_sent: s.bytes_sent,
        dispatches: s.dispatches,
        queue_high_water: s.queue_high_water as u64,
        ready_peak: s.ready_peak,
        now_ns: (s.end_time - parsim::SimTime::ZERO).as_nanos(),
    }
}

/// The thread CPU clock only prices the simulation when one thread
/// carries all of it, which is the fiber engine's property.
fn assert_fiber_engine(sim: &Simulation) {
    assert_eq!(
        sim.engine(),
        Engine::RunToCompletion,
        "bridgebench needs the fiber engine: host costs are read from one thread's CPU clock"
    );
}
