//! # bridge-bench — reproduction harnesses
//!
//! Shared machinery for the benchmark binaries that regenerate every table
//! and figure of the Bridge paper (see `DESIGN.md` §4 for the experiment
//! index): workload generation, measurement plumbing, least-squares fits,
//! and markdown table rendering. The binaries live under `benches/` and
//! run with `cargo bench -p bridge-bench --bench <name>`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod profile;
pub mod report;
pub mod results;
pub mod workload;

use bridge_core::{BridgeClient, BridgeConfig, BridgeFileId, BridgeMachine, CreateSpec};
use parsim::{Ctx, SimDuration};

/// The paper's experiment file: 10 MB of block-sized records.
pub const PAPER_FILE_BLOCKS: u64 = 10 * 1024;

/// The processor counts in the paper's Tables 3 and 4.
pub const PAPER_PROCESSORS: [u32; 5] = [2, 4, 8, 16, 32];

/// The extended processor counts past the paper's largest machine, used
/// by the >32-processor scaling curves (EXPERIMENTS.md §A12) and the
/// simulator-scale ablation.
pub const SCALE_PROCESSORS: [u32; 4] = [32, 64, 256, 1024];

/// Scale factor for a bench run: `full` replays the paper's sizes,
/// `quick` (set `BRIDGE_SCALE=quick`) shrinks the file 8× for smoke runs.
pub fn scale() -> u64 {
    match std::env::var("BRIDGE_SCALE").as_deref() {
        Ok("quick") => 8,
        _ => 1,
    }
}

/// File size in blocks for the current scale.
pub fn file_blocks() -> u64 {
    PAPER_FILE_BLOCKS / scale()
}

/// The prototype as the paper measured it, at breadth `p`:
/// [`BridgeConfig::paper`] with Create's fan-out at the serial arity, so
/// Tables 2–4 price the sequence the paper's figures come from. Every
/// `paper_machine*` builder starts here.
pub fn paper_config(p: u32) -> BridgeConfig {
    BridgeConfig::paper(p).with_serial_create()
}

/// Builds the paper's machine at breadth `p`.
pub fn paper_machine(p: u32) -> (parsim::Simulation, BridgeMachine) {
    BridgeMachine::build(&paper_config(p))
}

/// Builds the paper's machine at breadth `p` with `tracer` installed.
/// Tracing is observation-only: the traced machine reproduces the
/// untraced one's virtual times and kernel counters exactly.
pub fn paper_machine_traced(
    p: u32,
    tracer: parsim::TracerHandle,
) -> (parsim::Simulation, BridgeMachine) {
    let mut config = paper_config(p);
    config.tracer = Some(tracer);
    BridgeMachine::build(&config)
}

/// Writes `blocks` key-shuffled records into a fresh default-placement
/// file (setup time is excluded by measuring around, not through, this).
pub fn write_workload(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    blocks: u64,
    seed: u64,
) -> BridgeFileId {
    let file = bridge
        .create(ctx, CreateSpec::default())
        .expect("create workload file");
    for record in workload::records(blocks, seed) {
        bridge.seq_write(ctx, file, record).expect("write workload");
    }
    file
}

/// Records/second given a count and a virtual duration.
pub fn records_per_second(records: u64, elapsed: SimDuration) -> f64 {
    if elapsed.is_zero() {
        return f64::INFINITY;
    }
    records as f64 / elapsed.as_secs_f64()
}

/// Parallel speedup relative to a baseline duration.
pub fn speedup(baseline: SimDuration, now: SimDuration) -> f64 {
    baseline.as_secs_f64() / now.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_full() {
        // (Environment-dependent, but the default path must be 1.)
        if std::env::var("BRIDGE_SCALE").is_err() {
            assert_eq!(scale(), 1);
            assert_eq!(file_blocks(), 10 * 1024);
        }
    }

    #[test]
    fn rates_and_speedups() {
        assert!((records_per_second(100, SimDuration::from_secs(2)) - 50.0).abs() < 1e-9);
        assert!(
            (speedup(SimDuration::from_secs(10), SimDuration::from_secs(2)) - 5.0).abs() < 1e-9
        );
    }
}
