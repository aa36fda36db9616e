//! # bridge-trace — observability for the Bridge reproduction
//!
//! The simulation's virtual clock makes every timing claim checkable: if
//! the model says a copy took 180 ms, some sequence of disk service
//! intervals, message hops, and CPU charges must add up to exactly that.
//! This crate records those events and renders them two ways:
//!
//! * [`chrome_trace_json`] — Chrome trace-event JSON, loadable in
//!   Perfetto / `chrome://tracing`, with one "process" per simulated node
//!   and one "thread" per simulated process;
//! * [`ProfileReport`] — causal profiling: per-operation critical-path
//!   attribution by [`Category`] (see [`profile()`]) plus a binned
//!   flight-recorder [`TimeSeries`], exportable as hand-rolled JSON or
//!   ASCII tables.
//!
//! The live [`health`] registry is the other view of a run: counters each
//! layer books in place as it goes, readable mid-run, with a
//! [`Histogram`] for each latency distribution.
//!
//! The recording side is a [`TraceCollector`], an implementation of
//! [`parsim::Tracer`] installed via
//! [`SimConfig::tracer`](parsim::SimConfig) (or
//! `BridgeConfig::tracer` one level up). Tracing is observation-only:
//! a run with a collector installed produces bit-identical
//! [`RunStats`](parsim::RunStats) and virtual end time to the same run
//! without one.
//!
//! ## Example
//!
//! ```
//! use bridge_trace::{chrome_trace_json, validate_chrome_trace, TraceCollector};
//! use parsim::{SimConfig, SimDuration, Simulation};
//!
//! let collector = TraceCollector::install();
//! let mut sim = Simulation::new(SimConfig {
//!     tracer: Some(collector.clone()),
//!     ..SimConfig::default()
//! });
//! let node = sim.add_node("cpu0");
//! sim.block_on(node, "worker", |ctx| {
//!     let t0 = ctx.now();
//!     ctx.delay(SimDuration::from_millis(3));
//!     ctx.trace_span("tool", "tool.step", t0, &[("items", 1)]);
//! });
//! let data = collector.snapshot();
//! assert!(data.spans.iter().any(|s| s.name == "tool.step"));
//! let json = chrome_trace_json(&data);
//! validate_chrome_trace(&json).expect("well-formed trace");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chrome;
mod collect;
pub mod health;
mod histogram;
pub mod json;
pub mod profile;
mod report;
pub mod series;

pub use chrome::{chrome_trace_json, validate_chrome_trace, ChromeSummary};
pub use collect::{FlowEvent, InstantEvent, ProcMeta, SpanEvent, TraceCollector, TraceData};
pub use health::{
    render_snapshot, snapshot_to_json, snapshots_to_json, validate_health_json, Alert, AlertRule,
    DiskTelemetry, HealthEvent, HealthSnapshot, JournalEntry, LfsTelemetry, ServerTelemetry,
    TelemetryRegistry, WatchdogConfig,
};
pub use histogram::Histogram;
pub use profile::{
    profile, validate_causality, Breakdown, Category, CriticalPath, OpProfile, Profile,
};
pub use report::{validate_profile_json, ProfileReport};
pub use series::{sample, DiskBusySeries, TimeSeries};
