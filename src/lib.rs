//! # bridge-repro — umbrella crate
//!
//! A reproduction of *Bridge: A High-Performance File System for Parallel
//! Processors* (Dibble, Ellis, Scott; ICDCS 1988). This crate re-exports
//! the workspace layers; see `README.md` for the architecture and
//! `DESIGN.md` for the experiment index.
//!
//! * [`parsim`] — deterministic multiprocessor simulator (the Butterfly
//!   stand-in).
//! * [`simdisk`] — Wren-class simulated disks.
//! * [`efs`] — the Elementary File System (one instance per node).
//! * [`core`] — the Bridge Server, interleaved files, the three views,
//!   and redundancy (mirroring / rotating parity).
//! * [`tools`] — copy/filter/grep/summary/sort tools.
//! * [`baseline`] — §2's striped sets and storage arrays under one FS.
//! * [`model`] — the analytical companion (the paper's reference \[17\]).
//! * [`trace`] — virtual-time tracing and telemetry: Chrome trace export,
//!   the causal profile, and the live health registry, observation-only
//!   by construction.

pub use bridge_baseline as baseline;
pub use bridge_core as core;
pub use bridge_efs as efs;
pub use bridge_model as model;
pub use bridge_tools as tools;
pub use bridge_trace as trace;
pub use parsim;
pub use simdisk;
