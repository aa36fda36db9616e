//! # bridge-tools — applications that become part of the file system
//!
//! "Bridge tools are applications that become part of the file system. A
//! standard set of tools (copy, sort, grep, ...) can be viewed as part of
//! the top layer of the file system." Tools obtain a file's structure from
//! the Bridge Server (`Get Info` / `Open`), create subprocesses on the LFS
//! nodes that hold the data, and then talk to the LFS instances directly —
//! moving the computation to the data instead of the data to the
//! computation.
//!
//! Provided tools:
//!
//! * [`copy`](fn@copy) / [`copy_with`] — the §5.1 copy tool and its one-to-one
//!   filter family ([`transforms`]): O(n/p + log p).
//! * [`grep`] / [`summarize`] — sequential search and summary tools that
//!   return "a small amount of information at completion time".
//! * [`sort`](fn@sort) — the §5.2 two-phase merge sort: local external sorts, then
//!   log(p) passes of the Figure-4 token-passing parallel merge.
//! * [`pfsck`] — whole-machine consistency check and repair, auditing all
//!   `p` LFS instances in parallel (with a serial baseline mode).
//! * [`run_scenario`] / the `bridgetop` binary — the live machine-health
//!   dashboard: polls a running machine's telemetry on a virtual-time
//!   cadence and renders or exports the frames.
//!
//! Every tool is the same three steps, each written once: `Open` the file
//! (refusing a linked one), start one worker per constituent LFS through
//! a fan-out tree of [`ToolOptions::start_arity`] and join their results
//! ([`run_workers`]), and stream each column through a
//! [`ColumnReader`] / [`ColumnWriter`]. The sort's local merge is likewise
//! one routine at [`SortOptions::local_merge_arity`].
//!
//! ## Example
//!
//! ```
//! use bridge_core::{BridgeClient, BridgeConfig, BridgeMachine, CreateSpec};
//! use bridge_tools::{copy, summarize, ToolOptions};
//!
//! let (mut sim, machine) = BridgeMachine::build(&BridgeConfig::paper(4));
//! let server = machine.server;
//! sim.block_on(machine.frontend, "tool", move |ctx| {
//!     let mut bridge = BridgeClient::new(server);
//!     let src = bridge.create(ctx, CreateSpec::default())?;
//!     for i in 0..12u64 {
//!         bridge.seq_write(ctx, src, i.to_be_bytes().to_vec())?;
//!     }
//!     let (dst, stats) = copy(ctx, &mut bridge, src, &ToolOptions::default())?;
//!     assert_eq!(stats.blocks, 12);
//!     let a = summarize(ctx, &mut bridge, src, &ToolOptions::default())?;
//!     let b = summarize(ctx, &mut bridge, dst, &ToolOptions::default())?;
//!     assert_eq!(a.checksum, b.checksum);
//!     Ok::<_, bridge_tools::ToolError>(())
//! }).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bridgetop;
mod column;
mod copy;
mod error;
mod fsck;
mod options;
mod scan;
mod sort;
mod toolkit;

pub use bridgetop::{run_scenario, TopOptions, TopScenario};
pub use column::{ColumnReader, ColumnWriter};
pub use copy::{copy, copy_with, transforms, BlockTransform, CopyStats};
pub use error::ToolError;
pub use fsck::{
    machine_check, pfsck, FsckMode, FsckOptions, FsckVerdict, MachineFinding, MachineReport,
};
pub use options::ToolOptions;
pub use scan::{grep, summarize, Match, Summary};
pub use sort::{key_of, sort, SortOptions, SortStats, KEY_LEN};
pub use toolkit::{run_workers, WorkerSpec};
