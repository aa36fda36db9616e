//! The LFS server process: a message loop wrapping an [`Efs`](crate::Efs)
//! instance.
//!
//! "The instances of EFS are self-sufficient, and operate in ignorance of
//! one another." Both the Bridge Server and tools talk to LFS instances
//! with the same stateless request protocol; each request carries a client
//! supplied id that is echoed in the reply, so a client may pipeline
//! requests to many LFS instances and collect replies out of order.
//!
//! One file per stage a request passes through:
//!
//! | stage | file | holds |
//! |---|---|---|
//! | on the wire | `protocol.rs` | requests, replies, their wire sizes, the RPC binding, the fail-stop and spare controls |
//! | in the queue | `sched.rs` | per-client lanes, the schedulable prefix, the track estimate the disk policy orders by |
//! | in service | `serve.rs` | the server loop, the group-commit batch, crash and media-loss handling, the op dispatch |

mod protocol;
mod sched;
mod serve;

pub use protocol::{
    install_spare, reply_wire_size, request_wire_size, set_failed, LfsClient, LfsData, LfsFailAck,
    LfsFailControl, LfsOp, LfsReply, LfsRequest, LfsRpc, LfsSpareAck, LfsSpareControl,
};
pub use serve::{serve, spawn_lfs, spawn_lfs_sched};
