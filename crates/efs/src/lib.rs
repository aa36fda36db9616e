//! # bridge-efs — the Elementary File System
//!
//! A re-implementation of the local file system under each Bridge node,
//! following the paper's description of BBN's Cronus *Elementary File
//! System* (EFS): "a simple, stateless file system with a flat name space
//! and no access control. File names are numbers that are used to hash
//! into a directory. Files are represented as doubly linked circular lists
//! of blocks. … In addition to its neighbor pointers, each block also
//! contains its file number and block number. Every request to EFS can
//! provide a disk address hint."
//!
//! Each [`Efs`] instance owns one [`simdisk::SimDisk`] and is wrapped in an
//! LFS server process ([`spawn_lfs`]) that speaks the stateless
//! [`LfsRequest`]/[`LfsReply`] protocol. The Bridge Server and Bridge tools
//! are both just clients of this protocol — that symmetry is the heart of
//! the paper's tool interface.
//!
//! ## Example
//!
//! ```
//! use bridge_efs::{Efs, EfsConfig, LfsFileId};
//! use parsim::{SimConfig, Simulation};
//! use simdisk::{DiskGeometry, DiskProfile, SimDisk};
//!
//! let mut sim = Simulation::new(SimConfig::default());
//! let node = sim.add_node("lfs0");
//! let data = sim.block_on(node, "driver", |ctx| -> Result<bytes::Bytes, bridge_efs::EfsError> {
//!     let disk = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
//!     let mut efs = Efs::format(disk, EfsConfig::default());
//!     let f = LfsFileId(42);
//!     efs.create(ctx, f)?;
//!     efs.write(ctx, f, 0, b"hello, butterfly", None)?;
//!     let (payload, _addr) = efs.read(ctx, f, 0, None)?;
//!     Ok(payload)
//! }).unwrap();
//! assert_eq!(&data[..16], b"hello, butterfly");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alloc;
mod cache;
pub mod codec;
mod directory;
mod error;
mod fs;
mod layout;
mod lfs;
mod retry;
pub mod ring;
mod wal;

pub use directory::{DirEntry, BUCKET_CAPACITY};
pub use error::EfsError;
pub use fs::{CorruptionKind, Efs, EfsConfig, EfsStats, EfsTelemetry, FileInfo, FsckReport};
pub use layout::{
    decode_block, decode_header, encode_block, EfsHeader, LfsFileId, BLOCK_MAGIC, BLOCK_SIZE,
    EFS_HEADER_SIZE, EFS_PAYLOAD,
};
pub use lfs::{
    install_spare, reply_wire_size, request_wire_size, serve, set_failed, spawn_lfs,
    spawn_lfs_sched, LfsClient, LfsData, LfsFailAck, LfsFailControl, LfsOp, LfsReply, LfsRequest,
    LfsRpc, LfsSpareAck, LfsSpareControl,
};
pub use retry::{DedupWindow, Reply, Request, RetryPolicy, RpcClient, RpcProtocol};
pub use wal::{PrepareIntent, RecoveredOp, WalConfig, WAL_MAGIC};
