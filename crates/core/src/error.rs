//! Bridge-level error type.

use crate::ids::{BridgeFileId, JobId};
use bridge_efs::EfsError;
use std::error::Error;
use std::fmt;

/// Errors returned by the Bridge Server and client helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BridgeError {
    /// The Bridge file does not exist.
    UnknownFile(BridgeFileId),
    /// Random access to a block at or beyond end of file.
    BlockOutOfRange {
        /// File accessed.
        file: BridgeFileId,
        /// Requested global block.
        block: u64,
        /// File size in blocks.
        size: u64,
    },
    /// Data longer than the 960 bytes a Bridge block holds.
    DataTooLarge {
        /// Bytes provided.
        provided: usize,
    },
    /// The job id is unknown (or belongs to another controller).
    UnknownJob(JobId),
    /// A parallel open listed no workers.
    EmptyWorkerList,
    /// A parallel write received a block from a worker after another worker
    /// had already signalled end-of-data, leaving a gap.
    WriteGap {
        /// The job affected.
        job: JobId,
    },
    /// A create request named an LFS instance the machine does not have.
    BadNodeSet {
        /// The offending LFS index.
        index: u32,
        /// Number of LFS instances in the machine.
        breadth: u32,
    },
    /// Chunked placement needs a size hint at creation time (the paper's
    /// "principal disadvantage of chunking").
    ChunkingNeedsSize,
    /// The operation requires computable placement and is not available on
    /// linked (disordered) files.
    LinkedUnsupported {
        /// A short name of the operation.
        op: &'static str,
    },
    /// The requested redundancy mode cannot be provided.
    RedundancyUnsupported {
        /// Why not.
        why: &'static str,
    },
    /// A machine-wide transaction names more participants (or doomed
    /// files) than the coordinator's decision log can record: its BEGIN
    /// must fit in the log ring beside its COMMIT. Refused before anything
    /// is sent, so the directory and every LFS are as they were.
    TxnTooLarge {
        /// Log frames the BEGIN record needs.
        frames: u32,
        /// Frames in the decision-log ring.
        ring: u32,
    },
    /// An on-disk Bridge structure failed validation.
    Corrupt(String),
    /// An error from a local file system.
    Lfs(EfsError),
    /// A client call exhausted its retry budget without seeing a reply
    /// (see [`RetryPolicy`](bridge_efs::RetryPolicy)).
    TimedOut {
        /// Send attempts made before giving up.
        attempts: u32,
    },
}

impl fmt::Display for BridgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BridgeError::UnknownFile(file) => write!(f, "{file} does not exist"),
            BridgeError::BlockOutOfRange { file, block, size } => {
                write!(f, "{file} block {block} out of range (size {size})")
            }
            BridgeError::DataTooLarge { provided } => {
                write!(
                    f,
                    "data of {provided} bytes exceeds a 960-byte Bridge block"
                )
            }
            BridgeError::UnknownJob(job) => write!(f, "{job} is not an open job"),
            BridgeError::EmptyWorkerList => write!(f, "parallel open requires workers"),
            BridgeError::WriteGap { job } => {
                write!(f, "{job}: worker supplied data after another ended")
            }
            BridgeError::BadNodeSet { index, breadth } => {
                write!(f, "LFS index {index} out of range (breadth {breadth})")
            }
            BridgeError::ChunkingNeedsSize => {
                write!(f, "chunked placement requires an a-priori size hint")
            }
            BridgeError::LinkedUnsupported { op } => {
                write!(f, "{op} is not supported on linked (disordered) files")
            }
            BridgeError::RedundancyUnsupported { why } => {
                write!(f, "redundancy unavailable: {why}")
            }
            BridgeError::TxnTooLarge { frames, ring } => write!(
                f,
                "transaction needs {frames} decision-log frames beside its COMMIT; the ring has {ring}"
            ),
            BridgeError::Corrupt(why) => write!(f, "corrupt Bridge structure: {why}"),
            BridgeError::Lfs(e) => write!(f, "local file system error: {e}"),
            BridgeError::TimedOut { attempts } => {
                write!(f, "no reply after {attempts} attempts (retry budget spent)")
            }
        }
    }
}

impl Error for BridgeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BridgeError::Lfs(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EfsError> for BridgeError {
    fn from(e: EfsError) -> Self {
        BridgeError::Lfs(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = BridgeError::BlockOutOfRange {
            file: BridgeFileId(1),
            block: 10,
            size: 5,
        };
        assert!(e.to_string().contains("out of range"));
        let e: BridgeError = EfsError::UnknownFile(bridge_efs::LfsFileId(2)).into();
        assert!(Error::source(&e).is_some());
    }
}
