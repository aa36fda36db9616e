//! EFS error type.

use crate::layout::LfsFileId;
use simdisk::DiskError;
use std::error::Error;
use std::fmt;

/// Errors returned by [`Efs`](crate::Efs) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EfsError {
    /// The named file does not exist on this LFS.
    UnknownFile(LfsFileId),
    /// Create of a file that already exists.
    FileExists(LfsFileId),
    /// The directory bucket for this file number is full.
    DirectoryFull {
        /// Hash bucket that overflowed.
        bucket: u32,
    },
    /// No free blocks remain on the disk.
    NoSpace,
    /// Read of a block at or beyond the end of the file.
    BlockOutOfRange {
        /// File being accessed.
        file: LfsFileId,
        /// Requested local block number.
        block_no: u32,
        /// Current file size in blocks.
        size: u32,
    },
    /// Write of a block more than one past the end of the file (EFS only
    /// supports in-place overwrite and append).
    WriteBeyondEnd {
        /// File being accessed.
        file: LfsFileId,
        /// Requested local block number.
        block_no: u32,
        /// Current file size in blocks.
        size: u32,
    },
    /// Payload larger than the 1000 bytes a block can hold.
    PayloadTooLarge {
        /// Bytes provided.
        provided: usize,
    },
    /// On-disk structure failed validation.
    Corrupt(String),
    /// Underlying device error.
    Disk(DiskError),
    /// The node hosting this LFS has failed (fail-stop); no request can
    /// be served until it is revived.
    NodeFailed,
    /// The write-ahead log has no room for the request's records: a
    /// transaction held in doubt here defers the checkpoint that would
    /// free the ring. Nothing was applied; the request may be retried
    /// once the transaction is decided.
    LogFull,
    /// A client call exhausted its retry budget without seeing a reply
    /// (see [`RetryPolicy`](crate::RetryPolicy)).
    TimedOut {
        /// Send attempts made before giving up.
        attempts: u32,
    },
}

impl EfsError {
    /// Is this "the column is gone" — its node failed, its disk was
    /// lost, or a freshly formatted spare doesn't hold the file yet?
    /// Redundant paths degrade through these; everything else is a real
    /// error.
    pub fn column_lost(&self) -> bool {
        matches!(self, EfsError::NodeFailed | EfsError::UnknownFile(_))
    }
}

impl fmt::Display for EfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EfsError::UnknownFile(file) => write!(f, "{file} does not exist"),
            EfsError::FileExists(file) => write!(f, "{file} already exists"),
            EfsError::DirectoryFull { bucket } => {
                write!(f, "directory bucket {bucket} is full")
            }
            EfsError::NoSpace => write!(f, "no free blocks on device"),
            EfsError::BlockOutOfRange { file, block_no, size } => {
                write!(f, "{file} block {block_no} out of range (size {size})")
            }
            EfsError::WriteBeyondEnd { file, block_no, size } => write!(
                f,
                "{file} write at block {block_no} is beyond end (size {size}); only overwrite or append supported"
            ),
            EfsError::PayloadTooLarge { provided } => {
                write!(f, "payload of {provided} bytes exceeds block payload")
            }
            EfsError::Corrupt(why) => write!(f, "corrupt on-disk structure: {why}"),
            EfsError::Disk(e) => write!(f, "device error: {e}"),
            EfsError::NodeFailed => write!(f, "node failed (fail-stop)"),
            EfsError::LogFull => write!(f, "write-ahead log full behind an undecided transaction"),
            EfsError::TimedOut { attempts } => {
                write!(f, "no reply after {attempts} attempts (retry budget spent)")
            }
        }
    }
}

impl Error for EfsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EfsError::Disk(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DiskError> for EfsError {
    fn from(e: DiskError) -> Self {
        EfsError::Disk(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = EfsError::BlockOutOfRange {
            file: LfsFileId(3),
            block_no: 9,
            size: 4,
        };
        let s = e.to_string();
        assert!(s.contains("lfs-file3") && s.contains('9') && s.contains('4'));
    }

    #[test]
    fn disk_error_converts_and_chains() {
        let e: EfsError = DiskError::Unwritten {
            addr: simdisk::BlockAddr::new(0),
        }
        .into();
        assert!(matches!(e, EfsError::Disk(_)));
        assert!(Error::source(&e).is_some());
    }
}
