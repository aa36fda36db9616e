//! The namespace: create, stat, delete and list, over the hashed
//! directory and the in-memory shadow of each file's chain.

use super::{Efs, FileInfo};
use crate::directory::{DirEntry, Via};
use crate::error::EfsError;
use crate::layout::LfsFileId;
use crate::wal::{wire_len, WalRecord};
use parsim::Ctx;
use simdisk::{BlockAddr, BlockDevice};

impl<D: BlockDevice> Efs<D> {
    /// The file's directory entry.
    pub(super) fn entry(&mut self, ctx: &mut Ctx, file: LfsFileId) -> Result<DirEntry, EfsError> {
        self.dir
            .find(&mut Via::Timed(ctx), &mut self.disk, file)?
            .ok_or(EfsError::UnknownFile(file))
    }

    /// Takes a file's chain out of the shadow, for a delete to free or a
    /// tentative delete to stash.
    pub(super) fn take_chain(&mut self, entry: &DirEntry) -> Vec<BlockAddr> {
        let chain = self.chains.remove(&entry.file).unwrap_or_default();
        debug_assert_eq!(
            chain.len(),
            entry.size as usize,
            "chain shadow out of step with {}",
            entry.file
        );
        chain
    }

    /// Returns a deleted file's blocks to the allocator; the count freed.
    pub(super) fn free_chain(&mut self, file: LfsFileId, chain: &[BlockAddr]) -> u32 {
        for &addr in chain {
            self.alloc.release(addr);
        }
        self.stats.blocks_freed += chain.len() as u64;
        self.links.invalidate_file(file);
        chain.len() as u32
    }

    /// Creates an empty file. With a WAL, the directory entry stays in
    /// memory until the intent record commits (and is persisted at the
    /// next checkpoint); without one it is written through.
    ///
    /// # Errors
    ///
    /// [`EfsError::FileExists`], [`EfsError::DirectoryFull`] or
    /// [`EfsError::LogFull`].
    pub fn create(&mut self, ctx: &mut Ctx, file: LfsFileId) -> Result<(), EfsError> {
        self.flush_home(ctx, Some(file))?;
        self.charge_cpu(ctx);
        let record = WalRecord::Create {
            client: 0,
            id: 0,
            file,
        };
        self.admit(|| wire_len(&record), false)?;
        self.dir
            .insert(&mut Via::Timed(ctx), &mut self.disk, DirEntry::empty(file))?;
        self.log(|client, id| WalRecord::Create { client, id, file });
        self.chains.insert(file, Vec::new());
        Ok(())
    }

    /// File metadata; the returned addresses make good hints.
    ///
    /// # Errors
    ///
    /// [`EfsError::UnknownFile`].
    pub fn stat(&mut self, ctx: &mut Ctx, file: LfsFileId) -> Result<FileInfo, EfsError> {
        self.flush_home(ctx, Some(file))?;
        self.charge_cpu(ctx);
        self.entry(ctx, file).map(FileInfo::from)
    }

    /// Deletes a file as a logical free: one directory-bucket operation
    /// and an in-memory allocator update — the block addresses come from
    /// the in-memory chain shadow, so Delete is O(1) in disk operations
    /// regardless of file size, and an interrupted delete cannot leave a
    /// half-freed file. (The paper's EFS inherited from Cronus "a file
    /// deletion algorithm that traverses the file sequentially, explicitly
    /// freeing each block"; that walk is gone.) With a WAL the free is
    /// made durable by the logged record; without one the directory
    /// write-through removes the file and the bitmap catches up at
    /// [`Efs::sync`], exactly as appends already did. Returns the number
    /// of blocks freed.
    ///
    /// # Errors
    ///
    /// [`EfsError::UnknownFile`] or [`EfsError::LogFull`].
    pub fn delete(&mut self, ctx: &mut Ctx, file: LfsFileId) -> Result<u32, EfsError> {
        self.flush_home(ctx, Some(file))?;
        self.charge_cpu(ctx);
        let record = WalRecord::Delete {
            client: 0,
            id: 0,
            file,
            freed: 0,
        };
        self.admit(|| wire_len(&record), false)?;
        let entry = self
            .dir
            .remove(&mut Via::Timed(ctx), &mut self.disk, file)?
            .ok_or(EfsError::UnknownFile(file))?;
        let chain = self.take_chain(&entry);
        self.free_chain(file, &chain);
        let freed = entry.size;
        self.log(|client, id| WalRecord::Delete {
            client,
            id,
            file,
            freed,
        });
        Ok(freed)
    }

    /// All files on this LFS (untimed; debugging and tools' tests).
    ///
    /// # Errors
    ///
    /// [`EfsError::Corrupt`] if a directory bucket fails to decode.
    pub fn list_files_raw(&self) -> Result<Vec<FileInfo>, EfsError> {
        let entries = self.dir.scan_raw(&self.disk)?;
        Ok(entries.into_iter().map(FileInfo::from).collect())
    }
}
