//! The on-disk hashed directory.
//!
//! "File names are numbers that are used to hash into a directory. …
//! A pointer to the first block of a file can be found in the file's EFS
//! directory entry." Buckets are whole disk blocks in a reserved region;
//! each holds up to 63 fixed-size entries. Buckets are cached in memory
//! once read. The directory owns its durability: without a write-ahead log
//! a membership change (create/delete) is written through, with one it
//! waits for the next checkpoint like everything else — the logged intent
//! is what makes it durable. Size/tail updates from appends are always
//! written back later ([`sync`](crate::Efs::sync)); EFS's linked blocks,
//! not the directory, are the authoritative record of file contents.

use crate::error::EfsError;
use crate::layout::{LfsFileId, BLOCK_SIZE};
use bytes::{Buf, BufMut, Bytes};
use parsim::Ctx;
use simdisk::{BlockAddr, BlockDevice};

/// Directory entry: where a file starts and ends, and how big it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirEntry {
    /// The file's numeric name.
    pub file: LfsFileId,
    /// Disk address of block 0 (meaningless when `size == 0`).
    pub first: BlockAddr,
    /// Disk address of the last block (meaningless when `size == 0`).
    pub last: BlockAddr,
    /// File size in blocks.
    pub size: u32,
}

impl DirEntry {
    /// The entry of a file that holds no blocks yet.
    pub fn empty(file: LfsFileId) -> Self {
        DirEntry {
            file,
            first: BlockAddr::new(0),
            last: BlockAddr::new(0),
            size: 0,
        }
    }
}

/// How an access reaches the disk: by a timed operation on the caller's
/// virtual clock, or straight at the raw image (recovery, re-driven
/// decisions, offline checks). A bucket first touched raw costs nothing,
/// then or later.
#[derive(Debug)]
pub(crate) enum Via<'a> {
    Timed(&'a mut Ctx),
    Raw,
}

const ENTRY_SIZE: usize = 16;
/// Entries that fit in one bucket block (4-byte count prefix).
pub const BUCKET_CAPACITY: usize = (BLOCK_SIZE - 4) / ENTRY_SIZE;

#[derive(Debug, Clone, Default)]
struct Bucket {
    entries: Vec<DirEntry>,
}

impl Bucket {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(BLOCK_SIZE);
        buf.put_u32_le(self.entries.len() as u32);
        for e in &self.entries {
            buf.put_u32_le(e.file.0);
            buf.put_u32_le(e.first.index());
            buf.put_u32_le(e.last.index());
            buf.put_u32_le(e.size);
        }
        buf.resize(BLOCK_SIZE, 0);
        buf
    }

    fn decode(bytes: &[u8]) -> Result<Bucket, EfsError> {
        if bytes.len() != BLOCK_SIZE {
            return Err(EfsError::Corrupt("directory bucket wrong length".into()));
        }
        let mut buf = bytes;
        let count = buf.get_u32_le() as usize;
        if count > BUCKET_CAPACITY {
            return Err(EfsError::Corrupt(format!(
                "directory bucket claims {count} entries"
            )));
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(DirEntry {
                file: LfsFileId(buf.get_u32_le()),
                first: BlockAddr::new(buf.get_u32_le()),
                last: BlockAddr::new(buf.get_u32_le()),
                size: buf.get_u32_le(),
            });
        }
        Ok(Bucket { entries })
    }

    fn find(&self, file: LfsFileId) -> Option<DirEntry> {
        self.entries.iter().copied().find(|e| e.file == file)
    }

    fn remove(&mut self, file: LfsFileId) -> Option<DirEntry> {
        let pos = self.entries.iter().position(|e| e.file == file)?;
        Some(self.entries.remove(pos))
    }

    /// Replaces the file's entry, or adds it: `Some(true)` when added (a
    /// membership change), `None` when there is no room to.
    fn upsert(&mut self, entry: DirEntry) -> Option<bool> {
        if let Some(slot) = self.entries.iter_mut().find(|e| e.file == entry.file) {
            *slot = entry;
            return Some(false);
        }
        if self.entries.len() >= BUCKET_CAPACITY {
            return None;
        }
        self.entries.push(entry);
        Some(true)
    }
}

/// Memory-cached view of the on-disk directory region.
#[derive(Debug)]
pub(crate) struct Directory {
    /// First block of the bucket region.
    start: u32,
    /// Number of bucket blocks.
    buckets: u32,
    /// Membership changes wait for the checkpoint (the disk carries a
    /// write-ahead log) instead of being written through.
    deferred: bool,
    /// Buckets read so far, indexed by bucket number.
    cache: Vec<Option<Bucket>>,
    /// Which cached buckets differ from their disk image.
    dirty: Vec<bool>,
}

impl Directory {
    pub(crate) fn new(start: u32, buckets: u32, deferred: bool) -> Self {
        assert!(buckets > 0, "directory needs at least one bucket");
        Directory {
            start,
            buckets,
            deferred,
            cache: vec![None; buckets as usize],
            dirty: vec![false; buckets as usize],
        }
    }

    /// Formats the bucket region with empty buckets (raw, untimed): one
    /// encoded image, shared by every bucket until its first write.
    pub(crate) fn format(&self, disk: &mut dyn BlockDevice) {
        let empty = Bytes::from(Bucket::default().encode());
        for b in 0..self.buckets {
            disk.write_raw(self.addr_of_bucket(b), empty.clone());
        }
    }

    fn bucket_of(&self, file: LfsFileId) -> u32 {
        // Multiplicative hash; file numbers are often sequential.
        (file.0.wrapping_mul(0x9e37_79b9) >> 16) % self.buckets
    }

    fn addr_of_bucket(&self, bucket: u32) -> BlockAddr {
        BlockAddr::new(self.start + bucket)
    }

    /// The one bucket access: the cached bucket, read in first if this is
    /// its first touch — a timed read, or the raw image (where a block
    /// never written is an empty bucket).
    fn load(
        &mut self,
        via: &mut Via<'_>,
        disk: &mut dyn BlockDevice,
        bucket: u32,
    ) -> Result<&mut Bucket, EfsError> {
        let addr = self.addr_of_bucket(bucket);
        let slot = &mut self.cache[bucket as usize];
        match slot {
            Some(cached) => Ok(cached),
            None => Ok(slot.insert(match via {
                Via::Timed(ctx) => Bucket::decode(&disk.read(ctx, addr)?)?,
                Via::Raw => match disk.read_raw(addr) {
                    Some(bytes) => Bucket::decode(bytes)?,
                    None => Bucket::default(),
                },
            })),
        }
    }

    /// Writes a cached bucket home now (timed).
    fn store(
        &mut self,
        ctx: &mut Ctx,
        disk: &mut dyn BlockDevice,
        bucket: u32,
    ) -> Result<(), EfsError> {
        if let Some(cached) = &self.cache[bucket as usize] {
            disk.write(ctx, self.addr_of_bucket(bucket), &cached.encode())?;
        }
        self.dirty[bucket as usize] = false;
        Ok(())
    }

    /// Settles a change to `bucket`. A membership change made through a
    /// timed access goes home at once unless durability is deferred to
    /// the checkpoint; everything else — size/tail updates, and whatever
    /// a raw access changed — waits, dirty, for the next write-back
    /// ([`Directory::dirty_images`]).
    fn settle(
        &mut self,
        via: &mut Via<'_>,
        disk: &mut dyn BlockDevice,
        bucket: u32,
        membership: bool,
    ) -> Result<(), EfsError> {
        match via {
            Via::Timed(ctx) if membership && !self.deferred => self.store(ctx, disk, bucket),
            _ => {
                self.dirty[bucket as usize] = true;
                Ok(())
            }
        }
    }

    /// Looks up a file's entry.
    pub(crate) fn find(
        &mut self,
        via: &mut Via<'_>,
        disk: &mut dyn BlockDevice,
        file: LfsFileId,
    ) -> Result<Option<DirEntry>, EfsError> {
        let bucket = self.bucket_of(file);
        Ok(self.load(via, disk, bucket)?.find(file))
    }

    /// The entries of bucket `bucket` — the fsck scan's unit of
    /// pipelining.
    pub(crate) fn entries(
        &mut self,
        via: &mut Via<'_>,
        disk: &mut dyn BlockDevice,
        bucket: u32,
    ) -> Result<Vec<DirEntry>, EfsError> {
        Ok(self.load(via, disk, bucket)?.entries.clone())
    }

    /// Adds a new file's entry.
    ///
    /// # Errors
    ///
    /// [`EfsError::FileExists`] or [`EfsError::DirectoryFull`].
    pub(crate) fn insert(
        &mut self,
        via: &mut Via<'_>,
        disk: &mut dyn BlockDevice,
        entry: DirEntry,
    ) -> Result<(), EfsError> {
        let bucket = self.bucket_of(entry.file);
        if self.load(via, disk, bucket)?.find(entry.file).is_some() {
            return Err(EfsError::FileExists(entry.file));
        }
        self.upsert(via, disk, entry)
    }

    /// Sets a file's entry to an absolute state, adding it if absent —
    /// idempotent, so replaying a logged record twice is harmless. Appends
    /// come through here too: replacing an entry only dirties its bucket,
    /// so a sequential write costs block I/O only, as in the paper's EFS.
    ///
    /// # Errors
    ///
    /// [`EfsError::DirectoryFull`] if a fresh entry cannot fit.
    pub(crate) fn upsert(
        &mut self,
        via: &mut Via<'_>,
        disk: &mut dyn BlockDevice,
        entry: DirEntry,
    ) -> Result<(), EfsError> {
        let bucket = self.bucket_of(entry.file);
        let added = self
            .load(via, disk, bucket)?
            .upsert(entry)
            .ok_or(EfsError::DirectoryFull { bucket })?;
        self.settle(via, disk, bucket, added)
    }

    /// Removes a file's entry if present, returning it.
    pub(crate) fn remove(
        &mut self,
        via: &mut Via<'_>,
        disk: &mut dyn BlockDevice,
        file: LfsFileId,
    ) -> Result<Option<DirEntry>, EfsError> {
        let bucket = self.bucket_of(file);
        let removed = self.load(via, disk, bucket)?.remove(file);
        if removed.is_some() {
            self.settle(via, disk, bucket, true)?;
        }
        Ok(removed)
    }

    /// The home address and image of every dirty bucket, in bucket order:
    /// what a write-back must send home (sync and checkpoint as part of
    /// one device run, the end of recovery raw) before it calls
    /// [`Directory::mark_clean`].
    pub(crate) fn dirty_images(&self) -> Vec<(BlockAddr, Bytes)> {
        let dirty = (0..self.buckets).filter(|&b| self.dirty[b as usize]);
        dirty
            .filter_map(|b| {
                let cached = self.cache[b as usize].as_ref()?;
                Some((self.addr_of_bucket(b), cached.encode().into()))
            })
            .collect()
    }

    /// Every image [`Directory::dirty_images`] named is home.
    pub(crate) fn mark_clean(&mut self) {
        self.dirty.fill(false);
    }

    /// Writes `file`'s bucket home now if it is dirty, whatever the
    /// durability mode.
    pub(crate) fn persist(
        &mut self,
        ctx: &mut Ctx,
        disk: &mut dyn BlockDevice,
        file: LfsFileId,
    ) -> Result<(), EfsError> {
        let bucket = self.bucket_of(file);
        if self.dirty[bucket as usize] {
            self.store(ctx, disk, bucket)?;
        }
        Ok(())
    }

    /// All files present, by scanning every bucket (untimed raw reads
    /// that cache nothing, so a cold bucket stays cold).
    pub(crate) fn scan_raw(&self, disk: &dyn BlockDevice) -> Result<Vec<DirEntry>, EfsError> {
        let mut out = Vec::new();
        for b in 0..self.buckets {
            // Prefer the cached (possibly dirty) view over the disk image.
            if let Some(bucket) = &self.cache[b as usize] {
                out.extend(bucket.entries.iter().copied());
            } else if let Some(bytes) = disk.read_raw(self.addr_of_bucket(b)) {
                out.extend(Bucket::decode(bytes)?.entries);
            }
        }
        out.sort_by_key(|e| e.file.0);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim::{SimConfig, Simulation};
    use simdisk::{DiskGeometry, DiskProfile, SimDisk};

    fn with_dir<R: 'static>(
        deferred: bool,
        f: impl FnOnce(&mut Ctx, &mut SimDisk, &mut Directory) -> R + 'static,
    ) -> R {
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("n");
        sim.block_on(node, "dir", move |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::instant());
            let mut dir = Directory::new(1, 32, deferred);
            dir.format(&mut disk);
            f(ctx, &mut disk, &mut dir)
        })
    }

    fn entry(file: u32, size: u32) -> DirEntry {
        DirEntry {
            file: LfsFileId(file),
            first: BlockAddr::new(100 + file),
            last: BlockAddr::new(200 + file),
            size,
        }
    }

    /// Sends every dirty bucket home, as sync, checkpoint and the end of
    /// recovery do.
    fn write_back(dir: &mut Directory, disk: &mut SimDisk) {
        for (addr, image) in dir.dirty_images() {
            disk.write_raw(addr, image);
        }
        dir.mark_clean();
    }

    /// What a fresh directory over the same disk image finds for `file`.
    fn on_disk(ctx: &mut Ctx, disk: &mut SimDisk, file: u32) -> Option<DirEntry> {
        Directory::new(1, 32, false)
            .find(&mut Via::Timed(ctx), disk, LfsFileId(file))
            .unwrap()
    }

    #[test]
    fn insert_lookup_remove() {
        with_dir(false, |ctx, disk, dir| {
            dir.insert(&mut Via::Timed(ctx), disk, entry(1, 5)).unwrap();
            dir.insert(&mut Via::Timed(ctx), disk, entry(2, 9)).unwrap();
            assert_eq!(
                dir.find(&mut Via::Timed(ctx), disk, LfsFileId(1)).unwrap(),
                Some(entry(1, 5))
            );
            assert_eq!(
                dir.find(&mut Via::Timed(ctx), disk, LfsFileId(3)).unwrap(),
                None
            );
            let removed = dir
                .remove(&mut Via::Timed(ctx), disk, LfsFileId(1))
                .unwrap();
            assert_eq!(removed, Some(entry(1, 5)));
            assert_eq!(
                dir.find(&mut Via::Timed(ctx), disk, LfsFileId(1)).unwrap(),
                None
            );
        });
    }

    #[test]
    fn duplicate_create_rejected() {
        with_dir(false, |ctx, disk, dir| {
            dir.insert(&mut Via::Timed(ctx), disk, entry(1, 0)).unwrap();
            assert_eq!(
                dir.insert(&mut Via::Timed(ctx), disk, entry(1, 0))
                    .unwrap_err(),
                EfsError::FileExists(LfsFileId(1))
            );
        });
    }

    #[test]
    fn remove_missing_rejected() {
        with_dir(false, |ctx, disk, dir| {
            let writes = disk.stats().writes;
            assert_eq!(
                dir.remove(&mut Via::Timed(ctx), disk, LfsFileId(9)),
                Ok(None)
            );
            assert_eq!(
                disk.stats().writes,
                writes,
                "nothing changed, nothing written"
            );
        });
    }

    #[test]
    fn membership_survives_cache_drop_but_updates_need_sync() {
        with_dir(false, |ctx, disk, dir| {
            dir.insert(&mut Via::Timed(ctx), disk, entry(1, 0)).unwrap();
            dir.upsert(&mut Via::Timed(ctx), disk, entry(1, 42))
                .unwrap();

            // A fresh directory reading the same disk: insert was written
            // through, the size update was not.
            assert_eq!(on_disk(ctx, disk, 1).unwrap().size, 0, "not yet synced");

            write_back(dir, disk);
            assert_eq!(on_disk(ctx, disk, 1).unwrap().size, 42, "synced");
        });
    }

    #[test]
    fn deferred_membership_waits_for_write_back() {
        with_dir(true, |ctx, disk, dir| {
            dir.insert(&mut Via::Timed(ctx), disk, entry(1, 0)).unwrap();
            dir.insert(&mut Via::Timed(ctx), disk, entry(2, 0)).unwrap();
            assert_eq!(
                on_disk(ctx, disk, 1),
                None,
                "the log, not the bucket, holds it"
            );

            // One bucket can be sent home ahead of the rest.
            dir.persist(ctx, disk, LfsFileId(1)).unwrap();
            assert_eq!(on_disk(ctx, disk, 1), Some(entry(1, 0)));
            assert_eq!(on_disk(ctx, disk, 2), None);

            dir.remove(&mut Via::Timed(ctx), disk, LfsFileId(1))
                .unwrap();
            assert_eq!(
                on_disk(ctx, disk, 1),
                Some(entry(1, 0)),
                "removal deferred too"
            );
            write_back(dir, disk);
            assert_eq!(on_disk(ctx, disk, 1), None);
            assert_eq!(on_disk(ctx, disk, 2), Some(entry(2, 0)));
        });
    }

    #[test]
    fn raw_access_is_free_and_never_written_through() {
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("n");
        sim.block_on(node, "dir", |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
            let mut dir = Directory::new(1, 32, false);
            dir.format(&mut disk);
            let t0 = ctx.now();
            dir.upsert(&mut Via::Raw, &mut disk, entry(1, 3)).unwrap();
            assert_eq!(dir.remove(&mut Via::Raw, &mut disk, LfsFileId(7)), Ok(None));
            // The bucket a raw access loaded stays warm for timed ones.
            let found = dir.find(&mut Via::Timed(ctx), &mut disk, LfsFileId(1));
            assert_eq!(found, Ok(Some(entry(1, 3))));
            assert_eq!(ctx.now(), t0, "no virtual time passed");
            assert_eq!(on_disk(ctx, &mut disk, 1), None, "waits for the write-back");
            write_back(&mut dir, &mut disk);
            assert_eq!(on_disk(ctx, &mut disk, 1), Some(entry(1, 3)));
        });
    }

    #[test]
    fn bucket_overflow_reported() {
        with_dir(false, |ctx, disk, dir| {
            // Fill the bucket of file 0 by brute force: keep inserting
            // files that hash to it.
            let mut inserted = 0;
            let mut f = 0u32;
            let target = dir.bucket_of(LfsFileId(0));
            loop {
                if dir.bucket_of(LfsFileId(f)) == target {
                    match dir.insert(&mut Via::Timed(ctx), disk, entry(f, 0)) {
                        Ok(()) => inserted += 1,
                        Err(EfsError::DirectoryFull { bucket }) => {
                            assert_eq!(bucket, target);
                            assert_eq!(inserted, BUCKET_CAPACITY);
                            return;
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                f += 1;
            }
        });
    }

    #[test]
    fn scan_raw_sees_cached_and_disk_state() {
        with_dir(false, |ctx, disk, dir| {
            dir.insert(&mut Via::Timed(ctx), disk, entry(3, 1)).unwrap();
            dir.insert(&mut Via::Timed(ctx), disk, entry(1, 2)).unwrap();
            let all = dir.scan_raw(disk).unwrap();
            assert_eq!(
                all.iter().map(|e| e.file.0).collect::<Vec<_>>(),
                vec![1, 3],
                "sorted by file number"
            );
        });
    }

    #[test]
    fn cold_lookup_costs_one_disk_read() {
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("n");
        let (cold, warm) = sim.block_on(node, "dir", |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
            let mut dir = Directory::new(1, 32, false);
            dir.format(&mut disk);
            let t0 = ctx.now();
            dir.find(&mut Via::Timed(ctx), &mut disk, LfsFileId(5))
                .unwrap();
            let t1 = ctx.now();
            dir.find(&mut Via::Timed(ctx), &mut disk, LfsFileId(5))
                .unwrap();
            let t2 = ctx.now();
            (t1 - t0, t2 - t1)
        });
        assert!(!cold.is_zero(), "cold lookup reads the bucket");
        assert!(warm.is_zero(), "warm lookup is served from cache");
    }
}
