//! The on-disk hashed directory.
//!
//! "File names are numbers that are used to hash into a directory. …
//! A pointer to the first block of a file can be found in the file's EFS
//! directory entry." Buckets are whole disk blocks in a reserved region;
//! each holds up to 63 fixed-size entries. Buckets are cached in memory
//! once read; membership changes (create/delete) are written through, while
//! size/tail updates from appends are written back on
//! [`sync`](crate::Efs::sync) — EFS's linked blocks, not the directory, are
//! the authoritative record of file contents.

use crate::error::EfsError;
use crate::layout::{LfsFileId, BLOCK_SIZE};
use bytes::{Buf, BufMut};
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
}

/// Memory-cached view of the on-disk directory region.
#[derive(Debug)]
pub(crate) struct Directory {
    /// First block of the bucket region.
    start: u32,
    /// Number of bucket blocks.
    buckets: u32,
    /// Buckets read so far, indexed by bucket number.
    cache: Vec<Option<Bucket>>,
    /// Which cached buckets differ from their disk image.
    dirty: Vec<bool>,
}

impl Directory {
    pub(crate) fn new(start: u32, buckets: u32) -> Self {
        assert!(buckets > 0, "directory needs at least one bucket");
        Directory {
            start,
            buckets,
            cache: vec![None; buckets as usize],
            dirty: vec![false; buckets as usize],
        }
    }

    /// The bucket region as `(start block, bucket count)` — what a fresh
    /// [`Directory::new`] needs to re-cover the same region after a crash.
    pub(crate) fn region(&self) -> (u32, u32) {
        (self.start, self.buckets)
    }

    /// Number of bucket blocks.
    pub(crate) fn bucket_count(&self) -> u32 {
        self.buckets
    }

    /// Loads bucket `bucket` (timed when cold, cached when warm) and
    /// returns its entries — the fsck scan's unit of pipelining.
    pub(crate) fn load_bucket(
        &mut self,
        ctx: &mut Ctx,
        disk: &mut dyn BlockDevice,
        bucket: u32,
    ) -> Result<Vec<DirEntry>, EfsError> {
        self.load(ctx, disk, bucket)?;
        Ok(self.cached(bucket).entries.clone())
    }

    /// Formats the bucket region with empty buckets (raw, untimed).
    pub(crate) fn format(&self, disk: &mut dyn BlockDevice) {
        let empty = Bucket::default().encode();
        for b in 0..self.buckets {
            disk.write_raw(BlockAddr::new(self.start + b), &empty);
        }
    }

    fn bucket_of(&self, file: LfsFileId) -> u32 {
        // Multiplicative hash; file numbers are often sequential.
        (file.0.wrapping_mul(0x9e37_79b9) >> 16) % self.buckets
    }

    fn addr_of_bucket(&self, bucket: u32) -> BlockAddr {
        BlockAddr::new(self.start + bucket)
    }

    /// A bucket some `load` has already brought in.
    fn cached(&self, bucket: u32) -> &Bucket {
        self.cache[bucket as usize].as_ref().expect("bucket loaded")
    }

    /// Dirty bucket numbers, ascending.
    fn dirty_buckets(&self) -> Vec<u32> {
        (0..self.buckets)
            .filter(|&b| self.dirty[b as usize])
            .collect()
    }

    /// Loads (and caches) a bucket, charging disk time on a cold read.
    fn load(
        &mut self,
        ctx: &mut Ctx,
        disk: &mut dyn BlockDevice,
        bucket: u32,
    ) -> Result<(), EfsError> {
        if self.cache[bucket as usize].is_some() {
            return Ok(());
        }
        let bytes = disk.read(ctx, self.addr_of_bucket(bucket))?;
        self.cache[bucket as usize] = Some(Bucket::decode(&bytes)?);
        Ok(())
    }

    fn store(
        &mut self,
        ctx: &mut Ctx,
        disk: &mut dyn BlockDevice,
        bucket: u32,
    ) -> Result<(), EfsError> {
        let bytes = self.cached(bucket).encode();
        disk.write(ctx, self.addr_of_bucket(bucket), &bytes)?;
        self.dirty[bucket as usize] = false;
        Ok(())
    }

    /// Looks up a file's entry.
    pub(crate) fn lookup(
        &mut self,
        ctx: &mut Ctx,
        disk: &mut dyn BlockDevice,
        file: LfsFileId,
    ) -> Result<Option<DirEntry>, EfsError> {
        let bucket = self.bucket_of(file);
        self.load(ctx, disk, bucket)?;
        Ok(self
            .cached(bucket)
            .entries
            .iter()
            .copied()
            .find(|e| e.file == file))
    }

    /// Adds a new entry (write-through).
    ///
    /// # Errors
    ///
    /// [`EfsError::FileExists`] or [`EfsError::DirectoryFull`].
    pub(crate) fn insert(
        &mut self,
        ctx: &mut Ctx,
        disk: &mut dyn BlockDevice,
        entry: DirEntry,
    ) -> Result<(), EfsError> {
        let bucket = self.bucket_of(entry.file);
        self.load(ctx, disk, bucket)?;
        let b = self.cache[bucket as usize].as_mut().expect("just loaded");
        if b.entries.iter().any(|e| e.file == entry.file) {
            return Err(EfsError::FileExists(entry.file));
        }
        if b.entries.len() >= BUCKET_CAPACITY {
            return Err(EfsError::DirectoryFull { bucket });
        }
        b.entries.push(entry);
        self.store(ctx, disk, bucket)
    }

    /// Removes a file's entry (write-through).
    ///
    /// # Errors
    ///
    /// [`EfsError::UnknownFile`] if absent.
    pub(crate) fn remove(
        &mut self,
        ctx: &mut Ctx,
        disk: &mut dyn BlockDevice,
        file: LfsFileId,
    ) -> Result<DirEntry, EfsError> {
        let bucket = self.bucket_of(file);
        self.load(ctx, disk, bucket)?;
        let b = self.cache[bucket as usize].as_mut().expect("just loaded");
        let pos = b
            .entries
            .iter()
            .position(|e| e.file == file)
            .ok_or(EfsError::UnknownFile(file))?;
        let entry = b.entries.remove(pos);
        self.store(ctx, disk, bucket)?;
        Ok(entry)
    }

    /// Updates an existing entry in memory, marking the bucket dirty for a
    /// later [`Directory::sync`]. Appends hit this path, so a sequential
    /// write costs block I/O only, as in the paper's EFS.
    ///
    /// # Errors
    ///
    /// [`EfsError::UnknownFile`] if absent.
    pub(crate) fn update(
        &mut self,
        ctx: &mut Ctx,
        disk: &mut dyn BlockDevice,
        entry: DirEntry,
    ) -> Result<(), EfsError> {
        let bucket = self.bucket_of(entry.file);
        self.load(ctx, disk, bucket)?;
        let b = self.cache[bucket as usize].as_mut().expect("just loaded");
        let slot = b
            .entries
            .iter_mut()
            .find(|e| e.file == entry.file)
            .ok_or(EfsError::UnknownFile(entry.file))?;
        *slot = entry;
        self.dirty[bucket as usize] = true;
        Ok(())
    }

    /// Adds a new entry in memory only, marking the bucket dirty (WAL
    /// mode: membership is made durable by the log record at commit and
    /// the bucket itself at the next checkpoint).
    ///
    /// # Errors
    ///
    /// [`EfsError::FileExists`] or [`EfsError::DirectoryFull`].
    pub(crate) fn insert_deferred(
        &mut self,
        ctx: &mut Ctx,
        disk: &mut dyn BlockDevice,
        entry: DirEntry,
    ) -> Result<(), EfsError> {
        let bucket = self.bucket_of(entry.file);
        self.load(ctx, disk, bucket)?;
        let b = self.cache[bucket as usize].as_mut().expect("just loaded");
        if b.entries.iter().any(|e| e.file == entry.file) {
            return Err(EfsError::FileExists(entry.file));
        }
        if b.entries.len() >= BUCKET_CAPACITY {
            return Err(EfsError::DirectoryFull { bucket });
        }
        b.entries.push(entry);
        self.dirty[bucket as usize] = true;
        Ok(())
    }

    /// Removes a file's entry in memory only, marking the bucket dirty
    /// (WAL mode counterpart of [`Directory::remove`]).
    ///
    /// # Errors
    ///
    /// [`EfsError::UnknownFile`] if absent.
    pub(crate) fn remove_deferred(
        &mut self,
        ctx: &mut Ctx,
        disk: &mut dyn BlockDevice,
        file: LfsFileId,
    ) -> Result<DirEntry, EfsError> {
        let bucket = self.bucket_of(file);
        self.load(ctx, disk, bucket)?;
        let b = self.cache[bucket as usize].as_mut().expect("just loaded");
        let pos = b
            .entries
            .iter()
            .position(|e| e.file == file)
            .ok_or(EfsError::UnknownFile(file))?;
        let entry = b.entries.remove(pos);
        self.dirty[bucket as usize] = true;
        Ok(entry)
    }

    /// Loads a bucket from the raw disk image (untimed; recovery/fsck).
    fn load_raw(&mut self, disk: &dyn BlockDevice, bucket: u32) -> Result<(), EfsError> {
        if self.cache[bucket as usize].is_some() {
            return Ok(());
        }
        let decoded = match disk.read_raw(self.addr_of_bucket(bucket)) {
            Some(bytes) => Bucket::decode(bytes)?,
            None => Bucket::default(),
        };
        self.cache[bucket as usize] = Some(decoded);
        Ok(())
    }

    /// Upserts an entry to an absolute state (untimed; recovery replay —
    /// idempotent, so replaying a record twice is harmless).
    ///
    /// # Errors
    ///
    /// [`EfsError::Corrupt`] if the bucket fails to decode,
    /// [`EfsError::DirectoryFull`] if a fresh entry cannot fit.
    pub(crate) fn set_absolute(
        &mut self,
        disk: &dyn BlockDevice,
        entry: DirEntry,
    ) -> Result<(), EfsError> {
        let bucket = self.bucket_of(entry.file);
        self.load_raw(disk, bucket)?;
        let b = self.cache[bucket as usize].as_mut().expect("just loaded");
        match b.entries.iter_mut().find(|e| e.file == entry.file) {
            Some(slot) => *slot = entry,
            None => {
                if b.entries.len() >= BUCKET_CAPACITY {
                    return Err(EfsError::DirectoryFull { bucket });
                }
                b.entries.push(entry);
            }
        }
        self.dirty[bucket as usize] = true;
        Ok(())
    }

    /// Looks up an entry without charging time (recovery replay: a
    /// prepared delete being re-applied needs the entry it is about to
    /// remove so a presumed abort can restore it).
    ///
    /// # Errors
    ///
    /// [`EfsError::Corrupt`] if the bucket fails to decode.
    pub(crate) fn lookup_absolute(
        &mut self,
        disk: &dyn BlockDevice,
        file: LfsFileId,
    ) -> Result<Option<DirEntry>, EfsError> {
        let bucket = self.bucket_of(file);
        self.load_raw(disk, bucket)?;
        let b = self.cached(bucket);
        Ok(b.entries.iter().find(|e| e.file == file).copied())
    }

    /// Removes an entry if present (untimed; recovery replay —
    /// idempotent).
    ///
    /// # Errors
    ///
    /// [`EfsError::Corrupt`] if the bucket fails to decode.
    pub(crate) fn remove_absolute(
        &mut self,
        disk: &dyn BlockDevice,
        file: LfsFileId,
    ) -> Result<(), EfsError> {
        let bucket = self.bucket_of(file);
        self.load_raw(disk, bucket)?;
        let b = self.cache[bucket as usize].as_mut().expect("just loaded");
        if let Some(pos) = b.entries.iter().position(|e| e.file == file) {
            b.entries.remove(pos);
            self.dirty[bucket as usize] = true;
        }
        Ok(())
    }

    /// Writes every dirty cached bucket to the raw disk image (untimed;
    /// end of recovery, before the fresh checkpoint record).
    pub(crate) fn flush_raw(&mut self, disk: &mut dyn BlockDevice) {
        for bucket in self.dirty_buckets() {
            let bytes = self.cached(bucket).encode();
            disk.write_raw(self.addr_of_bucket(bucket), &bytes);
            self.dirty[bucket as usize] = false;
        }
    }

    /// Writes back all dirty buckets.
    pub(crate) fn sync(
        &mut self,
        ctx: &mut Ctx,
        disk: &mut dyn BlockDevice,
    ) -> Result<(), EfsError> {
        for bucket in self.dirty_buckets() {
            self.store(ctx, disk, bucket)?;
        }
        Ok(())
    }

    /// All files present, by scanning every bucket (untimed raw reads;
    /// debugging/test aid).
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

    fn with_dir<R: Send + 'static>(
        f: impl FnOnce(&mut Ctx, &mut SimDisk, &mut Directory) -> R + Send + 'static,
    ) -> R {
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("n");
        sim.block_on(node, "dir", move |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::instant());
            let mut dir = Directory::new(1, 32);
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

    #[test]
    fn insert_lookup_remove() {
        with_dir(|ctx, disk, dir| {
            dir.insert(ctx, disk, entry(1, 5)).unwrap();
            dir.insert(ctx, disk, entry(2, 9)).unwrap();
            assert_eq!(
                dir.lookup(ctx, disk, LfsFileId(1)).unwrap(),
                Some(entry(1, 5))
            );
            assert_eq!(dir.lookup(ctx, disk, LfsFileId(3)).unwrap(), None);
            let removed = dir.remove(ctx, disk, LfsFileId(1)).unwrap();
            assert_eq!(removed, entry(1, 5));
            assert_eq!(dir.lookup(ctx, disk, LfsFileId(1)).unwrap(), None);
        });
    }

    #[test]
    fn duplicate_create_rejected() {
        with_dir(|ctx, disk, dir| {
            dir.insert(ctx, disk, entry(1, 0)).unwrap();
            assert_eq!(
                dir.insert(ctx, disk, entry(1, 0)).unwrap_err(),
                EfsError::FileExists(LfsFileId(1))
            );
        });
    }

    #[test]
    fn remove_missing_rejected() {
        with_dir(|ctx, disk, dir| {
            assert_eq!(
                dir.remove(ctx, disk, LfsFileId(9)).unwrap_err(),
                EfsError::UnknownFile(LfsFileId(9))
            );
        });
    }

    #[test]
    fn membership_survives_cache_drop_but_updates_need_sync() {
        with_dir(|ctx, disk, dir| {
            dir.insert(ctx, disk, entry(1, 0)).unwrap();
            let mut updated = entry(1, 0);
            updated.size = 42;
            dir.update(ctx, disk, updated).unwrap();

            // A fresh directory reading the same disk: insert was written
            // through, the size update was not.
            let mut fresh = Directory::new(1, 32);
            let e = fresh.lookup(ctx, disk, LfsFileId(1)).unwrap().unwrap();
            assert_eq!(e.size, 0, "update not yet synced");

            dir.sync(ctx, disk).unwrap();
            let mut fresh2 = Directory::new(1, 32);
            let e = fresh2.lookup(ctx, disk, LfsFileId(1)).unwrap().unwrap();
            assert_eq!(e.size, 42, "sync persisted the update");
        });
    }

    #[test]
    fn bucket_overflow_reported() {
        with_dir(|ctx, disk, dir| {
            // Fill one specific bucket by brute force.
            let mut inserted = 0;
            let mut f = 0u32;
            let target = {
                // find the bucket of file 0 and keep inserting files that
                // hash to it
                dir.bucket_of(LfsFileId(0))
            };
            loop {
                if dir.bucket_of(LfsFileId(f)) == target {
                    match dir.insert(ctx, disk, entry(f, 0)) {
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
        with_dir(|ctx, disk, dir| {
            dir.insert(ctx, disk, entry(3, 1)).unwrap();
            dir.insert(ctx, disk, entry(1, 2)).unwrap();
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
            let mut dir = Directory::new(1, 32);
            dir.format(&mut disk);
            let t0 = ctx.now();
            dir.lookup(ctx, &mut disk, LfsFileId(5)).unwrap();
            let t1 = ctx.now();
            dir.lookup(ctx, &mut disk, LfsFileId(5)).unwrap();
            let t2 = ctx.now();
            (t1 - t0, t2 - t1)
        });
        assert!(!cold.is_zero(), "cold lookup reads the bucket");
        assert!(warm.is_zero(), "warm lookup is served from cache");
    }
}
