//! The Elementary File System proper.
//!
//! A stateless local file system per the paper's description of Cronus EFS:
//! files are doubly linked circular lists of blocks; every request can carry
//! a disk-address hint; lookups search from the closest of the beginning,
//! the end, and the hint; deletion explicitly frees block by block. One
//! `Efs` owns one [`SimDisk`] and is in turn owned by the LFS server
//! process of its node.

use crate::alloc::BlockAllocator;
use crate::cache::{LinkCache, LinkInfo};
use crate::directory::{DirEntry, Directory};
use crate::error::EfsError;
use crate::layout::{
    decode_block, decode_header, encode_block, is_free_block, EfsHeader, LfsFileId,
    EFS_HEADER_SIZE, EFS_PAYLOAD,
};
use crate::wal::{scan_and_resume, PrepareIntent, RecoveredOp, Wal, WalConfig, WalRecord};
use bridge_trace::{FsGauges, LfsCounters, LfsTelemetry, TelemetryRegistry};
use bytes::{Buf, BufMut, Bytes};
use parsim::{Ctx, FixedMap, SimDuration};
use simdisk::{BlockAddr, BlockDevice, SimDisk};
use std::collections::BTreeMap;
use std::sync::Arc;

const SUPERBLOCK_MAGIC: u32 = 0xB21D_6EF5;
const SUPERBLOCK_VERSION: u32 = 2;

/// Tuning knobs for one EFS instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EfsConfig {
    /// Directory hash buckets (one disk block each).
    pub dir_buckets: u32,
    /// Entries held by the link cache.
    pub link_cache_capacity: usize,
    /// CPU time charged for handling one request (a late-1980s processor
    /// threading a request through the server; the paper's Table 2
    /// constants include this).
    pub cpu_per_request: SimDuration,
    /// Write-ahead log configuration (disabled by default; see
    /// [`WalConfig`]).
    pub wal: WalConfig,
}

impl Default for EfsConfig {
    fn default() -> Self {
        EfsConfig {
            dir_buckets: 128,
            link_cache_capacity: 256,
            cpu_per_request: SimDuration::from_millis(5),
            wal: WalConfig::disabled(),
        }
    }
}

/// Metadata returned by [`Efs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileInfo {
    /// The file's numeric name.
    pub file: LfsFileId,
    /// Size in blocks.
    pub size: u32,
    /// Disk address of block 0, if the file is non-empty. Useful as a hint.
    pub first: Option<BlockAddr>,
    /// Disk address of the last block, if the file is non-empty.
    pub last: Option<BlockAddr>,
}

/// Operation counters for one EFS instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EfsStats {
    /// Requests served (all kinds).
    pub requests: u64,
    /// Block reads served.
    pub reads: u64,
    /// Block writes served (overwrites and appends).
    pub writes: u64,
    /// Appends among the writes.
    pub appends: u64,
    /// Blocks freed by deletes.
    pub blocks_freed: u64,
    /// List-walk steps taken to locate blocks.
    pub walk_steps: u64,
    /// Hint blocks probed.
    pub hint_probes: u64,
}

/// Result of a consistency check ([`Efs::fsck`] / [`Efs::fsck_timed`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FsckReport {
    /// Files found in the directory.
    pub files: u32,
    /// Live data blocks accounted for.
    pub blocks: u32,
    /// Inconsistencies found (empty means clean).
    pub errors: Vec<String>,
    /// Inconsistencies repaired (repair mode only).
    pub repaired: u32,
}

/// A corruption a test or CI smoke step can plant with
/// [`Efs::seed_corruption`], for exercising [`Efs::fsck_timed`] repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Clobber the last block of the largest file: a torn tail the check
    /// must truncate away.
    TornTail,
    /// Mark a free block allocated with no file referencing it: the check
    /// must return it to the allocator.
    OrphanBlock,
    /// Plant a directory entry whose first block is garbage: the check
    /// must drop the dangling entry.
    DanglingEntry,
}

/// One Elementary File System instance over one block device (a plain
/// [`SimDisk`] by default; the baseline crate substitutes striped sets and
/// storage arrays).
#[derive(Debug)]
pub struct Efs<D: BlockDevice = SimDisk> {
    disk: D,
    config: EfsConfig,
    dir: Directory,
    alloc: BlockAllocator,
    links: LinkCache,
    stats: EfsStats,
    data_start: u32,
    bitmap_start: u32,
    bitmap_blocks: u32,
    wal_start: u32,
    wal_blocks: u32,
    wal: Option<Wal>,
    /// In-memory shadow of every file's block chain, in block order.
    /// Maintained by create/append/delete and rebuilt from raw chain
    /// walks at mount/recovery; this is what makes Delete O(1) in disk
    /// operations — the addresses to free are already known.
    chains: FixedMap<LfsFileId, Vec<BlockAddr>>,
    /// (client process index, request id) of the request being served,
    /// echoed into WAL records so recovery can reconstruct the reply.
    req: (u32, u64),
    /// Machine-wide transactions this participant has prepared but not
    /// yet seen a decision for. While any are pending, checkpoints are
    /// deferred — a checkpoint persists in-memory state, and tentative
    /// effects must stay revocable until the coordinator decides.
    prepared: FixedMap<u64, PreparedTxn>,
    /// Live-telemetry handle (`None` = unarmed, the fast path). Updating
    /// counters is host-side only — arming telemetry never touches
    /// virtual time.
    telemetry: Option<EfsTelemetry>,
}

/// This instance's handle into the machine's shared telemetry registry:
/// the registry itself (journal events), the instance's column index, and
/// its live counters.
#[derive(Debug, Clone)]
pub struct EfsTelemetry {
    /// The machine-wide registry; typed journal events go here.
    pub registry: Arc<TelemetryRegistry>,
    /// This instance's column index in the registry.
    pub index: u32,
    /// This instance's live counters.
    pub counters: Arc<LfsCounters>,
}

/// Tentative state held between [`Efs::prepare`] and [`Efs::decide`].
#[derive(Debug)]
struct PreparedTxn {
    intent: PrepareIntent,
    /// For delete intents: the removed directory entries and their block
    /// chains, so an abort restores the files and a commit frees exactly
    /// these blocks. Empty for create intents.
    stashed: Vec<(DirEntry, Vec<BlockAddr>)>,
    /// For an appending write intent: a block held out of the allocator
    /// so the yes-vote guarantees commit cannot fail with `NoSpace`.
    /// Returned to the allocator at decide (the commit path re-allocates
    /// through the normal append), and implicitly dropped by a crash —
    /// recovery rebuilds the allocator from reachability, which matches
    /// the presumed-abort rollback.
    reserved: Option<BlockAddr>,
}

struct Layout {
    dir_start: u32,
    bitmap_start: u32,
    bitmap_blocks: u32,
    wal_start: u32,
    wal_blocks: u32,
    data_start: u32,
}

fn layout_for(disk: &dyn BlockDevice, dir_buckets: u32, wal_blocks: u32) -> Layout {
    let capacity = disk.capacity_blocks();
    let bits_per_block = (disk.geometry().block_size * 8) as u32;
    let dir_start = 1;
    let bitmap_start = dir_start + dir_buckets;
    let bitmap_blocks = capacity.div_ceil(bits_per_block);
    let wal_start = bitmap_start + bitmap_blocks;
    let data_start = wal_start + wal_blocks;
    assert!(
        data_start < capacity,
        "disk too small for metadata ({data_start} metadata blocks, {capacity} total)"
    );
    Layout {
        dir_start,
        bitmap_start,
        bitmap_blocks,
        wal_start,
        wal_blocks,
        data_start,
    }
}

impl<D: BlockDevice> Efs<D> {
    /// Formats `disk` and returns a fresh file system. Formatting is
    /// untimed (it happens before the machine "boots").
    pub fn format(mut disk: D, config: EfsConfig) -> Self {
        let layout = layout_for(&disk, config.dir_buckets, config.wal.log_blocks);
        let capacity = disk.capacity_blocks();

        let dir = Directory::new(layout.dir_start, config.dir_buckets);
        dir.format(&mut disk);

        let alloc = BlockAllocator::new(layout.data_start, capacity);
        let block_size = disk.geometry().block_size;

        // Superblock.
        let mut sb = Vec::with_capacity(block_size);
        sb.put_u32_le(SUPERBLOCK_MAGIC);
        sb.put_u32_le(SUPERBLOCK_VERSION);
        sb.put_u32_le(layout.dir_start);
        sb.put_u32_le(config.dir_buckets);
        sb.put_u32_le(layout.bitmap_start);
        sb.put_u32_le(layout.bitmap_blocks);
        sb.put_u32_le(layout.data_start);
        sb.put_u32_le(capacity);
        sb.put_u32_le(layout.wal_start);
        sb.put_u32_le(layout.wal_blocks);
        sb.resize(block_size, 0);
        disk.write_raw(BlockAddr::new(0), &sb);

        let wal = config.wal.is_enabled().then(|| {
            Wal::format(
                &mut disk,
                layout.wal_start,
                layout.wal_blocks,
                config.wal.group_commit,
            )
        });
        let mut efs = Efs {
            disk,
            config,
            dir,
            alloc,
            links: LinkCache::new(config.link_cache_capacity),
            stats: EfsStats::default(),
            data_start: layout.data_start,
            bitmap_start: layout.bitmap_start,
            bitmap_blocks: layout.bitmap_blocks,
            wal_start: layout.wal_start,
            wal_blocks: layout.wal_blocks,
            wal,
            chains: FixedMap::default(),
            req: (0, 0),
            prepared: FixedMap::default(),
            telemetry: None,
        };
        efs.write_bitmap_raw();
        efs
    }

    /// Re-attaches to a previously formatted disk (untimed). The allocator
    /// state is read from the persisted bitmap, so call
    /// [`Efs::sync`] before unmounting, or run [`Efs::fsck`] after
    /// mounting to rebuild it from the block structure itself.
    ///
    /// # Errors
    ///
    /// [`EfsError::Corrupt`] if the superblock is missing or invalid.
    pub fn mount(disk: D, config: EfsConfig) -> Result<Self, EfsError> {
        let sb = disk
            .read_raw(BlockAddr::new(0))
            .ok_or_else(|| EfsError::Corrupt("no superblock".into()))?;
        let mut buf = sb;
        let magic = buf.get_u32_le();
        if magic != SUPERBLOCK_MAGIC {
            return Err(EfsError::Corrupt(format!(
                "bad superblock magic {magic:#x}"
            )));
        }
        let version = buf.get_u32_le();
        if version != SUPERBLOCK_VERSION {
            return Err(EfsError::Corrupt(format!("unsupported version {version}")));
        }
        let dir_start = buf.get_u32_le();
        let dir_buckets = buf.get_u32_le();
        let bitmap_start = buf.get_u32_le();
        let bitmap_blocks = buf.get_u32_le();
        let data_start = buf.get_u32_le();
        let capacity = buf.get_u32_le();
        let wal_start = buf.get_u32_le();
        let wal_blocks = buf.get_u32_le();
        if capacity != disk.capacity_blocks() {
            return Err(EfsError::Corrupt(
                "superblock capacity disagrees with device".into(),
            ));
        }

        // Rebuild the allocator from the persisted bitmap.
        let mut alloc = BlockAllocator::new(data_start, capacity);
        for i in 0..bitmap_blocks {
            let bytes = disk
                .read_raw(BlockAddr::new(bitmap_start + i))
                .ok_or_else(|| EfsError::Corrupt("bitmap region unreadable".into()))?;
            let base = i as u64 * (bytes.len() as u64 * 8);
            for (byte_idx, &byte) in bytes.iter().enumerate() {
                if byte == 0 {
                    continue;
                }
                for bit in 0..8 {
                    if byte >> bit & 1 == 1 {
                        let block = base + byte_idx as u64 * 8 + bit;
                        if block >= u64::from(data_start) && block < u64::from(capacity) {
                            alloc.reserve(BlockAddr::new(block as u32));
                        }
                    }
                }
            }
        }

        let mut efs = Efs {
            dir: Directory::new(dir_start, dir_buckets),
            alloc,
            links: LinkCache::new(config.link_cache_capacity),
            stats: EfsStats::default(),
            data_start,
            bitmap_start,
            bitmap_blocks,
            wal_start,
            wal_blocks,
            wal: None,
            chains: FixedMap::default(),
            req: (0, 0),
            prepared: FixedMap::default(),
            telemetry: None,
            disk,
            config,
        };
        if wal_blocks > 0 {
            // A WAL-formatted disk mounts through the recovery path: any
            // committed-but-unapplied records are replayed, and the
            // allocator is rebuilt from reachability rather than the
            // (possibly stale) persisted bitmap.
            efs.recover()?;
        } else {
            efs.rebuild_chains_raw();
        }
        Ok(efs)
    }

    /// This instance's configuration.
    pub fn config(&self) -> EfsConfig {
        self.config
    }

    /// Operation counters.
    pub fn stats(&self) -> EfsStats {
        self.stats
    }

    /// The underlying device (for its counters).
    pub fn disk(&self) -> &D {
        &self.disk
    }

    /// Consumes the file system, returning the device (e.g. to remount).
    pub fn into_disk(self) -> D {
        self.disk
    }

    /// Free data blocks remaining.
    pub fn free_blocks(&self) -> u32 {
        self.alloc.free_blocks()
    }

    /// Link-cache hit rate so far (0.0 when unused), and entries held.
    pub fn link_cache_usage(&self) -> (f64, usize) {
        (self.links.hit_rate(), self.links.len())
    }

    /// Cached disk address of `(file, block_no)`, if the link cache holds
    /// it. Free — no hit/miss accounting, no recency refresh, no media
    /// access — so the request scheduler can use it to estimate where a
    /// pending request will move the head.
    pub(crate) fn link_addr(&self, file: LfsFileId, block_no: u32) -> Option<BlockAddr> {
        self.links.peek(file, block_no).map(|info| info.addr)
    }

    fn charge_cpu(&mut self, ctx: &mut Ctx) {
        self.stats.requests += 1;
        ctx.delay(self.config.cpu_per_request);
    }

    /// Creates an empty file. With a WAL, the directory entry stays in
    /// memory until the intent record commits (and is persisted at the
    /// next checkpoint); without one it is written through.
    ///
    /// # Errors
    ///
    /// [`EfsError::FileExists`] or [`EfsError::DirectoryFull`].
    pub fn create(&mut self, ctx: &mut Ctx, file: LfsFileId) -> Result<(), EfsError> {
        self.charge_cpu(ctx);
        let entry = DirEntry {
            file,
            first: BlockAddr::new(0),
            last: BlockAddr::new(0),
            size: 0,
        };
        if let Some(wal) = self.wal.as_mut() {
            self.dir.insert_deferred(ctx, &mut self.disk, entry)?;
            let (client, id) = self.req;
            wal.log(WalRecord::Create { client, id, file });
        } else {
            self.dir.insert(ctx, &mut self.disk, entry)?;
        }
        self.chains.insert(file, Vec::new());
        Ok(())
    }

    /// File metadata; the returned addresses make good hints.
    ///
    /// # Errors
    ///
    /// [`EfsError::UnknownFile`].
    pub fn stat(&mut self, ctx: &mut Ctx, file: LfsFileId) -> Result<FileInfo, EfsError> {
        self.charge_cpu(ctx);
        let entry = self
            .dir
            .lookup(ctx, &mut self.disk, file)?
            .ok_or(EfsError::UnknownFile(file))?;
        Ok(FileInfo {
            file,
            size: entry.size,
            first: (entry.size > 0).then_some(entry.first),
            last: (entry.size > 0).then_some(entry.last),
        })
    }

    /// Reads local block `block_no` of `file`, returning the 1000-byte
    /// payload and the block's disk address (the natural hint for the next
    /// request).
    ///
    /// # Errors
    ///
    /// [`EfsError::UnknownFile`], [`EfsError::BlockOutOfRange`], or
    /// [`EfsError::Corrupt`].
    pub fn read(
        &mut self,
        ctx: &mut Ctx,
        file: LfsFileId,
        block_no: u32,
        hint: Option<BlockAddr>,
    ) -> Result<(Bytes, BlockAddr), EfsError> {
        self.charge_cpu(ctx);
        self.stats.reads += 1;
        let entry = self
            .dir
            .lookup(ctx, &mut self.disk, file)?
            .ok_or(EfsError::UnknownFile(file))?;
        if block_no >= entry.size {
            return Err(EfsError::BlockOutOfRange {
                file,
                block_no,
                size: entry.size,
            });
        }
        let addr = self.locate(ctx, &entry, block_no, hint)?;
        let (header, payload) = self.read_and_check(ctx, addr, file, block_no)?;
        self.links.put(
            file,
            block_no,
            LinkInfo {
                addr,
                next: header.next,
                prev: header.prev,
            },
        );
        Ok((payload, addr))
    }

    /// Writes local block `block_no` of `file`: an in-place overwrite when
    /// `block_no < size`, an append when `block_no == size`. Returns the
    /// block's disk address.
    ///
    /// # Errors
    ///
    /// [`EfsError::UnknownFile`], [`EfsError::WriteBeyondEnd`],
    /// [`EfsError::PayloadTooLarge`], or [`EfsError::NoSpace`].
    pub fn write(
        &mut self,
        ctx: &mut Ctx,
        file: LfsFileId,
        block_no: u32,
        payload: &[u8],
        hint: Option<BlockAddr>,
    ) -> Result<BlockAddr, EfsError> {
        self.charge_cpu(ctx);
        if payload.len() > EFS_PAYLOAD {
            return Err(EfsError::PayloadTooLarge {
                provided: payload.len(),
            });
        }
        self.stats.writes += 1;
        let entry = self
            .dir
            .lookup(ctx, &mut self.disk, file)?
            .ok_or(EfsError::UnknownFile(file))?;
        let addr = match block_no.cmp(&entry.size) {
            std::cmp::Ordering::Less => self.overwrite(ctx, &entry, block_no, payload, hint)?,
            std::cmp::Ordering::Equal => {
                self.stats.appends += 1;
                self.append(ctx, entry, payload)?
            }
            std::cmp::Ordering::Greater => {
                return Err(EfsError::WriteBeyondEnd {
                    file,
                    block_no,
                    size: entry.size,
                })
            }
        };
        self.log_set_chain(ctx, file, false, vec![addr])?;
        Ok(addr)
    }

    /// Reads `count` consecutive local blocks starting at `first` in one
    /// request: a single CPU charge and one hint search, then a walk of the
    /// doubly-linked list that hands the device a whole run
    /// ([`BlockDevice::read_many`]) whenever the upcoming addresses are
    /// already known from the link cache. Returns each block's payload and
    /// disk address in order; the last address is the natural hint for the
    /// next run.
    ///
    /// # Errors
    ///
    /// [`EfsError::UnknownFile`], [`EfsError::BlockOutOfRange`] (when any
    /// part of the run is past the end), or [`EfsError::Corrupt`].
    pub fn read_run(
        &mut self,
        ctx: &mut Ctx,
        file: LfsFileId,
        first: u32,
        count: u32,
        hint: Option<BlockAddr>,
    ) -> Result<Vec<(Bytes, BlockAddr)>, EfsError> {
        self.charge_cpu(ctx);
        if count == 0 {
            return Ok(Vec::new());
        }
        let entry = self
            .dir
            .lookup(ctx, &mut self.disk, file)?
            .ok_or(EfsError::UnknownFile(file))?;
        let end = first
            .checked_add(count)
            .filter(|&e| e <= entry.size)
            .ok_or(EfsError::BlockOutOfRange {
                file,
                block_no: first.saturating_add(count - 1),
                size: entry.size,
            })?;
        self.stats.reads += u64::from(count);
        let mut out: Vec<(Bytes, BlockAddr)> = Vec::with_capacity(count as usize);
        let mut no = first;
        let mut addr = self.locate(ctx, &entry, first, hint)?;
        while no < end {
            // Extend the segment through link-cache knowledge so the disk
            // sees one run, not one block; a cold walk degrades to chained
            // single-block reads (each block names its successor).
            let mut addrs = vec![addr];
            let mut cur_no = no;
            let mut cur_addr = addr;
            while cur_no + 1 < end {
                let Some(info) = self.links.peek(file, cur_no) else {
                    break;
                };
                if info.addr != cur_addr {
                    break;
                }
                cur_addr = info.next;
                cur_no += 1;
                addrs.push(cur_addr);
            }
            let blocks = self.disk.read_many(ctx, &addrs)?;
            let mut next_addr = addr;
            for (bytes, &a) in blocks.iter().zip(&addrs) {
                let (header, payload) = decode_block(bytes)?;
                if header.file != file || header.block_no != no {
                    return Err(EfsError::Corrupt(format!(
                        "expected {file} block {no} at {a}, found {} block {}",
                        header.file, header.block_no
                    )));
                }
                self.links.put(
                    file,
                    no,
                    LinkInfo {
                        addr: a,
                        next: header.next,
                        prev: header.prev,
                    },
                );
                out.push((payload, a));
                next_addr = header.next;
                no += 1;
            }
            addr = next_addr;
        }
        Ok(out)
    }

    /// Writes `payloads.len()` consecutive local blocks starting at `first`
    /// in one request, charging CPU once for the whole run. A pure append
    /// run (`first == size`) allocates all its blocks up front, links them
    /// in memory, and hands the device a single
    /// [`BlockDevice::write_many`] — positioning once per track — followed
    /// by one directory update. Runs that overwrite existing blocks fall
    /// back to block-at-a-time servicing.
    ///
    /// Returns the disk address of every block written, in order.
    ///
    /// # Errors
    ///
    /// As [`Efs::write`]. On an error mid-run, earlier blocks of the run
    /// may already be written — the same partial-failure contract as
    /// issuing the writes separately.
    pub fn write_run(
        &mut self,
        ctx: &mut Ctx,
        file: LfsFileId,
        first: u32,
        payloads: &[Bytes],
        hint: Option<BlockAddr>,
    ) -> Result<Vec<BlockAddr>, EfsError> {
        self.charge_cpu(ctx);
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        for p in payloads {
            if p.len() > EFS_PAYLOAD {
                return Err(EfsError::PayloadTooLarge { provided: p.len() });
            }
        }
        let entry = self
            .dir
            .lookup(ctx, &mut self.disk, file)?
            .ok_or(EfsError::UnknownFile(file))?;
        if first > entry.size {
            return Err(EfsError::WriteBeyondEnd {
                file,
                block_no: first,
                size: entry.size,
            });
        }
        if first == entry.size {
            let addrs = self.append_run(ctx, entry, payloads)?;
            self.log_set_chain(ctx, file, true, addrs.clone())?;
            return Ok(addrs);
        }
        // The run overwrites existing blocks (and possibly appends past
        // the end): block-at-a-time, but still one message and one CPU
        // charge for the caller.
        let mut addrs = Vec::with_capacity(payloads.len());
        let mut hint = hint;
        for (i, payload) in payloads.iter().enumerate() {
            let block_no = first + i as u32;
            let entry = self
                .dir
                .lookup(ctx, &mut self.disk, file)?
                .ok_or(EfsError::UnknownFile(file))?;
            self.stats.writes += 1;
            let addr = if block_no < entry.size {
                self.overwrite(ctx, &entry, block_no, payload, hint)?
            } else {
                self.stats.appends += 1;
                self.append(ctx, entry, payload)?
            };
            hint = Some(addr);
            addrs.push(addr);
        }
        self.log_set_chain(ctx, file, true, addrs.clone())?;
        Ok(addrs)
    }

    /// Deletes a file as a logical free: one directory-bucket operation
    /// and an in-memory allocator update. This retires the Cronus
    /// resiliency remnant ("a file deletion algorithm that traverses the
    /// file sequentially, explicitly freeing each block") — the block
    /// addresses come from the in-memory chain shadow, so Delete is O(1)
    /// in disk operations regardless of file size, and an interrupted
    /// delete can no longer leave a half-tombstoned file. With a WAL the
    /// free is made durable by the logged record; without one the
    /// directory write-through removes the file and the bitmap catches up
    /// at [`Efs::sync`], exactly as appends already did. Returns the
    /// number of blocks freed.
    ///
    /// # Errors
    ///
    /// [`EfsError::UnknownFile`].
    pub fn delete(&mut self, ctx: &mut Ctx, file: LfsFileId) -> Result<u32, EfsError> {
        self.charge_cpu(ctx);
        let entry = if self.wal.is_some() {
            self.dir.remove_deferred(ctx, &mut self.disk, file)?
        } else {
            self.dir.remove(ctx, &mut self.disk, file)?
        };
        let chain = self.chains.remove(&file).unwrap_or_default();
        debug_assert_eq!(
            chain.len(),
            entry.size as usize,
            "chain shadow out of step with {file}"
        );
        for &addr in &chain {
            self.alloc.release(addr);
        }
        self.stats.blocks_freed += chain.len() as u64;
        self.links.invalidate_file(file);
        if let Some(wal) = self.wal.as_mut() {
            let (client, id) = self.req;
            wal.log(WalRecord::Delete {
                client,
                id,
                file,
                freed: entry.size,
            });
        }
        Ok(entry.size)
    }

    /// Phase 1 of a machine-wide transaction (presumed-abort 2PC):
    /// applies `intent` tentatively, logs a `WalRecord::Prepare`, and
    /// returns the number of blocks this participant will free if the
    /// transaction commits. The yes-vote becomes binding once the server
    /// loop's group commit makes the record durable and acknowledges it;
    /// until a [`Efs::decide`] arrives, a crash rolls the tentative
    /// effect back (presumed abort).
    ///
    /// Tentative semantics: a create intent inserts size-0 directory
    /// entries (deferred, like [`Efs::create`]); a delete intent removes
    /// its entries and stashes them with their block chains *without
    /// releasing any block*, so an abort restores the files bit-for-bit
    /// and a commit frees exactly the stashed chains. Files named by a
    /// delete intent but absent from the directory are skipped — a
    /// column can be legitimately missing on a node that was failed when
    /// the file was created — and contribute nothing to the freed count.
    ///
    /// # Errors
    ///
    /// [`EfsError::FileExists`] / [`EfsError::DirectoryFull`] when a
    /// create intent cannot apply (any partial tentative insert is
    /// undone before the no-vote propagates); [`EfsError::Corrupt`] when
    /// this instance runs no WAL (2PC requires one) or `txn` is already
    /// prepared.
    pub fn prepare(
        &mut self,
        ctx: &mut Ctx,
        txn: u64,
        intent: PrepareIntent,
    ) -> Result<u32, EfsError> {
        self.charge_cpu(ctx);
        if self.wal.is_none() {
            return Err(EfsError::Corrupt("prepare requires a WAL".into()));
        }
        if self.prepared.contains_key(&txn) {
            return Err(EfsError::Corrupt(format!("txn {txn} already prepared")));
        }
        let mut stashed: Vec<(DirEntry, Vec<BlockAddr>)> = Vec::new();
        let mut reserved: Option<BlockAddr> = None;
        let mut freed = 0u32;
        match &intent {
            PrepareIntent::CreateFiles(files) => {
                let mut inserted: Vec<LfsFileId> = Vec::new();
                for &file in files {
                    let entry = DirEntry {
                        file,
                        first: BlockAddr::new(0),
                        last: BlockAddr::new(0),
                        size: 0,
                    };
                    if let Err(e) = self.dir.insert_deferred(ctx, &mut self.disk, entry) {
                        for f in inserted {
                            self.dir.remove_absolute(&self.disk, f)?;
                            self.chains.remove(&f);
                        }
                        return Err(e);
                    }
                    self.chains.insert(file, Vec::new());
                    inserted.push(file);
                }
            }
            PrepareIntent::DeleteFiles(files) => {
                for &file in files {
                    let entry = match self.dir.remove_deferred(ctx, &mut self.disk, file) {
                        Ok(e) => e,
                        Err(EfsError::UnknownFile(_)) => continue,
                        Err(e) => return Err(e),
                    };
                    let chain = self.chains.remove(&file).unwrap_or_default();
                    debug_assert_eq!(
                        chain.len(),
                        entry.size as usize,
                        "chain shadow out of step with {file}"
                    );
                    freed += entry.size;
                    stashed.push((entry, chain));
                }
            }
            PrepareIntent::WriteBlock {
                file,
                block_no,
                payload,
            } => {
                // Deferred apply: validate now, write at decide(commit).
                // The payload rides in the logged intent, so nothing
                // tentative touches the data region and presumed-abort
                // rollback has no block state to unwind.
                if payload.len() > EFS_PAYLOAD {
                    return Err(EfsError::PayloadTooLarge {
                        provided: payload.len(),
                    });
                }
                let entry = self
                    .dir
                    .lookup(ctx, &mut self.disk, *file)?
                    .ok_or(EfsError::UnknownFile(*file))?;
                match block_no.cmp(&entry.size) {
                    std::cmp::Ordering::Less => {}
                    std::cmp::Ordering::Equal => {
                        reserved = Some(self.alloc.allocate().ok_or(EfsError::NoSpace)?);
                    }
                    std::cmp::Ordering::Greater => {
                        return Err(EfsError::WriteBeyondEnd {
                            file: *file,
                            block_no: *block_no,
                            size: entry.size,
                        })
                    }
                }
            }
        }
        let (client, id) = self.req;
        self.wal.as_mut().expect("checked").log(WalRecord::Prepare {
            client,
            id,
            txn,
            intent: intent.clone(),
            freed,
        });
        self.prepared.insert(
            txn,
            PreparedTxn {
                intent,
                stashed,
                reserved,
            },
        );
        Ok(freed)
    }

    /// Phase 2 of a machine-wide transaction: applies the coordinator's
    /// decision, logs a `WalRecord::Decide`, and returns the blocks
    /// actually freed (non-zero only for a committed delete — the figure
    /// a coordinator redoing phase 2 after its own crash needs, since the
    /// original prepare acknowledgements died with it). Idempotent, and
    /// defined even when `txn` is not prepared here — because this
    /// participant's recovery already rolled it back (presumed abort), or
    /// the decision is a re-delivery. The intent rides along with the
    /// decision for exactly that case: commit-create inserts whatever is
    /// missing, commit-delete removes and frees whatever is still
    /// present, abort-create removes whatever is present, abort-delete
    /// leaves the (already restored) files alone.
    ///
    /// # Errors
    ///
    /// [`EfsError::Corrupt`] when this instance runs no WAL or a bucket
    /// fails to decode.
    pub fn decide(
        &mut self,
        ctx: &mut Ctx,
        txn: u64,
        commit: bool,
        intent: PrepareIntent,
    ) -> Result<u32, EfsError> {
        self.charge_cpu(ctx);
        if self.wal.is_none() {
            return Err(EfsError::Corrupt("decide requires a WAL".into()));
        }
        let mut freed = 0u32;
        match self.prepared.remove(&txn) {
            Some(p) => {
                if let PrepareIntent::WriteBlock {
                    file,
                    block_no,
                    payload,
                } = &p.intent
                {
                    // The prepare's allocation hold is returned either
                    // way; a commit re-allocates through the normal
                    // (ordered-journaling) write path, which also logs
                    // the SetChain record replay needs.
                    if let Some(addr) = p.reserved {
                        self.alloc.release(addr);
                    }
                    if commit {
                        self.write(ctx, *file, *block_no, payload, None)?;
                    }
                } else if commit {
                    // Creates are already in place; deletes free their
                    // stashed chains now that the outcome is settled.
                    for (entry, chain) in p.stashed {
                        for &addr in &chain {
                            self.alloc.release(addr);
                        }
                        freed += chain.len() as u32;
                        self.stats.blocks_freed += chain.len() as u64;
                        self.links.invalidate_file(entry.file);
                    }
                } else {
                    match &p.intent {
                        PrepareIntent::CreateFiles(files) => {
                            for &file in files {
                                self.dir.remove_absolute(&self.disk, file)?;
                                self.chains.remove(&file);
                            }
                        }
                        PrepareIntent::DeleteFiles(_) => {
                            for (entry, chain) in p.stashed {
                                self.dir.set_absolute(&self.disk, entry)?;
                                self.chains.insert(entry.file, chain);
                            }
                        }
                        PrepareIntent::WriteBlock { .. } => unreachable!("handled above"),
                    }
                }
            }
            None => match (&intent, commit) {
                (PrepareIntent::CreateFiles(files), true) => {
                    for &file in files {
                        if self.dir.lookup_absolute(&self.disk, file)?.is_none() {
                            self.dir.set_absolute(
                                &self.disk,
                                DirEntry {
                                    file,
                                    first: BlockAddr::new(0),
                                    last: BlockAddr::new(0),
                                    size: 0,
                                },
                            )?;
                            self.chains.insert(file, Vec::new());
                        }
                    }
                }
                (PrepareIntent::CreateFiles(files), false) => {
                    for &file in files {
                        if self.dir.lookup_absolute(&self.disk, file)?.is_some() {
                            self.dir.remove_absolute(&self.disk, file)?;
                            self.chains.remove(&file);
                        }
                    }
                }
                (PrepareIntent::DeleteFiles(files), true) => {
                    for &file in files {
                        if self.dir.lookup_absolute(&self.disk, file)?.is_some() {
                            self.dir.remove_absolute(&self.disk, file)?;
                            let chain = self.chains.remove(&file).unwrap_or_default();
                            for &addr in &chain {
                                self.alloc.release(addr);
                            }
                            freed += chain.len() as u32;
                            self.stats.blocks_freed += chain.len() as u64;
                            self.links.invalidate_file(file);
                        }
                    }
                }
                (PrepareIntent::DeleteFiles(_), false) => {}
                (
                    PrepareIntent::WriteBlock {
                        file,
                        block_no,
                        payload,
                    },
                    true,
                ) => {
                    // Re-drive after this participant's presumed-abort
                    // rollback (or a post-recovery duplicate): the normal
                    // write path *is* the idempotent apply — an
                    // already-applied append shows up as an in-range
                    // overwrite of identical bytes.
                    self.write(ctx, *file, *block_no, payload, None)?;
                }
                (PrepareIntent::WriteBlock { .. }, false) => {}
            },
        }
        let (client, id) = self.req;
        self.wal.as_mut().expect("checked").log(WalRecord::Decide {
            client,
            id,
            txn,
            commit,
            intent,
            freed,
        });
        Ok(freed)
    }

    /// Flushes the directory and allocation bitmap to disk (timed). With
    /// a WAL this is a full commit + checkpoint, so everything is durable
    /// at home when it returns.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn sync(&mut self, ctx: &mut Ctx) -> Result<(), EfsError> {
        if self.wal.is_some() {
            if let Some(wal) = self.wal.as_mut() {
                wal.commit(ctx, &mut self.disk)?;
            }
            // A checkpoint persists in-memory effects; tentative 2PC
            // state must stay revocable, so it is deferred while any
            // transaction is in doubt. The committed Prepare records
            // keep everything recoverable in the meantime.
            if self.prepared.is_empty() {
                return self.checkpoint_inner(ctx);
            }
            return Ok(());
        }
        self.dir.sync(ctx, &mut self.disk)?;
        self.write_bitmap(ctx)
    }

    /// Makes every pending intent record durable (group commit): writes
    /// the batch into the log ring, flushes the device, and — only once
    /// nothing is pending — checkpoints if half the ring is live. The
    /// server calls this before acknowledging any mutating operation; a
    /// no-op without a WAL.
    ///
    /// # Errors
    ///
    /// Propagates device errors ([`simdisk::DiskError::Crashed`] when the
    /// node died mid-commit).
    pub fn commit(&mut self, ctx: &mut Ctx) -> Result<(), EfsError> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(());
        };
        if wal.has_pending() {
            let t0 = ctx.now();
            let records = wal.commit(ctx, &mut self.disk)?;
            if ctx.trace_enabled() {
                ctx.trace_span("wal", "wal.commit", t0, &[("records", records as u64)]);
            }
        }
        if self.prepared.is_empty() && self.wal.as_ref().expect("checked").needs_checkpoint() {
            self.checkpoint_inner(ctx)?;
        }
        Ok(())
    }

    /// Persists directory + bitmap, then stamps a checkpoint record.
    /// Must only run with no records pending (commit ordering rule): a
    /// checkpoint persists in-memory effects, which must all be of
    /// committed operations.
    fn checkpoint_inner(&mut self, ctx: &mut Ctx) -> Result<(), EfsError> {
        let t0 = ctx.now();
        self.dir.sync(ctx, &mut self.disk)?;
        self.write_bitmap(ctx)?;
        let wal = self.wal.as_mut().expect("checkpoint needs a wal");
        wal.checkpoint(ctx, &mut self.disk)?;
        if ctx.trace_enabled() {
            ctx.trace_span("wal", "wal.checkpoint", t0, &[]);
        }
        Ok(())
    }

    /// Writes the allocation bitmap (timed).
    fn write_bitmap(&mut self, ctx: &mut Ctx) -> Result<(), EfsError> {
        let block_size = self.disk.geometry().block_size;
        let bytes = self.alloc.to_bytes();
        for i in 0..self.bitmap_blocks {
            let start = i as usize * block_size;
            let end = (start + block_size).min(bytes.len());
            let mut chunk = bytes[start..end.max(start)].to_vec();
            chunk.resize(block_size, 0);
            self.disk
                .write(ctx, BlockAddr::new(self.bitmap_start + i), &chunk)?;
        }
        Ok(())
    }

    /// All files on this LFS (untimed; debugging and tools' tests).
    ///
    /// # Errors
    ///
    /// [`EfsError::Corrupt`] if a directory bucket fails to decode.
    pub fn list_files_raw(&self) -> Result<Vec<FileInfo>, EfsError> {
        Ok(self
            .dir
            .scan_raw(&self.disk)?
            .into_iter()
            .map(|e| FileInfo {
                file: e.file,
                size: e.size,
                first: (e.size > 0).then_some(e.first),
                last: (e.size > 0).then_some(e.last),
            })
            .collect())
    }

    /// Offline consistency check (untimed): walks every file's block list,
    /// validates headers and back-pointers, and rebuilds the allocator and
    /// chain shadow from what it finds.
    pub fn fsck(&mut self) -> FsckReport {
        let mut report = FsckReport::default();
        let entries = match self.dir.scan_raw(&self.disk) {
            Ok(e) => e,
            Err(e) => {
                report.errors.push(format!("directory scan failed: {e}"));
                return report;
            }
        };
        let capacity = self.disk.capacity_blocks();
        let mut rebuilt = BlockAllocator::new(self.data_start, capacity);
        let mut chains: FixedMap<LfsFileId, Vec<BlockAddr>> = FixedMap::default();
        for entry in entries {
            report.files += 1;
            let chain = chains.entry(entry.file).or_default();
            let mut addr = entry.first;
            let mut prev_addr = entry.last;
            for block_no in 0..entry.size {
                let bytes = match self.disk.read_raw(addr) {
                    Some(b) => b,
                    None => {
                        report.errors.push(format!(
                            "{}: block {block_no} at {addr} unwritten",
                            entry.file
                        ));
                        break;
                    }
                };
                if is_free_block(bytes) {
                    report.errors.push(format!(
                        "{}: block {block_no} at {addr} is freed",
                        entry.file
                    ));
                    break;
                }
                match decode_header(bytes) {
                    Ok(header) => {
                        if header.file != entry.file || header.block_no != block_no {
                            report.errors.push(format!(
                                "{}: block {block_no} at {addr} labeled {} #{}",
                                entry.file, header.file, header.block_no
                            ));
                        }
                        if block_no > 0 && header.prev != prev_addr {
                            report.errors.push(format!(
                                "{}: block {block_no} back-pointer {} != {}",
                                entry.file, header.prev, prev_addr
                            ));
                        }
                        rebuilt.reserve(addr);
                        chain.push(addr);
                        report.blocks += 1;
                        prev_addr = addr;
                        addr = header.next;
                    }
                    Err(e) => {
                        report
                            .errors
                            .push(format!("{}: block {block_no} at {addr}: {e}", entry.file));
                        break;
                    }
                }
            }
        }
        self.alloc = rebuilt;
        self.chains = chains;
        report
    }

    /// Online consistency check over timed disk reads — the per-instance
    /// half of the `pfsck` tool. Passes are *pipelined within the
    /// instance*: as each directory bucket read completes, the chains of
    /// its entries are walked and cross-labeled while later buckets are
    /// still unread; the allocator cross-check runs over the accumulated
    /// reachability set at the end. With `repair` set, the check also
    /// fixes what it finds — truncating torn chain tails, dropping
    /// dangling directory entries, rewriting bad back-pointers, and
    /// returning orphaned blocks to the allocator — and persists the
    /// repaired state before returning, so a second pass reports clean.
    ///
    /// Emits `fsck.scan` and `fsck.alloc` trace spans and an
    /// `fsck.repair` instant per repair when tracing is enabled.
    pub fn fsck_timed(&mut self, ctx: &mut Ctx, repair: bool) -> FsckReport {
        self.charge_cpu(ctx);
        let mut report = FsckReport::default();
        let t0 = ctx.now();
        let capacity = self.disk.capacity_blocks();
        let mut rebuilt = BlockAllocator::new(self.data_start, capacity);
        let mut chains: FixedMap<LfsFileId, Vec<BlockAddr>> = FixedMap::default();
        // (entry, new size, new last) truncations and outright drops,
        // applied after the scan so bucket iteration stays stable.
        let mut truncate: Vec<(DirEntry, u32, BlockAddr)> = Vec::new();
        let buckets = self.dir.bucket_count();

        // Pass 1+2, pipelined per bucket: bucket read, then chain walks.
        for b in 0..buckets {
            let entries = match self.dir.load_bucket(ctx, &mut self.disk, b) {
                Ok(e) => e,
                Err(e) => {
                    report.errors.push(format!("bucket {b} unreadable: {e}"));
                    continue;
                }
            };
            for entry in entries {
                report.files += 1;
                let chain = chains.entry(entry.file).or_default();
                let mut addr = entry.first;
                let mut prev_addr = entry.last;
                let mut torn_at: Option<u32> = None;
                for block_no in 0..entry.size {
                    let header = match self.disk.read(ctx, addr) {
                        Err(e) => {
                            report
                                .errors
                                .push(format!("{}: block {block_no} at {addr}: {e}", entry.file));
                            torn_at = Some(block_no);
                            break;
                        }
                        Ok(bytes) => match decode_header(&bytes) {
                            Err(e) => {
                                report.errors.push(format!(
                                    "{}: block {block_no} at {addr}: {e}",
                                    entry.file
                                ));
                                torn_at = Some(block_no);
                                break;
                            }
                            Ok(h) if h.file != entry.file || h.block_no != block_no => {
                                report.errors.push(format!(
                                    "{}: block {block_no} at {addr} labeled {} #{}",
                                    entry.file, h.file, h.block_no
                                ));
                                torn_at = Some(block_no);
                                break;
                            }
                            Ok(mut h) => {
                                // The head's back-pointer is represented by
                                // the directory's `last` field and repaired
                                // lazily, so only interior links are
                                // checked — the same rule appends rely on.
                                if block_no > 0 && h.prev != prev_addr {
                                    report.errors.push(format!(
                                        "{}: block {block_no} back-pointer {} != {}",
                                        entry.file, h.prev, prev_addr
                                    ));
                                    if repair {
                                        let payload = bytes.slice(EFS_HEADER_SIZE..);
                                        h.prev = prev_addr;
                                        let _ =
                                            self.disk.write(ctx, addr, &encode_block(&h, &payload));
                                        self.note_repair(ctx, &mut report, "back-pointer");
                                    }
                                }
                                h
                            }
                        },
                    };
                    rebuilt.reserve(addr);
                    chain.push(addr);
                    report.blocks += 1;
                    prev_addr = addr;
                    addr = header.next;
                }
                if let Some(n) = torn_at {
                    let last_good = if n == 0 { entry.first } else { prev_addr };
                    truncate.push((entry, n, last_good));
                }
            }
        }
        if ctx.trace_enabled() {
            ctx.trace_span(
                "fsck",
                "fsck.scan",
                t0,
                &[
                    ("files", u64::from(report.files)),
                    ("blocks", u64::from(report.blocks)),
                ],
            );
        }

        // Pass 3: allocator cross-check against the reachability set.
        let t_alloc = ctx.now();
        let live = self.alloc.to_bytes();
        let want = rebuilt.to_bytes();
        let mut orphaned = 0u32;
        let mut unreserved = 0u32;
        for (a, w) in live.iter().zip(want.iter()) {
            orphaned += (a & !w).count_ones();
            unreserved += (!a & w).count_ones();
        }
        if orphaned > 0 {
            report.errors.push(format!(
                "{orphaned} allocated blocks unreachable (orphaned)"
            ));
        }
        if unreserved > 0 {
            report
                .errors
                .push(format!("{unreserved} reachable blocks not allocated"));
        }
        if ctx.trace_enabled() {
            ctx.trace_span(
                "fsck",
                "fsck.alloc",
                t_alloc,
                &[
                    ("orphaned", u64::from(orphaned)),
                    ("unreserved", u64::from(unreserved)),
                ],
            );
        }

        if repair {
            for (mut entry, size, last) in truncate {
                self.links.invalidate_file(entry.file);
                if size == 0 {
                    let _ = self.dir.remove(ctx, &mut self.disk, entry.file);
                    chains.remove(&entry.file);
                    self.note_repair(ctx, &mut report, "drop-entry");
                } else {
                    entry.size = size;
                    entry.last = last;
                    let _ = self.dir.update(ctx, &mut self.disk, entry);
                    if let Some(chain) = chains.get_mut(&entry.file) {
                        chain.truncate(size as usize);
                    }
                    self.note_repair(ctx, &mut report, "truncate");
                }
            }
            for _ in 0..orphaned.saturating_add(unreserved) {
                self.note_repair(ctx, &mut report, "allocator");
            }
            self.alloc = rebuilt;
            self.chains = chains;
            // Persist the repaired state so the verdict survives a
            // remount (and, with a WAL, stamp a checkpoint).
            let _ = self.sync(ctx);
        }
        report
    }

    fn note_repair(&mut self, ctx: &mut Ctx, report: &mut FsckReport, what: &'static str) {
        report.repaired += 1;
        if ctx.trace_enabled() {
            ctx.trace_instant("fsck", "fsck.repair", &[(what, 1)]);
        }
    }

    /// Plants one corruption for repair tests and the CI pfsck smoke step
    /// (untimed, raw). Returns a description of what was corrupted, or
    /// `None` when the instance has no suitable target.
    pub fn seed_corruption(&mut self, kind: CorruptionKind) -> Option<String> {
        match kind {
            CorruptionKind::OrphanBlock => {
                let addr = self.alloc.allocate()?;
                Some(format!("orphaned allocated block at {addr}"))
            }
            CorruptionKind::TornTail => {
                let (&file, chain) = self
                    .chains
                    .iter()
                    .filter(|(_, c)| c.len() >= 2)
                    .max_by_key(|(_, c)| c.len())?;
                let addr = *chain.last().expect("len >= 2");
                let block_size = self.disk.geometry().block_size;
                self.disk.write_raw(addr, &vec![0u8; block_size]);
                self.links.invalidate_file(file);
                Some(format!("torn tail of {file} at {addr}"))
            }
            CorruptionKind::DanglingEntry => {
                let mut id = 0xDEAD_0000u32;
                while self.chains.contains_key(&LfsFileId(id)) {
                    id += 1;
                }
                let target = BlockAddr::new(self.data_start);
                self.dir
                    .set_absolute(
                        &self.disk,
                        DirEntry {
                            file: LfsFileId(id),
                            first: target,
                            last: target,
                            size: 1,
                        },
                    )
                    .ok()?;
                Some(format!("dangling entry {} -> {target}", LfsFileId(id)))
            }
        }
    }

    /// Brings the instance back after its node's crash fault: revives the
    /// device, discards all in-memory state, replays committed WAL
    /// records above the newest durable checkpoint, rebuilds the
    /// allocator and chain shadow from directory reachability, persists
    /// the result, and stamps a fresh checkpoint. Untimed — the crash
    /// schedule's down window stands in for reboot time.
    ///
    /// Returns every operation whose intent record survived in the ring
    /// (committed before the crash, including already-checkpointed ones
    /// not yet overwritten), so the server can re-seed its dedup window:
    /// a delayed duplicate of a committed operation must replay its
    /// reply, never re-execute against the recovered state.
    ///
    /// # Errors
    ///
    /// [`EfsError::Corrupt`] if replay cannot apply a committed record.
    pub fn recover(&mut self) -> Result<Vec<RecoveredOp>, EfsError> {
        self.disk.revive();
        self.links = LinkCache::new(self.config.link_cache_capacity);
        let (dir_start, dir_buckets) = self.dir.region();
        self.dir = Directory::new(dir_start, dir_buckets);
        self.req = (0, 0);
        self.prepared = FixedMap::default();
        // Each recovered op is tagged with its Prepare txn (None for
        // ordinary records) so in-doubt prepares can be dropped from the
        // dedup re-seed at the end: their effects are rolled back, and a
        // coordinator retransmit must re-execute, not replay a stale
        // "prepared" acknowledgement.
        let mut recovered: Vec<(Option<u64>, RecoveredOp)> = Vec::new();
        if self.wal_blocks == 0 {
            self.rebuild_from_directory();
            return Ok(Vec::new());
        }
        let (mut wal, ckpt, batches) = scan_and_resume(
            &self.disk,
            self.wal_start,
            self.wal_blocks,
            self.config.wal.group_commit,
        );
        // Machine-wide transactions whose Prepare replayed but whose
        // Decide has not (yet) been seen, with the directory entries the
        // tentative delete displaced. BTree order keeps the presumed-
        // abort rollback below deterministic. Checkpoints are deferred
        // while any transaction is in doubt, so a Prepare at or below
        // `ckpt` always has its Decide at or below `ckpt` too — skipping
        // both is sound.
        let mut prepared_replay: BTreeMap<u64, (PrepareIntent, Vec<DirEntry>)> = BTreeMap::new();
        for (lsn, records) in &batches {
            for record in records {
                if let Some(op) = record.recovered() {
                    recovered.push((record.prepare_txn(), op));
                }
                if *lsn <= ckpt {
                    continue;
                }
                match record {
                    WalRecord::Create { file, .. } => self.dir.set_absolute(
                        &self.disk,
                        DirEntry {
                            file: *file,
                            first: BlockAddr::new(0),
                            last: BlockAddr::new(0),
                            size: 0,
                        },
                    )?,
                    WalRecord::SetChain {
                        file,
                        first,
                        last,
                        size,
                        ..
                    } => self.dir.set_absolute(
                        &self.disk,
                        DirEntry {
                            file: *file,
                            first: *first,
                            last: *last,
                            size: *size,
                        },
                    )?,
                    WalRecord::Delete { file, .. } => {
                        self.dir.remove_absolute(&self.disk, *file)?
                    }
                    WalRecord::Checkpoint => {}
                    WalRecord::Prepare { txn, intent, .. } => {
                        let mut stash = Vec::new();
                        match intent {
                            PrepareIntent::CreateFiles(files) => {
                                for &file in files {
                                    self.dir.set_absolute(
                                        &self.disk,
                                        DirEntry {
                                            file,
                                            first: BlockAddr::new(0),
                                            last: BlockAddr::new(0),
                                            size: 0,
                                        },
                                    )?;
                                }
                            }
                            PrepareIntent::DeleteFiles(files) => {
                                for &file in files {
                                    if let Some(entry) =
                                        self.dir.lookup_absolute(&self.disk, file)?
                                    {
                                        self.dir.remove_absolute(&self.disk, file)?;
                                        stash.push(entry);
                                    }
                                }
                            }
                            // Deferred apply: a prepared write touched
                            // nothing, so there is nothing to replay (and
                            // nothing for presumed abort to undo).
                            PrepareIntent::WriteBlock { .. } => {}
                        }
                        prepared_replay.insert(*txn, (intent.clone(), stash));
                    }
                    WalRecord::Decide {
                        txn,
                        commit,
                        intent,
                        ..
                    } => match prepared_replay.remove(txn) {
                        Some((pintent, stash)) => {
                            // The tentative apply already ran. Commit
                            // needs nothing further (the allocator is
                            // rebuilt from reachability below); abort
                            // undoes it.
                            if !*commit {
                                match &pintent {
                                    PrepareIntent::CreateFiles(files) => {
                                        for &file in files {
                                            self.dir.remove_absolute(&self.disk, file)?;
                                        }
                                    }
                                    PrepareIntent::DeleteFiles(_) => {
                                        for entry in stash {
                                            self.dir.set_absolute(&self.disk, entry)?;
                                        }
                                    }
                                    PrepareIntent::WriteBlock { .. } => {}
                                }
                            }
                        }
                        // No replayed Prepare (it predates the surviving
                        // ring): apply the decision directly, exactly as
                        // the live [`Efs::decide`] path does.
                        None => match (intent, *commit) {
                            (PrepareIntent::CreateFiles(files), true) => {
                                for &file in files {
                                    if self.dir.lookup_absolute(&self.disk, file)?.is_none() {
                                        self.dir.set_absolute(
                                            &self.disk,
                                            DirEntry {
                                                file,
                                                first: BlockAddr::new(0),
                                                last: BlockAddr::new(0),
                                                size: 0,
                                            },
                                        )?;
                                    }
                                }
                            }
                            (PrepareIntent::CreateFiles(files), false)
                            | (PrepareIntent::DeleteFiles(files), true) => {
                                for &file in files {
                                    self.dir.remove_absolute(&self.disk, file)?;
                                }
                            }
                            (PrepareIntent::DeleteFiles(_), false) => {}
                            // The committed write's own SetChain record
                            // rides in the same batch as this Decide and
                            // has already replayed; the data went home
                            // before the batch committed (ordered
                            // journaling). Aborts applied nothing.
                            (PrepareIntent::WriteBlock { .. }, _) => {}
                        },
                    },
                }
            }
        }
        // Presumed abort: any Prepare still undecided rolls back, and its
        // recovered op is dropped from the dedup re-seed.
        let in_doubt: std::collections::HashSet<u64> = prepared_replay.keys().copied().collect();
        for (_, (intent, stash)) in prepared_replay {
            match intent {
                PrepareIntent::CreateFiles(files) => {
                    for file in files {
                        self.dir.remove_absolute(&self.disk, file)?;
                    }
                }
                PrepareIntent::DeleteFiles(_) => {
                    for entry in stash {
                        self.dir.set_absolute(&self.disk, entry)?;
                    }
                }
                PrepareIntent::WriteBlock { .. } => {}
            }
        }
        self.rebuild_from_directory();
        self.dir.flush_raw(&mut self.disk);
        self.write_bitmap_raw();
        wal.append_checkpoint_raw(&mut self.disk);
        self.wal = Some(wal);
        Ok(recovered
            .into_iter()
            .filter(|(txn, _)| txn.is_none_or(|t| !in_doubt.contains(&t)))
            .map(|(_, op)| op)
            .collect())
    }

    /// Tags the requesting `(client process index, request id)` so the
    /// WAL records logged while serving it can reconstruct the reply at
    /// recovery. The server calls this before dispatching each request.
    pub fn begin_request(&mut self, client: u32, id: u64) {
        self.req = (client, id);
    }

    /// Whether the device is dead from a scheduled crash fault, and if so
    /// for how long it stays down. The server polls this after each
    /// operation: a crashed instance must not acknowledge anything.
    pub fn crash_down(&self) -> Option<SimDuration> {
        self.disk.crash_down()
    }

    /// True when the underlying medium is permanently lost
    /// ([`BlockDevice::lost`]): every state this instance held is gone
    /// and only reconstruction from redundancy elsewhere can bring its
    /// columns back.
    pub fn media_lost(&self) -> bool {
        self.disk.lost()
    }

    /// Swaps in a factory-fresh spare medium ([`BlockDevice::spare`]) and
    /// formats this instance onto it, discarding all prior state — the
    /// rebuild driver then repopulates columns from the surviving group
    /// members. Returns `false` when the device cannot produce a spare.
    pub fn install_spare(&mut self) -> bool {
        let Some(fresh) = self.disk.spare() else {
            return false;
        };
        // The telemetry handle watches the drive bay, not the medium:
        // carry it across the reformat so the replacement keeps reporting.
        let telemetry = self.telemetry.take();
        *self = Efs::format(fresh, self.config);
        self.telemetry = telemetry;
        self.publish_telemetry();
        true
    }

    /// True when this instance runs a write-ahead log.
    pub fn wal_enabled(&self) -> bool {
        self.wal.is_some()
    }

    /// Requests the server may buffer into one group commit (1 without a
    /// WAL — every operation acknowledges immediately, as before).
    pub fn group_commit_width(&self) -> u32 {
        self.wal.as_ref().map_or(1, |w| w.group_commit)
    }

    /// `(commits, checkpoints)` performed since mount/recovery.
    pub fn wal_counters(&self) -> (u64, u64) {
        self.wal
            .as_ref()
            .map_or((0, 0), |w| (w.commits, w.checkpoints))
    }

    /// `(ring blocks used since the last durable checkpoint, ring
    /// capacity)`. `(0, 0)` without a WAL.
    pub fn wal_ring_usage(&self) -> (u32, u32) {
        self.wal.as_ref().map_or((0, 0), |w| w.ring_usage())
    }

    /// Arms live telemetry: this instance publishes its gauges into the
    /// machine-wide `registry` under column `index`. Observation-only —
    /// counter updates are host-side and never touch virtual time.
    pub fn set_telemetry(&mut self, registry: Arc<TelemetryRegistry>, index: u32) {
        let counters = registry.lfs(index as usize);
        self.telemetry = Some(EfsTelemetry {
            registry,
            index,
            counters,
        });
        self.publish_telemetry();
    }

    /// The armed telemetry handle, if any.
    pub fn telemetry(&self) -> Option<&EfsTelemetry> {
        self.telemetry.as_ref()
    }

    /// Publishes the current file-system gauges (WAL ring, group-commit
    /// width, free space, media state) into the telemetry counters. No-op
    /// when unarmed.
    pub fn publish_telemetry(&self) {
        let Some(t) = &self.telemetry else { return };
        let (wal_commits, wal_checkpoints) = self.wal_counters();
        let (used, capacity) = self.wal_ring_usage();
        t.counters.publish_fs(FsGauges {
            wal_enabled: self.wal_enabled(),
            wal_commits,
            wal_checkpoints,
            wal_ring_used: u64::from(used),
            wal_ring_capacity: u64::from(capacity),
            group_commit_width: u64::from(self.group_commit_width()),
            free_blocks: u64::from(self.free_blocks()),
            media_lost: self.media_lost(),
            crash_down: self.crash_down().is_some(),
        });
    }

    /// A complete point-in-time [`LfsTelemetry`] for this instance. The
    /// disk section is read straight from the device's own
    /// [`DiskStats`](simdisk::DiskStats) so the snapshot reconciles
    /// exactly, even mid-operation. Returns gauges-from-accessors with
    /// zeroed counters when telemetry is unarmed.
    pub fn telemetry_snapshot(&self) -> LfsTelemetry {
        self.publish_telemetry();
        let mut snap = match &self.telemetry {
            Some(t) => t.counters.snapshot(),
            None => {
                let counters = LfsCounters::default();
                let (wal_commits, wal_checkpoints) = self.wal_counters();
                let (used, capacity) = self.wal_ring_usage();
                counters.publish_fs(FsGauges {
                    wal_enabled: self.wal_enabled(),
                    wal_commits,
                    wal_checkpoints,
                    wal_ring_used: u64::from(used),
                    wal_ring_capacity: u64::from(capacity),
                    group_commit_width: u64::from(self.group_commit_width()),
                    free_blocks: u64::from(self.free_blocks()),
                    media_lost: self.media_lost(),
                    crash_down: self.crash_down().is_some(),
                });
                counters.snapshot()
            }
        };
        let d = self.disk.stats();
        snap.disk.reads = d.reads;
        snap.disk.writes = d.writes;
        snap.disk.buffer_hits = d.buffer_hits;
        snap.disk.track_loads = d.track_loads;
        snap.disk.head_travel = d.head_travel;
        snap.disk.transient_faults = d.transient_faults;
        snap.disk.busy_nanos = d.busy.as_nanos();
        snap.disk.lost = self.media_lost();
        snap
    }

    // ----- internals ---------------------------------------------------

    /// Logs the absolute post-write chain state of `file` (no-op without
    /// a WAL). The entry lookup is free: the serving operation has just
    /// loaded and updated the bucket, so it is cached.
    fn log_set_chain(
        &mut self,
        ctx: &mut Ctx,
        file: LfsFileId,
        run: bool,
        addrs: Vec<BlockAddr>,
    ) -> Result<(), EfsError> {
        if self.wal.is_none() {
            return Ok(());
        }
        let entry = self
            .dir
            .lookup(ctx, &mut self.disk, file)?
            .ok_or(EfsError::UnknownFile(file))?;
        let (client, id) = self.req;
        self.wal
            .as_mut()
            .expect("checked")
            .log(WalRecord::SetChain {
                client,
                id,
                file,
                first: entry.first,
                last: entry.last,
                size: entry.size,
                run,
                addrs,
            });
        Ok(())
    }

    /// Rebuilds the allocator *and* the chain shadow from directory
    /// reachability: every entry's chain is raw-walked from its first
    /// block, and exactly the reachable blocks are marked allocated.
    fn rebuild_from_directory(&mut self) {
        let capacity = self.disk.capacity_blocks();
        let mut alloc = BlockAllocator::new(self.data_start, capacity);
        let mut chains = FixedMap::default();
        if let Ok(entries) = self.dir.scan_raw(&self.disk) {
            for entry in entries {
                let chain = self.walk_chain_raw(&entry);
                for &addr in &chain {
                    alloc.reserve(addr);
                }
                chains.insert(entry.file, chain);
            }
        }
        self.alloc = alloc;
        self.chains = chains;
    }

    /// Rebuilds only the chain shadow (non-WAL mount: the allocator comes
    /// from the persisted bitmap, exactly as before).
    fn rebuild_chains_raw(&mut self) {
        let mut chains = FixedMap::default();
        if let Ok(entries) = self.dir.scan_raw(&self.disk) {
            for entry in entries {
                chains.insert(entry.file, self.walk_chain_raw(&entry));
            }
        }
        self.chains = chains;
    }

    /// Raw (untimed) walk of one file's chain, stopping at the first
    /// block that is missing, freed, or labeled for someone else.
    fn walk_chain_raw(&self, entry: &DirEntry) -> Vec<BlockAddr> {
        let mut chain = Vec::with_capacity(entry.size as usize);
        let mut addr = entry.first;
        for block_no in 0..entry.size {
            let Some(bytes) = self.disk.read_raw(addr) else {
                break;
            };
            if is_free_block(bytes) {
                break;
            }
            let Ok(header) = decode_header(bytes) else {
                break;
            };
            if header.file != entry.file || header.block_no != block_no {
                break;
            }
            chain.push(addr);
            addr = header.next;
        }
        chain
    }

    /// Reads and validates a data block.
    fn read_and_check(
        &mut self,
        ctx: &mut Ctx,
        addr: BlockAddr,
        file: LfsFileId,
        block_no: u32,
    ) -> Result<(EfsHeader, Bytes), EfsError> {
        let bytes = self.disk.read(ctx, addr)?;
        let (header, payload) = decode_block(&bytes)?;
        if header.file != file || header.block_no != block_no {
            return Err(EfsError::Corrupt(format!(
                "expected {file} block {block_no} at {addr}, found {} block {}",
                header.file, header.block_no
            )));
        }
        Ok((header, payload))
    }

    /// Finds the disk address of `block_no`, searching "from the closest of
    /// three locations: the beginning, the end, and the hint", with the
    /// link cache consulted first.
    fn locate(
        &mut self,
        ctx: &mut Ctx,
        entry: &DirEntry,
        block_no: u32,
        hint: Option<BlockAddr>,
    ) -> Result<BlockAddr, EfsError> {
        let file = entry.file;
        if let Some(info) = self.links.get(file, block_no) {
            return Ok(info.addr);
        }
        // A cached neighbor points straight at the target.
        if block_no > 0 {
            if let Some(info) = self.links.peek(file, block_no - 1) {
                return Ok(info.next);
            }
        }
        if block_no + 1 < entry.size {
            if let Some(info) = self.links.peek(file, block_no + 1) {
                return Ok(info.prev);
            }
        }

        // Candidate start positions: beginning, end, and the hint (which
        // costs a probe read to validate).
        let size = entry.size;
        let mut candidates: Vec<(u32, BlockAddr)> = vec![(0, entry.first), (size - 1, entry.last)];
        if let Some(hint_addr) = hint {
            self.stats.hint_probes += 1;
            if let Ok(bytes) = self.disk.read(ctx, hint_addr) {
                if let Ok(header) = decode_header(&bytes) {
                    if header.file == file && header.block_no < size {
                        self.links.put(
                            file,
                            header.block_no,
                            LinkInfo {
                                addr: hint_addr,
                                next: header.next,
                                prev: header.prev,
                            },
                        );
                        candidates.push((header.block_no, hint_addr));
                    }
                }
            }
        }

        // Pick the start with the shortest circular walk.
        let dist = |from: u32| -> (u32, bool) {
            let fwd = (block_no + size - from) % size;
            let back = (from + size - block_no) % size;
            if fwd <= back {
                (fwd, true)
            } else {
                (back, false)
            }
        };
        let (&(mut cur_no, mut cur_addr), _) = candidates
            .iter()
            .map(|c| (c, dist(c.0).0))
            .min_by_key(|&(_, d)| d)
            .expect("at least two candidates");
        let (steps, forward) = dist(cur_no);

        for _ in 0..steps {
            self.stats.walk_steps += 1;
            let info = match self.links.peek(file, cur_no) {
                Some(info) => info,
                None => {
                    let (header, _) = self.read_and_check(ctx, cur_addr, file, cur_no)?;
                    let info = LinkInfo {
                        addr: cur_addr,
                        next: header.next,
                        prev: header.prev,
                    };
                    self.links.put(file, cur_no, info);
                    info
                }
            };
            if forward {
                cur_addr = info.next;
                cur_no = (cur_no + 1) % size;
            } else {
                cur_addr = info.prev;
                cur_no = (cur_no + size - 1) % size;
            }
        }
        Ok(cur_addr)
    }

    fn overwrite(
        &mut self,
        ctx: &mut Ctx,
        entry: &DirEntry,
        block_no: u32,
        payload: &[u8],
        hint: Option<BlockAddr>,
    ) -> Result<BlockAddr, EfsError> {
        let file = entry.file;
        let addr = self.locate(ctx, entry, block_no, hint)?;
        // Need the link pointers to rebuild the header: from cache, or by
        // reading the block.
        let info = match self.links.peek(file, block_no) {
            Some(info) => info,
            None => {
                let (header, _) = self.read_and_check(ctx, addr, file, block_no)?;
                LinkInfo {
                    addr,
                    next: header.next,
                    prev: header.prev,
                }
            }
        };
        let header = EfsHeader {
            file,
            block_no,
            next: info.next,
            prev: info.prev,
        };
        self.disk
            .write(ctx, addr, &encode_block(&header, payload))?;
        self.links.put(file, block_no, info);
        Ok(addr)
    }

    fn append(
        &mut self,
        ctx: &mut Ctx,
        mut entry: DirEntry,
        payload: &[u8],
    ) -> Result<BlockAddr, EfsError> {
        let file = entry.file;
        let addr = self.alloc.allocate().ok_or(EfsError::NoSpace)?;
        let block_no = entry.size;

        if entry.size == 0 {
            // A one-block file is its own circular neighborhood.
            let header = EfsHeader {
                file,
                block_no: 0,
                next: addr,
                prev: addr,
            };
            self.disk
                .write(ctx, addr, &encode_block(&header, payload))?;
            self.links.put(
                file,
                0,
                LinkInfo {
                    addr,
                    next: addr,
                    prev: addr,
                },
            );
            entry.first = addr;
            entry.last = addr;
            entry.size = 1;
            self.dir.update(ctx, &mut self.disk, entry)?;
            self.chains.entry(file).or_default().push(addr);
            return Ok(addr);
        }

        let first = entry.first;
        let old_last = entry.last;
        let header = EfsHeader {
            file,
            block_no,
            next: first,
            prev: old_last,
        };
        self.disk
            .write(ctx, addr, &encode_block(&header, payload))?;

        // Fix the old tail's forward pointer (read-modify-write; the track
        // buffer makes the read cheap on sequential appends). The head's
        // back-pointer is represented by the directory's `last` field and
        // repaired lazily, so appends stay O(1) in disk operations.
        let tail_no = entry.size - 1;
        let (tail_header, tail_payload) = self.read_and_check(ctx, old_last, file, tail_no)?;
        let fixed = EfsHeader {
            next: addr,
            ..tail_header
        };
        self.disk
            .write(ctx, old_last, &encode_block(&fixed, &tail_payload))?;
        self.links.put(
            file,
            tail_no,
            LinkInfo {
                addr: old_last,
                next: addr,
                prev: fixed.prev,
            },
        );
        self.links.put(
            file,
            block_no,
            LinkInfo {
                addr,
                next: first,
                prev: old_last,
            },
        );

        entry.last = addr;
        entry.size += 1;
        self.dir.update(ctx, &mut self.disk, entry)?;
        self.chains.entry(file).or_default().push(addr);
        Ok(addr)
    }

    /// Appends a whole run: preallocate every block, link them in memory,
    /// one device run (old-tail fixup folded in), one directory update.
    fn append_run(
        &mut self,
        ctx: &mut Ctx,
        mut entry: DirEntry,
        payloads: &[Bytes],
    ) -> Result<Vec<BlockAddr>, EfsError> {
        let file = entry.file;
        let n = payloads.len() as u32;
        let mut addrs = Vec::with_capacity(payloads.len());
        for _ in 0..n {
            match self.alloc.allocate() {
                Some(a) => addrs.push(a),
                None => {
                    for &a in &addrs {
                        self.alloc.release(a);
                    }
                    return Err(EfsError::NoSpace);
                }
            }
        }
        self.stats.writes += u64::from(n);
        self.stats.appends += u64::from(n);

        let head = if entry.size == 0 {
            addrs[0]
        } else {
            entry.first
        };
        let old_last = (entry.size > 0).then_some(entry.last);
        let new_last = *addrs.last().expect("run is non-empty");
        let mut writes: Vec<(BlockAddr, Bytes)> = Vec::with_capacity(payloads.len() + 1);

        // The old tail's forward pointer moves to the first new block; the
        // read-modify-write joins the same device run as the new blocks.
        if let Some(tail_addr) = old_last {
            let tail_no = entry.size - 1;
            let (tail_header, tail_payload) = self.read_and_check(ctx, tail_addr, file, tail_no)?;
            let fixed = EfsHeader {
                next: addrs[0],
                ..tail_header
            };
            writes.push((tail_addr, encode_block(&fixed, &tail_payload).into()));
            self.links.put(
                file,
                tail_no,
                LinkInfo {
                    addr: tail_addr,
                    next: addrs[0],
                    prev: fixed.prev,
                },
            );
        }

        for (i, payload) in payloads.iter().enumerate() {
            let block_no = entry.size + i as u32;
            let next = if i + 1 < addrs.len() {
                addrs[i + 1]
            } else {
                head
            };
            let prev = if i == 0 {
                old_last.unwrap_or(new_last)
            } else {
                addrs[i - 1]
            };
            let header = EfsHeader {
                file,
                block_no,
                next,
                prev,
            };
            writes.push((addrs[i], encode_block(&header, payload).into()));
            self.links.put(
                file,
                block_no,
                LinkInfo {
                    addr: addrs[i],
                    next,
                    prev,
                },
            );
        }
        self.disk.write_many(ctx, &writes)?;

        if entry.size == 0 {
            entry.first = addrs[0];
        }
        entry.last = new_last;
        entry.size += n;
        self.dir.update(ctx, &mut self.disk, entry)?;
        self.chains
            .entry(file)
            .or_default()
            .extend_from_slice(&addrs);
        Ok(addrs)
    }

    fn write_bitmap_raw(&mut self) {
        let block_size = self.disk.geometry().block_size;
        let bytes = self.alloc.to_bytes();
        for i in 0..self.bitmap_blocks {
            let start = i as usize * block_size;
            let end = (start + block_size).min(bytes.len());
            let mut chunk = bytes[start..end.max(start)].to_vec();
            chunk.resize(block_size, 0);
            self.disk
                .write_raw(BlockAddr::new(self.bitmap_start + i), &chunk);
        }
    }
}
