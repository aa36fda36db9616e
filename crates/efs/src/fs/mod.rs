//! The Elementary File System proper.
//!
//! A stateless local file system per the paper's description of Cronus EFS:
//! files are doubly linked circular lists of blocks; every request can carry
//! a disk-address hint; lookups search from the closest of the beginning,
//! the end, and the hint. One `Efs` owns one [`SimDisk`] and is in turn
//! owned by the LFS server process of its node.
//!
//! The modules follow the stages a request passes through: this one holds
//! the instance itself — superblock format/mount and sync / commit /
//! checkpoint — [`names`] the namespace operations (create/stat/delete),
//! [`data`] the block path (read/write/runs over the linked chains),
//! [`txn`] the presumed-abort participant (prepare/decide), [`recover`]
//! log replay after a crash, [`check`] the consistency checks, and
//! [`telemetry`] the live gauges.

mod check;
mod data;
mod names;
mod recover;
mod telemetry;
mod txn;

pub use check::{CorruptionKind, FsckReport};
pub use telemetry::EfsTelemetry;

use crate::alloc::BlockAllocator;
use crate::cache::LinkCache;
use crate::directory::{DirEntry, Directory, Via};
use crate::error::EfsError;
use crate::layout::LfsFileId;
use crate::wal::{Wal, WalConfig, WalRecord};
use bytes::{Buf, BufMut, Bytes};
use data::HomeWrite;
use parsim::{Ctx, FixedMap, SimDuration};
use simdisk::{BlockAddr, BlockDevice, SimDisk};
use txn::PreparedTxn;

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

impl From<DirEntry> for FileInfo {
    fn from(e: DirEntry) -> Self {
        FileInfo {
            file: e.file,
            size: e.size,
            first: (e.size > 0).then_some(e.first),
            last: (e.size > 0).then_some(e.last),
        }
    }
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

/// One Elementary File System instance over one block device (a plain
/// [`SimDisk`] by default; the baseline crate substitutes striped sets and
/// storage arrays).
#[derive(Debug)]
pub struct Efs<D: BlockDevice = SimDisk> {
    disk: D,
    config: EfsConfig,
    layout: Layout,
    dir: Directory,
    alloc: BlockAllocator,
    links: LinkCache,
    stats: EfsStats,
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
    /// Committed block writes whose records are logged but whose blocks
    /// have not gone home yet, in the order they were decided (see
    /// [`Efs::decide`]). Sent home by the housekeeping after the
    /// replies, or first by any request that names their file.
    home: Vec<HomeWrite>,
    /// Live-telemetry handle (`None` = unarmed, the fast path). Updating
    /// counters is host-side only — arming telemetry never touches
    /// virtual time.
    telemetry: Option<EfsTelemetry>,
}

/// Where each on-disk region starts and how long it is: the superblock's
/// content, computed at format and read back at mount.
#[derive(Debug, Clone, Copy)]
struct Layout {
    dir_start: u32,
    dir_buckets: u32,
    bitmap_start: u32,
    bitmap_blocks: u32,
    wal_start: u32,
    wal_blocks: u32,
    data_start: u32,
}

impl Layout {
    fn for_disk(disk: &dyn BlockDevice, dir_buckets: u32, wal_blocks: u32) -> Layout {
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
            dir_buckets,
            bitmap_start,
            bitmap_blocks,
            wal_start,
            wal_blocks,
            data_start,
        }
    }

    fn encode_superblock(&self, capacity: u32, block_size: usize) -> Vec<u8> {
        let mut sb = Vec::with_capacity(block_size);
        sb.put_u32_le(SUPERBLOCK_MAGIC);
        sb.put_u32_le(SUPERBLOCK_VERSION);
        sb.put_u32_le(self.dir_start);
        sb.put_u32_le(self.dir_buckets);
        sb.put_u32_le(self.bitmap_start);
        sb.put_u32_le(self.bitmap_blocks);
        sb.put_u32_le(self.data_start);
        sb.put_u32_le(capacity);
        sb.put_u32_le(self.wal_start);
        sb.put_u32_le(self.wal_blocks);
        sb.resize(block_size, 0);
        sb
    }

    fn decode_superblock(mut buf: &[u8], capacity: u32) -> Result<Layout, EfsError> {
        if buf.len() < 40 {
            return Err(EfsError::Corrupt("superblock too short".into()));
        }
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
        if buf.get_u32_le() != capacity {
            return Err(EfsError::Corrupt(
                "superblock capacity disagrees with device".into(),
            ));
        }
        Ok(Layout {
            dir_start,
            dir_buckets,
            bitmap_start,
            bitmap_blocks,
            data_start,
            wal_start: buf.get_u32_le(),
            wal_blocks: buf.get_u32_le(),
        })
    }

    /// The allocation bitmap cut into the zero-padded blocks of its
    /// on-disk region, each with its address.
    fn bitmap_chunks(
        self,
        bitmap: &[u8],
        block_size: usize,
    ) -> impl Iterator<Item = (BlockAddr, Bytes)> + '_ {
        (0..self.bitmap_blocks).map(move |i| {
            let start = (i as usize * block_size).min(bitmap.len());
            let end = (start + block_size).min(bitmap.len());
            let mut chunk = bitmap[start..end].to_vec();
            chunk.resize(block_size, 0);
            (BlockAddr::new(self.bitmap_start + i), chunk.into())
        })
    }

    /// The directory over this layout. Its durability is fixed here, from
    /// what the disk carries: a log region means membership changes wait
    /// for the checkpoint, none means they are written through.
    fn directory(&self) -> Directory {
        Directory::new(self.dir_start, self.dir_buckets, self.wal_blocks > 0)
    }
}

impl<D: BlockDevice> Efs<D> {
    /// Formats `disk` and returns a fresh file system. Formatting is
    /// untimed (it happens before the machine "boots").
    pub fn format(mut disk: D, config: EfsConfig) -> Self {
        let layout = Layout::for_disk(&disk, config.dir_buckets, config.wal.log_blocks);
        let capacity = disk.capacity_blocks();
        let dir = layout.directory();
        dir.format(&mut disk);
        let superblock = layout.encode_superblock(capacity, disk.geometry().block_size);
        disk.write_raw(BlockAddr::new(0), superblock.into());
        let wal = config.wal.is_enabled().then(|| {
            Wal::format(
                &mut disk,
                layout.wal_start,
                layout.wal_blocks,
                config.wal.group_commit,
            )
        });
        let mut efs = Efs {
            alloc: BlockAllocator::new(layout.data_start, capacity),
            links: LinkCache::new(config.link_cache_capacity),
            stats: EfsStats::default(),
            chains: FixedMap::default(),
            req: (0, 0),
            prepared: FixedMap::default(),
            home: Vec::new(),
            telemetry: None,
            disk,
            config,
            layout,
            dir,
            wal,
        };
        efs.write_home(&mut Via::Raw)
            .expect("raw writes cannot fail");
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
        let capacity = disk.capacity_blocks();
        let superblock = disk
            .read_raw(BlockAddr::new(0))
            .ok_or_else(|| EfsError::Corrupt("no superblock".into()))?;
        let layout = Layout::decode_superblock(superblock, capacity)?;

        // Rebuild the allocator from the persisted bitmap.
        let mut alloc = BlockAllocator::new(layout.data_start, capacity);
        for i in 0..layout.bitmap_blocks {
            let bytes = disk
                .read_raw(BlockAddr::new(layout.bitmap_start + i))
                .ok_or_else(|| EfsError::Corrupt("bitmap region unreadable".into()))?;
            let base = i as u64 * (bytes.len() as u64 * 8);
            for (byte_idx, &byte) in bytes.iter().enumerate() {
                if byte == 0 {
                    continue;
                }
                for bit in 0..8 {
                    if byte >> bit & 1 == 1 {
                        let block = base + byte_idx as u64 * 8 + bit;
                        if block >= u64::from(layout.data_start) && block < u64::from(capacity) {
                            alloc.reserve(BlockAddr::new(block as u32));
                        }
                    }
                }
            }
        }

        let mut efs = Efs {
            dir: layout.directory(),
            alloc,
            links: LinkCache::new(config.link_cache_capacity),
            stats: EfsStats::default(),
            wal: None,
            chains: FixedMap::default(),
            req: (0, 0),
            prepared: FixedMap::default(),
            home: Vec::new(),
            telemetry: None,
            disk,
            config,
            layout,
        };
        if layout.wal_blocks > 0 {
            // A WAL-formatted disk mounts through the recovery path: any
            // committed-but-unapplied records are replayed, and the
            // allocator is rebuilt from reachability rather than the
            // (possibly stale) persisted bitmap.
            efs.recover()?;
        } else if let Ok((_, chains)) = efs.reachable_raw(&mut FsckReport::default()) {
            // Only the chain shadow: the allocator stays what the
            // persisted bitmap says, exactly as before.
            efs.chains = chains;
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

    /// Queues the intent record of the request being served for the next
    /// commit. Without a log nothing is recorded: the directory's
    /// write-through is what makes the operation durable.
    fn log(&mut self, record: impl FnOnce(u32, u64) -> WalRecord) {
        if let Some(wal) = self.wal.as_mut() {
            let (client, id) = self.req;
            wal.log(record(client, id));
        }
    }

    /// Refuses a request before it applies anything when its records —
    /// `len()` bytes — would not fit in the log ring (see [`Wal::admit`]).
    /// Always admits without a log, and sizes nothing.
    fn admit(&self, len: impl FnOnce() -> usize, last_track: bool) -> Result<(), EfsError> {
        self.wal
            .as_ref()
            .map_or(Ok(()), |wal| wal.admit(len(), last_track))
    }

    /// Flushes the directory and allocation bitmap to disk (timed). With
    /// a WAL this is a full commit + checkpoint, so everything is durable
    /// at home when it returns.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn sync(&mut self, ctx: &mut Ctx) -> Result<(), EfsError> {
        if let Some(wal) = self.wal.as_mut() {
            wal.commit(ctx, &mut self.disk)?;
        }
        self.flush_home(ctx, None)?;
        // A checkpoint persists in-memory effects; tentative 2PC state
        // must stay revocable, so it is deferred while any transaction
        // is in doubt. The committed Prepare records keep everything
        // recoverable in the meantime.
        if self.prepared.is_empty() {
            self.checkpoint(ctx)?;
        }
        Ok(())
    }

    /// Makes every pending intent record durable (group commit) — one
    /// device run into the log ring and a flush — then sends the block
    /// writes those records decided home, and then, with nothing pending
    /// any more, checkpoints if half the ring is live. Nothing may be
    /// acknowledged before the first step returns, and nothing needs to
    /// wait for the other two; the server runs the three itself
    /// (`commit_log`, then its replies, then `flush_home` and
    /// `checkpoint_if_due`). A no-op without a WAL.
    ///
    /// # Errors
    ///
    /// Propagates device errors ([`simdisk::DiskError::Crashed`] when the
    /// node died mid-commit).
    pub fn commit(&mut self, ctx: &mut Ctx) -> Result<(), EfsError> {
        self.commit_log(ctx)?;
        self.flush_home(ctx, None)?;
        self.checkpoint_if_due(ctx).map(drop)
    }

    /// The durability half of [`Efs::commit`]: once this returns, every
    /// operation served so far survives a crash and may be acknowledged.
    pub(crate) fn commit_log(&mut self, ctx: &mut Ctx) -> Result<(), EfsError> {
        let Some(wal) = self.wal.as_mut().filter(|wal| wal.has_pending()) else {
            return Ok(());
        };
        let t0 = ctx.now();
        let records = wal.commit(ctx, &mut self.disk)?;
        if ctx.trace_enabled() {
            ctx.trace_span("wal", "wal.commit", t0, &[("records", records as u64)]);
        }
        Ok(())
    }

    /// The last of [`Efs::commit`]'s housekeeping: a checkpoint once half
    /// the ring is live, which only bounds the ring — the records it
    /// retires are already durable, so it may run after they were
    /// acknowledged. Deferred while any transaction is in doubt (see
    /// [`Efs::sync`]) or a block write is still on its way home. Returns
    /// whether a checkpoint ran.
    pub(crate) fn checkpoint_if_due(&mut self, ctx: &mut Ctx) -> Result<bool, EfsError> {
        let due = self.prepared.is_empty()
            && self.home.is_empty()
            && self.wal.as_ref().is_some_and(|wal| wal.needs_checkpoint());
        if due {
            self.checkpoint(ctx)?;
        }
        Ok(due)
    }

    /// Persists directory + bitmap and, with a WAL, stamps a checkpoint
    /// record — home first, as one device run, and only then the record,
    /// so a crash inside the first leaves the previous checkpoint in
    /// force. Must only run with no records pending (commit ordering
    /// rule): a checkpoint persists in-memory effects, which must all be
    /// of committed operations — and with no block write still owed to
    /// its home, since the records that would redo it fall below the
    /// checkpoint.
    fn checkpoint(&mut self, ctx: &mut Ctx) -> Result<(), EfsError> {
        assert!(self.home.is_empty(), "checkpoint with block writes owed");
        let t0 = ctx.now();
        self.write_home(&mut Via::Timed(ctx))?;
        if let Some(wal) = self.wal.as_mut() {
            wal.checkpoint(ctx, &mut self.disk)?;
            if ctx.trace_enabled() {
                ctx.trace_span("wal", "wal.checkpoint", t0, &[]);
            }
        }
        Ok(())
    }

    /// Sends the dirty directory buckets and the allocation bitmap home:
    /// as one device run (sync, checkpoint), or straight into the raw
    /// image (format and the end of recovery).
    fn write_home(&mut self, via: &mut Via<'_>) -> Result<(), EfsError> {
        let mut home = self.dir.dirty_images();
        let bitmap = self.alloc.to_bytes();
        let block_size = self.disk.geometry().block_size;
        home.extend(self.layout.bitmap_chunks(&bitmap, block_size));
        match via {
            Via::Timed(ctx) => self.disk.write_many(ctx, &home)?,
            Via::Raw => {
                for (addr, image) in home {
                    self.disk.write_raw(addr, image);
                }
            }
        }
        self.dir.mark_clean();
        Ok(())
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
}
