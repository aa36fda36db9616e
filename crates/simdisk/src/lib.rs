//! # simdisk — simulated block storage for the Bridge reproduction
//!
//! The Bridge prototype had no real drives: "we have chosen in our
//! implementation to simulate the disks in memory … our device driver code
//! includes a variable-length sleep interval to simulate seek and rotational
//! delay", set to 15 ms to approximate a CDC Wren-class disk. This crate is
//! the same substitution, realized in virtual time on [`parsim`]:
//!
//! * a [`SimDisk`] stores real bytes in memory, one fixed-size block at a
//!   time, and charges the owning process's [`parsim::Ctx`] for positioning
//!   and transfer delays;
//! * an explicit [`DiskGeometry`] (blocks per track) plus a one-track read
//!   buffer reproduce the *full-track buffering* the paper credits for
//!   sequential reads being much cheaper than disk latency (Table 2:
//!   9 ms amortized reads vs 31 ms writes).
//!
//! ## Example
//!
//! ```
//! use parsim::{SimConfig, Simulation};
//! use simdisk::{DiskGeometry, DiskProfile, SimDisk};
//!
//! let mut sim = Simulation::new(SimConfig::default());
//! let node = sim.add_node("io0");
//! let elapsed = sim.block_on(node, "driver", |ctx| {
//!     let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
//!     let start = ctx.now();
//!     disk.write(ctx, simdisk::BlockAddr::new(0), &[7u8; 1024]).unwrap();
//!     let block = disk.read(ctx, simdisk::BlockAddr::new(0)).unwrap();
//!     assert_eq!(block[0], 7);
//!     ctx.now() - start
//! });
//! assert!(elapsed > parsim::SimDuration::from_millis(15));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod sched;

pub use sched::{RequestQueue, SchedConfig, SchedPolicy};

use bytes::Bytes;
use parsim::{mix64, splitmix64, Ctx, SimDuration};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Maximum failed attempts the simulated device driver absorbs per request
/// before giving up with [`DiskError::Transient`]. Fault plans whose
/// per-disk caps stay below this bound therefore never surface an error to
/// the file system — the faults show up purely as extra service time.
pub const DRIVER_RETRY_LIMIT: u32 = 16;

/// Live transient-fault state for one disk, derived from a
/// [`parsim::FaultPlan`]'s [`DiskFaults`](parsim::DiskFaults) section.
///
/// Failed attempts are absorbed by a bounded driver retry loop inside the
/// disk: each failure re-positions the head (charging the profile's
/// positioning cost) and tries again. Randomness comes from a splitmix64
/// stream stepped once per attempt, so runs are bit-reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskFaultState {
    rng: u64,
    error_per_mille: u16,
    max_consecutive: u32,
    /// (block, remaining failures) targeted rules for this disk.
    targets: Vec<(u32, u32)>,
    /// Consecutive random failures so far (capped by `max_consecutive`).
    consecutive: u32,
}

impl DiskFaultState {
    /// Builds the fault state for disk number `disk` from a plan's disk
    /// section, or `None` when no fault can ever hit this disk (so the
    /// fault-free fast path stays untouched).
    pub fn from_plan(plan: &parsim::DiskFaults, seed: u64, disk: u32) -> Option<DiskFaultState> {
        let targets: Vec<(u32, u32)> = plan
            .targets
            .iter()
            .filter(|t| t.disk == disk && t.fails > 0)
            .map(|t| (t.block, t.fails))
            .collect();
        let random_active = plan.error_per_mille > 0 && plan.max_consecutive > 0;
        if !random_active && targets.is_empty() {
            return None;
        }
        assert!(
            plan.error_per_mille <= 1000,
            "per-mille fault rates must be <= 1000"
        );
        Some(DiskFaultState {
            rng: mix64(seed, 0x6469_736b_0000_0000 | u64::from(disk)), // "disk" | index
            error_per_mille: if random_active {
                plan.error_per_mille
            } else {
                0
            },
            max_consecutive: plan.max_consecutive,
            targets,
            consecutive: 0,
        })
    }

    /// Number of failed attempts the driver must absorb for a request
    /// touching `blocks`, consuming targeted-rule budget and stepping the
    /// random stream until a success draw (or the consecutive cap).
    fn failures_for(&mut self, blocks: impl Iterator<Item = BlockAddr>) -> u32 {
        let mut failures = 0u32;
        for b in blocks {
            for t in self.targets.iter_mut() {
                if t.0 == b.index() && t.1 > 0 {
                    failures = failures.saturating_add(t.1);
                    t.1 = 0;
                }
            }
        }
        while self.error_per_mille > 0 {
            let x = splitmix64(&mut self.rng);
            if ((x % 1000) as u16) < self.error_per_mille && self.consecutive < self.max_consecutive
            {
                self.consecutive += 1;
                failures += 1;
            } else {
                self.consecutive = 0;
                break;
            }
        }
        failures
    }
}

/// Live crash schedule for one disk, derived from a
/// [`parsim::FaultPlan`]'s [`CrashAt`](parsim::CrashAt) section.
///
/// The disk counts every elementary block write it persists; when the
/// count reaches the next scheduled ordinal the disk goes *dead*: the
/// triggering write is durable, every later timed operation fails with
/// [`DiskError::Crashed`] (tearing multi-block operations mid-run), and
/// the embedding server is expected to observe the dead state, stay
/// silent for the schedule's `down` window, and then [`SimDisk::revive`]
/// the device and run recovery. Untimed raw access keeps working — that
/// is what recovery reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSchedule {
    /// Remaining `(after_writes, down)` triggers, ascending by ordinal.
    pending: Vec<(u64, SimDuration)>,
    /// Elementary block writes persisted over the disk's lifetime.
    persisted: u64,
}

impl CrashSchedule {
    /// Builds the crash schedule for disk number `disk` from a plan's
    /// crash section, or `None` when no kill targets this disk (so the
    /// fault-free fast path stays untouched).
    pub fn from_plan(crashes: &[parsim::CrashAt], disk: u32) -> Option<CrashSchedule> {
        let mut pending: Vec<(u64, SimDuration)> = crashes
            .iter()
            .filter(|c| c.disk == disk && c.after_writes > 0)
            .map(|c| (c.after_writes, c.down))
            .collect();
        if pending.is_empty() {
            return None;
        }
        pending.sort_by_key(|&(at, _)| at);
        pending.dedup_by_key(|&mut (at, _)| at);
        Some(CrashSchedule {
            pending,
            persisted: 0,
        })
    }
}

/// Live permanent-loss schedule for one disk, derived from a
/// [`parsim::FaultPlan`]'s [`DiskLost`](parsim::DiskLost) section.
///
/// Like [`CrashSchedule`] the trigger is keyed on the disk's cumulative
/// persisted-write ordinal, but the consequence is final: once the
/// ordinal passes, the medium is *lost*. Every operation — timed or raw —
/// fails or returns nothing, [`SimDisk::revive`] does not help, and the
/// only way forward is for the embedder to install a fresh spare device
/// and rebuild its contents from redundancy elsewhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LossSchedule {
    /// Write ordinal after which the medium dies (0 = lost from the
    /// start, before anything persists).
    at: u64,
    /// Elementary block writes persisted over the disk's lifetime.
    persisted: u64,
}

impl LossSchedule {
    /// Builds the loss schedule for disk number `disk` from a plan's loss
    /// section, or `None` when no loss targets this disk (so the
    /// fault-free fast path stays untouched). Multiple entries for the
    /// same disk collapse to the earliest — loss is permanent, so later
    /// triggers can never fire.
    pub fn from_plan(losses: &[parsim::DiskLost], disk: u32) -> Option<LossSchedule> {
        losses
            .iter()
            .filter(|l| l.disk == disk)
            .map(|l| l.after_writes)
            .min()
            .map(|at| LossSchedule { at, persisted: 0 })
    }
}

/// The address of a block on one disk (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(u32);

impl BlockAddr {
    /// Creates a block address.
    pub const fn new(index: u32) -> Self {
        BlockAddr(index)
    }

    /// The 0-based block index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk{}", self.0)
    }
}

impl From<u32> for BlockAddr {
    fn from(index: u32) -> Self {
        BlockAddr(index)
    }
}

/// Physical layout of a simulated disk.
///
/// The default is the reproduction's standard device: 1024-byte blocks,
/// 8 blocks per track, 8192 tracks — a 64 MB disk, the size the paper
/// carved out of the Butterfly's RAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskGeometry {
    /// Bytes per block; all reads and writes are whole blocks.
    pub block_size: usize,
    /// Blocks per track; a track is the unit of read buffering.
    pub blocks_per_track: u32,
    /// Number of tracks.
    pub tracks: u32,
}

impl Default for DiskGeometry {
    fn default() -> Self {
        DiskGeometry {
            block_size: 1024,
            blocks_per_track: 8,
            tracks: 8192,
        }
    }
}

impl DiskGeometry {
    /// Total number of blocks on the disk.
    pub const fn capacity_blocks(self) -> u32 {
        self.blocks_per_track * self.tracks
    }

    /// Total capacity in bytes.
    pub const fn capacity_bytes(self) -> u64 {
        self.capacity_blocks() as u64 * self.block_size as u64
    }

    /// The track containing `addr`.
    pub const fn track_of(self, addr: BlockAddr) -> u32 {
        addr.0 / self.blocks_per_track
    }
}

/// Distance-dependent seek model: the cost of repositioning the head grows
/// with the number of tracks it must travel.
///
/// The paper's prototype charged a flat delay for every positioning; real
/// drives pay a fixed settle/rotation cost plus travel time, which is what
/// makes request *ordering* matter. A [`DiskProfile`] carries an optional
/// `SeekCurve`; when present, positioning an access on track `t` with the
/// head on track `h` costs `settle + per_track · |t − h|` instead of the
/// flat `positioning` figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeekCurve {
    /// Head settle plus average rotational delay, charged on every
    /// repositioning regardless of distance (including distance zero).
    pub settle: SimDuration,
    /// Additional travel time per track of head movement.
    pub per_track: SimDuration,
}

impl SeekCurve {
    /// Positioning cost for a head travel of `distance` tracks.
    pub fn cost(&self, distance: u32) -> SimDuration {
        self.settle + self.per_track * u64::from(distance)
    }
}

/// Timing model of a simulated drive.
///
/// Reads that miss the track buffer pay `positioning` and stream the whole
/// track in; subsequent reads of the same track pay only the per-block
/// transfer. Writes are write-through: every write pays positioning plus
/// one block transfer (rotation must come around to the sector).
///
/// The track buffer is *per-block precise*: a full-track load validates
/// every block of the track, while a write refreshes only the block it
/// transferred (and, if the head moved to a new track, invalidates the
/// rest of the buffer). A read of a block the buffer never earned —
/// e.g. the untouched neighbors after a partial-track write — therefore
/// pays positioning like any other miss.
///
/// With `seek: None` (the default, and the paper's model) every
/// positioning costs the flat `positioning` delay. With a [`SeekCurve`]
/// installed, positioning cost depends on how far the head travels, which
/// is what gives disk-aware request scheduling something to win.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskProfile {
    /// Seek plus rotational delay for an access that must position the
    /// head (used when `seek` is `None`).
    pub positioning: SimDuration,
    /// Media transfer time for one block.
    pub transfer_per_block: SimDuration,
    /// Optional distance-dependent seek curve; `None` charges the flat
    /// `positioning` figure, preserving the paper's timing bit-for-bit.
    pub seek: Option<SeekCurve>,
}

impl DiskProfile {
    /// The paper's device: a CDC Wren-class disk approximated by a 15 ms
    /// positioning delay.
    pub fn wren() -> Self {
        DiskProfile {
            positioning: SimDuration::from_millis(15),
            transfer_per_block: SimDuration::from_millis(1),
            seek: None,
        }
    }

    /// A Wren-class disk with a distance-dependent seek curve: 8 ms settle
    /// plus rotation, and travel calibrated so the average random seek
    /// (a third of the default geometry's 8192 tracks) lands near the flat
    /// profile's 15 ms — short seeks are much cheaper, full strokes cost
    /// about twice the average.
    pub fn wren_seek() -> Self {
        DiskProfile {
            seek: Some(SeekCurve {
                settle: SimDuration::from_millis(8),
                per_track: SimDuration::from_nanos(2_560),
            }),
            ..DiskProfile::wren()
        }
    }

    /// A free disk: zero delays. Useful for functional tests where timing
    /// is irrelevant.
    pub fn instant() -> Self {
        DiskProfile {
            positioning: SimDuration::ZERO,
            transfer_per_block: SimDuration::ZERO,
            seek: None,
        }
    }

    /// Positioning cost for an access on `to` with the head on `from`.
    pub fn positioning_cost(&self, from: u32, to: u32) -> SimDuration {
        match self.seek {
            None => self.positioning,
            Some(curve) => curve.cost(from.abs_diff(to)),
        }
    }
}

impl Default for DiskProfile {
    fn default() -> Self {
        DiskProfile::wren()
    }
}

/// Errors returned by [`SimDisk`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// The block address is beyond the end of the disk.
    OutOfRange {
        /// The offending address.
        addr: BlockAddr,
        /// The disk's capacity in blocks.
        capacity: u32,
    },
    /// The block has never been written; reading it would return garbage.
    Unwritten {
        /// The offending address.
        addr: BlockAddr,
    },
    /// A write buffer whose length is not exactly one block.
    WrongBlockSize {
        /// Bytes provided by the caller.
        provided: usize,
        /// Bytes required (the geometry's block size).
        required: usize,
    },
    /// An injected transient fault outlasted the driver's bounded retry
    /// loop ([`DRIVER_RETRY_LIMIT`] attempts). Only reachable under a
    /// fault plan whose per-request failure budget exceeds the limit;
    /// nothing is charged and no data moves when the driver gives up.
    Transient {
        /// The (first) addressed block of the failed request.
        addr: BlockAddr,
        /// Failed attempts the request would have needed.
        attempts: u32,
    },
    /// The disk is dead under a [`CrashSchedule`] kill: the node crashed
    /// between two elementary writes. Timed operations fail until the
    /// embedder calls [`SimDisk::revive`]; a multi-block write that was
    /// in flight persisted only its pre-crash prefix (a torn run).
    Crashed,
    /// The medium is permanently gone under a [`LossSchedule`]: every
    /// operation fails forever, [`SimDisk::revive`] does not help, and
    /// the data is unrecoverable from this device. Only a redundancy
    /// layer can serve or rebuild its contents (onto a spare).
    Lost,
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::OutOfRange { addr, capacity } => {
                write!(f, "block {addr} out of range (capacity {capacity} blocks)")
            }
            DiskError::Unwritten { addr } => write!(f, "block {addr} has never been written"),
            DiskError::WrongBlockSize { provided, required } => {
                write!(f, "write of {provided} bytes, block size is {required}")
            }
            DiskError::Transient { addr, attempts } => {
                write!(
                    f,
                    "transient fault on block {addr} outlasted the driver \
                     ({attempts} failed attempts, limit {DRIVER_RETRY_LIMIT})"
                )
            }
            DiskError::Crashed => write!(f, "disk is down: its node crashed mid-operation"),
            DiskError::Lost => write!(f, "disk medium is permanently lost"),
        }
    }
}

impl Error for DiskError {}

/// Operation counters for one disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStats {
    /// Block reads requested.
    pub reads: u64,
    /// Block writes requested.
    pub writes: u64,
    /// Reads satisfied from the track buffer.
    pub buffer_hits: u64,
    /// Full-track loads (read misses).
    pub track_loads: u64,
    /// Tracks of head travel accumulated by positionings (always zero
    /// under the flat profile, which does not model head distance).
    pub head_travel: u64,
    /// Injected transient failures absorbed by the driver's retry loop
    /// (always zero without a fault plan).
    pub transient_faults: u64,
    /// Total virtual time this disk spent servicing requests.
    pub busy: SimDuration,
}

/// A block storage device usable by a local file system: fixed-size
/// blocks, timed reads/writes that charge the owning process's virtual
/// clock, and untimed raw access for formatting and inspection.
///
/// Implemented by [`SimDisk`] (one spindle) and by the baseline devices of
/// the `bridge-baseline` crate (striped sets, storage arrays).
pub trait BlockDevice: Send + std::fmt::Debug {
    /// The device's geometry.
    fn geometry(&self) -> DiskGeometry;

    /// Reads one block, charging virtual time.
    ///
    /// # Errors
    ///
    /// [`DiskError::OutOfRange`] or [`DiskError::Unwritten`].
    fn read(&mut self, ctx: &mut Ctx, addr: BlockAddr) -> Result<Bytes, DiskError>;

    /// Writes one block, charging virtual time.
    ///
    /// # Errors
    ///
    /// [`DiskError::OutOfRange`] or [`DiskError::WrongBlockSize`].
    fn write(&mut self, ctx: &mut Ctx, addr: BlockAddr, data: &[u8]) -> Result<(), DiskError>;

    /// Reads a run of blocks in one device request.
    ///
    /// The default implementation loops over [`read`](BlockDevice::read);
    /// devices with a smarter controller (see [`SimDisk::read_many`])
    /// override it to charge the whole run as one service interval.
    ///
    /// # Errors
    ///
    /// [`DiskError::OutOfRange`] or [`DiskError::Unwritten`].
    fn read_many(&mut self, ctx: &mut Ctx, addrs: &[BlockAddr]) -> Result<Vec<Bytes>, DiskError> {
        addrs.iter().map(|&a| self.read(ctx, a)).collect()
    }

    /// Writes a run of blocks in one device request.
    ///
    /// The default implementation loops over [`write`](BlockDevice::write);
    /// devices with a smarter controller (see [`SimDisk::write_many`])
    /// override it to pay positioning once per track instead of once per
    /// block.
    ///
    /// # Errors
    ///
    /// [`DiskError::OutOfRange`] or [`DiskError::WrongBlockSize`].
    fn write_many(
        &mut self,
        ctx: &mut Ctx,
        writes: &[(BlockAddr, Bytes)],
    ) -> Result<(), DiskError> {
        for (addr, data) in writes {
            self.write(ctx, *addr, data)?;
        }
        Ok(())
    }

    /// Forces every accepted write to durable media before returning — the
    /// write ordering point a write-ahead log commits through. Devices
    /// with a write-behind queue wait for it to drain (charging the wait);
    /// synchronous devices return immediately, so calling `flush` on an
    /// idle device never changes timing.
    ///
    /// # Errors
    ///
    /// [`DiskError::Crashed`] if the device is dead under a crash kill.
    fn flush(&mut self, ctx: &mut Ctx) -> Result<(), DiskError> {
        let _ = ctx;
        Ok(())
    }

    /// When the device is dead under a crash kill: how long its node
    /// stays down before recovery may run. `None` means alive (the
    /// default for devices that do not model crashes).
    fn crash_down(&self) -> Option<SimDuration> {
        None
    }

    /// Restarts a dead device: clears the crash state and every volatile
    /// buffer (track buffer, queued write-behind work). Durable blocks
    /// survive. A no-op on devices that do not model crashes — and on a
    /// *lost* medium, which no restart brings back.
    fn revive(&mut self) {}

    /// True once the device's medium is permanently lost (see
    /// [`DiskError::Lost`]). `false` forever on devices that do not model
    /// media loss.
    fn lost(&self) -> bool {
        false
    }

    /// A factory-fresh replacement device with the same geometry and
    /// timing profile but none of this device's contents or scheduled
    /// faults — what an operator racks in after a permanent media loss.
    /// `None` on devices that cannot be hot-swapped (the default).
    fn spare(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }

    /// Reads a block without charging time (formatting, tests, recovery).
    fn read_raw(&self, addr: BlockAddr) -> Option<&[u8]>;

    /// Writes a block without charging time (formatting, tests). The
    /// device stores the image it is handed, not a copy: blocks are
    /// immutable, so one image may fill many slots.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range or `data` is not one block long.
    fn write_raw(&mut self, addr: BlockAddr, data: Bytes);

    /// Marks a block as unwritten without charging time.
    fn clear_raw(&mut self, addr: BlockAddr);

    /// Aggregate operation counters.
    fn stats(&self) -> DiskStats;

    /// Capacity in blocks (defaults to the geometry's).
    fn capacity_blocks(&self) -> u32 {
        self.geometry().capacity_blocks()
    }

    /// The track the device's head is currently positioned over, for
    /// request scheduling. Devices without a meaningful single head
    /// (striped sets, arrays) report track 0, which degrades scheduling
    /// to policy order without affecting correctness.
    fn head_track(&self) -> u32 {
        0
    }
}

/// An in-memory simulated disk with virtual-time delays.
///
/// A `SimDisk` is a passive resource owned by exactly one simulated process
/// (the local file system of its node); timed operations take the owner's
/// `&mut Ctx` and advance the virtual clock.
pub struct SimDisk {
    geometry: DiskGeometry,
    profile: DiskProfile,
    blocks: Vec<Option<Bytes>>,
    buffered_track: Option<u32>,
    /// Which blocks of `buffered_track` actually hold media data: all of
    /// them after a full-track load, only the transferred ones after
    /// writes. Indexed by in-track offset.
    buffered_valid: Vec<bool>,
    /// Write-behind queue depth (`None` = synchronous write-through).
    write_behind: Option<u32>,
    /// Virtual time at which the device finishes its queued work.
    free_at: parsim::SimTime,
    /// Completion times of queued write-behind operations, oldest first;
    /// entries at or before the current clock are retired lazily.
    deferred: VecDeque<parsim::SimTime>,
    /// Track the head is currently positioned over (starts at track 0).
    head_track: u32,
    /// Injected transient-fault state (`None` = the fault-free fast path).
    faults: Option<DiskFaultState>,
    /// Scheduled crash kills (`None` = the crash-free fast path).
    crash: Option<CrashSchedule>,
    /// `Some(down)` while the disk is dead under a crash kill.
    dead: Option<SimDuration>,
    /// Scheduled permanent loss (`None` = the loss-free fast path).
    loss: Option<LossSchedule>,
    /// True once the medium is permanently gone. Never cleared — not even
    /// by [`SimDisk::revive`]; a lost disk can only be replaced.
    lost: bool,
    stats: DiskStats,
}

impl SimDisk {
    /// Creates a blank disk.
    pub fn new(geometry: DiskGeometry, profile: DiskProfile) -> Self {
        SimDisk {
            geometry,
            profile,
            blocks: vec![None; geometry.capacity_blocks() as usize],
            buffered_track: None,
            buffered_valid: vec![false; geometry.blocks_per_track as usize],
            write_behind: None,
            free_at: parsim::SimTime::ZERO,
            deferred: VecDeque::new(),
            head_track: 0,
            faults: None,
            crash: None,
            dead: None,
            loss: None,
            lost: false,
            stats: DiskStats::default(),
        }
    }

    /// Installs (or clears) transient-fault injection for this disk.
    /// Passing `None` — or a state [`DiskFaultState::from_plan`] declined
    /// to build — keeps the exact fault-free code path.
    pub fn inject_faults(&mut self, faults: Option<DiskFaultState>) {
        self.faults = faults;
    }

    /// Installs (or clears) a crash-kill schedule for this disk. Passing
    /// `None` — or a schedule [`CrashSchedule::from_plan`] declined to
    /// build — keeps the exact crash-free code path: no write counting,
    /// no timing change, bit-identical [`DiskStats`].
    pub fn schedule_crashes(&mut self, crash: Option<CrashSchedule>) {
        self.crash = crash;
    }

    /// Installs (or clears) a permanent-loss schedule for this disk.
    /// Passing `None` — or a schedule [`LossSchedule::from_plan`] declined
    /// to build — keeps the exact loss-free code path. An ordinal of zero
    /// loses the medium immediately, before anything persists.
    pub fn schedule_loss(&mut self, loss: Option<LossSchedule>) {
        if let Some(ls) = &loss {
            if ls.at == 0 {
                self.lost = true;
            }
        }
        self.loss = loss;
    }

    /// `Err(Lost)` when the medium is permanently gone, `Err(Crashed)`
    /// when the disk is dead under a crash kill.
    fn check_alive(&self) -> Result<(), DiskError> {
        if self.lost {
            Err(DiskError::Lost)
        } else if self.dead.is_some() {
            Err(DiskError::Crashed)
        } else {
            Ok(())
        }
    }

    /// Counts one persisted elementary write against the crash schedule.
    /// Returns `true` when that write was the scheduled trigger: it is
    /// durable, but the disk is dead from this instant on.
    fn note_write_crash(&mut self) -> bool {
        let Some(cs) = self.crash.as_mut() else {
            return false;
        };
        cs.persisted += 1;
        if let Some(&(at, down)) = cs.pending.first() {
            if cs.persisted >= at {
                cs.pending.remove(0);
                self.dead = Some(down);
                return true;
            }
        }
        false
    }

    /// Counts one persisted elementary write against the loss schedule.
    /// Returns `true` when that write was the scheduled trigger: it is
    /// durable but unreadable — the medium is gone from this instant on.
    fn note_write_loss(&mut self) -> bool {
        if self.lost {
            return false;
        }
        let Some(ls) = self.loss.as_mut() else {
            return false;
        };
        ls.persisted += 1;
        if ls.persisted >= ls.at {
            self.lost = true;
            return true;
        }
        false
    }

    /// When the disk is dead under a crash kill: the scheduled down
    /// window its node must stay silent for. `None` means alive — and
    /// also when the medium is *lost*: loss supersedes any crash window,
    /// because no amount of downtime plus recovery brings the data back.
    pub fn crash_down(&self) -> Option<SimDuration> {
        if self.lost {
            None
        } else {
            self.dead
        }
    }

    /// True once the medium is permanently lost. Unlike a crash kill this
    /// never clears; the embedder must replace the device with a spare.
    pub fn lost(&self) -> bool {
        self.lost
    }

    /// Restarts a dead disk. Durable blocks survive; everything volatile
    /// is gone: the track buffer is invalidated and queued write-behind
    /// completions are dropped (their data already persisted — the queue
    /// models timing, not durability). Crash triggers whose ordinal has
    /// already passed are discarded so a restart cannot re-fire them.
    /// A permanently [`lost`](SimDisk::lost) medium stays lost.
    pub fn revive(&mut self) {
        self.dead = None;
        self.buffered_track = None;
        self.buffered_valid.fill(false);
        self.deferred.clear();
        if let Some(cs) = self.crash.as_mut() {
            while cs
                .pending
                .first()
                .is_some_and(|&(at, _)| at <= cs.persisted)
            {
                cs.pending.remove(0);
            }
        }
    }

    /// Waits for every accepted write to reach durable media: the commit
    /// ordering point. With write-behind enabled this drains the queue
    /// (charging the wait); on a synchronous disk — or an idle queue — it
    /// is free, so flushing never perturbs timing on the fault-free path.
    ///
    /// # Errors
    ///
    /// [`DiskError::Crashed`] if the disk is dead under a crash kill.
    pub fn flush(&mut self, ctx: &mut Ctx) -> Result<(), DiskError> {
        self.check_alive()?;
        if self.write_behind.is_some() {
            let wake = self.free_at;
            if wake > ctx.now() {
                ctx.delay(wake.saturating_duration_since(ctx.now()));
            }
            self.retire_deferred(ctx.now());
        }
        Ok(())
    }

    /// Enables write-behind: writes return once buffered (paying only the
    /// transfer into the buffer) while the media work queues on the
    /// device, up to `depth` outstanding writes. Reads, and writes beyond
    /// the queue depth, wait for the queue to drain — "assuming that the
    /// local file systems perform read-ahead and write-behind, virtually
    /// any program that uses the naive interface will be compute- or
    /// communication-bound" (paper §6).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn enable_write_behind(&mut self, depth: u32) {
        assert!(depth > 0, "write-behind queue depth must be positive");
        self.write_behind = Some(depth);
    }

    /// The disk's geometry.
    pub fn geometry(&self) -> DiskGeometry {
        self.geometry
    }

    /// The disk's timing profile.
    pub fn profile(&self) -> DiskProfile {
        self.profile
    }

    /// Capacity in blocks.
    pub fn capacity_blocks(&self) -> u32 {
        self.geometry.capacity_blocks()
    }

    /// Operation counters so far.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    fn check_addr(&self, addr: BlockAddr) -> Result<usize, DiskError> {
        let cap = self.geometry.capacity_blocks();
        if addr.0 < cap {
            Ok(addr.0 as usize)
        } else {
            Err(DiskError::OutOfRange {
                addr,
                capacity: cap,
            })
        }
    }

    /// True if `addr` can be served from the track buffer: the right track
    /// is buffered *and* this particular block's image is valid.
    fn buffer_hit(&self, addr: BlockAddr) -> bool {
        let track = self.geometry.track_of(addr);
        self.buffered_track == Some(track)
            && self.buffered_valid[(addr.0 % self.geometry.blocks_per_track) as usize]
    }

    /// Records a full-track load: every block of `track` is now buffered.
    fn buffer_load(&mut self, track: u32) {
        self.buffered_track = Some(track);
        self.buffered_valid.fill(true);
    }

    /// Records the buffer effect of writing one block. Writing refreshes
    /// only the block actually transferred: on the buffered track the
    /// block's image stays (or becomes) valid, while moving the head to a
    /// different track discards the old image and leaves just the written
    /// block valid.
    fn buffer_note_write(&mut self, addr: BlockAddr) {
        let track = self.geometry.track_of(addr);
        let offset = (addr.0 % self.geometry.blocks_per_track) as usize;
        if self.buffered_track != Some(track) {
            self.buffered_track = Some(track);
            self.buffered_valid.fill(false);
        }
        self.buffered_valid[offset] = true;
    }

    /// Moves the head to `track`, returning the positioning cost (flat
    /// under the paper profile, distance-dependent under a seek curve) and
    /// accounting the travel.
    fn seek_to(&mut self, track: u32) -> SimDuration {
        let d = self.profile.positioning_cost(self.head_track, track);
        if self.profile.seek.is_some() {
            self.stats.head_travel += u64::from(self.head_track.abs_diff(track));
        }
        self.head_track = track;
        d
    }

    /// The track the head is currently positioned over.
    pub fn head_track(&self) -> u32 {
        self.head_track
    }

    fn charge(&mut self, ctx: &mut Ctx, d: SimDuration) {
        self.stats.busy += d;
        if self.write_behind.is_some() {
            // Queue-aware service: the operation starts when the device is
            // free and the caller waits until it completes.
            let start = self.free_at.max(ctx.now());
            let done = start + d;
            self.free_at = done;
            ctx.delay(done.saturating_duration_since(ctx.now()));
        } else {
            ctx.delay(d);
        }
    }

    /// Queues device work without making the caller wait for it (beyond
    /// the queue-depth backpressure).
    fn charge_deferred(&mut self, ctx: &mut Ctx, d: SimDuration, immediate: SimDuration) {
        self.stats.busy += d;
        let depth = self.write_behind.expect("only called with write-behind on") as usize;
        let start = self.free_at.max(ctx.now());
        self.free_at = start + d;
        self.deferred.push_back(self.free_at);
        ctx.delay(immediate);
        // Backpressure: at most `depth` writes may be outstanding on the
        // device. Bounding by op count (not a worst-case time lead) keeps
        // the bound exact when queued writes cost less than the worst
        // case, e.g. short seeks under a seek curve.
        self.retire_deferred(ctx.now());
        if self.deferred.len() > depth {
            let wake = self.deferred[self.deferred.len() - 1 - depth];
            ctx.delay(wake.saturating_duration_since(ctx.now()));
            self.retire_deferred(ctx.now());
        }
    }

    /// Drops queued-write completion records that the clock has passed.
    fn retire_deferred(&mut self, now: parsim::SimTime) {
        while self.deferred.front().is_some_and(|&c| c <= now) {
            self.deferred.pop_front();
        }
    }

    /// Number of write-behind operations still outstanding on the device
    /// at `now` (always zero without write-behind).
    pub fn deferred_outstanding(&mut self, now: parsim::SimTime) -> usize {
        self.retire_deferred(now);
        self.deferred.len()
    }

    /// Consults the fault state for a request touching `addrs` and returns
    /// the extra service time the driver's bounded retry loop absorbed:
    /// each failed attempt re-positions the head over the target track and
    /// tries again, so a failure costs one positioning charge (full travel
    /// for the first, settle-only under a seek curve thereafter). With no
    /// fault state installed this is a single branch returning zero.
    ///
    /// # Errors
    ///
    /// [`DiskError::Transient`] when the request would need more than
    /// [`DRIVER_RETRY_LIMIT`] attempts; nothing is charged in that case.
    fn fault_penalty(
        &mut self,
        ctx: &mut Ctx,
        addrs: impl Iterator<Item = BlockAddr> + Clone,
    ) -> Result<SimDuration, DiskError> {
        // No fault state, or no block for a fault to hit: nothing to pay.
        let (Some(faults), Some(addr)) = (self.faults.as_mut(), addrs.clone().next()) else {
            return Ok(SimDuration::ZERO);
        };
        let failures = faults.failures_for(addrs);
        if failures == 0 {
            return Ok(SimDuration::ZERO);
        }
        self.stats.transient_faults += u64::from(failures);
        if ctx.trace_enabled() {
            ctx.trace_instant(
                "fault",
                "fault.disk_transient",
                &[
                    ("block", u64::from(addr.index())),
                    ("retries", u64::from(failures)),
                ],
            );
        }
        if failures > DRIVER_RETRY_LIMIT {
            return Err(DiskError::Transient {
                addr,
                attempts: failures,
            });
        }
        let track = self.geometry.track_of(addr);
        let mut extra = SimDuration::ZERO;
        for _ in 0..failures {
            extra += self.seek_to(track);
        }
        Ok(extra)
    }

    /// Reads one block, charging virtual time.
    ///
    /// A miss positions the head and streams the whole track into the track
    /// buffer; further reads of that track cost only the per-block transfer.
    ///
    /// # Errors
    ///
    /// [`DiskError::OutOfRange`], [`DiskError::Unwritten`], or
    /// [`DiskError::Transient`] under an unbounded fault rule.
    pub fn read(&mut self, ctx: &mut Ctx, addr: BlockAddr) -> Result<Bytes, DiskError> {
        self.check_alive()?;
        let idx = self.check_addr(addr)?;
        let extra = self.fault_penalty(ctx, std::iter::once(addr))?;
        let track = self.geometry.track_of(addr);
        self.stats.reads += 1;
        let t0 = ctx.now();
        let hit = self.buffer_hit(addr);
        let (seek, xfer) = if hit {
            self.stats.buffer_hits += 1;
            (SimDuration::ZERO, self.profile.transfer_per_block)
        } else {
            self.stats.track_loads += 1;
            (
                self.seek_to(track),
                self.profile.transfer_per_block * u64::from(self.geometry.blocks_per_track),
            )
        };
        let position = extra + seek;
        let d = position + xfer;
        self.charge(ctx, d);
        if !hit {
            self.buffer_load(track);
        }
        if ctx.trace_enabled() {
            let name = if hit {
                "disk.read.hit"
            } else {
                "disk.read.load"
            };
            ctx.trace_span(
                "disk",
                name,
                t0,
                &[
                    ("busy", d.as_nanos()),
                    ("position", position.as_nanos()),
                    ("transfer", xfer.as_nanos()),
                ],
            );
        }
        match &self.blocks[idx] {
            Some(data) => Ok(data.clone()),
            None => Err(DiskError::Unwritten { addr }),
        }
    }

    /// Reads a run of blocks as one device request: the same track-buffer
    /// economics as block-at-a-time reads (positioning once per distinct
    /// track, transfer per block), but charged as a single service interval
    /// — one queue pass, one clock event — instead of one per block.
    ///
    /// # Errors
    ///
    /// [`DiskError::OutOfRange`] if any address is bad (nothing is charged),
    /// [`DiskError::Unwritten`] on the first hole in the run (time for the
    /// whole run is still charged, as the media was read before checking).
    pub fn read_many(
        &mut self,
        ctx: &mut Ctx,
        addrs: &[BlockAddr],
    ) -> Result<Vec<Bytes>, DiskError> {
        self.check_alive()?;
        for &addr in addrs {
            self.check_addr(addr)?;
        }
        let mut position = self.fault_penalty(ctx, addrs.iter().copied())?;
        let mut transfer = SimDuration::ZERO;
        let mut run_loads = 0u64;
        let mut run_hits = 0u64;
        for &addr in addrs {
            let track = self.geometry.track_of(addr);
            self.stats.reads += 1;
            if self.buffer_hit(addr) {
                self.stats.buffer_hits += 1;
                run_hits += 1;
                transfer += self.profile.transfer_per_block;
            } else {
                self.stats.track_loads += 1;
                run_loads += 1;
                position += self.seek_to(track);
                transfer +=
                    self.profile.transfer_per_block * u64::from(self.geometry.blocks_per_track);
                self.buffer_load(track);
            }
        }
        let total = position + transfer;
        let t0 = ctx.now();
        self.charge(ctx, total);
        if ctx.trace_enabled() {
            ctx.trace_span(
                "disk",
                "disk.read_run",
                t0,
                &[
                    ("blocks", addrs.len() as u64),
                    ("track_loads", run_loads),
                    ("hits", run_hits),
                    ("busy", total.as_nanos()),
                    ("position", position.as_nanos()),
                    ("transfer", transfer.as_nanos()),
                ],
            );
        }
        let mut out = Vec::with_capacity(addrs.len());
        for &addr in addrs {
            let data = self.blocks[addr.0 as usize].clone();
            out.push(data.ok_or(DiskError::Unwritten { addr })?);
        }
        Ok(out)
    }

    /// Writes a run of blocks as one device request: the controller sorts
    /// the queued run by track, so each *distinct* track pays positioning
    /// once (however the caller interleaved its blocks) and the remaining
    /// blocks on it stream at media rate — versus positioning per block
    /// for separate writes.
    ///
    /// Tracks are serviced in first-appearance order, preserving the
    /// caller's intra-track block order; a pre-existing buffered track
    /// does not discount its positioning charge, so a one-element run
    /// costs the same as [`write`](SimDisk::write).
    ///
    /// With write-behind enabled this falls back to block-at-a-time
    /// deferred writes, which already hide positioning behind the queue.
    ///
    /// # Errors
    ///
    /// [`DiskError::OutOfRange`] or [`DiskError::WrongBlockSize`] if any
    /// element is bad; nothing is written or charged in that case.
    pub fn write_many(
        &mut self,
        ctx: &mut Ctx,
        writes: &[(BlockAddr, Bytes)],
    ) -> Result<(), DiskError> {
        self.check_alive()?;
        for (addr, data) in writes {
            self.check_addr(*addr)?;
            if data.len() != self.geometry.block_size {
                return Err(DiskError::WrongBlockSize {
                    provided: data.len(),
                    required: self.geometry.block_size,
                });
            }
        }
        if self.write_behind.is_some() {
            for (addr, data) in writes {
                self.write(ctx, *addr, data)?;
            }
            return Ok(());
        }
        let geometry = self.geometry;
        let track_of = |w: &(BlockAddr, Bytes)| geometry.track_of(w.0);
        let mut position = self.fault_penalty(ctx, writes.iter().map(|w| w.0))?;
        let mut transfer = SimDuration::ZERO;
        let mut tracks = 0u64;
        // One pass over the run per distinct track, in first-appearance
        // order, each pass taking that track's blocks in caller order. A
        // block whose track an earlier block named was serviced by that
        // block's pass (looking back finds a sequential neighbour at once).
        for (i, first) in writes.iter().enumerate() {
            let track = track_of(first);
            if writes[..i].iter().rev().any(|w| track_of(w) == track) {
                continue;
            }
            tracks += 1;
            position += self.seek_to(track);
            for (addr, data) in writes[i..].iter().filter(|w| track_of(w) == track) {
                transfer += self.profile.transfer_per_block;
                self.stats.writes += 1;
                self.blocks[addr.0 as usize] = Some(data.clone());
                self.buffer_note_write(*addr);
                if self.note_write_crash() {
                    // The run tore here: this block persisted, the rest of
                    // the run never reached media. The node is dead — no
                    // time is charged because no one is left to wait.
                    self.note_write_loss();
                    return Err(DiskError::Crashed);
                }
                if self.note_write_loss() {
                    // The run tore here and the medium is gone for good.
                    if ctx.trace_enabled() {
                        ctx.trace_instant("fault", "fault.disk_lost", &[]);
                    }
                    return Err(DiskError::Lost);
                }
            }
        }
        let total = position + transfer;
        let t0 = ctx.now();
        self.charge(ctx, total);
        if ctx.trace_enabled() {
            ctx.trace_span(
                "disk",
                "disk.write_run",
                t0,
                &[
                    ("blocks", writes.len() as u64),
                    ("tracks", tracks),
                    ("busy", total.as_nanos()),
                    ("position", position.as_nanos()),
                    ("transfer", transfer.as_nanos()),
                ],
            );
        }
        Ok(())
    }

    /// Writes one block (write-through), charging positioning plus one
    /// block transfer.
    ///
    /// # Errors
    ///
    /// [`DiskError::OutOfRange`] or [`DiskError::WrongBlockSize`].
    pub fn write(&mut self, ctx: &mut Ctx, addr: BlockAddr, data: &[u8]) -> Result<(), DiskError> {
        self.check_alive()?;
        let idx = self.check_addr(addr)?;
        if data.len() != self.geometry.block_size {
            return Err(DiskError::WrongBlockSize {
                provided: data.len(),
                required: self.geometry.block_size,
            });
        }
        let extra = self.fault_penalty(ctx, std::iter::once(addr))?;
        self.stats.writes += 1;
        let position = extra + self.seek_to(self.geometry.track_of(addr));
        let d = position + self.profile.transfer_per_block;
        let t0 = ctx.now();
        if self.write_behind.is_some() {
            self.charge_deferred(ctx, d, self.profile.transfer_per_block);
        } else {
            self.charge(ctx, d);
        }
        if ctx.trace_enabled() {
            ctx.trace_span(
                "disk",
                "disk.write",
                t0,
                &[
                    ("busy", d.as_nanos()),
                    ("position", position.as_nanos()),
                    ("transfer", self.profile.transfer_per_block.as_nanos()),
                ],
            );
        }
        self.blocks[idx] = Some(Bytes::copy_from_slice(data));
        // The controller retains the image of the block it just transferred
        // — and only that block: the rest of the track was never read, so a
        // later read of a neighbor must still pay positioning. (A
        // read-modify-write of a block this process previously wrote or
        // loaded, e.g. the EFS tail-pointer fixup, still hits.)
        self.buffer_note_write(addr);
        // A scheduled kill after this write leaves it durable; the caller
        // sees Ok but the next timed operation — or the server's own
        // crash_down check before acknowledging — observes the dead disk.
        self.note_write_crash();
        if self.note_write_loss() && ctx.trace_enabled() {
            ctx.trace_instant("fault", "fault.disk_lost", &[]);
        }
        Ok(())
    }

    /// Reads a block without charging time (formatting, tests, debugging).
    /// Returns `None` for every block once the medium is lost — raw access
    /// models inspecting the platters, and there are no platters left.
    pub fn read_raw(&self, addr: BlockAddr) -> Option<&[u8]> {
        if self.lost {
            return None;
        }
        self.blocks
            .get(addr.0 as usize)
            .and_then(|b| b.as_ref())
            .map(|b| b.as_ref())
    }

    /// Writes a block without charging time (formatting, tests), storing
    /// `data` itself: a later [`SimDisk::read_raw`] or timed read returns
    /// this allocation.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range or `data` is not one block long.
    pub fn write_raw(&mut self, addr: BlockAddr, data: Bytes) {
        let idx = self
            .check_addr(addr)
            .unwrap_or_else(|e| panic!("write_raw: {e}"));
        assert_eq!(
            data.len(),
            self.geometry.block_size,
            "write_raw: data must be exactly one block"
        );
        self.blocks[idx] = Some(data);
    }

    /// Marks a block as unwritten without charging time.
    pub fn clear_raw(&mut self, addr: BlockAddr) {
        if let Ok(idx) = self.check_addr(addr) {
            self.blocks[idx] = None;
        }
    }

    /// Number of blocks currently holding data.
    pub fn blocks_in_use(&self) -> u32 {
        self.blocks.iter().filter(|b| b.is_some()).count() as u32
    }
}

impl BlockDevice for SimDisk {
    fn geometry(&self) -> DiskGeometry {
        SimDisk::geometry(self)
    }

    fn read(&mut self, ctx: &mut Ctx, addr: BlockAddr) -> Result<Bytes, DiskError> {
        SimDisk::read(self, ctx, addr)
    }

    fn write(&mut self, ctx: &mut Ctx, addr: BlockAddr, data: &[u8]) -> Result<(), DiskError> {
        SimDisk::write(self, ctx, addr, data)
    }

    fn read_many(&mut self, ctx: &mut Ctx, addrs: &[BlockAddr]) -> Result<Vec<Bytes>, DiskError> {
        SimDisk::read_many(self, ctx, addrs)
    }

    fn write_many(
        &mut self,
        ctx: &mut Ctx,
        writes: &[(BlockAddr, Bytes)],
    ) -> Result<(), DiskError> {
        SimDisk::write_many(self, ctx, writes)
    }

    fn flush(&mut self, ctx: &mut Ctx) -> Result<(), DiskError> {
        SimDisk::flush(self, ctx)
    }

    fn crash_down(&self) -> Option<SimDuration> {
        SimDisk::crash_down(self)
    }

    fn revive(&mut self) {
        SimDisk::revive(self);
    }

    fn lost(&self) -> bool {
        SimDisk::lost(self)
    }

    fn spare(&self) -> Option<Self> {
        Some(SimDisk::new(self.geometry, self.profile))
    }

    fn read_raw(&self, addr: BlockAddr) -> Option<&[u8]> {
        SimDisk::read_raw(self, addr)
    }

    fn write_raw(&mut self, addr: BlockAddr, data: Bytes) {
        SimDisk::write_raw(self, addr, data);
    }

    fn clear_raw(&mut self, addr: BlockAddr) {
        SimDisk::clear_raw(self, addr);
    }

    fn stats(&self) -> DiskStats {
        SimDisk::stats(self)
    }

    fn head_track(&self) -> u32 {
        SimDisk::head_track(self)
    }
}

impl fmt::Debug for SimDisk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimDisk")
            .field("geometry", &self.geometry)
            .field("profile", &self.profile)
            .field("buffered_track", &self.buffered_track)
            .field("head_track", &self.head_track)
            .field("dead", &self.dead)
            .field("lost", &self.lost)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim::{SimConfig, SimTime, Simulation};

    fn on_disk<R: 'static>(
        profile: DiskProfile,
        f: impl FnOnce(&mut Ctx, &mut SimDisk) -> R + 'static,
    ) -> R {
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("io");
        sim.block_on(node, "driver", move |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), profile);
            f(ctx, &mut disk)
        })
    }

    fn block_of(byte: u8) -> Vec<u8> {
        vec![byte; 1024]
    }

    #[test]
    fn geometry_defaults_match_paper_disk() {
        let g = DiskGeometry::default();
        assert_eq!(g.capacity_bytes(), 64 * 1024 * 1024, "64 MB simulated disk");
        assert_eq!(g.track_of(BlockAddr::new(0)), 0);
        assert_eq!(g.track_of(BlockAddr::new(7)), 0);
        assert_eq!(g.track_of(BlockAddr::new(8)), 1);
    }

    #[test]
    fn write_then_read_round_trips() {
        on_disk(DiskProfile::instant(), |ctx, disk| {
            for i in 0..20u32 {
                disk.write(ctx, BlockAddr::new(i), &block_of(i as u8))
                    .unwrap();
            }
            for i in 0..20u32 {
                assert_eq!(
                    disk.read(ctx, BlockAddr::new(i)).unwrap(),
                    block_of(i as u8)
                );
            }
        });
    }

    #[test]
    fn write_raw_stores_the_handed_image() {
        on_disk(DiskProfile::instant(), |ctx, disk| {
            let image = Bytes::from(block_of(7));
            for i in 0..3u32 {
                disk.write_raw(BlockAddr::new(i), image.clone());
            }
            for i in 0..3u32 {
                let addr = BlockAddr::new(i);
                assert_eq!(disk.read_raw(addr).unwrap().as_ptr(), image.as_ptr());
                assert_eq!(disk.read(ctx, addr).unwrap().as_ptr(), image.as_ptr());
            }
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn write_raw_panics_out_of_range() {
        let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::instant());
        let cap = disk.geometry().capacity_blocks();
        disk.write_raw(BlockAddr::new(cap), block_of(0).into());
    }

    #[test]
    #[should_panic(expected = "write_raw: data must be exactly one block")]
    fn write_raw_panics_on_a_wrong_length_block() {
        let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::instant());
        disk.write_raw(BlockAddr::new(0), vec![0u8; 10].into());
    }

    #[test]
    fn read_of_unwritten_block_errors() {
        on_disk(DiskProfile::instant(), |ctx, disk| {
            let err = disk.read(ctx, BlockAddr::new(5)).unwrap_err();
            assert_eq!(
                err,
                DiskError::Unwritten {
                    addr: BlockAddr::new(5)
                }
            );
        });
    }

    #[test]
    fn out_of_range_rejected() {
        on_disk(DiskProfile::instant(), |ctx, disk| {
            let cap = disk.capacity_blocks();
            let err = disk.read(ctx, BlockAddr::new(cap)).unwrap_err();
            assert!(matches!(err, DiskError::OutOfRange { .. }));
            let err = disk
                .write(ctx, BlockAddr::new(cap), &block_of(0))
                .unwrap_err();
            assert!(matches!(err, DiskError::OutOfRange { .. }));
        });
    }

    #[test]
    fn wrong_block_size_rejected() {
        on_disk(DiskProfile::instant(), |ctx, disk| {
            let err = disk.write(ctx, BlockAddr::new(0), &[0u8; 100]).unwrap_err();
            assert_eq!(
                err,
                DiskError::WrongBlockSize {
                    provided: 100,
                    required: 1024
                }
            );
        });
    }

    #[test]
    fn sequential_reads_hit_track_buffer() {
        let stats = on_disk(DiskProfile::wren(), |ctx, disk| {
            for i in 0..16u32 {
                disk.write(ctx, BlockAddr::new(i), &block_of(1)).unwrap();
            }
            for i in 0..16u32 {
                disk.read(ctx, BlockAddr::new(i)).unwrap();
            }
            disk.stats()
        });
        // 16 sequential reads over 2 tracks of 8: 2 track loads, 14 hits.
        assert_eq!(stats.reads, 16);
        assert_eq!(stats.track_loads, 2);
        assert_eq!(stats.buffer_hits, 14);
    }

    #[test]
    fn timing_matches_profile() {
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("io");
        let (t_miss, t_hit, t_write, t_after_write) = sim.block_on(node, "driver", |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
            for i in 0..8u32 {
                disk.write_raw(BlockAddr::new(i), block_of(0).into());
            }
            let t0 = ctx.now();
            disk.read(ctx, BlockAddr::new(0)).unwrap(); // miss: 15 + 8*1
            let t1 = ctx.now();
            disk.read(ctx, BlockAddr::new(1)).unwrap(); // hit: 1
            let t2 = ctx.now();
            disk.write(ctx, BlockAddr::new(2), &block_of(9)).unwrap(); // 15 + 1
            let t3 = ctx.now();
            // Same track as the write: still buffered.
            disk.read(ctx, BlockAddr::new(3)).unwrap(); // hit: 1
            let t4 = ctx.now();
            (t1 - t0, t2 - t1, t3 - t2, t4 - t3)
        });
        assert_eq!(t_miss, SimDuration::from_millis(23));
        assert_eq!(t_hit, SimDuration::from_millis(1));
        assert_eq!(t_write, SimDuration::from_millis(16));
        assert_eq!(
            t_after_write,
            SimDuration::from_millis(1),
            "write retains track"
        );
    }

    #[test]
    fn amortized_sequential_read_is_well_below_positioning() {
        // The Table-2 effect: "average read time for typical files is
        // substantially less than disk latency because of full-track
        // buffering".
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("io");
        let per_block = sim.block_on(node, "driver", |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
            let n = 512u32;
            for i in 0..n {
                disk.write_raw(BlockAddr::new(i), block_of(0).into());
            }
            let t0 = ctx.now();
            for i in 0..n {
                disk.read(ctx, BlockAddr::new(i)).unwrap();
            }
            (ctx.now() - t0) / u64::from(n)
        });
        assert!(
            per_block < SimDuration::from_millis(4),
            "amortized {per_block} should be far below 15ms positioning"
        );
    }

    #[test]
    fn busy_time_accumulates() {
        let stats = on_disk(DiskProfile::wren(), |ctx, disk| {
            disk.write(ctx, BlockAddr::new(0), &block_of(0)).unwrap();
            disk.read(ctx, BlockAddr::new(0)).unwrap();
            disk.stats()
        });
        // write 16ms + buffered read 1ms (the write retained the track)
        assert_eq!(stats.busy, SimDuration::from_millis(17));
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.reads, 1);
    }

    #[test]
    fn write_behind_hides_latency_until_the_queue_fills() {
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("io");
        let (first_writes, long_run_avg, read_after) = sim.block_on(node, "driver", |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
            disk.enable_write_behind(4);
            let t0 = ctx.now();
            for i in 0..4u32 {
                disk.write(ctx, BlockAddr::new(i), &block_of(i as u8))
                    .unwrap();
            }
            let first = (ctx.now() - t0) / 4;
            let t1 = ctx.now();
            for i in 4..64u32 {
                disk.write(ctx, BlockAddr::new(i), &block_of(i as u8))
                    .unwrap();
            }
            let sustained = (ctx.now() - t1) / 60;
            // A read queues behind the remaining writes.
            let t2 = ctx.now();
            disk.read(ctx, BlockAddr::new(0)).unwrap();
            let read_after = ctx.now() - t2;
            (first, sustained, read_after)
        });
        assert!(
            first_writes <= SimDuration::from_millis(1),
            "buffered writes return at transfer speed: {first_writes}"
        );
        // Sustained throughput converges to the media rate (16ms/write).
        assert!(
            long_run_avg >= SimDuration::from_millis(14)
                && long_run_avg <= SimDuration::from_millis(18),
            "backpressure enforces the media rate: {long_run_avg}"
        );
        assert!(
            read_after > SimDuration::from_millis(30),
            "reads wait for queued writes: {read_after}"
        );
    }

    #[test]
    fn write_behind_preserves_data() {
        on_disk(DiskProfile::wren(), |ctx, disk| {
            disk.enable_write_behind(8);
            for i in 0..32u32 {
                disk.write(ctx, BlockAddr::new(i), &block_of(i as u8))
                    .unwrap();
            }
            for i in 0..32u32 {
                assert_eq!(disk.read(ctx, BlockAddr::new(i)).unwrap()[0], i as u8);
            }
        });
    }

    #[test]
    fn crash_fires_after_the_scheduled_write_and_revive_restores() {
        use parsim::CrashAt;
        on_disk(DiskProfile::instant(), |ctx, disk| {
            let down = SimDuration::from_millis(100);
            disk.schedule_crashes(CrashSchedule::from_plan(
                &[CrashAt {
                    disk: 0,
                    after_writes: 3,
                    down,
                }],
                0,
            ));
            disk.write(ctx, BlockAddr::new(0), &block_of(1)).unwrap();
            disk.write(ctx, BlockAddr::new(1), &block_of(2)).unwrap();
            assert!(disk.crash_down().is_none());
            // The third write is durable, but the node dies right after it.
            disk.write(ctx, BlockAddr::new(2), &block_of(3)).unwrap();
            assert_eq!(disk.crash_down(), Some(down));
            assert_eq!(
                disk.read(ctx, BlockAddr::new(0)).unwrap_err(),
                DiskError::Crashed
            );
            assert_eq!(
                disk.write(ctx, BlockAddr::new(3), &block_of(4))
                    .unwrap_err(),
                DiskError::Crashed
            );
            assert_eq!(disk.flush(ctx).unwrap_err(), DiskError::Crashed);
            // Recovery still sees the durable image through raw access.
            assert_eq!(disk.read_raw(BlockAddr::new(2)).unwrap()[0], 3);
            disk.revive();
            assert!(disk.crash_down().is_none());
            assert_eq!(disk.read(ctx, BlockAddr::new(2)).unwrap()[0], 3);
        });
    }

    #[test]
    fn crash_tears_a_multi_block_run() {
        use parsim::CrashAt;
        on_disk(DiskProfile::instant(), |ctx, disk| {
            disk.schedule_crashes(CrashSchedule::from_plan(
                &[CrashAt {
                    disk: 0,
                    after_writes: 3,
                    down: SimDuration::from_millis(1),
                }],
                0,
            ));
            let writes: Vec<(BlockAddr, Bytes)> = (0..6u32)
                .map(|i| (BlockAddr::new(i), Bytes::from(block_of(i as u8 + 1))))
                .collect();
            assert_eq!(
                disk.write_many(ctx, &writes).unwrap_err(),
                DiskError::Crashed
            );
            // The pre-crash prefix persisted; the tail never reached media.
            for i in 0..3u32 {
                assert_eq!(disk.read_raw(BlockAddr::new(i)).unwrap()[0], i as u8 + 1);
            }
            for i in 3..6u32 {
                assert!(disk.read_raw(BlockAddr::new(i)).is_none());
            }
        });
    }

    #[test]
    fn crash_schedule_ignores_other_disks_and_stale_triggers() {
        use parsim::CrashAt;
        let kill = CrashAt {
            disk: 1,
            after_writes: 2,
            down: SimDuration::from_millis(1),
        };
        assert!(CrashSchedule::from_plan(&[kill], 0).is_none());
        assert!(CrashSchedule::from_plan(&[], 1).is_none());
        on_disk(DiskProfile::instant(), |ctx, disk| {
            // Two triggers; after the first fires and the disk revives,
            // the second (later ordinal) still arms, but a trigger whose
            // ordinal already passed is dropped at revive.
            disk.schedule_crashes(CrashSchedule::from_plan(
                &[
                    CrashAt {
                        disk: 0,
                        after_writes: 1,
                        down: SimDuration::from_millis(1),
                    },
                    CrashAt {
                        disk: 0,
                        after_writes: 2,
                        down: SimDuration::from_millis(2),
                    },
                ],
                0,
            ));
            disk.write(ctx, BlockAddr::new(0), &block_of(1)).unwrap();
            assert!(disk.crash_down().is_some());
            disk.revive();
            disk.write(ctx, BlockAddr::new(1), &block_of(2)).unwrap();
            assert_eq!(disk.crash_down(), Some(SimDuration::from_millis(2)));
            disk.revive();
            disk.write(ctx, BlockAddr::new(2), &block_of(3)).unwrap();
            assert!(disk.crash_down().is_none(), "no triggers left");
        });
    }

    #[test]
    fn flush_is_free_when_idle_and_drains_write_behind() {
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("io");
        sim.block_on(node, "driver", |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
            let t0 = ctx.now();
            disk.flush(ctx).unwrap();
            assert_eq!(ctx.now(), t0, "flush on a synchronous disk is free");
            disk.enable_write_behind(8);
            for i in 0..4u32 {
                disk.write(ctx, BlockAddr::new(i), &block_of(i as u8))
                    .unwrap();
            }
            let t1 = ctx.now();
            disk.flush(ctx).unwrap();
            assert!(
                ctx.now() - t1 > SimDuration::from_millis(30),
                "flush waits for the queued media work"
            );
            assert_eq!(disk.deferred_outstanding(ctx.now()), 0);
            let t2 = ctx.now();
            disk.flush(ctx).unwrap();
            assert_eq!(ctx.now(), t2, "flush on a drained queue is free");
        });
    }

    #[test]
    fn read_many_matches_block_at_a_time_cost() {
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("io");
        let (run, single) = sim.block_on(node, "driver", |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
            let addrs: Vec<BlockAddr> = (0..16u32).map(BlockAddr::new).collect();
            for &a in &addrs {
                disk.write_raw(a, block_of(a.index() as u8).into());
            }
            let t0 = ctx.now();
            let run_data = disk.read_many(ctx, &addrs).unwrap();
            let run = ctx.now() - t0;
            for (a, d) in addrs.iter().zip(&run_data) {
                assert_eq!(d[0], a.index() as u8);
            }

            let mut disk2 = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
            for &a in &addrs {
                disk2.write_raw(a, block_of(0).into());
            }
            let t1 = ctx.now();
            for &a in &addrs {
                disk2.read(ctx, a).unwrap();
            }
            (run, ctx.now() - t1)
        });
        // Same track-buffer economics either way: 2 track loads + 14 hits.
        assert_eq!(run, single);
        assert_eq!(run, SimDuration::from_millis(2 * 23 + 14));
    }

    #[test]
    fn write_many_pays_positioning_once_per_track() {
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("io");
        let (run, single) = sim.block_on(node, "driver", |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
            let writes: Vec<(BlockAddr, Bytes)> = (0..8u32)
                .map(|i| (BlockAddr::new(i), Bytes::from(block_of(i as u8))))
                .collect();
            let t0 = ctx.now();
            disk.write_many(ctx, &writes).unwrap();
            let run = ctx.now() - t0;
            for i in 0..8u32 {
                assert_eq!(disk.read_raw(BlockAddr::new(i)).unwrap()[0], i as u8);
            }

            let mut disk2 = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
            let t1 = ctx.now();
            for (a, d) in &writes {
                disk2.write(ctx, *a, d).unwrap();
            }
            (run, ctx.now() - t1)
        });
        // One track: 15 ms positioning + 8 x 1 ms transfer = 23 ms,
        // versus 8 x 16 ms block-at-a-time.
        assert_eq!(run, SimDuration::from_millis(23));
        assert_eq!(single, SimDuration::from_millis(8 * 16));
    }

    #[test]
    fn single_element_runs_cost_the_same_as_single_ops() {
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("io");
        sim.block_on(node, "driver", |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
            let t0 = ctx.now();
            disk.write_many(ctx, &[(BlockAddr::new(0), Bytes::from(block_of(1)))])
                .unwrap();
            assert_eq!(ctx.now() - t0, SimDuration::from_millis(16));
            // The run buffered the block it wrote, exactly like `write`
            // would: rereading it is a hit ...
            let t1 = ctx.now();
            disk.read_many(ctx, &[BlockAddr::new(0)]).unwrap();
            assert_eq!(ctx.now() - t1, SimDuration::from_millis(1));
            // ... but its untouched neighbor was never transferred, so
            // reading it is a full-track miss, not a phantom hit.
            let t2 = ctx.now();
            let got = disk.read_many(ctx, &[BlockAddr::new(1)]);
            assert_eq!(ctx.now() - t2, SimDuration::from_millis(23));
            assert!(matches!(got, Err(DiskError::Unwritten { .. })));
        });
    }

    #[test]
    fn read_after_partial_write_pays_positioning() {
        // Regression test: `write` used to mark the whole track buffered
        // after transferring a single block, so reads of the track's other
        // blocks were phantom hits that skipped positioning.
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("io");
        let stats = sim.block_on(node, "driver", |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
            disk.write_raw(BlockAddr::new(3), block_of(3).into());
            disk.write(ctx, BlockAddr::new(2), &block_of(2)).unwrap(); // 16ms
                                                                       // Same track, but block 3 was never transferred: full miss.
            let t0 = ctx.now();
            disk.read(ctx, BlockAddr::new(3)).unwrap();
            assert_eq!(ctx.now() - t0, SimDuration::from_millis(23));
            // The miss loaded the whole track; now everything hits.
            let t1 = ctx.now();
            disk.read(ctx, BlockAddr::new(2)).unwrap();
            assert_eq!(ctx.now() - t1, SimDuration::from_millis(1));
            disk.stats()
        });
        assert_eq!(stats.track_loads, 1);
        assert_eq!(stats.buffer_hits, 1);
    }

    #[test]
    fn rereading_own_write_still_hits() {
        // The block the write actually transferred stays valid — the EFS
        // tail-pointer read-modify-write pattern must not regress.
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("io");
        sim.block_on(node, "driver", |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
            disk.write(ctx, BlockAddr::new(5), &block_of(5)).unwrap();
            let t0 = ctx.now();
            disk.read(ctx, BlockAddr::new(5)).unwrap();
            assert_eq!(ctx.now() - t0, SimDuration::from_millis(1));
        });
    }

    #[test]
    fn write_many_groups_alternating_tracks() {
        // Regression test: `write_many` documented "each distinct track
        // pays positioning once" but charged positioning on every track
        // *switch*. An alternating run must cost 2 positionings, not 6.
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("io");
        sim.block_on(node, "driver", |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
            let blocks = [0u32, 8, 1, 9, 2, 10]; // track 0 / track 1 interleaved
            let writes: Vec<(BlockAddr, Bytes)> = blocks
                .iter()
                .map(|&i| (BlockAddr::new(i), Bytes::from(block_of(i as u8))))
                .collect();
            let t0 = ctx.now();
            disk.write_many(ctx, &writes).unwrap();
            // 2 tracks x 15ms positioning + 6 x 1ms transfer.
            assert_eq!(ctx.now() - t0, SimDuration::from_millis(2 * 15 + 6));
            for &i in &blocks {
                assert_eq!(disk.read_raw(BlockAddr::new(i)).unwrap()[0], i as u8);
            }
            // Track 1 was serviced last; its written blocks are buffered.
            let t1 = ctx.now();
            disk.read(ctx, BlockAddr::new(9)).unwrap();
            assert_eq!(ctx.now() - t1, SimDuration::from_millis(1));
            // Track 0's image was displaced: full miss.
            let t2 = ctx.now();
            disk.read(ctx, BlockAddr::new(0)).unwrap();
            assert_eq!(ctx.now() - t2, SimDuration::from_millis(23));
            assert_eq!(disk.stats().writes, 6);
        });
    }

    #[test]
    fn write_many_rejects_bad_runs_without_charging() {
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("io");
        sim.block_on(node, "driver", |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
            let cap = disk.capacity_blocks();
            let err = disk
                .write_many(
                    ctx,
                    &[
                        (BlockAddr::new(0), Bytes::from(block_of(0))),
                        (BlockAddr::new(cap), Bytes::from(block_of(0))),
                    ],
                )
                .unwrap_err();
            assert!(matches!(err, DiskError::OutOfRange { .. }));
            let err = disk
                .write_many(ctx, &[(BlockAddr::new(0), Bytes::from(vec![0u8; 10]))])
                .unwrap_err();
            assert!(matches!(err, DiskError::WrongBlockSize { .. }));
            assert_eq!(ctx.now(), SimTime::ZERO, "failed runs charge nothing");
            assert_eq!(disk.blocks_in_use(), 0, "failed runs write nothing");
        });
    }

    #[test]
    fn seek_curve_charges_by_distance() {
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("io");
        let stats = sim.block_on(node, "driver", |ctx| {
            let profile = DiskProfile {
                positioning: SimDuration::from_millis(15),
                transfer_per_block: SimDuration::from_millis(1),
                seek: Some(SeekCurve {
                    settle: SimDuration::from_millis(4),
                    per_track: SimDuration::from_micros(10),
                }),
            };
            let mut disk = SimDisk::new(DiskGeometry::default(), profile);
            // Head starts at track 0: a same-track write costs settle only.
            let t0 = ctx.now();
            disk.write(ctx, BlockAddr::new(0), &block_of(0)).unwrap();
            assert_eq!(ctx.now() - t0, SimDuration::from_millis(5), "4 settle + 1");
            // 100 tracks away: 4 ms settle + 100 × 10 µs travel + 1 transfer.
            let t1 = ctx.now();
            disk.write(ctx, BlockAddr::new(800), &block_of(1)).unwrap();
            assert_eq!(ctx.now() - t1, SimDuration::from_millis(6));
            // Coming back costs the same distance again.
            let t2 = ctx.now();
            disk.write(ctx, BlockAddr::new(1), &block_of(2)).unwrap();
            assert_eq!(ctx.now() - t2, SimDuration::from_millis(6));
            // A read miss seeks too: head at 0, target track 100.
            disk.write_raw(BlockAddr::new(801), block_of(3).into());
            let t3 = ctx.now();
            disk.read(ctx, BlockAddr::new(801)).unwrap();
            assert_eq!(
                ctx.now() - t3,
                SimDuration::from_millis(4 + 1 + 8),
                "settle + travel + full-track transfer"
            );
            disk.stats()
        });
        assert_eq!(stats.head_travel, 300, "0→100→0→100 tracks");
    }

    #[test]
    fn flat_profile_reports_no_head_travel() {
        let stats = on_disk(DiskProfile::wren(), |ctx, disk| {
            disk.write(ctx, BlockAddr::new(0), &block_of(0)).unwrap();
            disk.write(ctx, BlockAddr::new(4000), &block_of(1)).unwrap();
            disk.stats()
        });
        assert_eq!(stats.head_travel, 0);
    }

    #[test]
    fn wren_seek_average_matches_flat_wren() {
        // The calibrated curve: an average-distance random seek (a third
        // of the stroke) costs about the flat profile's 15 ms.
        let p = DiskProfile::wren_seek();
        let avg = DiskGeometry::default().tracks / 3;
        let cost = p.positioning_cost(0, avg);
        assert!(
            cost >= SimDuration::from_millis(14) && cost <= SimDuration::from_millis(16),
            "average seek {cost} should be near 15 ms"
        );
        assert!(p.positioning_cost(0, 0) < SimDuration::from_millis(9));
    }

    #[test]
    fn write_behind_backpressure_bounds_outstanding_ops_not_worst_case_time() {
        // Regression test: backpressure used to bound the queue by a
        // worst-case `positioning + transfer` time lead, so writes that
        // cost less than the worst case (short seeks under a curve) were
        // mis-throttled. The bound is the queued-op *count*.
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("io");
        sim.block_on(node, "driver", |ctx| {
            let profile = DiskProfile {
                positioning: SimDuration::from_millis(15),
                transfer_per_block: SimDuration::from_millis(1),
                seek: Some(SeekCurve {
                    settle: SimDuration::from_millis(4),
                    per_track: SimDuration::from_micros(10),
                }),
            };
            let mut disk = SimDisk::new(DiskGeometry::default(), profile);
            disk.enable_write_behind(4);
            // Same-track writes cost 5 ms each on the device but return at
            // the 1 ms transfer rate until `depth` are outstanding.
            let t0 = ctx.now();
            for i in 0..4u32 {
                disk.write(ctx, BlockAddr::new(i), &block_of(i as u8))
                    .unwrap();
            }
            assert_eq!(
                ctx.now() - t0,
                SimDuration::from_millis(4),
                "first `depth` writes pay only the buffer transfer"
            );
            assert_eq!(disk.deferred_outstanding(ctx.now()), 4);
            // The fifth write's transfer ends at t = 5 ms, exactly when the
            // first queued write completes on the device — the slot frees
            // just in time, so no extra stall.
            let t1 = ctx.now();
            disk.write(ctx, BlockAddr::new(4), &block_of(4)).unwrap();
            assert_eq!(ctx.now() - t1, SimDuration::from_millis(1));
            assert_eq!(disk.deferred_outstanding(ctx.now()), 4);
            // The sixth write (queued at t = 5 ms) must wait for the write
            // completing at t = 10 ms before a slot opens: 1 ms transfer
            // plus 4 ms stall. The old time-lead bound allowed a lead of
            // depth × (positioning + transfer) = 64 ms and would not have
            // stalled here at all, letting far more than `depth` of these
            // cheap writes pile up outstanding.
            let t2 = ctx.now();
            disk.write(ctx, BlockAddr::new(5), &block_of(5)).unwrap();
            assert_eq!(
                ctx.now() - t2,
                SimDuration::from_millis(5),
                "1 ms transfer + 4 ms waiting for a queue slot"
            );
            assert_eq!(disk.deferred_outstanding(ctx.now()), 4);
        });
    }

    #[test]
    fn raw_access_bypasses_clock() {
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("io");
        sim.block_on(node, "driver", |ctx| {
            let mut disk = SimDisk::new(DiskGeometry::default(), DiskProfile::wren());
            disk.write_raw(BlockAddr::new(3), block_of(3).into());
            assert_eq!(disk.read_raw(BlockAddr::new(3)).unwrap()[0], 3);
            assert_eq!(disk.read_raw(BlockAddr::new(4)), None);
            assert_eq!(ctx.now(), SimTime::ZERO, "raw access is free");
            assert_eq!(disk.blocks_in_use(), 1);
            disk.clear_raw(BlockAddr::new(3));
            assert_eq!(disk.blocks_in_use(), 0);
        });
    }

    fn targeted(disk: u32, block: u32, fails: u32) -> parsim::DiskFaults {
        parsim::DiskFaults {
            targets: vec![parsim::BlockFaultRule { disk, block, fails }],
            ..parsim::DiskFaults::default()
        }
    }

    #[test]
    fn inert_plans_install_no_fault_state() {
        assert!(DiskFaultState::from_plan(&parsim::DiskFaults::default(), 7, 0).is_none());
        // Rules for a different disk index are equally inert here.
        assert!(DiskFaultState::from_plan(&targeted(3, 0, 2), 7, 0).is_none());
        // A rate without a consecutive cap can never fire.
        let uncapped = parsim::DiskFaults {
            error_per_mille: 500,
            max_consecutive: 0,
            ..parsim::DiskFaults::default()
        };
        assert!(DiskFaultState::from_plan(&uncapped, 7, 0).is_none());
    }

    #[test]
    fn targeted_rule_charges_positioning_per_failure_then_heals() {
        let (t_faulted, t_healed, stats) = on_disk(DiskProfile::wren(), |ctx, disk| {
            for i in 0..8u32 {
                disk.write_raw(BlockAddr::new(i), block_of(0).into());
            }
            disk.inject_faults(DiskFaultState::from_plan(&targeted(0, 0, 2), 7, 0));
            let t0 = ctx.now();
            // Two absorbed failures (15ms positioning each) + normal miss.
            let data = disk.read(ctx, BlockAddr::new(0)).unwrap();
            assert_eq!(data, block_of(0), "retried read still returns the data");
            let t1 = ctx.now();
            disk.read(ctx, BlockAddr::new(1)).unwrap(); // healed: plain hit
            (t1 - t0, ctx.now() - t1, disk.stats())
        });
        assert_eq!(t_faulted, SimDuration::from_millis(2 * 15 + 23));
        assert_eq!(t_healed, SimDuration::from_millis(1));
        assert_eq!(stats.transient_faults, 2);
    }

    #[test]
    fn random_failures_are_capped_per_request() {
        let plan = parsim::DiskFaults {
            error_per_mille: 1000, // every attempt fails...
            max_consecutive: 2,    // ...but at most twice in a row
            ..parsim::DiskFaults::default()
        };
        let (t_read, stats) = on_disk(DiskProfile::wren(), move |ctx, disk| {
            for i in 0..8u32 {
                disk.write_raw(BlockAddr::new(i), block_of(0).into());
            }
            disk.inject_faults(DiskFaultState::from_plan(&plan, 7, 0));
            let t0 = ctx.now();
            disk.read(ctx, BlockAddr::new(0)).unwrap();
            (ctx.now() - t0, disk.stats())
        });
        // Exactly the cap's worth of failures, then the forced success.
        assert_eq!(t_read, SimDuration::from_millis(2 * 15 + 23));
        assert_eq!(stats.transient_faults, 2);
    }

    #[test]
    fn fault_outlasting_the_driver_escapes_uncharged() {
        on_disk(DiskProfile::wren(), |ctx, disk| {
            for i in 0..8u32 {
                disk.write_raw(BlockAddr::new(i), block_of(0).into());
            }
            let fails = DRIVER_RETRY_LIMIT + 4;
            disk.inject_faults(DiskFaultState::from_plan(&targeted(0, 0, fails), 7, 0));
            let t0 = ctx.now();
            let err = disk.read(ctx, BlockAddr::new(0)).unwrap_err();
            assert_eq!(
                err,
                DiskError::Transient {
                    addr: BlockAddr::new(0),
                    attempts: fails,
                }
            );
            assert_eq!(ctx.now(), t0, "a given-up request charges nothing");
            // The rule's budget is spent: the retried request succeeds.
            disk.read(ctx, BlockAddr::new(0)).unwrap();
            assert_eq!(disk.stats().transient_faults, u64::from(fails));
        });
    }

    #[test]
    fn run_requests_absorb_faults_once_per_request() {
        let (t_run, stats) = on_disk(DiskProfile::wren(), |ctx, disk| {
            disk.inject_faults(DiskFaultState::from_plan(&targeted(0, 9, 3), 7, 0));
            let writes: Vec<(BlockAddr, Bytes)> = (8..16u32)
                .map(|i| (BlockAddr::new(i), Bytes::from(block_of(i as u8))))
                .collect();
            let t0 = ctx.now();
            // One track, one positioning, 8 transfers + 3 absorbed failures.
            disk.write_many(ctx, &writes).unwrap();
            (ctx.now() - t0, disk.stats())
        });
        assert_eq!(t_run, SimDuration::from_millis(3 * 15 + 15 + 8));
        assert_eq!(stats.transient_faults, 3);
    }

    #[test]
    fn fault_streams_are_deterministic_per_seed() {
        let plan = parsim::DiskFaults {
            error_per_mille: 400,
            max_consecutive: 3,
            ..parsim::DiskFaults::default()
        };
        let run = |seed: u64| {
            let plan = plan.clone();
            on_disk(DiskProfile::wren(), move |ctx, disk| {
                disk.inject_faults(DiskFaultState::from_plan(&plan, seed, 2));
                for i in 0..64u32 {
                    disk.write(ctx, BlockAddr::new(i), &block_of(1)).unwrap();
                }
                (ctx.now(), disk.stats())
            })
        };
        assert_eq!(run(11), run(11), "same seed, same faults");
        assert_ne!(
            run(11).1.transient_faults,
            run(12).1.transient_faults,
            "different seeds draw different streams"
        );
    }
}
