//! Disk striping under a single file system — the Salem / Garcia-Molina
//! baseline of the paper's background: "conventional devices are joined
//! logically at the level of the file system software. Consecutive blocks
//! are located on different disk drives, so the file system can initiate
//! I/O operations on several blocks in parallel. Striped files are not
//! limited by disk or channel speed, but … they are limited by the
//! throughput of the file system software."

use bytes::Bytes;
use parsim::{Ctx, SimDuration};
use simdisk::{BlockAddr, BlockDevice, DiskError, DiskGeometry, DiskProfile, DiskStats};
use std::fmt;

/// A set of `p` identical spindles presented as one logical block device,
/// block-interleaved: global block `g` lives on member `g mod p`.
///
/// The striping controller prefetches aggressively: a read miss positions
/// *all* members in parallel and streams each member's track into its
/// buffer, so a sequential scan pays one positioning delay per `p` tracks.
/// The device is therefore nearly free for sequential access — which is
/// precisely why the single file-system process above it becomes the
/// bottleneck Bridge removes.
pub struct StripedDisk {
    members: u32,
    member_geometry: DiskGeometry,
    profile: DiskProfile,
    blocks: Vec<Option<Bytes>>,
    /// Per-member buffered track (member-local track index).
    buffered: Vec<Option<u32>>,
    /// Per-member per-block validity of the buffered track: all blocks
    /// after a full-track load, only the transferred block after a write.
    buffered_valid: Vec<Vec<bool>>,
    stats: DiskStats,
}

impl StripedDisk {
    /// Joins `members` spindles of the given per-member geometry.
    ///
    /// # Panics
    ///
    /// Panics if `members` is zero.
    pub fn new(member_geometry: DiskGeometry, profile: DiskProfile, members: u32) -> Self {
        assert!(members > 0, "a striped set needs at least one member");
        let capacity = member_geometry.capacity_blocks() as usize * members as usize;
        StripedDisk {
            members,
            member_geometry,
            profile,
            blocks: vec![None; capacity],
            buffered: vec![None; members as usize],
            buffered_valid: vec![
                vec![false; member_geometry.blocks_per_track as usize];
                members as usize
            ],
            stats: DiskStats::default(),
        }
    }

    /// Number of member spindles.
    pub fn members(&self) -> u32 {
        self.members
    }

    fn split(&self, addr: BlockAddr) -> (usize, u32) {
        let member = (addr.index() % self.members) as usize;
        let local = addr.index() / self.members;
        (member, local)
    }

    fn check(&self, addr: BlockAddr) -> Result<usize, DiskError> {
        let capacity = self.blocks.len() as u32;
        if addr.index() < capacity {
            Ok(addr.index() as usize)
        } else {
            Err(DiskError::OutOfRange { addr, capacity })
        }
    }

    fn charge(&mut self, ctx: &mut Ctx, d: SimDuration) {
        self.stats.busy += d;
        ctx.delay(d);
    }
}

impl BlockDevice for StripedDisk {
    fn geometry(&self) -> DiskGeometry {
        DiskGeometry {
            block_size: self.member_geometry.block_size,
            blocks_per_track: self.member_geometry.blocks_per_track,
            tracks: self.member_geometry.tracks * self.members,
        }
    }

    fn read(&mut self, ctx: &mut Ctx, addr: BlockAddr) -> Result<Bytes, DiskError> {
        let idx = self.check(addr)?;
        let (member, local) = self.split(addr);
        let track = local / self.member_geometry.blocks_per_track;
        let offset = (local % self.member_geometry.blocks_per_track) as usize;
        self.stats.reads += 1;
        let t0 = ctx.now();
        let hit = self.buffered[member] == Some(track) && self.buffered_valid[member][offset];
        let (position, xfer) = if hit {
            self.stats.buffer_hits += 1;
            (SimDuration::ZERO, self.profile.transfer_per_block)
        } else {
            // All members position and stream in parallel; the caller
            // waits one track's worth, the stripe set loads p tracks.
            self.stats.track_loads += 1;
            (
                self.profile.positioning,
                self.profile.transfer_per_block * u64::from(self.member_geometry.blocks_per_track),
            )
        };
        let d = position + xfer;
        self.charge(ctx, d);
        if !hit {
            for (b, valid) in self.buffered.iter_mut().zip(&mut self.buffered_valid) {
                *b = Some(track);
                valid.fill(true);
            }
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

    fn write(&mut self, ctx: &mut Ctx, addr: BlockAddr, data: &[u8]) -> Result<(), DiskError> {
        let idx = self.check(addr)?;
        if data.len() != self.member_geometry.block_size {
            return Err(DiskError::WrongBlockSize {
                provided: data.len(),
                required: self.member_geometry.block_size,
            });
        }
        let (member, local) = self.split(addr);
        self.stats.writes += 1;
        let d = self.profile.positioning + self.profile.transfer_per_block;
        let t0 = ctx.now();
        self.charge(ctx, d);
        if ctx.trace_enabled() {
            ctx.trace_span(
                "disk",
                "disk.write",
                t0,
                &[
                    ("busy", d.as_nanos()),
                    ("position", self.profile.positioning.as_nanos()),
                    ("transfer", self.profile.transfer_per_block.as_nanos()),
                ],
            );
        }
        self.blocks[idx] = Some(Bytes::copy_from_slice(data));
        // Only the transferred block becomes valid in the member's buffer;
        // marking the whole track buffered here would make later reads of
        // its untouched neighbors phantom hits.
        let track = local / self.member_geometry.blocks_per_track;
        let offset = (local % self.member_geometry.blocks_per_track) as usize;
        if self.buffered[member] != Some(track) {
            self.buffered[member] = Some(track);
            self.buffered_valid[member].fill(false);
        }
        self.buffered_valid[member][offset] = true;
        Ok(())
    }

    fn read_raw(&self, addr: BlockAddr) -> Option<&[u8]> {
        self.blocks
            .get(addr.index() as usize)
            .and_then(|b| b.as_ref())
            .map(|b| b.as_ref())
    }

    fn write_raw(&mut self, addr: BlockAddr, data: Bytes) {
        let idx = self
            .check(addr)
            .unwrap_or_else(|e| panic!("write_raw: {e}"));
        assert_eq!(
            data.len(),
            self.member_geometry.block_size,
            "write_raw: data must be exactly one block"
        );
        self.blocks[idx] = Some(data);
    }

    fn clear_raw(&mut self, addr: BlockAddr) {
        if let Ok(idx) = self.check(addr) {
            self.blocks[idx] = None;
        }
    }

    fn stats(&self) -> DiskStats {
        self.stats
    }
}

impl fmt::Debug for StripedDisk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StripedDisk")
            .field("members", &self.members)
            .field("member_geometry", &self.member_geometry)
            .field("profile", &self.profile)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim::{SimConfig, Simulation};

    fn small() -> DiskGeometry {
        DiskGeometry {
            block_size: 1024,
            blocks_per_track: 8,
            tracks: 64,
        }
    }

    fn on<R: 'static>(f: impl FnOnce(&mut Ctx, &mut StripedDisk) -> R + 'static) -> R {
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("io");
        sim.block_on(node, "driver", move |ctx| {
            let mut disk = StripedDisk::new(small(), DiskProfile::wren(), 4);
            f(ctx, &mut disk)
        })
    }

    #[test]
    fn capacity_scales_with_members() {
        let disk = StripedDisk::new(small(), DiskProfile::wren(), 4);
        assert_eq!(disk.capacity_blocks(), 4 * 8 * 64);
        assert_eq!(disk.members(), 4);
    }

    #[test]
    fn round_trips_across_the_stripe() {
        on(|ctx, disk| {
            for i in 0..64u32 {
                disk.write(ctx, BlockAddr::new(i), &vec![i as u8; 1024])
                    .unwrap();
            }
            for i in 0..64u32 {
                assert_eq!(disk.read(ctx, BlockAddr::new(i)).unwrap()[0], i as u8);
            }
        });
    }

    #[test]
    fn sequential_reads_amortize_positioning_across_members() {
        // One miss buffers all members' tracks: a p·B-block stretch costs
        // one positioning delay.
        let (loads, hits) = on(|ctx, disk| {
            for i in 0..128u32 {
                disk.write_raw(BlockAddr::new(i), vec![0u8; 1024].into());
            }
            for i in 0..128u32 {
                disk.read(ctx, BlockAddr::new(i)).unwrap();
            }
            (disk.stats().track_loads, disk.stats().buffer_hits)
        });
        // 128 blocks = 4 members × 8-block tracks → a stripe-track of 32:
        // 4 misses, 124 hits.
        assert_eq!(loads, 4);
        assert_eq!(hits, 124);
    }

    #[test]
    fn write_does_not_phantom_buffer_the_member_track() {
        // Regression test mirroring SimDisk: a write validates only the
        // block it transferred, so the neighbor on the same member track
        // still pays a full miss.
        on(|ctx, disk| {
            // Blocks 0 and 4 both live on member 0, local track 0.
            disk.write_raw(BlockAddr::new(4), vec![9u8; 1024].into());
            disk.write(ctx, BlockAddr::new(0), &vec![1u8; 1024])
                .unwrap();
            let t0 = ctx.now();
            disk.read(ctx, BlockAddr::new(4)).unwrap();
            assert_eq!(ctx.now() - t0, SimDuration::from_millis(23));
            // Rereading the written block itself is a hit.
            let t1 = ctx.now();
            disk.read(ctx, BlockAddr::new(0)).unwrap();
            assert_eq!(ctx.now() - t1, SimDuration::from_millis(1));
        });
    }

    #[test]
    fn errors_match_single_disk_semantics() {
        on(|ctx, disk| {
            let cap = disk.capacity_blocks();
            assert!(matches!(
                disk.read(ctx, BlockAddr::new(cap)),
                Err(DiskError::OutOfRange { .. })
            ));
            assert!(matches!(
                disk.read(ctx, BlockAddr::new(0)),
                Err(DiskError::Unwritten { .. })
            ));
            assert!(matches!(
                disk.write(ctx, BlockAddr::new(0), &[0u8; 3]),
                Err(DiskError::WrongBlockSize { .. })
            ));
        });
    }
}
