//! Free-block allocation.
//!
//! A simple next-fit bitmap allocator. The cursor keeps sequential appends
//! on consecutive disk addresses, which is what lets the track buffer make
//! sequential reads cheap. The bitmap itself is memory-resident and
//! persisted to the reserved bitmap region on [`sync`](crate::Efs::sync)
//! and at every checkpoint; the linked block structure on disk remains the
//! recovery source of truth — every live block names its file and its
//! position, and recovery rebuilds the bitmap from what the directory can
//! reach. A freed block is simply no longer reachable: nothing is written
//! to it.

use simdisk::BlockAddr;

/// Next-fit bitmap allocator over the data region `[start, capacity)`.
#[derive(Debug, Clone)]
pub(crate) struct BlockAllocator {
    /// One bit per block of the whole disk; bits below `start` stay set.
    words: Vec<u64>,
    start: u32,
    capacity: u32,
    cursor: u32,
    free: u32,
}

impl BlockAllocator {
    /// Creates an allocator for blocks `start..capacity`, all free.
    pub(crate) fn new(start: u32, capacity: u32) -> Self {
        assert!(start <= capacity, "data region start beyond capacity");
        let words = vec![0u64; (capacity as usize).div_ceil(64)];
        let mut a = BlockAllocator {
            words,
            start,
            capacity,
            cursor: start,
            free: capacity - start,
        };
        // Reserve the metadata region permanently.
        for b in 0..start {
            a.set(b, true);
        }
        a
    }

    fn set(&mut self, block: u32, used: bool) {
        let (w, bit) = ((block / 64) as usize, block % 64);
        if used {
            self.words[w] |= 1 << bit;
        } else {
            self.words[w] &= !(1 << bit);
        }
    }

    fn get(&self, block: u32) -> bool {
        let (w, bit) = ((block / 64) as usize, block % 64);
        self.words[w] >> bit & 1 == 1
    }

    /// Number of free blocks.
    pub(crate) fn free_blocks(&self) -> u32 {
        self.free
    }

    /// Allocates one block, preferring the address right after the previous
    /// allocation (next-fit). Returns `None` when the disk is full.
    pub(crate) fn allocate(&mut self) -> Option<BlockAddr> {
        if self.free == 0 {
            return None;
        }
        let span = self.capacity - self.start;
        for i in 0..span {
            let b = self.start + (self.cursor - self.start + i) % span;
            if !self.get(b) {
                self.set(b, true);
                self.free -= 1;
                self.cursor = if b + 1 >= self.capacity {
                    self.start
                } else {
                    b + 1
                };
                return Some(BlockAddr::new(b));
            }
        }
        unreachable!("free count positive but no free bit found");
    }

    /// Returns a block to the free pool.
    ///
    /// # Panics
    ///
    /// Panics on double-free or on freeing a metadata block, both of which
    /// indicate file-system corruption.
    pub(crate) fn release(&mut self, addr: BlockAddr) {
        let b = addr.index();
        assert!(b >= self.start, "release of metadata block {addr}");
        assert!(b < self.capacity, "release of out-of-range block {addr}");
        assert!(self.get(b), "double free of {addr}");
        self.set(b, false);
        self.free += 1;
    }

    /// Marks a block as in use during recovery/import.
    pub(crate) fn reserve(&mut self, addr: BlockAddr) {
        let b = addr.index();
        assert!(b >= self.start && b < self.capacity, "reserve out of range");
        if !self.get(b) {
            self.set(b, true);
            self.free -= 1;
        }
    }

    /// Serializes the bitmap for the on-disk bitmap region.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        self.words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_sequential_from_start() {
        let mut a = BlockAllocator::new(10, 100);
        assert_eq!(a.free_blocks(), 90);
        let first: Vec<u32> = (0..5).map(|_| a.allocate().unwrap().index()).collect();
        assert_eq!(first, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn release_and_reuse() {
        let mut a = BlockAllocator::new(0, 64);
        let addrs: Vec<BlockAddr> = (0..64).map(|_| a.allocate().unwrap()).collect();
        assert_eq!(a.allocate(), None, "disk full");
        a.release(addrs[7]);
        a.release(addrs[9]);
        assert_eq!(a.free_blocks(), 2);
        // Next-fit wraps around and finds the holes.
        let b1 = a.allocate().unwrap();
        let b2 = a.allocate().unwrap();
        let mut got = vec![b1.index(), b2.index()];
        got.sort_unstable();
        assert_eq!(got, vec![7, 9]);
        assert_eq!(a.allocate(), None);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = BlockAllocator::new(0, 64);
        let b = a.allocate().unwrap();
        a.release(b);
        a.release(b);
    }

    #[test]
    #[should_panic(expected = "metadata block")]
    fn freeing_metadata_panics() {
        let mut a = BlockAllocator::new(8, 64);
        a.release(BlockAddr::new(3));
    }

    #[test]
    fn reserve_marks_used_idempotently() {
        let mut a = BlockAllocator::new(0, 64);
        a.reserve(BlockAddr::new(5));
        a.reserve(BlockAddr::new(5));
        assert_eq!(a.free_blocks(), 63);
        // Allocation skips the reserved block.
        for _ in 0..63 {
            assert_ne!(a.allocate().unwrap().index(), 5);
        }
        assert_eq!(a.allocate(), None);
    }

    #[test]
    fn bitmap_serialization_length() {
        let a = BlockAllocator::new(0, 130);
        assert_eq!(a.to_bytes().len(), 3 * 8, "130 bits round up to 3 words");
    }
}
