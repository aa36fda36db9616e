//! The block link cache.
//!
//! "A cache of recently-accessed blocks makes sequential access more
//! efficient by keeping neighboring blocks (and their pointers) in memory."
//! We cache each touched block's *link information* — its disk address and
//! neighbor pointers — so that sequential access never walks the list on
//! disk. Block *data* is deliberately not cached here: data locality is the
//! track buffer's job (see [`simdisk`]), keeping the timing model honest.

use crate::layout::LfsFileId;
use parsim::FixedMap;
use simdisk::BlockAddr;

/// Cached link information for one (file, block) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinkInfo {
    pub addr: BlockAddr,
    pub next: BlockAddr,
    pub prev: BlockAddr,
}

/// "No slot": the end of an intrusive list.
const NIL: u32 = u32::MAX;

/// One cached entry, threaded onto two intrusive doubly-linked lists by
/// slot number: the cache-wide recency list and its file's chain.
#[derive(Debug, Clone, Copy)]
struct Node {
    file: LfsFileId,
    block_no: u32,
    info: LinkInfo,
    /// Recency list, toward the least recently used entry.
    older: u32,
    /// Recency list, toward the most recently used entry (doubles as the
    /// free-list link while the slot is vacant).
    newer: u32,
    /// This file's chain (unordered; only membership matters).
    file_prev: u32,
    file_next: u32,
}

/// True-LRU cache of link info, bounded by entry count.
///
/// Every `get`/`put` refreshes the entry's recency; when an insert would
/// exceed capacity, exactly the least-recently-used entry is evicted.
/// Sequential scans rely on this: the hint for the block a reader will ask
/// for next is always the most recently touched and therefore the last to
/// go.
///
/// Entries live in one slab; a hit is one map lookup and a relink, an
/// insert at capacity reuses the victim's slot, and nothing allocates once
/// the slab has grown to `capacity`.
#[derive(Debug)]
pub(crate) struct LinkCache {
    capacity: usize,
    nodes: Vec<Node>,
    /// `(file, block)` → slot in `nodes`.
    slots: FixedMap<(LfsFileId, u32), u32>,
    /// File → first slot of its chain, so invalidating one file touches
    /// only its own entries instead of walking the whole cache.
    chains: FixedMap<LfsFileId, u32>,
    /// Least recently used entry: the eviction victim.
    oldest: u32,
    /// Most recently used entry.
    newest: u32,
    /// Head of the vacant-slot list (linked through `newer`).
    free: u32,
    hits: u64,
    misses: u64,
}

impl LinkCache {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "cache capacity must be at least 2");
        assert!(capacity < NIL as usize, "cache capacity must fit a slot");
        LinkCache {
            capacity,
            nodes: Vec::with_capacity(capacity),
            slots: FixedMap::with_capacity_and_hasher(capacity, Default::default()),
            chains: FixedMap::default(),
            oldest: NIL,
            newest: NIL,
            free: NIL,
            hits: 0,
            misses: 0,
        }
    }

    pub(crate) fn get(&mut self, file: LfsFileId, block_no: u32) -> Option<LinkInfo> {
        match self.slots.get(&(file, block_no)) {
            Some(&slot) => {
                self.touch(slot);
                self.hits += 1;
                Some(self.nodes[slot as usize].info)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peeks without counting a hit/miss or refreshing recency.
    pub(crate) fn peek(&self, file: LfsFileId, block_no: u32) -> Option<LinkInfo> {
        self.slots
            .get(&(file, block_no))
            .map(|&slot| self.nodes[slot as usize].info)
    }

    pub(crate) fn put(&mut self, file: LfsFileId, block_no: u32, info: LinkInfo) {
        if let Some(&slot) = self.slots.get(&(file, block_no)) {
            self.nodes[slot as usize].info = info;
            self.touch(slot);
            return;
        }
        if self.slots.len() == self.capacity {
            // The new entry will be the most recent, so the victim is the
            // same one an insert-then-evict would pick.
            self.remove(self.oldest);
        }
        let node = Node {
            file,
            block_no,
            info,
            older: NIL,
            newer: NIL,
            file_prev: NIL,
            file_next: NIL,
        };
        let slot = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let slot = self.free;
            self.free = self.nodes[slot as usize].newer;
            self.nodes[slot as usize] = node;
            slot
        };
        self.slots.insert((file, block_no), slot);
        self.push_newest(slot);
        // Head of its file's chain.
        if let Some(head) = self.chains.insert(file, slot) {
            self.nodes[slot as usize].file_next = head;
            self.nodes[head as usize].file_prev = slot;
        }
    }

    /// Makes `slot` the most recently used entry.
    fn touch(&mut self, slot: u32) {
        if self.newest != slot {
            self.unlink_recency(slot);
            self.push_newest(slot);
        }
    }

    fn push_newest(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.older = self.newest;
        node.newer = NIL;
        match self.newest {
            NIL => self.oldest = slot,
            prev => self.nodes[prev as usize].newer = slot,
        }
        self.newest = slot;
    }

    fn unlink_recency(&mut self, slot: u32) {
        let Node { older, newer, .. } = self.nodes[slot as usize];
        match older {
            NIL => self.oldest = newer,
            o => self.nodes[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.nodes[n as usize].older = older,
        }
    }

    /// Takes the entry in `slot` out of the map and the recency list and
    /// puts the slot on the vacant list. Its file chain is the caller's.
    fn release(&mut self, slot: u32) {
        let Node { file, block_no, .. } = self.nodes[slot as usize];
        self.slots.remove(&(file, block_no));
        self.unlink_recency(slot);
        self.nodes[slot as usize].newer = self.free;
        self.free = slot;
    }

    /// Drops the entry in `slot`, mending its file's chain around it.
    fn remove(&mut self, slot: u32) {
        let Node {
            file,
            file_prev,
            file_next,
            ..
        } = self.nodes[slot as usize];
        if file_next != NIL {
            self.nodes[file_next as usize].file_prev = file_prev;
        }
        match file_prev {
            NIL if file_next == NIL => {
                self.chains.remove(&file);
            }
            NIL => {
                self.chains.insert(file, file_next);
            }
            p => self.nodes[p as usize].file_next = file_next,
        }
        self.release(slot);
    }

    /// Drops every cached block of `file` (delete, truncate). Costs
    /// O(entries of `file`), not a walk of the whole cache.
    pub(crate) fn invalidate_file(&mut self, file: LfsFileId) {
        let Some(mut slot) = self.chains.remove(&file) else {
            return;
        };
        while slot != NIL {
            let next = self.nodes[slot as usize].file_next;
            self.release(slot);
            slot = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl LinkCache {
        fn len(&self) -> usize {
            self.slots.len()
        }

        fn hit_rate(&self) -> f64 {
            let total = self.hits + self.misses;
            if total == 0 {
                0.0
            } else {
                self.hits as f64 / total as f64
            }
        }
    }

    fn info(n: u32) -> LinkInfo {
        LinkInfo {
            addr: BlockAddr::new(n),
            next: BlockAddr::new(n + 1),
            prev: BlockAddr::new(n.wrapping_sub(1)),
        }
    }

    #[test]
    fn get_after_put() {
        let mut c = LinkCache::new(8);
        c.put(LfsFileId(1), 0, info(10));
        assert_eq!(c.get(LfsFileId(1), 0), Some(info(10)));
        assert_eq!(c.get(LfsFileId(1), 1), None);
        assert_eq!(c.get(LfsFileId(2), 0), None);
    }

    #[test]
    fn eviction_prefers_recent() {
        let mut c = LinkCache::new(8);
        for i in 0..8 {
            c.put(LfsFileId(1), i, info(i));
        }
        // Touch the last few to refresh them, then overflow.
        for i in 4..8 {
            c.get(LfsFileId(1), i);
        }
        c.put(LfsFileId(1), 100, info(100));
        assert!(c.len() <= 8);
        for i in 4..8 {
            assert!(c.peek(LfsFileId(1), i).is_some(), "recent entry {i} kept");
        }
        assert!(c.peek(LfsFileId(1), 100).is_some(), "new entry kept");
    }

    #[test]
    fn eviction_follows_exact_lru_order() {
        let mut c = LinkCache::new(4);
        for i in 0..4 {
            c.put(LfsFileId(1), i, info(i));
        }
        // Recency now (oldest → newest): 0, 1, 2, 3. Touch 0 and 2 so the
        // order becomes 1, 3, 0, 2.
        c.get(LfsFileId(1), 0);
        c.get(LfsFileId(1), 2);
        // Each overflow must evict exactly the current LRU entry.
        for (inserted, victim) in [(10, 1), (11, 3), (12, 0), (13, 2)] {
            c.put(LfsFileId(1), inserted, info(inserted));
            assert_eq!(c.len(), 4);
            assert_eq!(
                c.peek(LfsFileId(1), victim),
                None,
                "inserting {inserted} must evict {victim}",
            );
        }
        // Only the four new entries survive.
        for i in 10..14 {
            assert!(c.peek(LfsFileId(1), i).is_some(), "entry {i} kept");
        }
    }

    #[test]
    fn put_refreshes_recency_of_existing_key() {
        let mut c = LinkCache::new(2);
        c.put(LfsFileId(1), 0, info(0));
        c.put(LfsFileId(1), 1, info(1));
        // Re-putting block 0 must refresh it, making block 1 the LRU.
        c.put(LfsFileId(1), 0, info(100));
        c.put(LfsFileId(1), 2, info(2));
        assert_eq!(
            c.peek(LfsFileId(1), 0),
            Some(info(100)),
            "refreshed entry kept"
        );
        assert_eq!(c.peek(LfsFileId(1), 1), None, "stale entry evicted");
    }

    #[test]
    fn invalidate_file_is_selective() {
        let mut c = LinkCache::new(16);
        c.put(LfsFileId(1), 0, info(1));
        c.put(LfsFileId(2), 0, info(2));
        c.invalidate_file(LfsFileId(1));
        assert_eq!(c.peek(LfsFileId(1), 0), None);
        assert_eq!(c.peek(LfsFileId(2), 0), Some(info(2)));
    }

    #[test]
    fn invalidate_after_eviction_and_reinsert_stays_consistent() {
        let mut c = LinkCache::new(4);
        // Fill with file 1, overflow with file 2 so file 1 entries are
        // evicted, then re-insert one — the per-file index must track
        // every transition.
        for i in 0..4 {
            c.put(LfsFileId(1), i, info(i));
        }
        for i in 0..3 {
            c.put(LfsFileId(2), i, info(10 + i));
        }
        assert_eq!(c.len(), 4);
        c.put(LfsFileId(1), 0, info(50));
        c.invalidate_file(LfsFileId(1));
        assert_eq!(c.peek(LfsFileId(1), 0), None);
        c.invalidate_file(LfsFileId(1)); // second invalidate is a no-op
        c.invalidate_file(LfsFileId(9)); // unknown file is a no-op
        assert_eq!(c.len(), 3);
        for i in 0..3 {
            assert_eq!(c.peek(LfsFileId(2), i), Some(info(10 + i)));
        }
        // Surviving entries still participate in LRU eviction normally.
        c.put(LfsFileId(3), 0, info(30));
        c.put(LfsFileId(3), 1, info(31));
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn hit_rate_tracks() {
        let mut c = LinkCache::new(8);
        assert_eq!(c.hit_rate(), 0.0);
        c.put(LfsFileId(1), 0, info(0));
        c.get(LfsFileId(1), 0);
        c.get(LfsFileId(1), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-9);
    }
    /// The reference: a plain `Vec` kept in recency order, oldest first.
    #[derive(Default)]
    struct ModelLru {
        entries: Vec<((u32, u32), LinkInfo)>,
        hits: u64,
        misses: u64,
    }

    impl ModelLru {
        fn get(&mut self, key: (u32, u32)) -> Option<LinkInfo> {
            match self.entries.iter().position(|(k, _)| *k == key) {
                Some(pos) => {
                    let entry = self.entries.remove(pos);
                    self.entries.push(entry);
                    self.hits += 1;
                    Some(entry.1)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn peek(&self, key: (u32, u32)) -> Option<LinkInfo> {
            self.entries.iter().find(|(k, _)| *k == key).map(|e| e.1)
        }

        fn put(&mut self, capacity: usize, key: (u32, u32), info: LinkInfo) {
            self.entries.retain(|(k, _)| *k != key);
            self.entries.push((key, info));
            if self.entries.len() > capacity {
                self.entries.remove(0);
            }
        }

        fn invalidate_file(&mut self, file: u32) {
            self.entries.retain(|((f, _), _)| *f != file);
        }

        fn hit_rate(&self) -> f64 {
            match self.hits + self.misses {
                0 => 0.0,
                total => self.hits as f64 / total as f64,
            }
        }
    }

    #[derive(Debug, Clone)]
    enum CacheOp {
        Get(u32, u32),
        Peek(u32, u32),
        Put(u32, u32, u32),
        Invalidate(u32),
    }

    fn cache_op() -> impl Strategy<Value = CacheOp> {
        // Few files and blocks against a small capacity, so hits, evictions
        // and whole-file invalidations all happen often. Puts dominate, as
        // they do in service.
        let (file, block) = (0u32..4, 0u32..12);
        prop_oneof![
            (file.clone(), block.clone()).prop_map(|(f, b)| CacheOp::Get(f, b)),
            (file.clone(), block.clone()).prop_map(|(f, b)| CacheOp::Peek(f, b)),
            (file.clone(), block.clone(), 0u32..1000).prop_map(|(f, b, n)| CacheOp::Put(f, b, n)),
            (file.clone(), block, 0u32..1000).prop_map(|(f, b, n)| CacheOp::Put(f, b, n)),
            file.prop_map(CacheOp::Invalidate),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Same returns, same victims, same `len`, same `hit_rate` as the
        /// `Vec`-ordered model, after every step of a random op sequence.
        #[test]
        fn matches_vec_ordered_lru_model(
            capacity in 2usize..10,
            ops in proptest::collection::vec(cache_op(), 1..200),
        ) {
            let mut cache = LinkCache::new(capacity);
            let mut model = ModelLru::default();
            for op in ops {
                match op {
                    CacheOp::Get(f, b) => {
                        prop_assert_eq!(cache.get(LfsFileId(f), b), model.get((f, b)));
                    }
                    CacheOp::Peek(f, b) => {
                        prop_assert_eq!(cache.peek(LfsFileId(f), b), model.peek((f, b)));
                    }
                    CacheOp::Put(f, b, n) => {
                        cache.put(LfsFileId(f), b, info(n));
                        model.put(capacity, (f, b), info(n));
                    }
                    CacheOp::Invalidate(f) => {
                        cache.invalidate_file(LfsFileId(f));
                        model.invalidate_file(f);
                    }
                }
                prop_assert_eq!(cache.len(), model.entries.len());
                prop_assert_eq!(cache.hit_rate(), model.hit_rate());
                // Exactly the model's survivors: an entry the model evicted
                // (or kept) that the cache kept (or evicted) shows here.
                for f in 0..4 {
                    for b in 0..12 {
                        prop_assert_eq!(cache.peek(LfsFileId(f), b), model.peek((f, b)));
                    }
                }
            }
        }
    }
}
