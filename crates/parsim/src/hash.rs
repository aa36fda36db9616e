//! The workspace's one hasher for hot in-memory maps.
//!
//! std's default `RandomState` is SipHash-1-3 under a per-process random
//! key: protection against crafted collisions that nothing here needs —
//! every hot key is a small integer the simulation itself minted (process
//! ids, request ids, file and block numbers) — and that costs tens of
//! nanoseconds per lookup on paths crossed once per simulated block. This
//! hasher is one rotate, one xor and one multiply per word under a fixed
//! constant, so a map's layout (and its iteration order) is also the same
//! on every run. Do not use it for keys that arrive from outside the
//! program.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, odd: the Fibonacci-hashing multiplier.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Word-at-a-time multiplicative hasher (the FxHash construction).
#[derive(Debug, Default, Clone, Copy)]
pub struct FixedHasher {
    state: u64,
}

impl FixedHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FixedHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    /// The multiply pushes entropy toward the high bits, and the table
    /// picks its bucket from the low ones: rotate the good bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }
}

/// `BuildHasher` for [`FixedHasher`]: stateless, so maps built with it
/// hash identically in every process.
pub type FixedState = BuildHasherDefault<FixedHasher>;

/// A `HashMap` under [`FixedHasher`].
pub type FixedMap<K, V> = HashMap<K, V, FixedState>;

/// A `HashSet` under [`FixedHasher`].
pub type FixedSet<K> = HashSet<K, FixedState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        FixedState::default().hash_one(value)
    }

    #[test]
    fn hashes_are_fixed_across_builders() {
        assert_eq!(hash_of(7u64), hash_of(7u64));
        assert_eq!(hash_of((3u32, 9u64)), hash_of((3u32, 9u64)));
        assert_ne!(hash_of((3u32, 9u64)), hash_of((9u32, 3u64)));
    }

    #[test]
    fn sequential_keys_spread_over_low_bits() {
        // hashbrown indexes buckets by the low bits: 256 consecutive keys
        // (and 256 keys striding by 4096) must not pile into a few of 256
        // buckets.
        for stride in [1u64, 4096] {
            let mut buckets = [0u32; 256];
            for i in 0..256u64 {
                buckets[(hash_of(i * stride) & 0xff) as usize] += 1;
            }
            let worst = buckets.iter().copied().max().expect("non-empty");
            assert!(worst <= 8, "stride {stride}: {worst} keys in one bucket");
        }
    }

    #[test]
    fn byte_slices_hash_by_content() {
        assert_eq!(hash_of("request-17"), hash_of("request-17"));
        assert_ne!(hash_of("request-17"), hash_of("request-18"));
        let mut map: FixedMap<&str, u32> = FixedMap::default();
        map.insert("a", 1);
        assert_eq!(map.get("a"), Some(&1));
    }
}
