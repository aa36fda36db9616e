//! The benchmark's own seeded input generator. `--seed` reaches nothing
//! but this module: the system under test receives the generated records
//! and operation scripts, never the seed.
//!
//! The generator is splitmix64 (Steele, Lea & Flood's mixer): one `u64`
//! of state, statistically sound for shuffles and size draws, and
//! trivially portable — the inputs for a seed never depend on a library
//! version.

use std::collections::VecDeque;

/// Largest record a Bridge block carries (bytes of user data).
pub const MAX_RECORD: usize = 960;
/// Smallest record generated. Lengths vary per record because a write's
/// message size — and so its virtual latency — depends on it; fixed-size
/// records would leave that dimension untested.
pub const MIN_RECORD: usize = 64;
/// Bytes of sort key at the head of a keyed record.
pub const KEY_LEN: usize = 8;
/// Input sizes are drawn from `[base - SIZE_JITTER, base]`: the exact
/// block count is an input property too (it decides which column ends
/// the run), so a result must hold across nearby sizes, not at one.
pub const SIZE_JITTER: u64 = 64;

/// splitmix64.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (multiply-shift; the bias is below 2^-32
    /// for every `n` used here). `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// An independent generator split off this one.
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64(self.next_u64())
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    fn record_len(&mut self) -> usize {
        MIN_RECORD + self.below((MAX_RECORD - MIN_RECORD + 1) as u64) as usize
    }
}

/// A stable 64-bit id for a named input stream (FNV-1a), xored into the
/// seed so each workload draws from its own stream.
pub fn stream_id(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `len` bytes determined by `fill`: what a block written with that fill
/// must read back as.
pub fn fill_bytes(fill: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(fill);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// `base` less a seeded draw from `0..=SIZE_JITTER` (never below 1).
pub fn jittered_size(base: u64, rng: &mut SplitMix64) -> u64 {
    base.saturating_sub(rng.below(SIZE_JITTER + 1).min(base / 4))
        .max(1)
}

/// `n` records of seeded length and content.
pub fn records(n: u64, rng: &mut SplitMix64) -> Vec<Vec<u8>> {
    (0..n)
        .map(|_| {
            let len = rng.record_len();
            fill_bytes(rng.next_u64(), len)
        })
        .collect()
}

/// `n` records whose leading big-endian [`KEY_LEN`]-byte keys are a
/// seeded shuffle of `0..n`: every key distinct, so a merge never takes
/// an equal-keys shortcut and the sorted order is unique.
pub fn keyed_records(n: u64, rng: &mut SplitMix64) -> Vec<Vec<u8>> {
    let mut keys: Vec<u64> = (0..n).collect();
    rng.shuffle(&mut keys);
    keys.into_iter()
        .map(|key| {
            let len = rng.record_len();
            let mut rec = fill_bytes(rng.next_u64(), len);
            rec[..KEY_LEN].copy_from_slice(&key.to_be_bytes());
            rec
        })
        .collect()
}

/// The key of a keyed record.
pub fn key_of(record: &[u8]) -> u64 {
    let mut key = [0u8; KEY_LEN];
    key.copy_from_slice(&record[..KEY_LEN]);
    u64::from_be_bytes(key)
}

/// One step of a churn client's script. `slot` numbers the client's
/// files in creation order; block contents are named by their fill (see
/// [`fill_bytes`]), which is also what the driver's model remembers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// Create the file that takes `slot`.
    Create { slot: u32 },
    /// Delete the file in `slot` (always the oldest live one).
    Delete { slot: u32 },
    /// Append a block.
    Append { slot: u32, fill: u64, len: u16 },
    /// Overwrite block `block`.
    Write {
        slot: u32,
        block: u32,
        fill: u64,
        len: u16,
    },
    /// Read block `block` and check it.
    Read { slot: u32, block: u32 },
}

/// A closed-loop client's script: `ops` draws from the mix 40 % random
/// read, 25 % random overwrite, 25 % append, 5 % create, 5 % delete the
/// oldest file — then a delete for every file still live, so an iteration
/// leaves the machine as it found it. The generator tracks file sizes so
/// every op is valid when issued: a read or overwrite aimed at an empty
/// file becomes an append, the first op is a create, and the last live
/// file is never deleted mid-script.
pub fn churn_script(ops: usize, rng: &mut SplitMix64) -> Vec<ChurnOp> {
    let mut live: VecDeque<(u32, u32)> = VecDeque::new(); // (slot, size)
    let mut next_slot = 0u32;
    let mut script = Vec::with_capacity(ops + 16);
    for _ in 0..ops {
        let draw = rng.below(100);
        if live.is_empty() || (90..95).contains(&draw) {
            live.push_back((next_slot, 0));
            script.push(ChurnOp::Create { slot: next_slot });
            next_slot += 1;
            continue;
        }
        if draw >= 95 && live.len() > 1 {
            let (slot, _) = live.pop_front().expect("more than one live file");
            script.push(ChurnOp::Delete { slot });
            continue;
        }
        let pick = rng.below(live.len() as u64) as usize;
        let (slot, size) = live[pick];
        let len = rng.record_len() as u16;
        script.push(if size == 0 || draw >= 65 {
            live[pick].1 += 1;
            ChurnOp::Append {
                slot,
                fill: rng.next_u64(),
                len,
            }
        } else if draw < 40 {
            ChurnOp::Read {
                slot,
                block: rng.below(u64::from(size)) as u32,
            }
        } else {
            ChurnOp::Write {
                slot,
                block: rng.below(u64::from(size)) as u32,
                fill: rng.next_u64(),
                len,
            }
        });
    }
    script.extend(live.iter().map(|&(slot, _)| ChurnOp::Delete { slot }));
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn splitmix64_reference_values() {
        // The published splitmix64 test vector for seed 1234567.
        let mut rng = SplitMix64::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let gen = |seed| {
            let mut rng = SplitMix64::new(seed);
            (
                jittered_size(10_240, &mut rng),
                records(50, &mut rng),
                keyed_records(50, &mut rng),
                churn_script(200, &mut rng),
            )
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7).1, gen(8).1);
        assert_ne!(gen(7).3, gen(8).3);
    }

    #[test]
    fn records_respect_length_limits() {
        let mut rng = SplitMix64::new(3);
        for r in records(500, &mut rng) {
            assert!((MIN_RECORD..=MAX_RECORD).contains(&r.len()));
        }
        assert_eq!(fill_bytes(9, 13).len(), 13);
        assert_eq!(fill_bytes(9, 13), fill_bytes(9, 100)[..13]);
    }

    #[test]
    fn keyed_records_are_a_shuffled_permutation() {
        let mut rng = SplitMix64::new(11);
        let recs = keyed_records(300, &mut rng);
        let keys: Vec<u64> = recs.iter().map(|r| key_of(r)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..300).collect::<Vec<u64>>());
        assert_ne!(keys, sorted);
    }

    #[test]
    fn jitter_stays_in_range() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..1000 {
            let n = jittered_size(10_240, &mut rng);
            assert!((10_240 - SIZE_JITTER..=10_240).contains(&n));
        }
        assert_eq!(jittered_size(1, &mut rng), 1);
    }

    #[test]
    fn churn_script_is_always_valid_and_cleans_up() {
        let mut rng = SplitMix64::new(42);
        let script = churn_script(3000, &mut rng);
        let mut sizes: HashMap<u32, u32> = HashMap::new();
        let mut oldest = 0u32;
        let mut kinds = [0usize; 5];
        for op in &script {
            match *op {
                ChurnOp::Create { slot } => {
                    kinds[0] += 1;
                    assert!(sizes.insert(slot, 0).is_none());
                }
                ChurnOp::Delete { slot } => {
                    kinds[1] += 1;
                    assert_eq!(slot, oldest, "deletes go oldest first");
                    assert!(sizes.remove(&slot).is_some());
                    oldest += 1;
                }
                ChurnOp::Append { slot, .. } => {
                    kinds[2] += 1;
                    *sizes.get_mut(&slot).expect("append to a live file") += 1;
                }
                ChurnOp::Write { slot, block, .. } => {
                    kinds[3] += 1;
                    assert!(block < sizes[&slot]);
                }
                ChurnOp::Read { slot, block } => {
                    kinds[4] += 1;
                    assert!(block < sizes[&slot]);
                }
            }
        }
        assert!(sizes.is_empty(), "every file is deleted by the end");
        // The mix is roughly the advertised one.
        assert!(kinds[4] > 1000 && kinds[3] > 600 && kinds[2] > 600);
        assert!(kinds[0] > 100 && kinds[1] > 100);
    }
}
