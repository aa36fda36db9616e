//! Synthetic workloads: block-sized records with uniformly shuffled keys,
//! standing in for the paper's 10 MB experiment files (no trace data from
//! 1988 survives; the paper's records are opaque block-sized units, so a
//! seeded uniform shuffle exercises the same code paths).

use bridge_tools::KEY_LEN;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Bytes of payload in each generated record (past the key).
pub const RECORD_BODY: usize = 120;

/// Generates `n` records whose leading [`KEY_LEN`]-byte keys are a seeded
/// shuffle of `0..n` (every key distinct — worst case for a merge sort,
/// no early-out on equal keys).
pub fn records(n: u64, seed: u64) -> Vec<Vec<u8>> {
    let mut keys: Vec<u64> = (0..n).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..keys.len()).rev() {
        let j = rng.random_range(0..=i);
        keys.swap(i, j);
    }
    keys.into_iter().map(|k| record_with_key(k, seed)).collect()
}

/// One record with the given key and a deterministic body.
pub fn record_with_key(key: u64, seed: u64) -> Vec<u8> {
    let mut data = vec![0u8; KEY_LEN + RECORD_BODY];
    data[..KEY_LEN].copy_from_slice(&key.to_be_bytes());
    for (i, b) in data.iter_mut().enumerate().skip(KEY_LEN) {
        *b = (key
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(seed)
            .wrapping_add(i as u64)
            % 251) as u8;
    }
    data
}

/// Text-ish records (fixed 80-byte lines) for the filter/grep workloads.
pub fn text_records(n: u64, needle_every: u64, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let mut line = format!(
                "log entry {i:08} level={} msg=routine-operation code={:04x}",
                if i % 7 == 0 { "WARN" } else { "INFO" },
                rng.random_range(0..0xffffu32),
            );
            if needle_every > 0 && i % needle_every == 0 {
                line.push_str(" NEEDLE");
            }
            let mut bytes = line.into_bytes();
            bytes.resize(80, b' ');
            // 12 lines of 80 bytes per 960-byte block.
            let mut block = Vec::with_capacity(960);
            for _ in 0..12 {
                block.extend_from_slice(&bytes);
            }
            block
        })
        .collect()
}

/// One step of a churn client's script: small mutations and reads on the
/// client's own files. `slot` numbers the client's files in creation
/// order; a block's contents are named by their `fill` (see
/// [`churn_block`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// Create the file that takes `slot`.
    Create {
        /// The new file's slot.
        slot: u32,
    },
    /// Delete the file in `slot` (the oldest live one).
    Delete {
        /// The doomed file's slot.
        slot: u32,
    },
    /// Append a block of `len` bytes.
    Append {
        /// The file's slot.
        slot: u32,
        /// Names the block's contents.
        fill: u64,
        /// Bytes of data.
        len: usize,
    },
    /// Overwrite existing block `block`.
    Write {
        /// The file's slot.
        slot: u32,
        /// The block overwritten.
        block: u64,
        /// Names the block's contents.
        fill: u64,
        /// Bytes of data.
        len: usize,
    },
    /// Read existing block `block`.
    Read {
        /// The file's slot.
        slot: u32,
        /// The block read.
        block: u64,
    },
}

/// A churn script of `ops` steps for one client, then a Delete of every
/// file still live, so a script leaves the machine as it found it. The
/// mix is `bridgebench`'s `churn_p8`: 5 % creates, 5 % deletes of the
/// oldest file, and among the rest 40 % reads, 25 % overwrites and 35 %
/// appends, each on a uniformly picked live file (an op on an empty file
/// is an append). Every step is valid when issued.
pub fn churn_script(ops: u64, seed: u64) -> Vec<ChurnOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut live: std::collections::VecDeque<(u32, u64)> = Default::default();
    let mut next = 0u32;
    let mut script = Vec::with_capacity(ops as usize + 8);
    for _ in 0..ops {
        let draw = rng.random_range(0..100u32);
        if live.is_empty() || (90..95).contains(&draw) {
            live.push_back((next, 0));
            script.push(ChurnOp::Create { slot: next });
            next += 1;
            continue;
        }
        if draw >= 95 && live.len() > 1 {
            let (slot, _) = live.pop_front().expect("more than one live file");
            script.push(ChurnOp::Delete { slot });
            continue;
        }
        let pick = rng.random_range(0..live.len());
        let (slot, size) = live[pick];
        let (fill, len) = (rng.random::<u64>(), rng.random_range(64..=960usize));
        script.push(if size == 0 || draw >= 65 {
            live[pick].1 += 1;
            ChurnOp::Append { slot, fill, len }
        } else if draw < 40 {
            let block = rng.random_range(0..size);
            ChurnOp::Read { slot, block }
        } else {
            let block = rng.random_range(0..size);
            ChurnOp::Write {
                slot,
                block,
                fill,
                len,
            }
        });
    }
    script.extend(live.iter().map(|&(slot, _)| ChurnOp::Delete { slot }));
    script
}

/// The `len` bytes a churn block with `fill` holds.
pub fn churn_block(fill: u64, len: usize) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(fill);
    (0..len).map(|_| rng.random::<u8>()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn churn_scripts_are_valid_and_clean_up() {
        let script = churn_script(2_000, 9);
        assert_eq!(script, churn_script(2_000, 9), "deterministic");
        let mut sizes = std::collections::HashMap::new();
        for op in &script {
            match *op {
                ChurnOp::Create { slot } => assert!(sizes.insert(slot, 0u64).is_none()),
                ChurnOp::Delete { slot } => assert!(sizes.remove(&slot).is_some()),
                ChurnOp::Append { slot, .. } => *sizes.get_mut(&slot).unwrap() += 1,
                ChurnOp::Write { slot, block, .. } | ChurnOp::Read { slot, block } => {
                    assert!(block < sizes[&slot])
                }
            }
        }
        assert!(sizes.is_empty(), "every file deleted at the end");
    }

    #[test]
    fn records_have_distinct_shuffled_keys() {
        let recs = records(100, 42);
        assert_eq!(recs.len(), 100);
        let keys: HashSet<u64> = recs
            .iter()
            .map(|r| u64::from_be_bytes(r[..8].try_into().unwrap()))
            .collect();
        assert_eq!(keys.len(), 100, "all keys distinct");
        // Not already sorted (astronomically unlikely for a real shuffle).
        let in_order: Vec<u64> = recs
            .iter()
            .map(|r| u64::from_be_bytes(r[..8].try_into().unwrap()))
            .collect();
        let mut sorted = in_order.clone();
        sorted.sort_unstable();
        assert_ne!(in_order, sorted);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(records(50, 7), records(50, 7));
        assert_ne!(records(50, 7), records(50, 8));
    }

    #[test]
    fn text_records_embed_needles() {
        let recs = text_records(10, 3, 1);
        assert_eq!(recs.len(), 10);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.len(), 960);
            let has = r.windows(6).any(|w| w == b"NEEDLE");
            assert_eq!(has, i % 3 == 0, "record {i}");
        }
    }
}
