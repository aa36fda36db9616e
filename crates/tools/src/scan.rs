//! Scan tools: sequential search (grep) and summary information.
//!
//! "By returning a small amount of information at completion time, we can
//! also perform sequential searches or produce summary information" — the
//! whole point being that the data is filtered *at the node that holds it*
//! and only the small result crosses the interconnect.

use crate::column::ColumnReader;
use crate::error::ToolError;
use crate::options::ToolOptions;
use crate::toolkit::{open_unlinked, scan_columns};
use bridge_core::{BridgeClient, BridgeFileId};
use bridge_efs::LfsClient;
use parsim::Ctx;

/// One grep hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Match {
    /// Global block containing the hit.
    pub global_block: u64,
    /// Byte offset of the hit within the block's 960 data bytes.
    pub offset: u32,
}

/// Searches every block of `file` for `pattern`, scanning each column on
/// its own node; returns matches sorted by (block, offset).
///
/// Matches are found *within* blocks: Bridge records are block-aligned
/// (the paper's filters work "on fixed-length lines"), and globally
/// consecutive blocks live on different nodes, so cross-block spans are
/// not a per-column concept.
///
/// # Errors
///
/// Propagates server and LFS errors; rejects an empty pattern and linked
/// files.
pub fn grep(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    file: BridgeFileId,
    pattern: Vec<u8>,
    opts: &ToolOptions,
) -> Result<Vec<Match>, ToolError> {
    if pattern.is_empty() {
        return Err(ToolError::Protocol("empty grep pattern".into()));
    }
    let open = open_unlinked(ctx, bridge, file, "grep tool")?;
    let lfs_file = open.lfs_file;
    let per_column = scan_columns(ctx, opts, &open, "egrep", move |c, _, slice, batch| {
        let mut client = LfsClient::new();
        let mut reader =
            ColumnReader::new(slice.proc, lfs_file, slice.local_size).with_batch(batch);
        let mut hits = Vec::new();
        while let Some((header, data)) = reader.next_block(c, &mut client)? {
            let mut start = 0usize;
            while start + pattern.len() <= data.len() {
                match find(&data[start..], &pattern) {
                    Some(off) => {
                        hits.push(Match {
                            global_block: header.global_block,
                            offset: (start + off) as u32,
                        });
                        start += off + 1;
                    }
                    None => break,
                }
            }
        }
        Ok(hits)
    })?;
    let mut all: Vec<Match> = per_column.into_iter().flatten().collect();
    all.sort_unstable();
    Ok(all)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Aggregate facts about a file, computed in one pass per column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Summary {
    /// Blocks examined.
    pub blocks: u64,
    /// Data bytes examined (blocks × 960).
    pub data_bytes: u64,
    /// Zero bytes seen (padding and sparsity).
    pub zero_bytes: u64,
    /// Multiset checksum of all block contents: invariant under any
    /// permutation of blocks (so a sort preserves it) but sensitive to any
    /// byte change and to duplicate counts.
    pub checksum: u64,
    /// Smallest leading 8-byte record key.
    pub min_key: [u8; 8],
    /// Largest leading 8-byte record key.
    pub max_key: [u8; 8],
}

impl Summary {
    fn absorb_block(&mut self, data: &[u8]) {
        if self.blocks == 0 {
            self.min_key = [0xff; 8];
            self.max_key = [0; 8];
        }
        self.blocks += 1;
        self.data_bytes += data.len() as u64;
        let mut block_hash = 0xcbf2_9ce4_8422_2325u64; // FNV-ish fold
        for &b in data {
            if b == 0 {
                self.zero_bytes += 1;
            }
            block_hash ^= u64::from(b);
            block_hash = block_hash.wrapping_mul(0x1000_0000_01b3);
        }
        self.checksum = self.checksum.wrapping_add(block_hash);
        let mut key = [0u8; 8];
        key.copy_from_slice(&data[..8.min(data.len())]);
        if key < self.min_key {
            self.min_key = key;
        }
        if key > self.max_key {
            self.max_key = key;
        }
    }

    fn merge(mut self, other: Summary) -> Summary {
        if other.blocks == 0 {
            return self;
        }
        if self.blocks == 0 {
            return other;
        }
        self.blocks += other.blocks;
        self.data_bytes += other.data_bytes;
        self.zero_bytes += other.zero_bytes;
        self.checksum = self.checksum.wrapping_add(other.checksum);
        self.min_key = self.min_key.min(other.min_key);
        self.max_key = self.max_key.max(other.max_key);
        self
    }
}

/// Produces a [`Summary`] of `file` with one scanning worker per node.
///
/// The checksum treats the file as a *multiset of blocks*: a copy or a
/// sort preserves it, any byte change breaks it — a cheap equality oracle
/// for the other tools.
///
/// # Errors
///
/// Propagates server and LFS errors; rejects linked files.
pub fn summarize(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    file: BridgeFileId,
    opts: &ToolOptions,
) -> Result<Summary, ToolError> {
    let open = open_unlinked(ctx, bridge, file, "summary tool")?;
    let lfs_file = open.lfs_file;
    let per_column = scan_columns(ctx, opts, &open, "esum", move |c, _, slice, batch| {
        let mut client = LfsClient::new();
        let mut reader =
            ColumnReader::new(slice.proc, lfs_file, slice.local_size).with_batch(batch);
        let mut summary = Summary::default();
        while let Some((_, data)) = reader.next_block(c, &mut client)? {
            summary.absorb_block(&data);
        }
        Ok(summary)
    })?;
    Ok(per_column
        .into_iter()
        .fold(Summary::default(), Summary::merge))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_locates_patterns() {
        assert_eq!(find(b"hello world", b"world"), Some(6));
        assert_eq!(find(b"hello", b"x"), None);
        assert_eq!(find(b"aaa", b"aa"), Some(0));
    }

    #[test]
    fn summary_merge_is_commutative_and_tracks_extremes() {
        let mut a = Summary::default();
        a.absorb_block(&[1u8; 960]);
        let mut b = Summary::default();
        b.absorb_block(&[9u8; 960]);
        b.absorb_block(&[0u8; 960]);
        let ab = a.merge(b);
        let ba = b.merge(a);
        assert_eq!(ab, ba);
        assert_eq!(ab.blocks, 3);
        assert_eq!(ab.zero_bytes, 960);
        assert_eq!(ab.min_key, [0u8; 8]);
        assert_eq!(ab.max_key, [9u8; 8]);
    }

    #[test]
    fn empty_summary_is_identity() {
        let mut a = Summary::default();
        a.absorb_block(&[5u8; 100]);
        assert_eq!(a.merge(Summary::default()), a);
        assert_eq!(Summary::default().merge(a), a);
    }
}
