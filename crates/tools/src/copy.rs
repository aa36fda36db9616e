//! The copy tool and its one-to-one filter family (paper §5.1).
//!
//! "If the copy program is written as a Bridge tool, files can be copied in
//! time O(n/p + log(p)) with p-way interleaving. … The while loop in ecopy
//! could contain any transformation on the blocks of data that preserves
//! their number and order" — character translation, encryption, lexical
//! analysis on fixed-length lines. `copy_with` is exactly that loop with a
//! pluggable transformation.

use crate::column::{ColumnReader, ColumnWriter};
use crate::error::ToolError;
use crate::options::ToolOptions;
use crate::toolkit::scan_columns;
use bridge_core::{
    BridgeClient, BridgeError, BridgeFileId, CreateSpec, PlacementKind, PlacementSpec, Redundancy,
};
use bridge_efs::LfsClient;
use parsim::{Ctx, SimDuration};
use std::sync::Arc;

/// A transformation applied in place to each block's 960 data bytes.
pub type BlockTransform = Arc<dyn Fn(&mut [u8]) + Send + Sync>;

/// Ready-made one-to-one filters.
pub mod transforms {
    use super::BlockTransform;
    use std::sync::Arc;

    /// Byte-for-byte character translation through a 256-entry table.
    pub fn translate(table: [u8; 256]) -> BlockTransform {
        Arc::new(move |data| {
            for b in data {
                *b = table[*b as usize];
            }
        })
    }

    /// ROT13 over ASCII letters (a classic translation filter).
    pub fn rot13() -> BlockTransform {
        let mut table = [0u8; 256];
        for (i, t) in table.iter_mut().enumerate() {
            let b = i as u8;
            *t = match b {
                b'a'..=b'z' => (b - b'a' + 13) % 26 + b'a',
                b'A'..=b'Z' => (b - b'A' + 13) % 26 + b'A',
                _ => b,
            };
        }
        translate(table)
    }

    /// XOR stream "encryption" with a repeating key.
    ///
    /// # Panics
    ///
    /// Panics if `key` is empty.
    pub fn xor_cipher(key: Vec<u8>) -> BlockTransform {
        assert!(!key.is_empty(), "cipher key must be non-empty");
        Arc::new(move |data| {
            for (i, b) in data.iter_mut().enumerate() {
                *b ^= key[i % key.len()];
            }
        })
    }

    /// Lexical analysis on fixed-length lines: every byte of each
    /// `line_len`-byte line is replaced by a character-class code
    /// (`A` alpha, `0` digit, `_` space, `.` punctuation), a block-parallel
    /// tokenizer in the spirit of the paper's "lexical analysis on
    /// fixed-length lines".
    ///
    /// # Panics
    ///
    /// Panics if `line_len` is zero.
    pub fn lex_classes(line_len: usize) -> BlockTransform {
        assert!(line_len > 0, "line length must be positive");
        Arc::new(move |data| {
            for line in data.chunks_mut(line_len) {
                for b in line {
                    *b = match *b {
                        b'a'..=b'z' | b'A'..=b'Z' => b'A',
                        b'0'..=b'9' => b'0',
                        b' ' | b'\t' => b'_',
                        _ => b'.',
                    };
                }
            }
        })
    }
}

/// What a copy accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyStats {
    /// Global blocks copied.
    pub blocks: u64,
    /// Virtual time from first server contact to completion.
    pub elapsed: SimDuration,
}

/// Copies `src` into a fresh file with identical placement, using one
/// `ecopy` worker per LFS node. Returns the new file and stats.
///
/// # Errors
///
/// Propagates server and LFS errors; linked (disordered) files are not
/// supported (their chain endpoints live in the server's directory and
/// cannot be rebuilt from a column-wise copy).
pub fn copy(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    src: BridgeFileId,
    opts: &ToolOptions,
) -> Result<(BridgeFileId, CopyStats), ToolError> {
    copy_filtered(ctx, bridge, src, None, opts)
}

/// [`copy`] with a transformation applied to every block's data — "any
/// one-to-one filter will display the same behavior".
///
/// # Errors
///
/// See [`copy`].
pub fn copy_with(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    src: BridgeFileId,
    transform: BlockTransform,
    opts: &ToolOptions,
) -> Result<(BridgeFileId, CopyStats), ToolError> {
    copy_filtered(ctx, bridge, src, Some(transform), opts)
}

/// The ecopy driver. `None` is the plain copy: each block's data goes from
/// the read reply into the write request as it arrived, and only a filter
/// pays for a buffer it may scribble on.
fn copy_filtered(
    ctx: &mut Ctx,
    bridge: &mut BridgeClient,
    src: BridgeFileId,
    transform: Option<BlockTransform>,
    opts: &ToolOptions,
) -> Result<(BridgeFileId, CopyStats), ToolError> {
    let t0 = ctx.now();
    // (1) the brief phase of communication with the Bridge Server.
    let open = bridge.open(ctx, src)?;
    let (placement, size_hint) = match open.placement {
        PlacementKind::RoundRobin { start } => (PlacementSpec::RoundRobinAt { start }, open.size),
        PlacementKind::Hashed { seed } => (PlacementSpec::Hashed { seed }, open.size),
        // The server derives blocks_per_chunk = ceil(hint / breadth);
        // this hint reproduces the source's chunk size exactly.
        PlacementKind::Chunked { blocks_per_chunk } => (
            PlacementSpec::Chunked,
            u64::from(blocks_per_chunk) * open.nodes.len() as u64,
        ),
        PlacementKind::Linked => {
            return Err(ToolError::Bridge(BridgeError::LinkedUnsupported {
                op: "copy tool",
            }))
        }
    };
    let dst = bridge.create(
        ctx,
        CreateSpec {
            placement,
            nodes: Some(open.nodes.iter().map(|s| s.index.0).collect()),
            size_hint: Some(size_hint),
            redundancy: open.redundancy,
        },
    )?;
    let dst_open = bridge.open(ctx, dst)?;

    // (2) create subprocesses on all the LFS nodes; (3) they stream their
    // columns locally.
    let (src_file, dst_file, dst_nodes) = (open.lfs_file, dst_open.lfs_file, dst_open.nodes);
    let per_node = scan_columns(ctx, opts, &open, "ecopy", move |c, i, src_slice, batch| {
        let dst_slice = dst_nodes[i];
        debug_assert_eq!(src_slice.index, dst_slice.index);
        let worker_t0 = c.now();
        let mut client = LfsClient::new();
        let mut reader =
            ColumnReader::new(src_slice.proc, src_file, src_slice.local_size).with_batch(batch);
        let mut writer = ColumnWriter::new(dst_slice.proc, dst_file, 0).with_batch(batch);
        while let Some((mut header, data)) = reader.next_block(c, &mut client)? {
            // "The copy tool ignores the Bridge headers in the file it is
            // copying. Since all the header pointers are
            // block-number/LFS-instance pairs, the pointers are still
            // valid in the new file." Our headers also name the owning
            // file (for integrity checks), so ecopy relabels that one
            // field.
            header.file = dst;
            match &transform {
                None => writer.append_block(c, &mut client, &header, &data)?,
                Some(transform) => {
                    let mut data = data.to_vec();
                    transform(&mut data);
                    writer.append_block(c, &mut client, &header, &data)?;
                }
            }
        }
        writer.flush(c, &mut client)?;
        if c.trace_enabled() {
            c.trace_span(
                "tool",
                "tool.ecopy",
                worker_t0,
                &[("blocks", u64::from(writer.position()))],
            );
        }
        Ok(writer.position())
    })?;
    let blocks: u64 = per_node.iter().map(|&n| u64::from(n)).sum();

    // Refresh the server's view of the destination (tools grew it behind
    // the server's back).
    bridge.open(ctx, dst)?;
    // Tools write data columns directly, so a redundant destination's
    // mirror/parity companions are derived afterwards by the server.
    if open.redundancy != Redundancy::None {
        bridge.rebuild(ctx, dst)?;
    }
    if ctx.trace_enabled() {
        ctx.trace_span("tool", "tool.copy", t0, &[("blocks", blocks)]);
    }
    Ok((
        dst,
        CopyStats {
            blocks,
            elapsed: ctx.now() - t0,
        },
    ))
}
