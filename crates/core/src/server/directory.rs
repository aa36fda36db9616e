//! The Bridge directory: per-file records, placement and companion
//! arithmetic, and the commands that change or consult the directory —
//! Create and Delete, planned here and landed in the commit-group rounds
//! (`group`), and Open.

use super::agent::{Shape, Tally};
use super::cursor::Cursor;
use super::Server;
use crate::error::BridgeError;
use crate::header::{BridgeHeader, GlobalPtr};
use crate::ids::{BridgeFileId, LfsIndex};
use crate::placement::{Placement, PlacementCursor, PlacementKind};
use crate::protocol::{BridgeData, CreateSpec, LfsSlice, OpenInfo, PlacementSpec};
use crate::redundancy::{ParityLayout, Redundancy};
use bridge_efs::{EfsError, LfsData, LfsFileId, LfsOp};
use parsim::{Ctx, ProcId};
use simdisk::BlockAddr;
use std::collections::HashSet;

/// LFS file-id bit marking a mirror companion file.
const MIRROR_BIT: u32 = 0x4000_0000;
/// LFS file-id bit marking a parity companion file.
const PARITY_BIT: u32 = 0x2000_0000;

/// Per-file directory record.
#[derive(Debug)]
pub(super) struct FileMeta {
    pub lfs_file: LfsFileId,
    pub redundancy: Redundancy,
    /// Machine LFS indexes the file spans, in placement order.
    pub nodes: Vec<u32>,
    pub placement: Placement,
    pub size: u64,
    /// Linked files: chain endpoints (machine-indexed pointers).
    pub head: Option<GlobalPtr>,
    pub tail: Option<GlobalPtr>,
    /// Linked files: local size per *position* (next local block to use).
    pub linked_locals: Vec<u32>,
    /// Hashed placement: memoized locations (position-indexed pointers).
    hashed_cache: Vec<GlobalPtr>,
    hashed_cursor: Option<PlacementCursor>,
    /// Last known disk address per machine LFS index, passed as hints.
    pub hints: Vec<Option<BlockAddr>>,
}

impl FileMeta {
    /// Position-space location of a strictly placed global block (lfs =
    /// position within `nodes`, not a machine index).
    pub fn locate_pos(&mut self, block: u64) -> Result<GlobalPtr, BridgeError> {
        if let Redundancy::Parity { .. } = self.redundancy {
            return Ok(self.parity_layout().locate(block));
        }
        let pos = match self.placement.kind() {
            PlacementKind::Hashed { .. } => {
                while self.hashed_cache.len() as u64 <= block {
                    let cursor = self
                        .hashed_cursor
                        .get_or_insert_with(|| self.placement.cursor());
                    let ptr = cursor.next().expect("hashed placement is computable");
                    self.hashed_cache.push(ptr);
                }
                self.hashed_cache[block as usize]
            }
            PlacementKind::Linked => {
                return Err(BridgeError::LinkedUnsupported {
                    op: "direct placement",
                })
            }
            _ => self.placement.locate(block).expect("computable placement"),
        };
        Ok(pos)
    }

    /// Translates a position-space pointer to machine indexes.
    pub fn to_machine(&self, pos: GlobalPtr) -> GlobalPtr {
        GlobalPtr {
            lfs: LfsIndex(self.nodes[pos.lfs.index()]),
            local: pos.local,
        }
    }

    /// Machine-indexed location of a strictly placed global block.
    pub fn locate(&mut self, block: u64) -> Result<GlobalPtr, BridgeError> {
        let pos = self.locate_pos(block)?;
        Ok(self.to_machine(pos))
    }

    /// Where the mirror copy of the data block at position-space `pos`
    /// lives: the companion LFS file and the machine pointer into it.
    pub fn mirror_ptr(&self, pos: GlobalPtr) -> (LfsFileId, GlobalPtr) {
        let mirror = GlobalPtr {
            lfs: LfsIndex((pos.lfs.0 + 1) % self.placement.breadth()),
            local: pos.local,
        };
        (self.companion_file(), self.to_machine(mirror))
    }

    /// Where stripe `stripe`'s parity block lives: the companion LFS file
    /// and the machine pointer into it.
    pub fn parity_ptr(&self, stripe: u64) -> (LfsFileId, GlobalPtr) {
        let layout = self.parity_layout();
        let parity = GlobalPtr {
            lfs: LfsIndex(layout.parity_position(stripe)),
            local: layout.parity_local(stripe),
        };
        (self.companion_file(), self.to_machine(parity))
    }

    /// The parity layout of a [`Redundancy::Parity`] file, turned by its
    /// round-robin start.
    ///
    /// # Panics
    ///
    /// Panics on non-parity files.
    pub fn parity_layout(&self) -> ParityLayout {
        let (Redundancy::Parity { group }, PlacementKind::RoundRobin { start }) =
            (self.redundancy, self.placement.kind())
        else {
            unreachable!("parity layout of a non-parity file")
        };
        ParityLayout::grouped(self.placement.breadth(), group).starting_at(start)
    }

    /// The redundancy companion's LFS file name, if any: the data file's
    /// number with the mode's marker bit set.
    pub fn companion(&self) -> Option<LfsFileId> {
        match self.redundancy {
            Redundancy::None => None,
            Redundancy::Mirror => Some(LfsFileId(self.lfs_file.0 | MIRROR_BIT)),
            Redundancy::Parity { .. } => Some(LfsFileId(self.lfs_file.0 | PARITY_BIT)),
        }
    }

    fn companion_file(&self) -> LfsFileId {
        self.companion().expect("redundant files have a companion")
    }

    /// The Bridge header of strictly placed block `block` of `file`, once
    /// the file holds `size_after` blocks (block 0's back pointer wraps to
    /// the tail).
    pub fn strict_header(
        &mut self,
        file: BridgeFileId,
        block: u64,
        size_after: u64,
    ) -> Result<BridgeHeader, BridgeError> {
        let next = self.locate(block + 1)?;
        let prev = if block == 0 {
            self.locate(size_after.saturating_sub(1))?
        } else {
            self.locate(block - 1)?
        };
        Ok(BridgeHeader {
            file,
            global_block: block,
            breadth: self.placement.breadth(),
            next,
            prev,
        })
    }
}

impl Server {
    /// The plan half of a Create: the spec checked, and the file's id,
    /// start and directory record chosen — the record goes into the
    /// directory only once the file exists on its nodes.
    pub(super) fn plan_create(
        &mut self,
        spec: CreateSpec,
    ) -> Result<(BridgeFileId, FileMeta), BridgeError> {
        let machine_breadth = self.breadth();
        let nodes: Vec<u32> = match spec.nodes {
            Some(nodes) => {
                for &n in &nodes {
                    if n >= machine_breadth {
                        return Err(BridgeError::BadNodeSet {
                            index: n,
                            breadth: machine_breadth,
                        });
                    }
                }
                if nodes.is_empty() {
                    return Err(BridgeError::BadNodeSet {
                        index: 0,
                        breadth: machine_breadth,
                    });
                }
                nodes
            }
            None => (0..machine_breadth).collect(),
        };
        let breadth = nodes.len() as u32;
        let kind = match spec.placement {
            PlacementSpec::RoundRobin => {
                // Successive round-robin files start on successive nodes,
                // so block 0 does not always hit LFS 0.
                let start = self.next_start % breadth;
                self.next_start = self.next_start.wrapping_add(1);
                PlacementKind::RoundRobin { start }
            }
            PlacementSpec::RoundRobinAt { start } => PlacementKind::RoundRobin {
                start: start % breadth,
            },
            PlacementSpec::Chunked => {
                let size = spec.size_hint.ok_or(BridgeError::ChunkingNeedsSize)?;
                if size == 0 {
                    return Err(BridgeError::ChunkingNeedsSize);
                }
                PlacementKind::Chunked {
                    blocks_per_chunk: size.div_ceil(u64::from(breadth)).max(1) as u32,
                }
            }
            PlacementSpec::Hashed { seed } => PlacementKind::Hashed { seed },
            PlacementSpec::Linked => PlacementKind::Linked,
        };

        // A spec that asks for nothing inherits the machine-wide default
        // installed by `BridgeConfig::with_redundancy`.
        let mut redundancy = if spec.redundancy == Redundancy::None {
            self.config.default_redundancy
        } else {
            spec.redundancy
        };
        if redundancy != Redundancy::None {
            if breadth < 2 {
                return Err(BridgeError::RedundancyUnsupported {
                    why: "breadth must be at least 2",
                });
            }
            if !matches!(kind, PlacementKind::RoundRobin { .. }) {
                return Err(BridgeError::RedundancyUnsupported {
                    why: "redundancy requires round-robin placement",
                });
            }
        }
        if let Redundancy::Parity { group } = redundancy {
            // Normalize "whole breadth" and pin the group so the layout
            // is stable even if the machine's shape ever changes.
            let group = if group == 0 { breadth } else { group };
            if group < 2 {
                return Err(BridgeError::RedundancyUnsupported {
                    why: "a parity group needs at least two positions",
                });
            }
            if !breadth.is_multiple_of(group) {
                return Err(BridgeError::RedundancyUnsupported {
                    why: "the parity group must divide the file's breadth",
                });
            }
            redundancy = Redundancy::Parity { group };
        }

        let file = BridgeFileId(self.next_file);
        self.next_file += 1;
        let meta = FileMeta {
            lfs_file: LfsFileId(file.0),
            redundancy,
            linked_locals: vec![0; nodes.len()],
            nodes,
            placement: Placement::new(kind, breadth),
            size: 0,
            head: None,
            tail: None,
            hashed_cache: Vec::new(),
            hashed_cursor: None,
            hints: vec![None; machine_breadth as usize],
        };
        Ok((file, meta))
    }

    /// Validates a Delete's whole batch before anything is touched: an
    /// unknown id (or an in-batch duplicate, which the second removal
    /// would have reported as unknown) must leave the directory and every
    /// LFS exactly as they were. Removing entries up front orphaned the
    /// already-processed prefix of the batch and leaked its blocks
    /// whenever a later file was unknown or an LFS errored.
    pub(super) fn check_doomed(&self, files: &[BridgeFileId]) -> Result<(), BridgeError> {
        let mut seen: HashSet<BridgeFileId> = HashSet::with_capacity(files.len());
        for &file in files {
            if !self.files.contains_key(&file) || !seen.insert(file) {
                return Err(BridgeError::UnknownFile(file));
            }
        }
        Ok(())
    }

    /// Retires deleted files' metadata: entries, cursors and jobs. Only
    /// a fully successful delete gets here; on error the directory still
    /// names every file, so a client can retry.
    pub(super) fn forget(&mut self, files: &[BridgeFileId]) {
        for &file in files {
            self.files.remove(&file);
            self.cursors.retain(|&(_, f), _| f != file);
            self.jobs.retain(|_, j| j.file != file);
        }
    }

    pub(super) fn open(
        &mut self,
        ctx: &mut Ctx,
        from: ProcId,
        file: BridgeFileId,
    ) -> Result<BridgeData, BridgeError> {
        let meta = self.meta(file)?;
        let (nodes, lfs_file) = (meta.nodes.clone(), meta.lfs_file);
        // Degraded open: a lost column of a redundant file reports as
        // empty, and the directory's cached size stands. An unprotected
        // file cannot be opened around a missing column; say why (node
        // down, timed out), not "corrupt".
        let redundant = meta.redundancy != Redundancy::None;
        let targets = nodes.iter().map(|&n| (n, redundant, 1));
        let ops = nodes.iter().map(|_| LfsOp::Stat { file: lfs_file });
        let fan = self.tier.send_round(ctx, Shape::Direct, targets, ops);

        let meta = self.files.get_mut(&file).expect("checked above");
        let lfs = &self.tier.lfs;
        let mut slices: Vec<LfsSlice> = (nodes.iter())
            .map(|&n| LfsSlice {
                index: LfsIndex(n),
                proc: lfs[n as usize].0,
                node: lfs[n as usize].1,
                local_size: 0,
            })
            .collect();
        let mut strange = None;
        let each = |pos: usize, stat: Result<LfsData, EfsError>| match stat {
            Ok(LfsData::Info(info)) => {
                if let Some(first) = info.first {
                    meta.hints[nodes[pos] as usize].get_or_insert(first);
                }
                slices[pos].local_size = info.size;
            }
            Ok(other) => strange = Some(other),
            Err(_) => {}
        };
        let Tally { lost, .. } = self.tier.gather(ctx, fan, each)?;
        if let Some(other) = strange {
            return Err(BridgeError::Corrupt(format!(
                "stat of {lfs_file} answered {other:?}"
            )));
        }
        // Open refreshes the directory's size from the LFS level: tools may
        // have grown the file behind the server's back. With a failed node
        // the sum is incomplete, so the cached size stands.
        if lost == 0 {
            meta.size = slices.iter().map(|s| u64::from(s.local_size)).sum();
        }
        let size = meta.size;
        self.cursors.insert((from, file), Cursor::default());
        Ok(BridgeData::Opened(OpenInfo {
            file,
            size,
            placement: meta.placement.kind(),
            redundancy: meta.redundancy,
            nodes: slices,
            lfs_file,
            head: meta.head,
            tail: meta.tail,
        }))
    }
}
