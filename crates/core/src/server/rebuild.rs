//! The scrub: the one pass that checks a redundant file's companions —
//! its mirror copies or its stripes' parity — against its data, stripe
//! by stripe in rounds, and rewrites what does not hold. A rebuild after
//! node failures or onto a spare is the scrub with every repair on;
//! pfsck's machine pass asks for its findings (`BridgeCmd::Scrub`).

use super::agent::Shape;
use super::blockio::{BlockResult, Target};
use super::redundancy::xor_fold;
use super::Server;
use crate::error::BridgeError;
use crate::header::GlobalPtr;
use crate::ids::BridgeFileId;
use crate::protocol::{BridgeData, ScrubFinding, ScrubReport};
use crate::redundancy::Redundancy;
use bridge_efs::{EfsError, LfsData, LfsFileId, LfsOp};
use bridge_trace::HealthEvent;
use bytes::Bytes;
use parsim::Ctx;
use std::ops::Range;

/// What a scrub rewrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mend {
    /// Nothing: the scrub only reports.
    Nothing,
    /// Stale companions, where their columns still answer (pfsck's
    /// `--repair`).
    Stale,
    /// Stale companions and every unreadable member, all of which must
    /// land (a rebuild).
    All,
}

/// A redundant file's stripes. A parity stripe is `width` data blocks
/// and its parity block, a mirror's one block and its copy; either way
/// the last member, the companion, holds the XOR of the others.
struct Stripes {
    file: BridgeFileId,
    width: u64,
    size: u64,
    parity: bool,
    /// Stripes per pass: `depth` rows of every parity group (of the
    /// breadth, for a mirror), so a pass holds at most `depth`
    /// consecutive members of any column — one run, read or written.
    per_pass: u64,
}

impl Stripes {
    /// The data blocks of stripe `s`.
    fn blocks(&self, s: u64) -> Range<u64> {
        s * self.width..((s + 1) * self.width).min(self.size)
    }
}

impl Server {
    /// Scrubs every stripe of redundant `file`; under `repair` the stale
    /// companions are rewritten.
    pub(super) fn scrub_file(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        repair: bool,
    ) -> Result<BridgeData, BridgeError> {
        let stripes = self.stripes(file)?;
        let mend = if repair { Mend::Stale } else { Mend::Nothing };
        let report = self.scrub(ctx, &stripes, 0..stripes.size, mend)?;
        Ok(BridgeData::Scrubbed(report))
    }

    /// Repairs global blocks `[first, first + count)` (clipped at the
    /// file size) of a redundant file after node failures: the scrub,
    /// with every repair on, over the stripes the range touches. Stripes
    /// are visited in global order, so repaired locals land as ordinary
    /// appends — which is also why a chunked rebuild of a freshly
    /// installed spare must walk ranges front to back.
    pub(super) fn rebuild_range(
        &mut self,
        ctx: &mut Ctx,
        file: BridgeFileId,
        first: u64,
        count: u64,
    ) -> Result<BridgeData, BridgeError> {
        let stripes = self.stripes(file)?;
        let size = stripes.size;
        let first = first.min(size);
        let end = first.saturating_add(count).min(size);
        if first == 0 {
            self.tally(|s| s.note_rebuild_start(size));
            self.journal(
                ctx,
                HealthEvent::RebuildStart {
                    file: u64::from(file.0),
                    total: size,
                },
            );
        }
        // A freshly installed spare holds no files at all: recreate this
        // file's columns there before repairing, so the repair writes
        // below land as ordinary appends instead of `UnknownFile`.
        self.ensure_columns(ctx, file)?;
        let repaired = self.scrub(ctx, &stripes, first..end, Mend::All)?.repaired;
        self.tally(|s| s.note_rebuild_progress(end, size));
        self.journal_and_trace(
            ctx,
            HealthEvent::RebuildChunk {
                file: u64::from(file.0),
                chunk: first,
                done: end,
                total: size,
            },
            &[("repaired", repaired)],
        );
        if end >= size {
            self.tally(|s| s.rebuilds_done += 1);
            self.journal(
                ctx,
                HealthEvent::RebuildDone {
                    file: u64::from(file.0),
                    total: size,
                },
            );
        }
        Ok(BridgeData::Rebuilt { repaired })
    }

    /// `file`'s stripes, or the refusal a plain file gets.
    fn stripes(&mut self, file: BridgeFileId) -> Result<Stripes, BridgeError> {
        let depth = u64::from(self.depth());
        let meta = self.meta(file)?;
        let breadth = u64::from(meta.placement.breadth());
        let (width, rows, parity) = match meta.redundancy {
            Redundancy::None => {
                return Err(BridgeError::RedundancyUnsupported {
                    why: "only a redundant file has companions to scrub",
                })
            }
            Redundancy::Mirror => (1, breadth, false),
            Redundancy::Parity { .. } => {
                let layout = meta.parity_layout();
                let groups = breadth / u64::from(layout.group());
                (layout.stripe_width(), groups, true)
            }
        };
        Ok(Stripes {
            file,
            width,
            size: meta.size,
            parity,
            per_pass: depth * rows,
        })
    }

    /// Scrubs the stripes holding global blocks `blocks`,
    /// pass by pass. A pass reads every member of its stripes as one
    /// round at the machine's depth, judges each stripe, and sends what
    /// `mend` rewrites as write rounds before the next pass reads.
    fn scrub(
        &mut self,
        ctx: &mut Ctx,
        stripes: &Stripes,
        blocks: Range<u64>,
        mend: Mend,
    ) -> Result<ScrubReport, BridgeError> {
        let mut report = ScrubReport::default();
        // The stripes holding `blocks`.
        let range = if blocks.is_empty() {
            0..0
        } else {
            blocks.start / stripes.width..blocks.end.div_ceil(stripes.width)
        };
        for s in range.clone().step_by(stripes.per_pass as usize) {
            let pass = s..(s + stripes.per_pass).min(range.end);
            self.scrub_pass(ctx, stripes, pass, blocks.end, mend, &mut report)?;
        }
        Ok(report)
    }

    /// One pass of [`Server::scrub`] over stripes `pass`, adding to
    /// `report`. This is the one place that decides whether a redundant
    /// block holds what its stripe says: with every member read, the
    /// companion must equal the XOR of the data (for a mirror, the
    /// primary); with one member unreadable it is recovered as the XOR
    /// of the rest; with more, the stripe's unreadable data blocks are
    /// lost. The readable primary is canonical. A stripe spilling past
    /// `end` has only its lost data blocks before `end` recovered: the
    /// rest of it waits for the range holding its end, whose blocks a
    /// spare may not hold yet.
    fn scrub_pass(
        &mut self,
        ctx: &mut Ctx,
        stripes: &Stripes,
        pass: Range<u64>,
        end: u64,
        mend: Mend,
        report: &mut ScrubReport,
    ) -> Result<(), BridgeError> {
        let blocks = stripes.blocks(pass.start).start..stripes.blocks(pass.end - 1).end;
        let data_count = (blocks.end - blocks.start) as usize;
        let file = stripes.file;
        let meta = self.file_mut(file);
        let companion = meta.companion().expect("a redundant file has a companion");
        let columns = [meta.lfs_file, companion].map(|lfs_file| Target::raw(file, lfs_file));
        // Data blocks first, then the companions, so that each column's
        // members stand together and pool into one run.
        let mut ptrs = Vec::with_capacity(data_count + (pass.end - pass.start) as usize);
        for block in blocks.clone() {
            ptrs.push(meta.locate(block)?);
        }
        for s in pass.clone() {
            ptrs.push(if stripes.parity {
                meta.parity_ptr(s).1
            } else {
                let pos = meta.locate_pos(s)?;
                meta.mirror_ptr(pos).1
            });
        }
        let column = |i: usize| usize::from(i >= data_count);
        let member = |i: usize| (columns[column(i)], ptrs[i]);
        let depth = self.depth();
        // Every slot is overwritten by its block's reply.
        let mut reads: Vec<BlockResult> = vec![Err(EfsError::NodeFailed); ptrs.len()];
        self.read_blocks(ctx, (0..ptrs.len()).map(member), depth, |_, _, i, read| {
            reads[i] = read;
            Ok(())
        })?;
        // A run that reaches past the end of a short column — one that
        // missed appends while its node was down — fails whole: ask for
        // its blocks again one by one. A lost column fails them all alike.
        let again: Vec<usize> = (0..reads.len())
            .filter(|&i| matches!(&reads[i], Err(e) if depth > 1 && !e.column_lost()))
            .collect();
        if !again.is_empty() {
            let round = self.send_reads(ctx, again.iter().map(|&i| member(i)));
            for (i, read) in again.into_iter().zip(self.take_reads(ctx, round)?) {
                reads[i] = read;
            }
        }

        let listed = report.findings.len();
        let mut fixes: [Vec<(GlobalPtr, Bytes)>; 2] = Default::default();
        for (k, s) in pass.enumerate() {
            let span = stripes.blocks(s);
            let companion = data_count + k;
            let data = (span.start - blocks.start) as usize..(span.end - blocks.start) as usize;
            let at: Vec<usize> = data.chain([companion]).collect();
            let others = |skip: usize| {
                let rest = at.iter().filter(move |&&i| i != skip);
                xor_fold(rest.filter_map(|&i| reads[i].as_ref().ok()))
            };
            let lost: Vec<usize> = at.iter().copied().filter(|&i| reads[i].is_err()).collect();
            let spills = span.end > end;
            let fix = match lost[..] {
                [] if spills => None,
                [gone] if spills && (gone == companion || blocks.start + gone as u64 >= end) => {
                    None
                }
                [] => {
                    let expected = others(companion);
                    let stale = reads[companion].as_ref().ok() != Some(&expected);
                    if stale {
                        let node = ptrs[companion].lfs.0;
                        report.findings.push(if stripes.parity {
                            ScrubFinding::StaleParity { stripe: s, node }
                        } else {
                            ScrubFinding::MirrorMismatch { block: s, node }
                        });
                    }
                    stale.then_some((companion, expected))
                }
                [gone] => {
                    report.reconstructed += 1;
                    (mend == Mend::All).then(|| (gone, others(gone)))
                }
                _ => {
                    for &i in lost.iter().filter(|&&i| i < data_count) {
                        let block = blocks.start + i as u64;
                        report.findings.push(ScrubFinding::Unrecoverable { block });
                    }
                    if mend == Mend::All {
                        let e = reads[lost[0]]
                            .clone()
                            .expect_err("a lost member's read failed");
                        return Err(BridgeError::Lfs(e));
                    }
                    None
                }
            };
            if let Some((i, payload)) = fix {
                fixes[column(i)].push((ptrs[i], payload));
            }
        }
        if mend == Mend::Nothing {
            return Ok(());
        }
        // Lost data blocks first, then companions: each column's
        // rewrites ascend, so a spare's columns grow by appends.
        for (target, fixes) in columns.into_iter().zip(&fixes) {
            if fixes.is_empty() {
                continue;
            }
            match self.write_blocks(ctx, target, fixes, depth) {
                Ok(()) => report.repaired += fixes.len() as u64,
                // A stale companion whose column went since it was read
                // stays a finding.
                Err(BridgeError::Lfs(e)) if mend == Mend::Stale && e.column_lost() => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        // Every stale companion of this pass was rewritten.
        let tail = report.findings.split_off(listed);
        let lost = tail
            .into_iter()
            .filter(|f| matches!(f, ScrubFinding::Unrecoverable { .. }));
        report.findings.extend(lost);
        Ok(())
    }

    /// Stats every column of `file` (and its companion) and recreates the
    /// LFS files missing on otherwise healthy nodes — the state of a
    /// freshly installed spare. Nodes that are down still fail rebuild:
    /// repair needs somewhere to write.
    fn ensure_columns(&mut self, ctx: &mut Ctx, file: BridgeFileId) -> Result<(), BridgeError> {
        let (nodes, lfs_file, companion) = {
            let meta = self.file_mut(file);
            (meta.nodes.clone(), meta.lfs_file, meta.companion())
        };
        let mut names = vec![lfs_file];
        names.extend(companion);
        let columns: Vec<(u32, LfsFileId)> = (nodes.iter())
            .flat_map(|&n| names.iter().map(move |&name| (n, name)))
            .collect();
        let targets = columns.iter().map(|&(n, _)| (n, false, 1));
        let ops = columns.iter().map(|&(_, file)| LfsOp::Stat { file });
        let fan = self.tier.send_round(ctx, Shape::Direct, targets, ops);
        // Each column keeps its own answer: a missing file is what this
        // round looks for, not a veto.
        let mut stats = vec![Ok(LfsData::Done); columns.len()];
        let _ = self.tier.gather(ctx, fan, |at, r| stats[at] = r);
        let mut missing = Vec::new();
        for (&column, stat) in columns.iter().zip(stats) {
            match stat {
                Ok(_) => {}
                Err(EfsError::UnknownFile(_)) => missing.push(column),
                Err(e) => return Err(BridgeError::Lfs(e)),
            }
        }
        let targets = missing.iter().map(|&(n, _)| (n, false, 1));
        let ops = missing.iter().map(|&(_, file)| LfsOp::Create { file });
        let fan = self.tier.send_round(ctx, Shape::Direct, targets, ops);
        self.tier.gather(ctx, fan, |_, _| {})?;
        Ok(())
    }
}
