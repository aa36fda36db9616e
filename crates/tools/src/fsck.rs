//! pfsck — whole-machine consistency checking, one checker per LFS.
//!
//! A Bridge file is striped over every instance, so a "file system check"
//! is really `p` independent checks: each LFS audits its own directory,
//! chains, and allocator ([`Efs::fsck_timed`](bridge_efs::Efs)). pfsck is
//! the tool that runs them — in parallel, one worker per node, the same
//! move-the-computation shape as the copy and scan tools — and folds the
//! per-instance [`FsckReport`]s into a single machine-wide verdict. The
//! serial mode visits instances one at a time from the controller and
//! exists as the baseline the `fsck_speedup` bench measures against.
//!
//! With [`FsckOptions::server`] set, a fourth, *machine-wide* pass runs
//! after the per-instance checks: it fetches the Bridge Server's
//! directory manifest (plus the 2PC coordinator's logged decisions) and a
//! file listing from every instance, then cross-checks the two — a file
//! must exist on all of its placement nodes ([`MachineFinding::
//! MissingColumn`]) and nothing else may exist
//! ([`MachineFinding::OrphanColumn`]). Directory entries naming a node
//! index beyond the machine's breadth (a stale placement spec) are
//! *reported*, never chased ([`MachineFinding::NodeOutOfRange`]). Under
//! `repair`, an orphaned column whose fate a logged decision settles — a
//! committed delete or an aborted create that a dead-at-decision-time
//! node never heard about — is resolved the way the decision says:
//! the column is deleted.
//!
//! The machine-wide pass also audits every mirrored or parity-protected
//! file, and the audit is the Bridge Server's scrub (`BridgeCmd::Scrub`):
//! the tool asks, the server reads each stripe's members in rounds where
//! they live and answers with what it found. Each stripe's parity is
//! recomputed from its data blocks and checked against the stored parity
//! block ([`MachineFinding::StaleParity`]; `repair` rewrites it), mirror
//! copies are compared ([`MachineFinding::MirrorMismatch`]; `repair`
//! rewrites the mirror from the primary), and a *down* node's columns —
//! unknowable for a plain file — are instead reconstructed from the
//! surviving group members and counted in
//! [`MachineReport::reconstructed`]; only blocks no surviving member can
//! recover are reported ([`MachineFinding::UnrecoverableBlock`]).

use crate::error::ToolError;
use crate::options::ToolOptions;
use crate::toolkit::{run_workers, WorkerSpec};
use bridge_core::{
    BridgeClient, BridgeFileId, LoggedDecision, MachineManifest, Redundancy, ScrubFinding,
};
use bridge_efs::{
    FileInfo, FsckReport, LfsClient, LfsData, LfsFileId, LfsOp, PrepareIntent, RetryPolicy,
};
use parsim::{Ctx, NodeId, ProcId, SimDuration};
use std::collections::BTreeSet;

/// How pfsck visits the instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsckMode {
    /// One checking worker per LFS node, all instances audited
    /// concurrently — the tool's point.
    #[default]
    Parallel,
    /// The controller checks instances one at a time: the serial baseline
    /// the parallel speedup is measured against. Not a start arity —
    /// [`SERIAL_ARITY`](bridge_core::SERIAL_ARITY) serialises the workers'
    /// starts, not their checks.
    Serial,
}

/// pfsck tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsckOptions {
    /// Repair what can be repaired (truncate torn tails, drop dangling
    /// entries, rebuild the allocator); `false` is check-only.
    pub repair: bool,
    /// Parallel or serial visit order.
    pub mode: FsckMode,
    /// Worker start arity and cost (parallel mode).
    pub tool: ToolOptions,
    /// Retry policy for the per-instance Fsck calls. The default
    /// ([`RetryPolicy::none`]) waits indefinitely; checks run against a
    /// machine with crash faults armed should use
    /// [`RetryPolicy::standard`] so a kill mid-check is ridden out.
    pub retry: RetryPolicy,
    /// The Bridge Server, enabling the machine-wide cross-check pass
    /// (directory manifest vs per-instance listings, orphans resolved by
    /// the coordinator's logged decisions). `None` (the default) runs the
    /// per-instance passes only — the pre-2PC behaviour.
    pub server: Option<ProcId>,
}

/// One inconsistency found by the machine-wide pass: the server's
/// directory and the instances' actual holdings disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineFinding {
    /// The directory places `file` on `node`, but the instance holds no
    /// column named `lfs_file`. Not repaired by pfsck: a redundant file's
    /// column is rebuilt by the server's `Rebuild` command, and a
    /// non-redundant one is data loss to surface, not paper over.
    MissingColumn {
        /// The Bridge file missing a column.
        file: BridgeFileId,
        /// The machine index of the instance that should hold it.
        node: u32,
        /// The column's local name there.
        lfs_file: LfsFileId,
    },
    /// The instance holds a column no directory entry accounts for.
    /// Repairable when a logged 2PC decision settles its fate (a
    /// committed delete or an aborted create the node never applied):
    /// the column is deleted, finishing the decision's phase 2.
    OrphanColumn {
        /// The machine index of the instance holding the stray column.
        node: u32,
        /// The stray column's local name.
        lfs_file: LfsFileId,
        /// Whether a logged decision covers (and so can resolve) it.
        resolvable: bool,
    },
    /// The directory entry for `file` names a placement node that does
    /// not exist on this machine — a stale placement spec from a
    /// different breadth. Reported, never dereferenced.
    NodeOutOfRange {
        /// The file with the stale placement.
        file: BridgeFileId,
        /// The out-of-range machine index its entry names.
        node: u32,
        /// The machine's actual breadth.
        breadth: u32,
    },
    /// The parity audit recomputed a stripe's parity from its data blocks
    /// and the stored parity block disagrees. Repairable: under `repair`
    /// the recomputed parity is rewritten.
    StaleParity {
        /// The parity-protected file.
        file: BridgeFileId,
        /// The inconsistent stripe.
        stripe: u64,
        /// The machine index holding the stripe's parity block.
        node: u32,
    },
    /// A mirrored block whose two copies are both readable but disagree.
    /// Repairable: under `repair` the mirror is rewritten from the
    /// primary.
    MirrorMismatch {
        /// The mirrored file.
        file: BridgeFileId,
        /// The disagreeing global block.
        block: u64,
        /// The machine index holding the mirror copy.
        node: u32,
    },
    /// A block of a redundant file that the surviving group members
    /// cannot reconstruct — more than one column of its stripe (or both
    /// mirror copies) is unavailable. Data loss to surface, not repair.
    UnrecoverableBlock {
        /// The redundant file.
        file: BridgeFileId,
        /// The unreconstructable global block.
        block: u64,
    },
}

impl MachineFinding {
    /// Human-readable description, matching the per-instance error style.
    pub fn describe(&self) -> String {
        match self {
            MachineFinding::MissingColumn {
                file,
                node,
                lfs_file,
            } => format!("file {file:?}: column {lfs_file:?} missing on node {node}"),
            MachineFinding::OrphanColumn {
                node,
                lfs_file,
                resolvable,
            } => format!(
                "node {node}: orphan column {lfs_file:?} ({})",
                if *resolvable {
                    "resolvable by logged decision"
                } else {
                    "no logged decision covers it"
                }
            ),
            MachineFinding::NodeOutOfRange {
                file,
                node,
                breadth,
            } => format!(
                "file {file:?}: directory names node {node} but machine breadth is {breadth}"
            ),
            MachineFinding::StaleParity { file, stripe, node } => {
                format!("file {file:?}: stripe {stripe} parity on node {node} is stale")
            }
            MachineFinding::MirrorMismatch { file, block, node } => {
                format!("file {file:?}: block {block} mirror on node {node} disagrees")
            }
            MachineFinding::UnrecoverableBlock { file, block } => {
                format!("file {file:?}: block {block} is unreconstructable")
            }
        }
    }
}

/// The outcome of the machine-wide cross-check pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MachineReport {
    /// Every disagreement between the directory and the instances.
    pub findings: Vec<MachineFinding>,
    /// Orphaned columns resolved (deleted) and stale parity/mirror blocks
    /// rewritten under `repair`.
    pub repaired: u32,
    /// Blocks on unavailable columns that the redundancy audit
    /// reconstructed and verified from the surviving group members
    /// (instead of writing the whole column off as unknowable).
    pub reconstructed: u64,
}

/// The machine-wide outcome of a pfsck run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckVerdict {
    /// Per-instance reports, by LFS ordinal.
    pub reports: Vec<FsckReport>,
    /// The machine-wide pass, when [`FsckOptions::server`] was given.
    pub machine: Option<MachineReport>,
    /// Total inconsistencies repaired across all instances (machine-wide
    /// resolutions included).
    pub repaired: u32,
    /// Virtual time the whole check took.
    pub elapsed: SimDuration,
}

impl FsckVerdict {
    /// True when no instance — and the machine-wide pass, if it ran —
    /// found any inconsistency.
    pub fn clean(&self) -> bool {
        self.reports.iter().all(|r| r.errors.is_empty())
            && self.machine.as_ref().is_none_or(|m| m.findings.is_empty())
    }

    /// Every inconsistency message, prefixed with its LFS ordinal (or
    /// `machine:` for the cross-check pass).
    pub fn errors(&self) -> Vec<String> {
        self.reports
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.errors.iter().map(move |e| format!("lfs{i}: {e}")))
            .chain(self.machine.iter().flat_map(|m| {
                m.findings
                    .iter()
                    .map(|f| format!("machine: {}", f.describe()))
            }))
            .collect()
    }
}

/// The pure cross-check at the heart of the machine-wide pass: the
/// server's `manifest` against one [`FileInfo`] listing per instance
/// (`listings[i]` is machine index `i`). Findings are ordered: stale
/// placements first, then missing columns in manifest order, then orphans
/// in (node, file) order.
pub fn machine_check(
    manifest: &MachineManifest,
    listings: &[Vec<FileInfo>],
) -> Vec<MachineFinding> {
    let breadth = listings.len() as u32;
    let mut findings = Vec::new();
    // What each instance *should* hold, per the directory.
    let mut expected: Vec<BTreeSet<LfsFileId>> = vec![BTreeSet::new(); listings.len()];
    for entry in &manifest.files {
        for &node in &entry.nodes {
            if node >= breadth {
                findings.push(MachineFinding::NodeOutOfRange {
                    file: entry.file,
                    node,
                    breadth,
                });
                continue;
            }
            expected[node as usize].insert(entry.lfs_file);
            if let Some(companion) = entry.companion {
                expected[node as usize].insert(companion);
            }
        }
    }
    for entry in &manifest.files {
        for &node in &entry.nodes {
            if node >= breadth {
                continue;
            }
            // Only the primary column is load-bearing here: a redundant
            // file's companion may legitimately lag (an empty mirror
            // column is tolerated even by Delete).
            if !listings[node as usize]
                .iter()
                .any(|f| f.file == entry.lfs_file)
            {
                findings.push(MachineFinding::MissingColumn {
                    file: entry.file,
                    node,
                    lfs_file: entry.lfs_file,
                });
            }
        }
    }
    for (node, listing) in listings.iter().enumerate() {
        let mut strays: Vec<LfsFileId> = listing
            .iter()
            .map(|f| f.file)
            .filter(|f| !expected[node].contains(f))
            .collect();
        strays.sort();
        for lfs_file in strays {
            findings.push(MachineFinding::OrphanColumn {
                node: node as u32,
                lfs_file,
                resolvable: decision_resolves(&manifest.decisions, node as u32, lfs_file),
            });
        }
    }
    findings
}

/// Whether the decision log settles the fate of a stray column: the
/// *latest* logged decision touching (`node`, `lfs_file`) must be one
/// whose outcome is "this column should not exist" — a committed delete,
/// or an aborted (presumed or explicit) create.
fn decision_resolves(decisions: &[LoggedDecision], node: u32, lfs_file: LfsFileId) -> bool {
    decisions
        .iter()
        .rev()
        .find_map(|d| {
            d.participants
                .iter()
                .find(|p| p.node == node && p.intent.files().contains(&lfs_file))
                .and_then(|p| match &p.intent {
                    PrepareIntent::DeleteFiles(_) => Some(d.committed),
                    PrepareIntent::CreateFiles(_) => Some(!d.committed),
                    // A write neither creates nor deletes its column, so
                    // it settles nothing; keep scanning earlier decisions.
                    PrepareIntent::WriteBlock { .. } => None,
                })
        })
        .unwrap_or(false)
}

/// Checks (and with [`FsckOptions::repair`], repairs) every LFS instance
/// of a machine. `lfs` pairs each instance's server process with the node
/// it runs on, by LFS ordinal — zip a
/// [`BridgeMachine`](bridge_core::BridgeMachine)'s `lfs` and `lfs_nodes`.
///
/// Emits a `fsck.pfsck` span covering the whole run; each instance's
/// passes emit their own `fsck.*` spans server-side.
///
/// # Errors
///
/// Propagates LFS errors and worker protocol failures.
pub fn pfsck(
    ctx: &mut Ctx,
    lfs: &[(ProcId, NodeId)],
    opts: &FsckOptions,
) -> Result<FsckVerdict, ToolError> {
    let t0 = ctx.now();
    let repair = opts.repair;
    let reports = match opts.mode {
        FsckMode::Serial => {
            let mut client = LfsClient::with_retry(opts.retry);
            let mut reports = Vec::with_capacity(lfs.len());
            for &(proc, _) in lfs {
                reports.push(instance_report(ctx, &mut client, proc, repair)?);
            }
            reports
        }
        FsckMode::Parallel => {
            let retry = opts.retry;
            let specs = lfs
                .iter()
                .enumerate()
                .map(|(i, &(proc, node))| WorkerSpec {
                    node,
                    name: format!("pfsck{i}"),
                    run: Box::new(move |c: &mut Ctx| {
                        instance_report(c, &mut LfsClient::with_retry(retry), proc, repair)
                    }),
                })
                .collect();
            run_workers(ctx, &opts.tool, specs)?
        }
    };
    let machine = match opts.server {
        Some(server) => Some(machine_pass(ctx, server, lfs, opts)?),
        None => None,
    };
    let repaired = reports.iter().map(|r| r.repaired).sum::<u32>()
        + machine.as_ref().map_or(0, |m| m.repaired);
    let verdict = FsckVerdict {
        repaired,
        elapsed: ctx.now().duration_since(t0),
        reports,
        machine,
    };
    if ctx.trace_enabled() {
        ctx.trace_span(
            "fsck",
            "fsck.pfsck",
            t0,
            &[
                ("instances", lfs.len() as u64),
                ("repaired", u64::from(verdict.repaired)),
                ("errors", verdict.errors().len() as u64),
                ("clean", u64::from(verdict.clean())),
            ],
        );
    }
    Ok(verdict)
}

/// The machine-wide pass: manifest from the server, one listing per
/// instance (pipelined), the pure [`machine_check`], and — under
/// `repair` — deletion of every orphaned column a logged decision
/// resolves. An instance that answers `NodeFailed` contributes an empty
/// listing: its columns are unknowable, not missing — so nothing it
/// holds is reported, and nothing on it is repaired.
fn machine_pass(
    ctx: &mut Ctx,
    server: ProcId,
    lfs: &[(ProcId, NodeId)],
    opts: &FsckOptions,
) -> Result<MachineReport, ToolError> {
    let mut bridge = BridgeClient::with_retry(server, opts.retry);
    let manifest = bridge
        .get_manifest(ctx)
        .map_err(|e| ToolError::Protocol(format!("get_manifest failed: {e}")))?;
    let mut client = LfsClient::with_retry(opts.retry);
    let ids: Vec<(ProcId, u64)> = lfs
        .iter()
        .map(|&(proc, _)| (proc, client.send(ctx, proc, LfsOp::ListFiles)))
        .collect();
    let mut listings = Vec::with_capacity(lfs.len());
    let mut down = vec![false; lfs.len()];
    for (i, (proc, id)) in ids.into_iter().enumerate() {
        match client.wait(ctx, proc, id) {
            Ok(LfsData::Files(files)) => listings.push(files),
            Ok(other) => {
                return Err(ToolError::Protocol(format!(
                    "unexpected ListFiles reply: {other:?}"
                )))
            }
            Err(bridge_efs::EfsError::NodeFailed) => {
                down[i] = true;
                listings.push(Vec::new());
            }
            Err(e) => return Err(ToolError::Lfs(e)),
        }
    }
    let mut findings = machine_check(&manifest, &listings);
    // A failed node's columns look "missing" against the manifest. For a
    // file without redundancy they are unknowable until the node returns,
    // so those findings are dropped; a *redundant* file's columns are not
    // withheld — the audit below reconstructs them from the surviving
    // group members and reports only what really cannot be recovered.
    let redundant: BTreeSet<BridgeFileId> = manifest
        .files
        .iter()
        .filter(|e| e.redundancy != Redundancy::None)
        .map(|e| e.file)
        .collect();
    findings.retain(|f| match f {
        MachineFinding::MissingColumn { node, file, .. } => {
            !down[*node as usize] && !redundant.contains(file)
        }
        _ => true,
    });
    let mut repaired = 0u32;
    if opts.repair {
        let mut kept = Vec::with_capacity(findings.len());
        for finding in findings {
            if let MachineFinding::OrphanColumn {
                node,
                lfs_file,
                resolvable: true,
            } = finding
            {
                match client.call(ctx, lfs[node as usize].0, LfsOp::Delete { file: lfs_file }) {
                    Ok(_) => {
                        repaired += 1;
                        continue;
                    }
                    // Gone already (raced with the server's own phase-2
                    // redo): resolved all the same.
                    Err(bridge_efs::EfsError::UnknownFile(_)) => {
                        repaired += 1;
                        continue;
                    }
                    // Died since the listing: leave the finding standing.
                    Err(bridge_efs::EfsError::NodeFailed) => {}
                    Err(e) => return Err(ToolError::Lfs(e)),
                }
            }
            kept.push(finding);
        }
        findings = kept;
    }
    // The redundancy audit is the server's scrub, one request per
    // redundant file, repairing under `repair`.
    let mut reconstructed = 0u64;
    for entry in &manifest.files {
        if entry.redundancy == Redundancy::None
            || entry.size == 0
            || entry.nodes.iter().any(|&n| n as usize >= lfs.len())
        {
            continue;
        }
        let file = entry.file;
        let scrub = bridge
            .scrub(ctx, file, opts.repair)
            .map_err(|e| ToolError::Protocol(format!("scrub of {file:?} failed: {e}")))?;
        findings.extend(scrub.findings.into_iter().map(|f| match f {
            ScrubFinding::StaleParity { stripe, node } => {
                MachineFinding::StaleParity { file, stripe, node }
            }
            ScrubFinding::MirrorMismatch { block, node } => {
                MachineFinding::MirrorMismatch { file, block, node }
            }
            ScrubFinding::Unrecoverable { block } => {
                MachineFinding::UnrecoverableBlock { file, block }
            }
        }));
        repaired += scrub.repaired as u32;
        reconstructed += scrub.reconstructed;
    }
    Ok(MachineReport {
        findings,
        repaired,
        reconstructed,
    })
}

/// One instance's check. A failed instance answers `NodeFailed` to
/// everything, its own Fsck included. Its local state is unknowable —
/// contribute an empty report and let the machine-wide pass decide what
/// that means: a redundant file's columns there are reconstructed from
/// the group's survivors; a plain file's are simply not reportable yet.
fn instance_report(
    ctx: &mut Ctx,
    client: &mut LfsClient,
    proc: ProcId,
    repair: bool,
) -> Result<FsckReport, ToolError> {
    match client.call(ctx, proc, LfsOp::Fsck { repair }) {
        Ok(LfsData::Fsck(report)) => Ok(report),
        Ok(other) => Err(ToolError::Protocol(format!(
            "unexpected fsck reply: {other:?}"
        ))),
        Err(bridge_efs::EfsError::NodeFailed) => Ok(FsckReport::default()),
        Err(e) => Err(ToolError::Lfs(e)),
    }
}
