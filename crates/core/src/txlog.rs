//! # The coordinator's decision log
//!
//! Presumed-abort two-phase commit needs exactly one piece of durable
//! coordinator state: the *decision*. This module gives the Bridge server a
//! tiny write-ahead ring on its own node's disk holding two single-block
//! record kinds:
//!
//! * **BEGIN** — written *after* every participant has acknowledged its
//!   durable PREPARE, *before* the coordinator treats the transaction as
//!   committed. It names the transaction and every participant (node index
//!   plus the exact [`PrepareIntent`] sent to it), so recovery can drive
//!   phase 2 from the log alone.
//! * **COMMIT** — the commit point. A transaction whose BEGIN has a matching
//!   COMMIT is committed; one without is *presumed aborted* — which is the
//!   whole trick: aborts cost no log write, and a participant in doubt that
//!   finds no decision simply rolls back its prepared intent.
//!
//! The coordinator is serial (one machine-wide mutation at a time), so at
//! any crash point at most one transaction is in doubt: the latest BEGIN
//! without a COMMIT. [`TxLog::scan`] reconstructs the record sequence from
//! raw media after a crash, and [`TxLog::decisions`] exposes the decision
//! history to `pfsck` so the machine-wide pass can resolve orphaned columns
//! the same way a recovering participant would.
//!
//! Records are one block each (the ring is small — two writes per Create or
//! Delete — and block-granular writes make the "Nth elementary write"
//! crash-sweep arithmetic exact: a machine-wide op is exactly writes
//! `2k−1` and `2k`). The ring wraps; old decisions are overwritten once the
//! ring cycles, which is fine because a decision is only needed while some
//! participant may still be in doubt, i.e. within one coordinator round
//! trip of the COMMIT.

use bridge_efs::PrepareIntent;
use parsim::{Ctx, SimDuration};
use simdisk::{BlockAddr, DiskGeometry, DiskProfile, SimDisk};

/// Magic stamped on every decision-log block.
pub const TXLOG_MAGIC: u32 = 0x7C10_B21D;

const KIND_BEGIN: u8 = 1;
const KIND_COMMIT: u8 = 2;

/// Fixed-size header of a decision-log block: magic, checksum, kind, txn,
/// payload length.
const HEADER: usize = 4 + 4 + 1 + 8 + 4;

/// One participant of a logged transaction: which LFS instance, and the
/// prepare intent the coordinator sent it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxParticipant {
    /// LFS instance index (column) in machine order.
    pub node: u32,
    /// The intent the participant prepared.
    pub intent: PrepareIntent,
}

/// A decision-log record recovered by [`TxLog::scan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxRecord {
    /// All participants prepared; the decision is still pending.
    Begin {
        /// Transaction id.
        txn: u64,
        /// Every participant with its prepared intent.
        participants: Vec<TxParticipant>,
    },
    /// The commit point for `txn`.
    Commit {
        /// Transaction id.
        txn: u64,
    },
}

/// The outcome of one logged transaction, for `pfsck`'s machine-wide pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedDecision {
    /// Transaction id.
    pub txn: u64,
    /// `true` if a COMMIT record follows the BEGIN; `false` means the
    /// transaction is presumed aborted.
    pub committed: bool,
    /// The participants named by the BEGIN record.
    pub participants: Vec<TxParticipant>,
}

/// FNV-1a over the record body (everything after the checksum field).
fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// The coordinator's presumed-abort decision log: a block ring on a small
/// dedicated [`SimDisk`] colocated with the Bridge server.
#[derive(Debug)]
pub struct TxLog {
    disk: SimDisk,
    /// Next ring slot to write (block index).
    next_slot: u32,
    /// Monotonic rank stamped into each record's payload tail so a scan
    /// can order ring slots after wraparound.
    next_rank: u64,
}

impl TxLog {
    /// The geometry of the coordinator's log device: eight four-kilobyte
    /// blocks on a single track — two machine-wide mutations of history,
    /// which is more than the one in-doubt transaction presumed abort
    /// ever needs, while keeping the server-kill crash sweep short. The
    /// blocks are four kilobytes (not the data disks' one) because a
    /// redundant write's BEGIN carries the full [`PrepareIntent::WriteBlock`]
    /// payload for each participant: redo after a coordinator crash must
    /// be able to re-drive the commit to a participant whose own recovery
    /// already presumed-abort-rolled-back its prepare.
    pub fn geometry() -> DiskGeometry {
        DiskGeometry {
            block_size: 4096,
            blocks_per_track: 8,
            tracks: 1,
        }
    }

    /// Formats a fresh decision log on `disk` (clears every ring slot).
    pub fn format(mut disk: SimDisk) -> TxLog {
        for b in 0..disk.capacity_blocks() {
            disk.clear_raw(BlockAddr::new(b));
        }
        TxLog {
            disk,
            next_slot: 0,
            next_rank: 1,
        }
    }

    /// The disk's timing profile, exposed for tests.
    pub fn profile(&self) -> DiskProfile {
        self.disk.profile()
    }

    fn slots(&self) -> u32 {
        self.disk.capacity_blocks()
    }

    /// Serializes and writes one record into the next ring slot, then
    /// flushes. Errors from the device are deliberately *not* surfaced:
    /// under a crash kill the triggering write is durable before the disk
    /// goes dead, so the caller must consult [`TxLog::crash_down`] — not
    /// the write result — to learn whether the server survived.
    fn append(&mut self, ctx: &mut Ctx, kind: u8, txn: u64, payload: &[u8]) {
        let block_size = self.disk.geometry().block_size;
        let mut body = Vec::with_capacity(HEADER + payload.len() + 8);
        body.push(kind);
        body.extend_from_slice(&txn.to_le_bytes());
        body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        body.extend_from_slice(payload);
        body.extend_from_slice(&self.next_rank.to_le_bytes());
        assert!(
            8 + body.len() <= block_size,
            "decision record ({} bytes) exceeds one log block ({} bytes): \
             machine breadth too large for the coordinator log format",
            8 + body.len(),
            block_size
        );
        let mut block = Vec::with_capacity(block_size);
        block.extend_from_slice(&TXLOG_MAGIC.to_le_bytes());
        block.extend_from_slice(&checksum(&body).to_le_bytes());
        block.extend_from_slice(&body);
        block.resize(block_size, 0);
        let slot = self.next_slot;
        self.next_slot = (self.next_slot + 1) % self.slots();
        self.next_rank += 1;
        let _ = self.disk.write(ctx, BlockAddr::new(slot), &block);
        let _ = self.disk.flush(ctx);
    }

    /// Logs that every participant of `txn` holds a durable PREPARE.
    /// Check [`TxLog::crash_down`] afterwards — the record may be the
    /// write the crash schedule kills the server on.
    pub fn begin(&mut self, ctx: &mut Ctx, txn: u64, participants: &[TxParticipant]) {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(participants.len() as u32).to_le_bytes());
        for p in participants {
            payload.extend_from_slice(&p.node.to_le_bytes());
            p.intent.encode(&mut payload);
        }
        self.append(ctx, KIND_BEGIN, txn, &payload);
    }

    /// Logs the commit point for `txn`. Check [`TxLog::crash_down`]
    /// afterwards, exactly as for [`TxLog::begin`].
    pub fn commit(&mut self, ctx: &mut Ctx, txn: u64) {
        self.append(ctx, KIND_COMMIT, txn, &[]);
    }

    /// `Some(down)` while the log device is dead under a crash kill: the
    /// server node crashed and must stay silent for `down` before
    /// recovering.
    pub fn crash_down(&self) -> Option<SimDuration> {
        self.disk.crash_down()
    }

    /// Restarts the dead log device (the crash's down window has elapsed).
    pub fn revive(&mut self) {
        self.disk.revive();
    }

    /// Decodes one ring slot, returning `(rank, record)`, or `None` for
    /// blank/foreign/corrupt slots (a torn decision write never happens —
    /// records are single-block — but a freshly formatted ring is blank).
    fn decode_slot(&self, slot: u32) -> Option<(u64, TxRecord)> {
        let raw = self.disk.read_raw(BlockAddr::new(slot))?;
        if raw.len() < HEADER + 8 || u32::from_le_bytes(raw[0..4].try_into().ok()?) != TXLOG_MAGIC {
            return None;
        }
        let stored = u32::from_le_bytes(raw[4..8].try_into().ok()?);
        let kind = raw[8];
        let txn = u64::from_le_bytes(raw[9..17].try_into().ok()?);
        let len = u32::from_le_bytes(raw[17..21].try_into().ok()?) as usize;
        if HEADER + len + 8 > raw.len() {
            return None;
        }
        let body_end = HEADER + len + 8;
        if checksum(&raw[8..body_end]) != stored {
            return None;
        }
        let rank = u64::from_le_bytes(raw[body_end - 8..body_end].try_into().ok()?);
        let payload = &raw[HEADER..HEADER + len];
        let record = match kind {
            KIND_COMMIT => TxRecord::Commit { txn },
            KIND_BEGIN => {
                let mut buf = payload;
                if buf.len() < 4 {
                    return None;
                }
                let count = u32::from_le_bytes(buf[0..4].try_into().ok()?);
                buf = &buf[4..];
                let mut participants = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    if buf.len() < 4 {
                        return None;
                    }
                    let node = u32::from_le_bytes(buf[0..4].try_into().ok()?);
                    buf = &buf[4..];
                    let intent = PrepareIntent::decode(&mut buf).ok()?;
                    participants.push(TxParticipant { node, intent });
                }
                TxRecord::Begin { txn, participants }
            }
            _ => return None,
        };
        Some((rank, record))
    }

    /// Reads the whole ring from raw media, in rank (append) order. Used
    /// by crash recovery and by [`TxLog::decisions`]; untimed, like every
    /// recovery read.
    pub fn scan(&self) -> Vec<TxRecord> {
        let mut found: Vec<(u64, TxRecord)> = (0..self.slots())
            .filter_map(|s| self.decode_slot(s))
            .collect();
        found.sort_by_key(|&(rank, _)| rank);
        found.into_iter().map(|(_, r)| r).collect()
    }

    /// Re-seats the append cursor after a crash: the next write goes to
    /// the slot after the highest-ranked surviving record, and ranks
    /// continue past it, so post-recovery appends never reuse a rank.
    pub fn reseat(&mut self) {
        let best = (0..self.slots())
            .filter_map(|s| self.decode_slot(s).map(|(rank, _)| (rank, s)))
            .max_by_key(|&(rank, _)| rank);
        match best {
            None => {
                self.next_slot = 0;
                self.next_rank = 1;
            }
            Some((rank, slot)) => {
                self.next_slot = (slot + 1) % self.slots();
                self.next_rank = rank + 1;
            }
        }
    }

    /// The decision history surviving in the ring, oldest first: each
    /// BEGIN paired with whether its COMMIT exists. The final entry with
    /// `committed: false` (if any) is the at-most-one in-doubt
    /// transaction of a crashed coordinator; earlier uncommitted entries
    /// are transactions that were aborted live.
    pub fn decisions(&self) -> Vec<LoggedDecision> {
        let records = self.scan();
        let mut out: Vec<LoggedDecision> = Vec::new();
        for r in records {
            match r {
                TxRecord::Begin { txn, participants } => out.push(LoggedDecision {
                    txn,
                    committed: false,
                    participants,
                }),
                TxRecord::Commit { txn } => {
                    if let Some(d) = out.iter_mut().rev().find(|d| d.txn == txn) {
                        d.committed = true;
                    }
                }
            }
        }
        out
    }

    /// The at-most-one in-doubt transaction: the latest BEGIN with no
    /// matching COMMIT *and no later BEGIN* (a later BEGIN proves the
    /// earlier transaction finished — the serial coordinator never
    /// overlaps two).
    pub fn in_doubt(&self) -> Option<LoggedDecision> {
        self.decisions().pop().filter(|d| !d.committed)
    }

    /// Whether `txn` has a durable COMMIT record.
    pub fn is_committed(&self, txn: u64) -> bool {
        self.scan()
            .iter()
            .any(|r| matches!(r, TxRecord::Commit { txn: t } if *t == txn))
    }

    /// Raw scan helper used by tests to corrupt or inspect slots.
    pub fn disk_mut(&mut self) -> &mut SimDisk {
        &mut self.disk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bridge_efs::LfsFileId;
    use parsim::{SimConfig, Simulation};

    fn with_log<R: Send + 'static>(
        f: impl FnOnce(&mut Ctx, &mut TxLog) -> R + Send + 'static,
    ) -> R {
        let mut sim = Simulation::new(SimConfig::default());
        let node = sim.add_node("srv");
        sim.block_on(node, "coord", move |ctx| {
            let disk = SimDisk::new(TxLog::geometry(), DiskProfile::instant());
            let mut log = TxLog::format(disk);
            f(ctx, &mut log)
        })
    }

    fn parts(nodes: &[u32]) -> Vec<TxParticipant> {
        nodes
            .iter()
            .map(|&n| TxParticipant {
                node: n,
                intent: PrepareIntent::CreateFiles(vec![LfsFileId(7)]),
            })
            .collect()
    }

    #[test]
    fn begin_commit_round_trips() {
        with_log(|ctx, log| {
            log.begin(ctx, 1, &parts(&[0, 1, 2]));
            log.commit(ctx, 1);
            let recs = log.scan();
            assert_eq!(recs.len(), 2);
            assert_eq!(
                recs[0],
                TxRecord::Begin {
                    txn: 1,
                    participants: parts(&[0, 1, 2])
                }
            );
            assert_eq!(recs[1], TxRecord::Commit { txn: 1 });
            assert!(log.is_committed(1));
            assert!(log.in_doubt().is_none());
        });
    }

    #[test]
    fn begin_without_commit_is_in_doubt() {
        with_log(|ctx, log| {
            log.begin(ctx, 1, &parts(&[0]));
            log.commit(ctx, 1);
            log.begin(ctx, 2, &parts(&[1, 3]));
            let d = log.in_doubt().expect("txn 2 is in doubt");
            assert_eq!(d.txn, 2);
            assert!(!d.committed);
            assert_eq!(d.participants, parts(&[1, 3]));
        });
    }

    #[test]
    fn later_begin_clears_earlier_doubt() {
        // An uncommitted BEGIN followed by a later BEGIN means the earlier
        // transaction aborted live; only the latest can be in doubt.
        with_log(|ctx, log| {
            log.begin(ctx, 1, &parts(&[0]));
            log.begin(ctx, 2, &parts(&[1]));
            log.commit(ctx, 2);
            assert!(log.in_doubt().is_none());
            let ds = log.decisions();
            assert_eq!(ds.len(), 2);
            assert!(!ds[0].committed);
            assert!(ds[1].committed);
        });
    }

    #[test]
    fn ring_wraps_and_reseat_resumes_after_highest_rank() {
        with_log(|ctx, log| {
            // 8 slots; write 6 transactions = 12 records, wrapping.
            for t in 1..=6u64 {
                log.begin(ctx, t, &parts(&[0]));
                log.commit(ctx, t);
            }
            let recs = log.scan();
            assert_eq!(recs.len(), 8, "ring keeps the last 8 records");
            assert_eq!(recs.last(), Some(&TxRecord::Commit { txn: 6 }));
            let slot_before = log.next_slot;
            let rank_before = log.next_rank;
            log.reseat();
            assert_eq!(log.next_slot, slot_before);
            assert_eq!(log.next_rank, rank_before);
        });
    }

    /// What a one-block decision record costs on the Wren profile — the
    /// clock and the device's write count after each forced write — and
    /// which write a `CrashAt` ordinal kills the coordinator on, pinned
    /// from the tree whose decision log framed its own blocks.
    #[test]
    fn one_block_records_keep_their_cost_and_crash_ordinals() {
        use parsim::CrashAt;
        use simdisk::CrashSchedule;
        // Forces BEGIN 1, COMMIT 1, BEGIN 2, COMMIT 2 until the device
        // dies; returns (virtual ns, writes counted) after each force and
        // the records a recovery scan finds.
        fn drive(kill_after: u64) -> (Vec<(u64, u64)>, Vec<TxRecord>) {
            let mut sim = Simulation::new(SimConfig::default());
            let node = sim.add_node("srv");
            sim.block_on(node, "coord", move |ctx| {
                let mut disk = SimDisk::new(TxLog::geometry(), DiskProfile::wren());
                disk.schedule_crashes(CrashSchedule::from_plan(
                    &[CrashAt {
                        disk: 0,
                        after_writes: kill_after,
                        down: SimDuration::from_millis(5),
                    }],
                    0,
                ));
                let mut log = TxLog::format(disk);
                let mut forced = Vec::new();
                for step in 0..4u64 {
                    let txn = 1 + step / 2;
                    if step % 2 == 0 {
                        log.begin(ctx, txn, &parts(&[0, 1, 2]));
                    } else {
                        log.commit(ctx, txn);
                    }
                    forced.push((ctx.now().as_nanos(), log.disk_mut().stats().writes));
                    if log.crash_down().is_some() {
                        break;
                    }
                }
                log.revive();
                log.reseat();
                (forced, log.scan())
            })
        }
        let (clean, records) = drive(0);
        assert_eq!(
            clean,
            [
                (16_000_000, 1),
                (32_000_000, 2),
                (48_000_000, 3),
                (64_000_000, 4)
            ],
            "fault-free: 16 virtual ms and one elementary write a record"
        );
        assert_eq!(records.len(), 4);
        for kill_after in 1..=4usize {
            let (forced, records) = drive(kill_after as u64);
            assert_eq!(forced.len(), kill_after, "dies on that force");
            assert_eq!(forced[..kill_after - 1], clean[..kill_after - 1]);
            assert_eq!(forced[kill_after - 1].1, kill_after as u64);
            assert_eq!(records.len(), kill_after, "the killing write is durable");
        }
    }

    #[test]
    fn corrupt_slot_is_skipped() {
        with_log(|ctx, log| {
            log.begin(ctx, 1, &parts(&[0]));
            log.commit(ctx, 1);
            // Flip a byte in slot 0 (the BEGIN) past the header.
            let raw = log.disk_mut().read_raw(BlockAddr::new(0)).unwrap().to_vec();
            let mut bad = raw.clone();
            bad[HEADER + 1] ^= 0xFF;
            log.disk_mut().write_raw(BlockAddr::new(0), &bad);
            let recs = log.scan();
            assert_eq!(recs, vec![TxRecord::Commit { txn: 1 }]);
        });
    }
}
