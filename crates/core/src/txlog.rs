//! # The coordinator's decision log
//!
//! Presumed-abort two-phase commit needs exactly one piece of durable
//! coordinator state: the *decision*. This module gives the Bridge server a
//! tiny write-ahead ring on its own node's disk holding two record kinds:
//!
//! * **BEGIN** — written *after* every participant has been sent its
//!   PREPARE, *before* the coordinator treats the transaction as
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
//! The log is the frame-and-ring mechanism the per-LFS write-ahead logs
//! run on ([`bridge_efs::ring`]), its records laid out by the same field
//! codec ([`bridge_efs::codec`]); what is this log's own is the two
//! records and the policy. A record is one forced device run of as many
//! frames as it needs — one for a COMMIT and for the BEGIN of any machine
//! up to ~240 nodes wide, where a machine-wide op is exactly writes
//! `2k−1` and `2k` and the "Nth elementary write" crash-sweep arithmetic
//! stays exact. The ring *overwrites its oldest record*: a decision is
//! only needed within one coordinator round trip of the COMMIT, so
//! nothing is checkpointed. The one rule on top is [`TxLog::admit`]. A
//! crash inside a multi-frame BEGIN leaves a torn record the scan drops —
//! no BEGIN at all, which presumed abort reads as it reads everything
//! else it cannot find.

use crate::error::BridgeError;
use bridge_efs::codec::{Reader, Wire, Writer};
use bridge_efs::ring::{self, Ring};
use bridge_efs::{EfsError, PrepareIntent};
use parsim::{Ctx, SimDuration};
use simdisk::{BlockAddr, DiskGeometry, SimDisk};

/// Magic stamped on every decision-log block.
pub const TXLOG_MAGIC: u32 = 0x7C10_B21D;

const KIND_BEGIN: u8 = 1;
const KIND_COMMIT: u8 = 2;

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

/// A record's layout: its kind, its transaction and — for a BEGIN — the
/// participants, borrowed (the coordinator logs the participants it is
/// about to drive, without cloning them).
fn put_record(w: &mut Writer<'_>, kind: u8, txn: u64, participants: &[TxParticipant]) {
    w.put(&kind).put(&txn);
    if kind == KIND_BEGIN {
        w.list(participants);
    }
}

impl Wire for TxParticipant {
    fn put(&self, w: &mut Writer<'_>) {
        w.put(&self.node).put(&self.intent);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, EfsError> {
        Ok(TxParticipant {
            node: r.get()?,
            intent: r.get()?,
        })
    }
}

impl TxRecord {
    /// Inverse of [`put_record`].
    fn decode(payload: &[u8]) -> Result<TxRecord, EfsError> {
        let mut r = Reader::new(payload, "decision record");
        let (kind, txn): (u8, u64) = (r.get()?, r.get()?);
        match kind {
            KIND_COMMIT => Ok(TxRecord::Commit { txn }),
            KIND_BEGIN => r
                .get()
                .map(|participants| TxRecord::Begin { txn, participants }),
            k => Err(r.corrupt(format_args!("unknown kind {k}"))),
        }
    }
}

/// The coordinator's presumed-abort decision log: a frame ring over the
/// whole of a small dedicated [`SimDisk`] colocated with the Bridge
/// server, overwriting its oldest record.
#[derive(Debug)]
pub struct TxLog {
    disk: SimDisk,
    ring: Ring,
}

impl TxLog {
    /// The geometry of the coordinator's log device: eight four-kilobyte
    /// blocks on a single track — two machine-wide mutations of history
    /// on an ordinary machine, which is more than the one in-doubt
    /// transaction presumed abort ever needs, while keeping the
    /// server-kill crash sweep short. The blocks are four kilobytes (not
    /// the data disks' one) because a redundant write's BEGIN carries the
    /// full [`PrepareIntent::WriteBlock`] payload for each participant:
    /// redo after a coordinator crash must be able to re-drive the commit
    /// to a participant whose own recovery already presumed-abort-rolled-
    /// back its prepare.
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
        let ring = Ring::new(TXLOG_MAGIC, 0, disk.capacity_blocks(), disk.geometry());
        TxLog { disk, ring }
    }

    /// Frames one record into the next ring slots and forces it as one
    /// device run. Errors from the device are deliberately *not*
    /// surfaced: under a crash kill the triggering write is durable
    /// before the disk goes dead, so the caller must consult
    /// [`TxLog::crash_down`] — not the write result — to learn whether
    /// the server survived.
    fn append(&mut self, ctx: &mut Ctx, kind: u8, txn: u64, participants: &[TxParticipant]) {
        let payload = Writer::encode(|w| put_record(w, kind, txn, participants));
        let _ = ring::force(ctx, &mut self.disk, &self.ring.frame(&payload));
    }

    /// The breadth rule: a BEGIN naming `participants` must fit in the
    /// ring beside its own COMMIT (one frame), or the COMMIT would
    /// overwrite the head of the BEGIN it decides. Checked before any
    /// PREPARE is sent, so a refusal leaves every participant untouched.
    ///
    /// # Errors
    ///
    /// [`BridgeError::TxnTooLarge`] with the frames the BEGIN needs.
    pub fn admit(&self, participants: &[TxParticipant]) -> Result<(), BridgeError> {
        let len = Writer::measure(|w| put_record(w, KIND_BEGIN, 0, participants));
        let (frames, ring) = (self.ring.frames_for(len) as u32, self.ring.slots());
        if frames < ring {
            Ok(())
        } else {
            Err(BridgeError::TxnTooLarge { frames, ring })
        }
    }

    /// Logs that every participant of `txn` has been sent its PREPARE.
    /// Check [`TxLog::crash_down`] afterwards — any of the record's
    /// frames may be the write the crash schedule kills the server on.
    pub fn begin(&mut self, ctx: &mut Ctx, txn: u64, participants: &[TxParticipant]) {
        self.append(ctx, KIND_BEGIN, txn, participants);
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

    /// Reads the whole ring from raw media, in append order. Used by
    /// crash recovery and by [`TxLog::decisions`]; untimed, like every
    /// recovery read. A torn or corrupt record is dropped.
    pub fn scan(&self) -> Vec<TxRecord> {
        let records = self.ring.scan(&self.disk).into_values();
        records
            .filter_map(|payload| TxRecord::decode(&payload).ok())
            .collect()
    }

    /// Re-seats the append cursor after a crash: the next record goes
    /// after the newest surviving frame and is numbered past it.
    pub fn reseat(&mut self) {
        self.ring.resume(&self.disk);
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
    use simdisk::DiskProfile;

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
            let before = log.ring.clone();
            log.reseat();
            assert_eq!(log.ring, before, "same slot, same stamp");
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
    fn a_record_truncated_at_any_byte_is_corrupt() {
        let mut participants = parts(&[0, 5]);
        participants[1].intent = PrepareIntent::WriteBlock {
            file: LfsFileId(9),
            block_no: 2,
            payload: bytes::Bytes::from_static(b"column"),
        };
        let begin = Writer::encode(|w| put_record(w, KIND_BEGIN, 77, &participants));
        let commit = Writer::encode(|w| put_record(w, KIND_COMMIT, 77, &[]));
        let txn = 77;
        assert_eq!(
            TxRecord::decode(&begin),
            Ok(TxRecord::Begin { txn, participants })
        );
        assert_eq!(TxRecord::decode(&commit), Ok(TxRecord::Commit { txn }));
        for bytes in [begin, commit] {
            for cut in 0..bytes.len() {
                let read = TxRecord::decode(&bytes[..cut]);
                assert!(matches!(read, Err(EfsError::Corrupt(_))), "cut at {cut}");
            }
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
            bad[ring::FRAME_HEADER + 1] ^= 0xFF;
            log.disk_mut().write_raw(BlockAddr::new(0), &bad);
            let recs = log.scan();
            assert_eq!(recs, vec![TxRecord::Commit { txn: 1 }]);
        });
    }
}
