//! # The coordinator's decision log
//!
//! Presumed-abort two-phase commit needs exactly one piece of durable
//! coordinator state: the *decision*. This module gives the Bridge server a
//! tiny write-ahead ring on its own node's disk holding two record kinds:
//!
//! * **BEGIN** — written *after* every participant has been sent its
//!   PREPARE, *before* the coordinator treats a transaction as committed.
//!   It names every transaction of the server's commit group and each
//!   one's participants (node index plus the exact [`PrepareIntent`] sent
//!   to it), so recovery can drive phase 2 from the log alone.
//! * **COMMIT** — the commit point of every transaction it names. A
//!   transaction whose BEGIN has a matching COMMIT is committed; one
//!   without is *presumed aborted* — which is the whole trick: aborts cost
//!   no log write, and a participant in doubt that finds no decision
//!   simply rolls back its prepared intent.
//!
//! A record names one transaction or several: `kind · txn · participants`
//! followed by further `txn · participants` entries for a BEGIN,
//! `kind · txn` followed by further txns for a COMMIT. A one-transaction
//! record is therefore byte-identical to the record a serial coordinator
//! wrote. The coordinator runs one commit group at a time, so at any crash
//! point at most one *group* is in doubt: the transactions of the latest
//! BEGIN that no COMMIT names. [`TxLog::scan`] reconstructs the record
//! sequence from raw media after a crash, and [`TxLog::decisions`] exposes
//! the decision history, one entry per transaction, to `pfsck` so the
//! machine-wide pass can resolve orphaned columns the same way a
//! recovering participant would.
//!
//! The log is the frame-and-ring mechanism the per-LFS write-ahead logs
//! run on ([`bridge_efs::ring`]), its records laid out by the same field
//! codec ([`bridge_efs::codec`]); what is this log's own is the two
//! records and the policy. A record is one forced device run of as many
//! frames as it needs — one for a COMMIT and for the one-transaction BEGIN
//! of any machine up to ~240 nodes wide, where a machine-wide op is
//! exactly writes `2k−1` and `2k` and the "Nth elementary write"
//! crash-sweep arithmetic stays exact. The ring *overwrites its oldest
//! record*: a decision is only needed within one coordinator round trip of
//! the COMMIT, so nothing is checkpointed. The one rule on top is
//! [`TxLog::admit`]. A crash inside a multi-frame BEGIN leaves a torn
//! record the scan drops — no BEGIN at all, which presumed abort reads as
//! it reads everything else it cannot find. The ring's frames, not the
//! codec, catch a record cut short: a BEGIN cut between two entries would
//! decode as a shorter group, and its frames never let it get that far.

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
    /// Every participant of every transaction named has been sent its
    /// PREPARE; the decisions are still pending.
    Begin {
        /// Each transaction's id with its participants and their
        /// prepared intents, in the order the group ran them.
        txns: Vec<(u64, Vec<TxParticipant>)>,
    },
    /// The commit point for every transaction named.
    Commit {
        /// The committed transactions' ids.
        txns: Vec<u64>,
    },
}

/// The outcome of one logged transaction, for `pfsck`'s machine-wide pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedDecision {
    /// Transaction id.
    pub txn: u64,
    /// `true` if a COMMIT record names the transaction after its BEGIN;
    /// `false` means it is presumed aborted.
    pub committed: bool,
    /// The participants named by the BEGIN record.
    pub participants: Vec<TxParticipant>,
}

/// A BEGIN's layout: its kind, then each transaction and its
/// participants, borrowed (the coordinator logs the participants it is
/// about to drive, without cloning them).
fn put_begin(w: &mut Writer<'_>, group: &[(u64, &[TxParticipant])]) {
    w.put(&KIND_BEGIN);
    for (txn, participants) in group {
        w.put(txn).list(participants);
    }
}

/// A COMMIT's layout: its kind, then each committed transaction.
fn put_commit(w: &mut Writer<'_>, txns: &[u64]) {
    w.put(&KIND_COMMIT);
    for txn in txns {
        w.put(txn);
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

/// A record's entries: one, then more until the record ends.
fn entries<T>(
    r: &mut Reader<'_>,
    mut entry: impl FnMut(&mut Reader<'_>) -> Result<T, EfsError>,
) -> Result<Vec<T>, EfsError> {
    let mut out = vec![entry(r)?];
    while !r.is_empty() {
        out.push(entry(r)?);
    }
    Ok(out)
}

impl TxRecord {
    /// Inverse of [`put_begin`] and [`put_commit`].
    fn decode(payload: &[u8]) -> Result<TxRecord, EfsError> {
        let mut r = Reader::new(payload, "decision record");
        match r.get::<u8>()? {
            KIND_BEGIN => {
                entries(&mut r, |r| Ok((r.get()?, r.get()?))).map(|txns| TxRecord::Begin { txns })
            }
            KIND_COMMIT => entries(&mut r, |r| r.get()).map(|txns| TxRecord::Commit { txns }),
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
    /// on an ordinary machine, which is more than the one in-doubt group
    /// presumed abort ever needs, while keeping the server-kill crash
    /// sweep short. The blocks are four kilobytes (not the data disks'
    /// one) because a redundant write's BEGIN carries the full
    /// [`PrepareIntent::WriteBlock`] payload for each participant: redo
    /// after a coordinator crash must be able to re-drive the commit to a
    /// participant whose own recovery already presumed-abort-rolled-back
    /// its prepare.
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
    fn append(&mut self, ctx: &mut Ctx, payload: &[u8]) {
        let _ = ring::force(ctx, &mut self.disk, &self.ring.frame(payload));
    }

    /// The ring rule: the BEGIN of a group whose transactions have
    /// `group`'s participants must fit in the ring beside the COMMIT that
    /// decides them all, or that COMMIT would overwrite the head of the
    /// BEGIN it decides. Checked before any PREPARE is sent, so a refusal
    /// leaves every participant untouched; the coordinator admits the
    /// longest prefix of its group that fits and runs the rest after it.
    ///
    /// # Errors
    ///
    /// [`BridgeError::TxnTooLarge`] with the frames the BEGIN needs.
    pub fn admit(&self, group: &[&[TxParticipant]]) -> Result<(), BridgeError> {
        let begun: Vec<(u64, &[TxParticipant])> = group.iter().map(|&p| (0, p)).collect();
        let begin = Writer::measure(|w| put_begin(w, &begun));
        let commit = Writer::measure(|w| put_commit(w, &vec![0; group.len()]));
        let frames = self.ring.frames_for(begin) as u32;
        let ring = self.ring.slots();
        if frames + self.ring.frames_for(commit) as u32 <= ring {
            Ok(())
        } else {
            Err(BridgeError::TxnTooLarge { frames, ring })
        }
    }

    /// Logs that every participant of each transaction of `group` has
    /// been sent its PREPARE. Check [`TxLog::crash_down`] afterwards —
    /// any of the record's frames may be the write the crash schedule
    /// kills the server on.
    pub fn begin(&mut self, ctx: &mut Ctx, group: &[(u64, &[TxParticipant])]) {
        self.append(ctx, &Writer::encode(|w| put_begin(w, group)));
    }

    /// Logs the commit point for every transaction of `txns`. Check
    /// [`TxLog::crash_down`] afterwards, exactly as for [`TxLog::begin`].
    pub fn commit(&mut self, ctx: &mut Ctx, txns: &[u64]) {
        self.append(ctx, &Writer::encode(|w| put_commit(w, txns)));
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
    /// transaction a BEGIN names, paired with whether a COMMIT names it.
    /// The trailing uncommitted entries of the latest BEGIN (if any) are
    /// the at-most-one in-doubt group of a crashed coordinator
    /// ([`TxLog::in_doubt`]); other uncommitted entries are transactions
    /// that were aborted live.
    pub fn decisions(&self) -> Vec<LoggedDecision> {
        let mut out: Vec<LoggedDecision> = Vec::new();
        for r in self.scan() {
            match r {
                TxRecord::Begin { txns } => {
                    out.extend(txns.into_iter().map(|(txn, participants)| LoggedDecision {
                        txn,
                        committed: false,
                        participants,
                    }))
                }
                TxRecord::Commit { txns } => {
                    for txn in txns {
                        if let Some(d) = out.iter_mut().rev().find(|d| d.txn == txn) {
                            d.committed = true;
                        }
                    }
                }
            }
        }
        out
    }

    /// The at-most-one in-doubt group: the transactions of the latest
    /// BEGIN that no later COMMIT names. Only the latest BEGIN can hold
    /// any — a later BEGIN proves the earlier group was decided, since
    /// the coordinator never overlaps two. Empty when nothing is in
    /// doubt.
    pub fn in_doubt(&self) -> Vec<LoggedDecision> {
        let mut records = self.scan();
        let Some(at) = records
            .iter()
            .rposition(|r| matches!(r, TxRecord::Begin { .. }))
        else {
            return Vec::new();
        };
        let committed: Vec<u64> = records[at + 1..]
            .iter()
            .flat_map(|r| match r {
                TxRecord::Commit { txns } => txns.as_slice(),
                TxRecord::Begin { .. } => &[],
            })
            .copied()
            .collect();
        let TxRecord::Begin { txns } = records.swap_remove(at) else {
            unreachable!("found as a BEGIN")
        };
        txns.into_iter()
            .filter(|(txn, _)| !committed.contains(txn))
            .map(|(txn, participants)| LoggedDecision {
                txn,
                committed: false,
                participants,
            })
            .collect()
    }

    /// Whether `txn` has a durable COMMIT record.
    pub fn is_committed(&self, txn: u64) -> bool {
        self.scan()
            .iter()
            .any(|r| matches!(r, TxRecord::Commit { txns } if txns.contains(&txn)))
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

    fn with_log<R: 'static>(f: impl FnOnce(&mut Ctx, &mut TxLog) -> R + 'static) -> R {
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
            log.begin(ctx, &[(1, &parts(&[0, 1, 2]))]);
            log.commit(ctx, &[1]);
            let recs = log.scan();
            assert_eq!(recs.len(), 2);
            assert_eq!(
                recs[0],
                TxRecord::Begin {
                    txns: vec![(1, parts(&[0, 1, 2]))]
                }
            );
            assert_eq!(recs[1], TxRecord::Commit { txns: vec![1] });
            assert!(log.is_committed(1));
            assert!(log.in_doubt().is_empty());
        });
    }

    #[test]
    fn begin_without_commit_is_in_doubt() {
        with_log(|ctx, log| {
            log.begin(ctx, &[(1, &parts(&[0]))]);
            log.commit(ctx, &[1]);
            log.begin(ctx, &[(2, &parts(&[1, 3]))]);
            let [d] = &log.in_doubt()[..] else {
                panic!("txn 2 alone is in doubt")
            };
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
            log.begin(ctx, &[(1, &parts(&[0]))]);
            log.begin(ctx, &[(2, &parts(&[1]))]);
            log.commit(ctx, &[2]);
            assert!(log.in_doubt().is_empty());
            let ds = log.decisions();
            assert_eq!(ds.len(), 2);
            assert!(!ds[0].committed);
            assert!(ds[1].committed);
        });
    }

    /// A group's records extend the one-transaction layout: the first
    /// entry of a group BEGIN or COMMIT is the one-transaction record,
    /// byte for byte, and the rest follow it.
    #[test]
    fn group_records_extend_the_one_transaction_layout() {
        let (a, b) = (parts(&[0, 1]), parts(&[2]));
        let one = Writer::encode(|w| put_begin(w, &[(5, &a)]));
        let two = Writer::encode(|w| put_begin(w, &[(5, &a), (6, &b)]));
        assert_eq!(two[..one.len()], one[..]);
        assert_eq!(
            TxRecord::decode(&two),
            Ok(TxRecord::Begin {
                txns: vec![(5, a), (6, b)]
            })
        );
        let commit = Writer::encode(|w| put_commit(w, &[5, 6]));
        assert_eq!(commit[..9], Writer::encode(|w| put_commit(w, &[5]))[..]);
        assert_eq!(
            TxRecord::decode(&commit),
            Ok(TxRecord::Commit { txns: vec![5, 6] })
        );
    }

    /// Only the latest BEGIN's transactions can be in doubt, and of those
    /// only the ones no COMMIT names: a group whose COMMIT named two of
    /// three leaves the third.
    #[test]
    fn a_partly_committed_group_leaves_the_rest_in_doubt() {
        with_log(|ctx, log| {
            log.begin(ctx, &[(1, &parts(&[0]))]);
            let (a, b, c) = (parts(&[0]), parts(&[1, 2]), parts(&[3]));
            log.begin(ctx, &[(2, &a), (3, &b), (4, &c)]);
            let doubted = |log: &TxLog| log.in_doubt().iter().map(|d| d.txn).collect::<Vec<_>>();
            assert_eq!(doubted(log), [2, 3, 4], "txn 1 was decided live");
            log.commit(ctx, &[2, 4]);
            assert_eq!(doubted(log), [3]);
            assert_eq!(log.in_doubt()[0].participants, b);
            assert!(log.is_committed(4) && !log.is_committed(3));
            let ds = log.decisions();
            let outcomes: Vec<(u64, bool)> = ds.iter().map(|d| (d.txn, d.committed)).collect();
            assert_eq!(outcomes, [(1, false), (2, true), (3, false), (4, true)]);
        });
    }

    /// The ring rule counts a whole group: its BEGIN plus the COMMIT that
    /// decides it must fit in the eight slots. Two 1000-byte block writes
    /// a transaction make about two transactions a frame.
    #[test]
    fn admit_sizes_a_groups_begin_beside_its_commit() {
        with_log(|_, log| {
            let write = |node| TxParticipant {
                node,
                intent: PrepareIntent::WriteBlock {
                    file: LfsFileId(1),
                    block_no: 0,
                    payload: bytes::Bytes::from(vec![0; 1000]),
                },
            };
            let txn = [write(0), write(1)];
            // 13 transactions: a seven-frame BEGIN and a one-frame COMMIT.
            assert_eq!(log.admit(&[&txn[..]; 13]), Ok(()));
            assert_eq!(
                log.admit(&[&txn[..]; 14]),
                Err(BridgeError::TxnTooLarge { frames: 8, ring: 8 })
            );
        });
    }

    #[test]
    fn ring_wraps_and_reseat_resumes_after_highest_rank() {
        with_log(|ctx, log| {
            // 8 slots; write 6 transactions = 12 records, wrapping.
            for t in 1..=6u64 {
                log.begin(ctx, &[(t, &parts(&[0]))]);
                log.commit(ctx, &[t]);
            }
            let recs = log.scan();
            assert_eq!(recs.len(), 8, "ring keeps the last 8 records");
            assert_eq!(recs.last(), Some(&TxRecord::Commit { txns: vec![6] }));
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
                        log.begin(ctx, &[(txn, &parts(&[0, 1, 2]))]);
                    } else {
                        log.commit(ctx, &[txn]);
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
        let begin = Writer::encode(|w| put_begin(w, &[(77, &participants)]));
        let commit = Writer::encode(|w| put_commit(w, &[77]));
        assert_eq!(
            TxRecord::decode(&begin),
            Ok(TxRecord::Begin {
                txns: vec![(77, participants)]
            })
        );
        assert_eq!(
            TxRecord::decode(&commit),
            Ok(TxRecord::Commit { txns: vec![77] })
        );
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
            log.begin(ctx, &[(1, &parts(&[0]))]);
            log.commit(ctx, &[1]);
            // Flip a byte in slot 0 (the BEGIN) past the header.
            let raw = log.disk_mut().read_raw(BlockAddr::new(0)).unwrap().to_vec();
            let mut bad = raw.clone();
            bad[ring::FRAME_HEADER + 1] ^= 0xFF;
            log.disk_mut().write_raw(BlockAddr::new(0), bad.into());
            let recs = log.scan();
            assert_eq!(recs, vec![TxRecord::Commit { txns: vec![1] }]);
        });
    }
}
