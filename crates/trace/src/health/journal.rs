//! The event journal: typed, virtual-time-stamped health events in a
//! bounded ring.

use parsim::SimTime;
use std::collections::VecDeque;

/// A typed entry in the machine's event journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthEvent {
    /// An LFS's medium died for good (`DiskLost` fired).
    DiskLost {
        /// The instance whose medium is gone.
        lfs: u32,
    },
    /// A spare medium racked into the instance.
    SpareInstalled {
        /// The instance that got the spare.
        lfs: u32,
    },
    /// The node crashed (fail-stop) and came back after recovery.
    NodeCrash {
        /// The instance that crashed.
        lfs: u32,
        /// How long the outage lasted.
        down_nanos: u64,
    },
    /// First read that had to reconstruct a column of `lfs` on the fly —
    /// the onset of degraded service.
    DegradedOnset {
        /// The lost column's instance.
        lfs: u32,
        /// The interleaved file whose read went degraded.
        file: u64,
    },
    /// An online rebuild started walking a file.
    RebuildStart {
        /// The file being rebuilt.
        file: u64,
        /// Blocks the rebuild will walk.
        total: u64,
    },
    /// A rebuild chunk completed.
    RebuildChunk {
        /// The file being rebuilt.
        file: u64,
        /// First block of the chunk.
        chunk: u64,
        /// Blocks walked so far.
        done: u64,
        /// Blocks the rebuild will walk.
        total: u64,
    },
    /// A file's rebuild completed.
    RebuildDone {
        /// The rebuilt file.
        file: u64,
        /// Blocks walked.
        total: u64,
    },
    /// Recovery found a transaction with a logged BEGIN and no decision.
    TxnInDoubt {
        /// The transaction id.
        txn: u64,
    },
    /// An in-doubt transaction was resolved (presumed abort or replayed
    /// commit).
    TxnResolved {
        /// The transaction id.
        txn: u64,
        /// Whether the resolution committed it.
        committed: bool,
    },
}

impl HealthEvent {
    /// Stable event name (journal rendering and JSON export key off it).
    pub fn name(&self) -> &'static str {
        match self {
            HealthEvent::DiskLost { .. } => "disk.lost",
            HealthEvent::SpareInstalled { .. } => "disk.spare_installed",
            HealthEvent::NodeCrash { .. } => "node.crash",
            HealthEvent::DegradedOnset { .. } => "redundancy.degraded_onset",
            HealthEvent::RebuildStart { .. } => "rebuild.start",
            HealthEvent::RebuildChunk { .. } => "rebuild.chunk",
            HealthEvent::RebuildDone { .. } => "rebuild.done",
            HealthEvent::TxnInDoubt { .. } => "2pc.in_doubt",
            HealthEvent::TxnResolved { .. } => "2pc.resolved",
        }
    }

    /// The event's numeric arguments, as stable `(key, value)` pairs.
    pub fn args(&self) -> Vec<(&'static str, u64)> {
        match *self {
            HealthEvent::DiskLost { lfs } | HealthEvent::SpareInstalled { lfs } => {
                vec![("lfs", u64::from(lfs))]
            }
            HealthEvent::NodeCrash { lfs, down_nanos } => {
                vec![("lfs", u64::from(lfs)), ("down_nanos", down_nanos)]
            }
            HealthEvent::DegradedOnset { lfs, file } => {
                vec![("lfs", u64::from(lfs)), ("file", file)]
            }
            HealthEvent::RebuildStart { file, total } => {
                vec![("file", file), ("total", total)]
            }
            HealthEvent::RebuildChunk {
                file,
                chunk,
                done,
                total,
            } => vec![
                ("file", file),
                ("chunk", chunk),
                ("done", done),
                ("total", total),
            ],
            HealthEvent::RebuildDone { file, total } => {
                vec![("file", file), ("total", total)]
            }
            HealthEvent::TxnInDoubt { txn } => vec![("txn", txn)],
            HealthEvent::TxnResolved { txn, committed } => {
                vec![("txn", txn), ("committed", u64::from(committed))]
            }
        }
    }
}

/// One journal entry: a typed event stamped with virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    /// Virtual time the event was recorded.
    pub at: SimTime,
    /// The event.
    pub event: HealthEvent,
}

/// Default journal capacity: old entries fall off (and are counted as
/// dropped) once the ring holds this many.
pub const JOURNAL_CAPACITY: usize = 256;

/// The bounded ring behind the registry's journal lock, with the count
/// of entries that fell off it.
#[derive(Debug)]
pub(super) struct EventJournal {
    ring: VecDeque<JournalEntry>,
    capacity: usize,
    dropped: u64,
}

impl EventJournal {
    pub(super) fn new(capacity: usize) -> Self {
        EventJournal {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    pub(super) fn record(&mut self, at: SimTime, event: HealthEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(JournalEntry { at, event });
    }

    /// The ring's contents, oldest first, and the dropped count.
    pub(super) fn entries(&self) -> (Vec<JournalEntry>, u64) {
        (self.ring.iter().copied().collect(), self.dropped)
    }
}
