//! Live machine health telemetry.
//!
//! Everything the trace layer (PR 2) and the causal profiler (PR 5) can
//! tell you is post-hoc: the run has to end before the trace exports. A
//! production storage machine is operated from *live* signals, so this
//! module defines the always-on telemetry shared by every layer of the
//! running machine:
//!
//! * [`TelemetryRegistry`] — lock-free counters and gauges (relaxed
//!   atomics) updated in place by the simulated Bridge Server, the LFS
//!   schedulers, and the disks. Updates are observation-only: arming the
//!   registry never changes virtual time, scheduling, or
//!   [`parsim::RunStats`] — the same contract the tracer keeps.
//! * [`HealthSnapshot`] — the point-in-time view assembled from the
//!   registry. The in-band `GetHealth` control RPC returns one, and the
//!   out-of-band virtual-time sampler (see `parsim`'s sampling hook)
//!   captures one per interval without sending a single simulated
//!   message.
//! * The **event journal** — a bounded ring of typed [`HealthEvent`]s
//!   (media loss, spare rack-in, degraded-read onset, rebuild
//!   start/chunk/done, in-doubt transaction resolution) stamped with
//!   virtual time.
//! * The **watchdog** — [`WatchdogConfig`] rules evaluated over the live
//!   feed at snapshot time; violations surface as [`Alert`]s inside the
//!   snapshot, so a dashboard or operator script sees a degraded machine
//!   the moment it polls, not after the run.
//!
//! The end-of-run snapshot reconciles *exactly* (zero slack) against
//! `simdisk::DiskStats` and `parsim::RunStats`: disk counters are stored
//! from the same code paths that maintain `DiskStats`, and the sampler's
//! final fire hands the kernel's own counters over verbatim.

use crate::json::{self, Json};
use crate::metrics::Histogram;
use parsim::{RunStats, SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

fn get(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

fn put(c: &AtomicU64, v: u64) {
    c.store(v, Ordering::Relaxed);
}

fn add(c: &AtomicU64, v: u64) {
    c.fetch_add(v, Ordering::Relaxed);
}

fn peak(c: &AtomicU64, v: u64) {
    c.fetch_max(v, Ordering::Relaxed);
}

/// Live per-disk gauges, mirrored from `simdisk::DiskStats` by the disk
/// model itself (same increment sites), so the final values match the
/// device's own counters bit for bit.
#[derive(Debug, Default)]
pub struct DiskCounters {
    reads: AtomicU64,
    writes: AtomicU64,
    buffer_hits: AtomicU64,
    track_loads: AtomicU64,
    head_travel: AtomicU64,
    transient_faults: AtomicU64,
    busy_nanos: AtomicU64,
    lost: AtomicBool,
}

impl DiskCounters {
    /// Stores the device's current counters (field-for-field from its
    /// `DiskStats`). Idempotent stores, not increments, so the mirror can
    /// never drift from the device.
    #[allow(clippy::too_many_arguments)]
    pub fn store_stats(
        &self,
        reads: u64,
        writes: u64,
        buffer_hits: u64,
        track_loads: u64,
        head_travel: u64,
        transient_faults: u64,
        busy_nanos: u64,
    ) {
        put(&self.reads, reads);
        put(&self.writes, writes);
        put(&self.buffer_hits, buffer_hits);
        put(&self.track_loads, track_loads);
        put(&self.head_travel, head_travel);
        put(&self.transient_faults, transient_faults);
        put(&self.busy_nanos, busy_nanos);
    }

    /// Flags the medium as permanently lost (or racked back in).
    pub fn set_lost(&self, lost: bool) {
        self.lost.store(lost, Ordering::Relaxed);
    }

    /// The current point-in-time view.
    pub fn snapshot(&self) -> DiskTelemetry {
        DiskTelemetry {
            reads: get(&self.reads),
            writes: get(&self.writes),
            buffer_hits: get(&self.buffer_hits),
            track_loads: get(&self.track_loads),
            head_travel: get(&self.head_travel),
            transient_faults: get(&self.transient_faults),
            busy_nanos: get(&self.busy_nanos),
            lost: self.lost.load(Ordering::Relaxed),
        }
    }
}

/// File-system-level gauges one LFS publishes after every service batch
/// (copied from the `Efs` accessors, so they can never drift from it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsGauges {
    /// Whether the write-ahead log is armed.
    pub wal_enabled: bool,
    /// Intent records appended to the WAL ring so far.
    pub wal_commits: u64,
    /// Commit records written so far.
    pub wal_checkpoints: u64,
    /// Live (un-checkpointed) blocks in the WAL ring right now.
    pub wal_ring_used: u64,
    /// The WAL ring's capacity in blocks (0 when disabled).
    pub wal_ring_capacity: u64,
    /// Group-commit width (mutations drained per commit record).
    pub group_commit_width: u64,
    /// Free data blocks on the instance.
    pub free_blocks: u64,
    /// The medium is permanently gone (no spare racked in yet).
    pub media_lost: bool,
    /// The node is inside a crash outage window.
    pub crash_down: bool,
}

/// Live gauges for one LFS instance: its disk mirror, file-system
/// gauges, and the request scheduler's queue/batch/service counters.
#[derive(Debug)]
pub struct LfsCounters {
    disk: Arc<DiskCounters>,
    wal_enabled: AtomicBool,
    wal_commits: AtomicU64,
    wal_checkpoints: AtomicU64,
    wal_ring_used: AtomicU64,
    wal_ring_capacity: AtomicU64,
    group_commit_width: AtomicU64,
    free_blocks: AtomicU64,
    media_lost: AtomicBool,
    crash_down: AtomicBool,
    ops_served: AtomicU64,
    batches: AtomicU64,
    batched_ops: AtomicU64,
    batch_max: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_peak: AtomicU64,
    queue_waits: AtomicU64,
    queue_wait_nanos: AtomicU64,
    service: Mutex<Histogram>,
}

impl Default for LfsCounters {
    fn default() -> Self {
        LfsCounters {
            disk: Arc::new(DiskCounters::default()),
            wal_enabled: AtomicBool::new(false),
            wal_commits: AtomicU64::new(0),
            wal_checkpoints: AtomicU64::new(0),
            wal_ring_used: AtomicU64::new(0),
            wal_ring_capacity: AtomicU64::new(0),
            group_commit_width: AtomicU64::new(0),
            free_blocks: AtomicU64::new(0),
            media_lost: AtomicBool::new(false),
            crash_down: AtomicBool::new(false),
            ops_served: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_ops: AtomicU64::new(0),
            batch_max: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_depth_peak: AtomicU64::new(0),
            queue_waits: AtomicU64::new(0),
            queue_wait_nanos: AtomicU64::new(0),
            service: Mutex::new(Histogram::default()),
        }
    }
}

impl LfsCounters {
    /// The disk mirror this instance's device stores into.
    pub fn disk(&self) -> &Arc<DiskCounters> {
        &self.disk
    }

    /// Notes one drained service batch of `ops` operations.
    pub fn note_batch(&self, ops: u64) {
        add(&self.batches, 1);
        add(&self.batched_ops, ops);
        peak(&self.batch_max, ops);
    }

    /// Notes one request leaving the queue after `wait_nanos` in it, with
    /// `depth` requests pending at service start (itself included).
    pub fn note_queue_wait(&self, wait_nanos: u64, depth: u64) {
        add(&self.queue_waits, 1);
        add(&self.queue_wait_nanos, wait_nanos);
        peak(&self.queue_depth_peak, depth);
    }

    /// Publishes the queue's current depth.
    pub fn set_queue_depth(&self, depth: u64) {
        put(&self.queue_depth, depth);
        peak(&self.queue_depth_peak, depth);
    }

    /// Notes one serviced operation taking `service_nanos` of virtual
    /// time (queue wait excluded).
    pub fn note_served(&self, service_nanos: u64) {
        add(&self.ops_served, 1);
        self.service
            .lock()
            .expect("service histogram poisoned")
            .record(service_nanos);
    }

    /// Flushes one drained service batch's per-op measurements in a
    /// single registry transaction: `served[i]` is operation `i`'s
    /// service time, `wait_nanos` the batch's summed queue wait,
    /// `depth_peak` the highest queue depth seen at a service start,
    /// and `queue_depth` the post-batch depth. The armed hot path: one
    /// histogram lock and a handful of atomic stores per *batch*, so
    /// per-op cost stays at plain local arithmetic in the caller.
    pub fn flush_batch(&self, served: &[u64], wait_nanos: u64, depth_peak: u64, queue_depth: u64) {
        if !served.is_empty() {
            let n = served.len() as u64;
            add(&self.ops_served, n);
            add(&self.batches, 1);
            add(&self.batched_ops, n);
            peak(&self.batch_max, n);
            add(&self.queue_waits, n);
            add(&self.queue_wait_nanos, wait_nanos);
            peak(&self.queue_depth_peak, depth_peak);
            let mut h = self.service.lock().expect("service histogram poisoned");
            for &ns in served {
                h.record(ns);
            }
        }
        put(&self.queue_depth, queue_depth);
        peak(&self.queue_depth_peak, queue_depth);
    }

    /// Publishes the file-system gauges (after a batch, a crash recovery,
    /// or a spare install).
    pub fn publish_fs(&self, g: FsGauges) {
        self.wal_enabled.store(g.wal_enabled, Ordering::Relaxed);
        put(&self.wal_commits, g.wal_commits);
        put(&self.wal_checkpoints, g.wal_checkpoints);
        put(&self.wal_ring_used, g.wal_ring_used);
        put(&self.wal_ring_capacity, g.wal_ring_capacity);
        put(&self.group_commit_width, g.group_commit_width);
        put(&self.free_blocks, g.free_blocks);
        self.media_lost.store(g.media_lost, Ordering::Relaxed);
        self.crash_down.store(g.crash_down, Ordering::Relaxed);
        self.disk.set_lost(g.media_lost);
    }

    /// The current point-in-time view.
    pub fn snapshot(&self) -> LfsTelemetry {
        LfsTelemetry {
            disk: self.disk.snapshot(),
            wal_enabled: self.wal_enabled.load(Ordering::Relaxed),
            wal_commits: get(&self.wal_commits),
            wal_checkpoints: get(&self.wal_checkpoints),
            wal_ring_used: get(&self.wal_ring_used),
            wal_ring_capacity: get(&self.wal_ring_capacity),
            group_commit_width: get(&self.group_commit_width),
            free_blocks: get(&self.free_blocks),
            media_lost: self.media_lost.load(Ordering::Relaxed),
            crash_down: self.crash_down.load(Ordering::Relaxed),
            ops_served: get(&self.ops_served),
            batches: get(&self.batches),
            batched_ops: get(&self.batched_ops),
            batch_max: get(&self.batch_max),
            queue_depth: get(&self.queue_depth),
            queue_depth_peak: get(&self.queue_depth_peak),
            queue_waits: get(&self.queue_waits),
            queue_wait_nanos: get(&self.queue_wait_nanos),
            service: self
                .service
                .lock()
                .expect("service histogram poisoned")
                .clone(),
        }
    }
}

/// Live gauges for the Bridge Server: request, two-phase-commit, dedup,
/// redundancy, and rebuild counters.
#[derive(Debug, Default)]
pub struct ServerCounters {
    ops: AtomicU64,
    replays: AtomicU64,
    dedup_occupancy: AtomicU64,
    dedup_peak: AtomicU64,
    txns_begun: AtomicU64,
    txns_committed: AtomicU64,
    txns_aborted: AtomicU64,
    txns_in_doubt: AtomicU64,
    degraded_reads: AtomicU64,
    lfs_resends: AtomicU64,
    rebuilds_started: AtomicU64,
    rebuilds_done: AtomicU64,
    rebuild_done_blocks: AtomicU64,
    rebuild_total_blocks: AtomicU64,
}

impl ServerCounters {
    /// Notes one freshly dispatched request, with the dedup window's
    /// occupancy after completion.
    pub fn note_request(&self, dedup_occupancy: u64) {
        add(&self.ops, 1);
        put(&self.dedup_occupancy, dedup_occupancy);
        peak(&self.dedup_peak, dedup_occupancy);
    }

    /// Notes one retransmit answered from the dedup window.
    pub fn note_replay(&self) {
        add(&self.replays, 1);
    }

    /// A transaction entered two-phase commit (in doubt until decided).
    pub fn note_txn_begun(&self) {
        add(&self.txns_begun, 1);
        add(&self.txns_in_doubt, 1);
    }

    /// A transaction's decision was logged.
    pub fn note_txn_decided(&self, committed: bool) {
        if committed {
            add(&self.txns_committed, 1);
        } else {
            add(&self.txns_aborted, 1);
        }
        let _ = self
            .txns_in_doubt
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// A read reconstructed a lost column on the fly.
    pub fn note_degraded_read(&self) {
        add(&self.degraded_reads, 1);
    }

    /// Publishes the server's cumulative request-retransmit count.
    pub fn set_lfs_resends(&self, n: u64) {
        put(&self.lfs_resends, n);
    }

    /// A file rebuild began (`total` blocks to walk).
    pub fn note_rebuild_start(&self, total: u64) {
        add(&self.rebuilds_started, 1);
        put(&self.rebuild_done_blocks, 0);
        put(&self.rebuild_total_blocks, total);
    }

    /// Rebuild progress on the active file.
    pub fn note_rebuild_progress(&self, done: u64, total: u64) {
        put(&self.rebuild_done_blocks, done);
        put(&self.rebuild_total_blocks, total);
    }

    /// The active rebuild finished.
    pub fn note_rebuild_done(&self) {
        add(&self.rebuilds_done, 1);
    }

    /// The current point-in-time view.
    pub fn snapshot(&self) -> ServerTelemetry {
        ServerTelemetry {
            ops: get(&self.ops),
            replays: get(&self.replays),
            dedup_occupancy: get(&self.dedup_occupancy),
            dedup_peak: get(&self.dedup_peak),
            txns_begun: get(&self.txns_begun),
            txns_committed: get(&self.txns_committed),
            txns_aborted: get(&self.txns_aborted),
            txns_in_doubt: get(&self.txns_in_doubt),
            degraded_reads: get(&self.degraded_reads),
            columns_lost: 0,
            lfs_resends: get(&self.lfs_resends),
            rebuilds_started: get(&self.rebuilds_started),
            rebuilds_done: get(&self.rebuilds_done),
            rebuild_done_blocks: get(&self.rebuild_done_blocks),
            rebuild_total_blocks: get(&self.rebuild_total_blocks),
        }
    }
}

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

#[derive(Debug)]
struct EventJournal {
    ring: Mutex<VecDeque<JournalEntry>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl EventJournal {
    fn new(capacity: usize) -> Self {
        EventJournal {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    fn record(&self, at: SimTime, event: HealthEvent) {
        let mut ring = self.ring.lock().expect("journal poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
            add(&self.dropped, 1);
        }
        ring.push_back(JournalEntry { at, event });
    }

    fn entries(&self) -> Vec<JournalEntry> {
        self.ring
            .lock()
            .expect("journal poisoned")
            .iter()
            .copied()
            .collect()
    }
}

/// SLO rules the watchdog evaluates over the live feed at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// A rebuild is in progress but its last journal activity is older
    /// than this: alert [`AlertRule::StalledRebuild`].
    pub stalled_rebuild_after: SimDuration,
    /// Cumulative server→LFS retransmits at or above this: alert
    /// [`AlertRule::RetryStorm`].
    pub retry_storm_resends: u64,
    /// Any instance whose queue-depth high water reaches this: alert
    /// [`AlertRule::QueueSaturation`].
    pub queue_saturation_depth: u64,
    /// Any armed WAL ring at or above this percent full: alert
    /// [`AlertRule::WalRingNearFull`].
    pub wal_ring_pct: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stalled_rebuild_after: SimDuration::from_millis(500),
            retry_storm_resends: 8,
            queue_saturation_depth: 48,
            wal_ring_pct: 90,
        }
    }
}

/// The watchdog rule behind an [`Alert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertRule {
    /// A column is lost or a rebuild is still filling a spare: reads of
    /// the affected ranges are served reconstructed.
    DegradedService,
    /// A rebuild started but has made no journal progress within the
    /// configured window.
    StalledRebuild,
    /// Server→LFS retransmits crossed the storm threshold.
    RetryStorm,
    /// An instance's pending queue reached the saturation depth.
    QueueSaturation,
    /// An armed WAL ring is near full (checkpointing is not keeping up).
    WalRingNearFull,
}

impl AlertRule {
    /// Stable rule name (dashboard and JSON export key off it).
    pub fn name(&self) -> &'static str {
        match self {
            AlertRule::DegradedService => "degraded-service",
            AlertRule::StalledRebuild => "stalled-rebuild",
            AlertRule::RetryStorm => "retry-storm",
            AlertRule::QueueSaturation => "queue-saturation",
            AlertRule::WalRingNearFull => "wal-ring-near-full",
        }
    }
}

/// A watchdog rule firing at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// The rule that fired.
    pub rule: AlertRule,
    /// Virtual time of the snapshot that saw it.
    pub at: SimTime,
    /// Human-readable specifics.
    pub detail: String,
}

impl WatchdogConfig {
    /// Evaluates every rule over a live view, returning the alerts that
    /// fire. Pure: same inputs, same alerts.
    pub fn evaluate(
        &self,
        at: SimTime,
        server: &ServerTelemetry,
        lfs: &[LfsTelemetry],
        events: &[JournalEntry],
    ) -> Vec<Alert> {
        let mut alerts = Vec::new();
        let rebuild_active = server.rebuilds_started > server.rebuilds_done;
        let lost: Vec<usize> = lfs
            .iter()
            .enumerate()
            .filter(|(_, l)| l.media_lost)
            .map(|(i, _)| i)
            .collect();
        if !lost.is_empty() || rebuild_active {
            let detail = if lost.is_empty() {
                format!(
                    "rebuild in progress ({}/{} blocks), reads of unrebuilt ranges reconstruct",
                    server.rebuild_done_blocks, server.rebuild_total_blocks
                )
            } else {
                format!(
                    "media lost on lfs {lost:?}; {} degraded reads served",
                    server.degraded_reads
                )
            };
            alerts.push(Alert {
                rule: AlertRule::DegradedService,
                at,
                detail,
            });
        }
        if rebuild_active {
            let last_activity = events
                .iter()
                .rev()
                .find(|e| {
                    matches!(
                        e.event,
                        HealthEvent::RebuildStart { .. }
                            | HealthEvent::RebuildChunk { .. }
                            | HealthEvent::RebuildDone { .. }
                    )
                })
                .map(|e| e.at);
            if let Some(last) = last_activity {
                if at.saturating_duration_since(last) > self.stalled_rebuild_after {
                    alerts.push(Alert {
                        rule: AlertRule::StalledRebuild,
                        at,
                        detail: format!(
                            "rebuild at {}/{} blocks, no progress for {:?}",
                            server.rebuild_done_blocks,
                            server.rebuild_total_blocks,
                            at.saturating_duration_since(last)
                        ),
                    });
                }
            }
        }
        if server.lfs_resends >= self.retry_storm_resends {
            alerts.push(Alert {
                rule: AlertRule::RetryStorm,
                at,
                detail: format!(
                    "{} server-to-LFS retransmits (threshold {})",
                    server.lfs_resends, self.retry_storm_resends
                ),
            });
        }
        for (i, l) in lfs.iter().enumerate() {
            if l.queue_depth_peak >= self.queue_saturation_depth {
                alerts.push(Alert {
                    rule: AlertRule::QueueSaturation,
                    at,
                    detail: format!(
                        "lfs {i} queue depth peaked at {} (threshold {})",
                        l.queue_depth_peak, self.queue_saturation_depth
                    ),
                });
            }
            if l.wal_ring_capacity > 0
                && l.wal_ring_used * 100 >= self.wal_ring_pct * l.wal_ring_capacity
            {
                alerts.push(Alert {
                    rule: AlertRule::WalRingNearFull,
                    at,
                    detail: format!(
                        "lfs {i} WAL ring {}/{} blocks live (threshold {}%)",
                        l.wal_ring_used, l.wal_ring_capacity, self.wal_ring_pct
                    ),
                });
            }
        }
        alerts
    }
}

/// The shared registry one Bridge machine's layers update in place.
#[derive(Debug)]
pub struct TelemetryRegistry {
    server: ServerCounters,
    lfs: Vec<Arc<LfsCounters>>,
    journal: EventJournal,
    watchdog: WatchdogConfig,
}

impl TelemetryRegistry {
    /// A registry for a machine of `breadth` LFS instances, with the
    /// default watchdog rules.
    pub fn new(breadth: u32) -> Self {
        Self::with_watchdog(breadth, WatchdogConfig::default())
    }

    /// A registry with explicit watchdog rules.
    pub fn with_watchdog(breadth: u32, watchdog: WatchdogConfig) -> Self {
        TelemetryRegistry {
            server: ServerCounters::default(),
            lfs: (0..breadth)
                .map(|_| Arc::new(LfsCounters::default()))
                .collect(),
            journal: EventJournal::new(JOURNAL_CAPACITY),
            watchdog,
        }
    }

    /// The Bridge Server's counters.
    pub fn server(&self) -> &ServerCounters {
        &self.server
    }

    /// Instance `i`'s counters (shared handle for the LFS to update).
    pub fn lfs(&self, i: usize) -> Arc<LfsCounters> {
        Arc::clone(&self.lfs[i])
    }

    /// Number of LFS instances the registry tracks.
    pub fn breadth(&self) -> usize {
        self.lfs.len()
    }

    /// Appends a typed event to the journal at virtual time `at`.
    pub fn record_event(&self, at: SimTime, event: HealthEvent) {
        self.journal.record(at, event);
    }

    /// The configured watchdog rules.
    pub fn watchdog(&self) -> WatchdogConfig {
        self.watchdog
    }

    /// Assembles the point-in-time health view: every layer's gauges, the
    /// journal, the machine-wide merged service histogram, and the
    /// watchdog's verdict. `kernel` carries the scheduler's own counters
    /// when the caller has them (the virtual-time sampler does; an
    /// in-band `GetHealth` reply does not).
    pub fn snapshot(&self, at: SimTime, kernel: Option<RunStats>) -> HealthSnapshot {
        let lfs: Vec<LfsTelemetry> = self.lfs.iter().map(|l| l.snapshot()).collect();
        let server = ServerTelemetry {
            columns_lost: lfs.iter().filter(|l| l.media_lost).count() as u64,
            ..self.server.snapshot()
        };
        let events = self.journal.entries();
        let mut service = Histogram::default();
        for l in &lfs {
            service.merge(&l.service);
        }
        let alerts = self.watchdog.evaluate(at, &server, &lfs, &events);
        HealthSnapshot {
            at,
            kernel,
            server,
            lfs,
            events,
            events_dropped: get(&self.journal.dropped),
            service,
            alerts,
        }
    }
}

/// Point-in-time disk counters (mirror of `simdisk::DiskStats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskTelemetry {
    /// Blocks read from the medium or its track buffer.
    pub reads: u64,
    /// Blocks written.
    pub writes: u64,
    /// Reads served from the track buffer.
    pub buffer_hits: u64,
    /// Track switches that loaded the buffer.
    pub track_loads: u64,
    /// Total tracks the head travelled.
    pub head_travel: u64,
    /// Transient faults injected.
    pub transient_faults: u64,
    /// Cumulative device service time.
    pub busy_nanos: u64,
    /// The medium is permanently lost.
    pub lost: bool,
}

impl DiskTelemetry {
    /// Device utilization over `elapsed` of virtual time (0..=1).
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.busy_nanos as f64 / elapsed.as_nanos() as f64
    }
}

/// Point-in-time view of one LFS instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LfsTelemetry {
    /// The instance's disk counters.
    pub disk: DiskTelemetry,
    /// Whether the write-ahead log is armed.
    pub wal_enabled: bool,
    /// Intent records appended so far.
    pub wal_commits: u64,
    /// Commit records written so far.
    pub wal_checkpoints: u64,
    /// Live blocks in the WAL ring.
    pub wal_ring_used: u64,
    /// WAL ring capacity in blocks.
    pub wal_ring_capacity: u64,
    /// Group-commit width.
    pub group_commit_width: u64,
    /// Free data blocks.
    pub free_blocks: u64,
    /// The medium is gone and no spare has racked in.
    pub media_lost: bool,
    /// The node is inside a crash outage.
    pub crash_down: bool,
    /// Requests serviced.
    pub ops_served: u64,
    /// Service batches drained.
    pub batches: u64,
    /// Operations across all batches.
    pub batched_ops: u64,
    /// Largest single batch.
    pub batch_max: u64,
    /// Queue depth right now.
    pub queue_depth: u64,
    /// Queue-depth high water.
    pub queue_depth_peak: u64,
    /// Requests that waited in the queue.
    pub queue_waits: u64,
    /// Total queue-wait virtual time.
    pub queue_wait_nanos: u64,
    /// Per-request service-time histogram.
    pub service: Histogram,
}

impl LfsTelemetry {
    /// Mean ops per drained batch (group-commit effectiveness).
    pub fn batch_mean(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_ops as f64 / self.batches as f64
    }
}

/// Point-in-time view of the Bridge Server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerTelemetry {
    /// Requests dispatched (retransmit replays excluded).
    pub ops: u64,
    /// Retransmits answered from the dedup window.
    pub replays: u64,
    /// Dedup-window entries right now.
    pub dedup_occupancy: u64,
    /// Dedup-window high water.
    pub dedup_peak: u64,
    /// Transactions that entered two-phase commit.
    pub txns_begun: u64,
    /// Transactions committed.
    pub txns_committed: u64,
    /// Transactions aborted.
    pub txns_aborted: u64,
    /// Transactions currently between BEGIN and decision.
    pub txns_in_doubt: u64,
    /// Reads that reconstructed a lost column on the fly.
    pub degraded_reads: u64,
    /// LFS columns the server currently sees lost.
    pub columns_lost: u64,
    /// Server→LFS retransmits.
    pub lfs_resends: u64,
    /// Rebuilds started.
    pub rebuilds_started: u64,
    /// Rebuilds completed.
    pub rebuilds_done: u64,
    /// Active rebuild: blocks walked.
    pub rebuild_done_blocks: u64,
    /// Active rebuild: blocks total.
    pub rebuild_total_blocks: u64,
}

/// The full machine health view at one virtual instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Virtual time of the snapshot.
    pub at: SimTime,
    /// The simulation kernel's own counters, when the observer has them
    /// (the virtual-time sampler passes them through verbatim; in-band
    /// `GetHealth` replies carry `None`).
    pub kernel: Option<RunStats>,
    /// The Bridge Server's view.
    pub server: ServerTelemetry,
    /// Every LFS instance's view, in column order.
    pub lfs: Vec<LfsTelemetry>,
    /// The event journal's current contents (oldest first).
    pub events: Vec<JournalEntry>,
    /// Events that fell off the journal ring.
    pub events_dropped: u64,
    /// Machine-wide service histogram (per-instance histograms merged).
    pub service: Histogram,
    /// Watchdog verdict at snapshot time.
    pub alerts: Vec<Alert>,
}

impl HealthSnapshot {
    /// An all-zero snapshot for an unarmed machine.
    pub fn empty(at: SimTime) -> Self {
        HealthSnapshot {
            at,
            kernel: None,
            server: ServerTelemetry::default(),
            lfs: Vec::new(),
            events: Vec::new(),
            events_dropped: 0,
            service: Histogram::default(),
            alerts: Vec::new(),
        }
    }

    /// Whether an event with this name is in the journal.
    pub fn has_event(&self, name: &str) -> bool {
        self.events.iter().any(|e| e.event.name() == name)
    }

    /// Virtual time of the first journal event with this name.
    pub fn event_time(&self, name: &str) -> Option<SimTime> {
        self.events
            .iter()
            .find(|e| e.event.name() == name)
            .map(|e| e.at)
    }
}

fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// Renders a health snapshot as the shared human-facing text block: the
/// `bridge-top` dashboard frame, and the one code path examples print
/// machine state through.
pub fn render_snapshot(snap: &HealthSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bridge-top — t={:.3}s  p={}  alerts={}",
        secs(snap.at.as_nanos()),
        snap.lfs.len(),
        snap.alerts.len()
    );
    if let Some(k) = &snap.kernel {
        let _ = writeln!(
            out,
            "kernel: {} events, {} msgs, {} dispatches, {} bytes sent",
            k.events, k.messages, k.dispatches, k.bytes_sent
        );
    }
    let s = &snap.server;
    let _ = writeln!(
        out,
        "server: {} ops ({} replays), dedup {}/{} peak, resends {}",
        s.ops, s.replays, s.dedup_occupancy, s.dedup_peak, s.lfs_resends
    );
    if s.txns_begun > 0 {
        let _ = writeln!(
            out,
            "2pc:    {} begun, {} committed, {} aborted, {} in doubt",
            s.txns_begun, s.txns_committed, s.txns_aborted, s.txns_in_doubt
        );
    }
    if s.degraded_reads > 0 || s.columns_lost > 0 || s.rebuilds_started > 0 {
        let _ = writeln!(
            out,
            "redund: {} degraded reads, {} columns lost, rebuilds {}/{} ({}/{} blocks)",
            s.degraded_reads,
            s.columns_lost,
            s.rebuilds_done,
            s.rebuilds_started,
            s.rebuild_done_blocks,
            s.rebuild_total_blocks
        );
    }
    if snap.service.count() > 0 {
        let _ = writeln!(
            out,
            "latency: {} ops, mean {:.3} ms, p99 <= {:.3} ms, max {:.3} ms",
            snap.service.count(),
            snap.service.mean().as_nanos() as f64 / 1e6,
            snap.service.quantile_bound(0.99) as f64 / 1e6,
            snap.service.max().as_nanos() as f64 / 1e6
        );
    }
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>7} {:>11} {:>11} {:>9} {:>8} {:>8} {:>7}  state",
        "lfs",
        "busy%",
        "ops",
        "queue(d/pk)",
        "wal(use/cap)",
        "gc(av/mx)",
        "reads",
        "writes",
        "free"
    );
    for (i, l) in snap.lfs.iter().enumerate() {
        let elapsed = SimDuration::from_nanos(snap.at.as_nanos());
        let state = if l.media_lost {
            "LOST"
        } else if l.crash_down {
            "DOWN"
        } else {
            "ok"
        };
        let _ = writeln!(
            out,
            "{:>4} {:>6.1} {:>7} {:>11} {:>11} {:>9} {:>8} {:>8} {:>7}  {}",
            i,
            100.0 * l.disk.utilization(elapsed),
            l.ops_served,
            format!("{}/{}", l.queue_depth, l.queue_depth_peak),
            format!("{}/{}", l.wal_ring_used, l.wal_ring_capacity),
            format!("{:.1}/{}", l.batch_mean(), l.batch_max),
            l.disk.reads,
            l.disk.writes,
            l.free_blocks,
            state
        );
    }
    if !snap.alerts.is_empty() {
        let _ = writeln!(out, "alerts:");
        for a in &snap.alerts {
            let _ = writeln!(
                out,
                "  [{}] t={:.3}s {}",
                a.rule.name(),
                secs(a.at.as_nanos()),
                a.detail
            );
        }
    }
    if !snap.events.is_empty() {
        let shown = snap.events.len().min(8);
        let _ = writeln!(
            out,
            "events (last {shown} of {}{}):",
            snap.events.len(),
            if snap.events_dropped > 0 {
                format!(", {} dropped", snap.events_dropped)
            } else {
                String::new()
            }
        );
        for e in snap.events.iter().rev().take(shown).rev() {
            let mut line = format!("  t={:.3}s {}", secs(e.at.as_nanos()), e.event.name());
            for (k, v) in e.event.args() {
                let _ = write!(line, " {k}={v}");
            }
            let _ = writeln!(out, "{line}");
        }
    }
    out
}

fn write_kv(out: &mut String, first: &mut bool, key: &str, value: impl std::fmt::Display) {
    if !*first {
        out.push_str(", ");
    }
    *first = false;
    json::write_str(out, key);
    let _ = write!(out, ": {value}");
}

fn write_disk(out: &mut String, d: &DiskTelemetry) {
    out.push('{');
    let mut first = true;
    write_kv(out, &mut first, "reads", d.reads);
    write_kv(out, &mut first, "writes", d.writes);
    write_kv(out, &mut first, "buffer_hits", d.buffer_hits);
    write_kv(out, &mut first, "track_loads", d.track_loads);
    write_kv(out, &mut first, "head_travel", d.head_travel);
    write_kv(out, &mut first, "transient_faults", d.transient_faults);
    write_kv(out, &mut first, "busy_nanos", d.busy_nanos);
    write_kv(out, &mut first, "lost", d.lost);
    out.push('}');
}

/// Serializes one snapshot as a JSON object (the `bridge-top --json`
/// export element; see [`validate_health_json`] for the schema).
pub fn snapshot_to_json(snap: &HealthSnapshot) -> String {
    let mut out = String::new();
    out.push('{');
    let mut first = true;
    write_kv(&mut out, &mut first, "at_nanos", snap.at.as_nanos());
    if let Some(k) = &snap.kernel {
        out.push_str(", \"kernel\": {");
        let mut kf = true;
        write_kv(&mut out, &mut kf, "events", k.events);
        write_kv(&mut out, &mut kf, "messages", k.messages);
        write_kv(&mut out, &mut kf, "spawned", k.spawned);
        write_kv(&mut out, &mut kf, "bytes_sent", k.bytes_sent);
        write_kv(&mut out, &mut kf, "dispatches", k.dispatches);
        write_kv(&mut out, &mut kf, "syscalls", k.syscalls);
        write_kv(&mut out, &mut kf, "end_time_nanos", k.end_time.as_nanos());
        out.push('}');
    }
    let s = &snap.server;
    out.push_str(", \"server\": {");
    let mut sf = true;
    write_kv(&mut out, &mut sf, "ops", s.ops);
    write_kv(&mut out, &mut sf, "replays", s.replays);
    write_kv(&mut out, &mut sf, "dedup_occupancy", s.dedup_occupancy);
    write_kv(&mut out, &mut sf, "dedup_peak", s.dedup_peak);
    write_kv(&mut out, &mut sf, "txns_begun", s.txns_begun);
    write_kv(&mut out, &mut sf, "txns_committed", s.txns_committed);
    write_kv(&mut out, &mut sf, "txns_aborted", s.txns_aborted);
    write_kv(&mut out, &mut sf, "txns_in_doubt", s.txns_in_doubt);
    write_kv(&mut out, &mut sf, "degraded_reads", s.degraded_reads);
    write_kv(&mut out, &mut sf, "columns_lost", s.columns_lost);
    write_kv(&mut out, &mut sf, "lfs_resends", s.lfs_resends);
    write_kv(&mut out, &mut sf, "rebuilds_started", s.rebuilds_started);
    write_kv(&mut out, &mut sf, "rebuilds_done", s.rebuilds_done);
    write_kv(
        &mut out,
        &mut sf,
        "rebuild_done_blocks",
        s.rebuild_done_blocks,
    );
    write_kv(
        &mut out,
        &mut sf,
        "rebuild_total_blocks",
        s.rebuild_total_blocks,
    );
    out.push('}');
    out.push_str(", \"lfs\": [");
    for (i, l) in snap.lfs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('{');
        let mut lf = false;
        out.push_str("\"disk\": ");
        write_disk(&mut out, &l.disk);
        write_kv(&mut out, &mut lf, "wal_enabled", l.wal_enabled);
        write_kv(&mut out, &mut lf, "wal_commits", l.wal_commits);
        write_kv(&mut out, &mut lf, "wal_checkpoints", l.wal_checkpoints);
        write_kv(&mut out, &mut lf, "wal_ring_used", l.wal_ring_used);
        write_kv(&mut out, &mut lf, "wal_ring_capacity", l.wal_ring_capacity);
        write_kv(
            &mut out,
            &mut lf,
            "group_commit_width",
            l.group_commit_width,
        );
        write_kv(&mut out, &mut lf, "free_blocks", l.free_blocks);
        write_kv(&mut out, &mut lf, "media_lost", l.media_lost);
        write_kv(&mut out, &mut lf, "crash_down", l.crash_down);
        write_kv(&mut out, &mut lf, "ops_served", l.ops_served);
        write_kv(&mut out, &mut lf, "batches", l.batches);
        write_kv(&mut out, &mut lf, "batched_ops", l.batched_ops);
        write_kv(&mut out, &mut lf, "batch_max", l.batch_max);
        write_kv(&mut out, &mut lf, "queue_depth", l.queue_depth);
        write_kv(&mut out, &mut lf, "queue_depth_peak", l.queue_depth_peak);
        write_kv(&mut out, &mut lf, "queue_waits", l.queue_waits);
        write_kv(&mut out, &mut lf, "queue_wait_nanos", l.queue_wait_nanos);
        write_kv(&mut out, &mut lf, "service_count", l.service.count());
        write_kv(
            &mut out,
            &mut lf,
            "service_p99_ns",
            l.service.quantile_bound(0.99),
        );
        out.push('}');
    }
    out.push_str("], \"events\": [");
    for (i, e) in snap.events.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"at_nanos\": ");
        let _ = write!(out, "{}", e.at.as_nanos());
        out.push_str(", \"name\": ");
        json::write_str(&mut out, e.event.name());
        out.push_str(", \"args\": {");
        for (j, (k, v)) in e.event.args().iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, k);
            let _ = write!(out, ": {v}");
        }
        out.push_str("}}");
    }
    out.push_str("], ");
    json::write_str(&mut out, "events_dropped");
    let _ = write!(out, ": {}", snap.events_dropped);
    out.push_str(", \"service\": {");
    let mut hf = true;
    write_kv(&mut out, &mut hf, "count", snap.service.count());
    write_kv(&mut out, &mut hf, "mean_ns", snap.service.mean().as_nanos());
    write_kv(
        &mut out,
        &mut hf,
        "p50_ns",
        snap.service.quantile_bound(0.5),
    );
    write_kv(
        &mut out,
        &mut hf,
        "p99_ns",
        snap.service.quantile_bound(0.99),
    );
    write_kv(&mut out, &mut hf, "max_ns", snap.service.max().as_nanos());
    out.push('}');
    out.push_str(", \"alerts\": [");
    for (i, a) in snap.alerts.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"rule\": ");
        json::write_str(&mut out, a.rule.name());
        out.push_str(", \"at_nanos\": ");
        let _ = write!(out, "{}", a.at.as_nanos());
        out.push_str(", \"detail\": ");
        json::write_str(&mut out, &a.detail);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Serializes a poll series as the `bridge-top --json` document:
/// `{"snapshots": [...]}`.
pub fn snapshots_to_json(snaps: &[HealthSnapshot]) -> String {
    let mut out = String::from("{\"snapshots\": [\n");
    for (i, s) in snaps.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&snapshot_to_json(s));
    }
    out.push_str("\n]}\n");
    out
}

fn require_num(obj: &Json, key: &str, origin: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{origin}: missing numeric {key:?}"))
}

fn require_bool(obj: &Json, key: &str, origin: &str) -> Result<bool, String> {
    match obj.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("{origin}: missing boolean {key:?}")),
    }
}

/// Validates a `bridge-top --json` document against the health-snapshot
/// schema, returning the number of snapshots. Mirrors the profiler's
/// exporter audit: parse the exact bytes back and check every required
/// member and type.
///
/// # Errors
///
/// Returns the first schema violation found.
pub fn validate_health_json(text: &str) -> Result<usize, String> {
    let doc = json::parse(text)?;
    let snaps = doc
        .get("snapshots")
        .and_then(Json::as_arr)
        .ok_or("document has no \"snapshots\" array")?;
    for (i, snap) in snaps.iter().enumerate() {
        let origin = format!("snapshot {i}");
        require_num(snap, "at_nanos", &origin)?;
        let server = snap
            .get("server")
            .ok_or_else(|| format!("{origin}: missing \"server\""))?;
        for key in [
            "ops",
            "replays",
            "dedup_occupancy",
            "dedup_peak",
            "txns_begun",
            "txns_committed",
            "txns_aborted",
            "txns_in_doubt",
            "degraded_reads",
            "columns_lost",
            "lfs_resends",
            "rebuilds_started",
            "rebuilds_done",
            "rebuild_done_blocks",
            "rebuild_total_blocks",
        ] {
            require_num(server, key, &format!("{origin} server"))?;
        }
        let lfs = snap
            .get("lfs")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{origin}: missing \"lfs\" array"))?;
        for (j, l) in lfs.iter().enumerate() {
            let lorigin = format!("{origin} lfs {j}");
            let disk = l
                .get("disk")
                .ok_or_else(|| format!("{lorigin}: missing \"disk\""))?;
            for key in [
                "reads",
                "writes",
                "buffer_hits",
                "track_loads",
                "head_travel",
                "transient_faults",
                "busy_nanos",
            ] {
                require_num(disk, key, &format!("{lorigin} disk"))?;
            }
            require_bool(disk, "lost", &format!("{lorigin} disk"))?;
            for key in [
                "wal_commits",
                "wal_checkpoints",
                "wal_ring_used",
                "wal_ring_capacity",
                "group_commit_width",
                "free_blocks",
                "ops_served",
                "batches",
                "batched_ops",
                "batch_max",
                "queue_depth",
                "queue_depth_peak",
                "queue_waits",
                "queue_wait_nanos",
                "service_count",
                "service_p99_ns",
            ] {
                require_num(l, key, &lorigin)?;
            }
            require_bool(l, "wal_enabled", &lorigin)?;
            require_bool(l, "media_lost", &lorigin)?;
            require_bool(l, "crash_down", &lorigin)?;
        }
        let events = snap
            .get("events")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{origin}: missing \"events\" array"))?;
        for (j, e) in events.iter().enumerate() {
            let eorigin = format!("{origin} event {j}");
            require_num(e, "at_nanos", &eorigin)?;
            e.get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{eorigin}: missing string \"name\""))?;
            match e.get("args") {
                Some(Json::Obj(_)) => {}
                _ => return Err(format!("{eorigin}: missing \"args\" object")),
            }
        }
        require_num(snap, "events_dropped", &origin)?;
        let service = snap
            .get("service")
            .ok_or_else(|| format!("{origin}: missing \"service\""))?;
        for key in ["count", "mean_ns", "p50_ns", "p99_ns", "max_ns"] {
            require_num(service, key, &format!("{origin} service"))?;
        }
        let alerts = snap
            .get("alerts")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{origin}: missing \"alerts\" array"))?;
        for (j, a) in alerts.iter().enumerate() {
            let aorigin = format!("{origin} alert {j}");
            a.get("rule")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{aorigin}: missing string \"rule\""))?;
            require_num(a, "at_nanos", &aorigin)?;
            a.get("detail")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{aorigin}: missing string \"detail\""))?;
        }
    }
    Ok(snaps.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated_registry() -> TelemetryRegistry {
        let reg = TelemetryRegistry::new(2);
        reg.server().note_request(3);
        reg.server().note_txn_begun();
        reg.server().note_txn_decided(true);
        reg.server().note_degraded_read();
        let l0 = reg.lfs(0);
        l0.note_batch(4);
        l0.note_queue_wait(1_000, 2);
        l0.note_served(50_000);
        l0.publish_fs(FsGauges {
            wal_enabled: true,
            wal_commits: 10,
            wal_checkpoints: 3,
            wal_ring_used: 7,
            wal_ring_capacity: 64,
            group_commit_width: 8,
            free_blocks: 900,
            media_lost: false,
            crash_down: false,
        });
        l0.disk().store_stats(12, 34, 5, 6, 7, 0, 9_000);
        reg.record_event(SimTime::from_nanos(5), HealthEvent::DiskLost { lfs: 1 });
        reg.server().note_rebuild_start(40);
        reg.record_event(
            SimTime::from_nanos(9),
            HealthEvent::RebuildStart { file: 3, total: 40 },
        );
        reg
    }

    #[test]
    fn snapshot_reflects_counters_and_journal() {
        let reg = populated_registry();
        let snap = reg.snapshot(SimTime::from_nanos(100), None);
        assert_eq!(snap.server.ops, 1);
        assert_eq!(snap.server.txns_begun, 1);
        assert_eq!(snap.server.txns_committed, 1);
        assert_eq!(snap.server.txns_in_doubt, 0);
        assert_eq!(snap.lfs.len(), 2);
        assert_eq!(snap.lfs[0].disk.reads, 12);
        assert_eq!(snap.lfs[0].wal_ring_used, 7);
        assert_eq!(snap.lfs[0].batch_mean(), 4.0);
        assert_eq!(snap.service.count(), 1);
        assert!(snap.has_event("disk.lost"));
        assert_eq!(snap.event_time("disk.lost"), Some(SimTime::from_nanos(5)));
    }

    #[test]
    fn journal_ring_drops_oldest() {
        let reg = TelemetryRegistry::new(1);
        for i in 0..(JOURNAL_CAPACITY as u64 + 10) {
            reg.record_event(SimTime::from_nanos(i), HealthEvent::TxnInDoubt { txn: i });
        }
        let snap = reg.snapshot(SimTime::from_nanos(0), None);
        assert_eq!(snap.events.len(), JOURNAL_CAPACITY);
        assert_eq!(snap.events_dropped, 10);
        assert_eq!(snap.events[0].at, SimTime::from_nanos(10));
    }

    #[test]
    fn watchdog_fires_and_stays_silent() {
        let reg = populated_registry();
        // The populated registry has a started, unfinished rebuild whose
        // last activity was t=9ns: degraded service fires immediately,
        // the stall rule only once the window passes.
        let quick = reg.snapshot(SimTime::from_nanos(100), None);
        assert!(quick
            .alerts
            .iter()
            .any(|a| a.rule == AlertRule::DegradedService));
        assert!(!quick
            .alerts
            .iter()
            .any(|a| a.rule == AlertRule::StalledRebuild));
        let late = reg.snapshot(SimTime::from_nanos(2_000_000_000), None);
        assert!(late
            .alerts
            .iter()
            .any(|a| a.rule == AlertRule::StalledRebuild));

        // A clean machine raises nothing.
        let clean = TelemetryRegistry::new(2);
        let snap = clean.snapshot(SimTime::from_nanos(100), None);
        assert!(snap.alerts.is_empty(), "{:?}", snap.alerts);
    }

    #[test]
    fn watchdog_queue_and_wal_rules() {
        let reg = TelemetryRegistry::new(1);
        reg.lfs(0).set_queue_depth(48);
        reg.lfs(0).publish_fs(FsGauges {
            wal_enabled: true,
            wal_ring_used: 60,
            wal_ring_capacity: 64,
            ..FsGauges::default()
        });
        reg.server().set_lfs_resends(9);
        let snap = reg.snapshot(SimTime::from_nanos(1), None);
        let rules: Vec<AlertRule> = snap.alerts.iter().map(|a| a.rule).collect();
        assert!(rules.contains(&AlertRule::QueueSaturation));
        assert!(rules.contains(&AlertRule::WalRingNearFull));
        assert!(rules.contains(&AlertRule::RetryStorm));
    }

    #[test]
    fn json_export_round_trips_and_validates() {
        let reg = populated_registry();
        let a = reg.snapshot(SimTime::from_nanos(50), None);
        let mut b = reg.snapshot(SimTime::from_nanos(100), None);
        b.kernel = Some(RunStats {
            events: 5,
            end_time: SimTime::from_nanos(100),
            ..RunStats::default()
        });
        let text = snapshots_to_json(&[a, b]);
        assert_eq!(validate_health_json(&text), Ok(2));
        // Schema violations are caught.
        assert!(validate_health_json("{}").is_err());
        assert!(validate_health_json("{\"snapshots\": [{}]}").is_err());
    }

    #[test]
    fn renderer_mentions_the_load_bearing_state() {
        let reg = populated_registry();
        reg.lfs(1).publish_fs(FsGauges {
            media_lost: true,
            ..FsGauges::default()
        });
        let snap = reg.snapshot(SimTime::from_nanos(2_000_000), None);
        let text = render_snapshot(&snap);
        assert!(text.contains("bridge-top"));
        assert!(text.contains("LOST"));
        assert!(text.contains("degraded-service"));
        assert!(text.contains("disk.lost"));
    }
}
