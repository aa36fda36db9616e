//! Live machine health telemetry.
//!
//! Everything the trace layer (PR 2) and the causal profiler (PR 5) can
//! tell you is post-hoc: the run has to end before the trace exports. A
//! production storage machine is operated from *live* signals, so this
//! module defines the always-on telemetry shared by every layer of the
//! running machine:
//!
//! * [`TelemetryRegistry`] — one [`ServerTelemetry`] and one
//!   [`LfsTelemetry`] per instance, each behind its own lock. The
//!   snapshot structs *are* the storage: the Bridge Server and each LFS
//!   update their own struct in place (the LFS once per service batch),
//!   and a snapshot is a clone. Updates are observation-only: arming the
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
//! `simdisk::DiskStats` and `parsim::RunStats`: each LFS copies its
//! device's own counters in whenever it publishes (after every service
//! batch, recovery and spare install), and the sampler's final fire
//! hands the kernel's own counters over verbatim. A frame sampled while
//! a batch is in service shows that instance — disk counters included —
//! as of its last batch boundary.

mod export;
mod journal;
mod watchdog;

pub use export::{render_snapshot, snapshot_to_json, snapshots_to_json, validate_health_json};
pub use journal::{HealthEvent, JournalEntry, JOURNAL_CAPACITY};
pub use watchdog::{Alert, AlertRule, WatchdogConfig};

use crate::histogram::Histogram;
use journal::EventJournal;
use parsim::{RunStats, SimDuration, SimTime};
use std::sync::{Mutex, MutexGuard};

/// The registry's one poisoned-lock policy: every update leaves a struct
/// of plain counters, so a poisoned lock can only mean a holder's own
/// arithmetic panicked — a bug worth stopping on, not recovering from.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a telemetry update panicked")
}

/// The shared registry one Bridge machine's layers update in place.
#[derive(Debug)]
pub struct TelemetryRegistry {
    server: Mutex<ServerTelemetry>,
    lfs: Vec<Mutex<LfsTelemetry>>,
    journal: Mutex<EventJournal>,
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
            server: Mutex::default(),
            lfs: (0..breadth).map(|_| Mutex::default()).collect(),
            journal: Mutex::new(EventJournal::new(JOURNAL_CAPACITY)),
            watchdog,
        }
    }

    /// The Bridge Server's counters, locked for one update.
    pub fn server(&self) -> MutexGuard<'_, ServerTelemetry> {
        locked(&self.server)
    }

    /// Instance `i`'s counters, locked for one update.
    pub fn lfs(&self, i: usize) -> MutexGuard<'_, LfsTelemetry> {
        locked(&self.lfs[i])
    }

    /// Appends a typed event to the journal at virtual time `at`.
    pub fn record_event(&self, at: SimTime, event: HealthEvent) {
        locked(&self.journal).record(at, event);
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
        let lfs: Vec<LfsTelemetry> = self.lfs.iter().map(|l| locked(l).clone()).collect();
        let server = ServerTelemetry {
            columns_lost: lfs.iter().filter(|l| l.media_lost).count() as u64,
            ..*self.server()
        };
        let (events, events_dropped) = locked(&self.journal).entries();
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
            events_dropped,
            service,
            alerts,
        }
    }
}

/// One disk's counters, as `simdisk::DiskStats` keeps them.
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

/// One LFS instance: the gauges it publishes after every service batch
/// (copied from the `Efs` accessors and the device's own counters, so
/// they cannot drift from either) and its request scheduler's
/// queue/batch/service counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LfsTelemetry {
    /// The instance's disk counters.
    pub disk: DiskTelemetry,
    /// Whether the write-ahead log is armed.
    pub wal_enabled: bool,
    /// Batches committed to the WAL since mount/recovery (one group
    /// commit each, however many records it carried).
    pub wal_commits: u64,
    /// Checkpoints taken since mount/recovery.
    pub wal_checkpoints: u64,
    /// Live (un-checkpointed) blocks in the WAL ring right now.
    pub wal_ring_used: u64,
    /// The WAL ring's capacity in blocks (0 when disabled).
    pub wal_ring_capacity: u64,
    /// Group-commit width (requests drained per service batch).
    pub group_commit_width: u64,
    /// Free data blocks on the instance.
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

    /// Books one drained service batch: `served[i]` is operation `i`'s
    /// service time (queue wait excluded), `wait_nanos` the batch's
    /// summed queue wait, `depth_peak` the highest queue depth seen at a
    /// service start (that request included), and `queue_depth` the
    /// post-batch depth. The scheduler accumulates these in plain locals
    /// and calls this once per batch, so the armed hot path takes the
    /// instance's lock per *batch*, never per operation.
    pub fn flush_batch(
        &mut self,
        served: &[u64],
        wait_nanos: u64,
        depth_peak: u64,
        queue_depth: u64,
    ) {
        if !served.is_empty() {
            let n = served.len() as u64;
            self.ops_served += n;
            self.batches += 1;
            self.batched_ops += n;
            self.batch_max = self.batch_max.max(n);
            self.queue_waits += n;
            self.queue_wait_nanos += wait_nanos;
            for &ns in served {
                self.service.record(ns);
            }
        }
        self.queue_depth = queue_depth;
        self.queue_depth_peak = self.queue_depth_peak.max(depth_peak).max(queue_depth);
    }
}

/// The Bridge Server: request, two-phase-commit, dedup, redundancy, and
/// rebuild counters.
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
    /// LFS columns currently lost: the instances whose `media_lost` is
    /// set, counted when a snapshot is assembled.
    pub columns_lost: u64,
    /// Retransmits by the server's internal clients (to LFS instances
    /// and to Create's relay agents).
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

impl ServerTelemetry {
    /// Notes one freshly dispatched request, with the dedup window's
    /// occupancy after completion and the server's cumulative
    /// request-retransmit count.
    pub fn note_request(&mut self, dedup_occupancy: u64, lfs_resends: u64) {
        self.ops += 1;
        self.dedup_occupancy = dedup_occupancy;
        self.dedup_peak = self.dedup_peak.max(dedup_occupancy);
        self.lfs_resends = lfs_resends;
    }

    /// A transaction entered two-phase commit (in doubt until decided).
    pub fn note_txn_begun(&mut self) {
        self.txns_begun += 1;
        self.txns_in_doubt += 1;
    }

    /// A transaction's decision was logged.
    pub fn note_txn_decided(&mut self, committed: bool) {
        if committed {
            self.txns_committed += 1;
        } else {
            self.txns_aborted += 1;
        }
        self.txns_in_doubt = self.txns_in_doubt.saturating_sub(1);
    }

    /// A read reconstructed a lost column on the fly. Returns whether it
    /// is the first — the onset of degraded service.
    pub fn note_degraded_read(&mut self) -> bool {
        self.degraded_reads += 1;
        self.degraded_reads == 1
    }

    /// A file rebuild began (`total` blocks to walk).
    pub fn note_rebuild_start(&mut self, total: u64) {
        self.rebuilds_started += 1;
        self.note_rebuild_progress(0, total);
    }

    /// Rebuild progress on the active file.
    pub fn note_rebuild_progress(&mut self, done: u64, total: u64) {
        self.rebuild_done_blocks = done;
        self.rebuild_total_blocks = total;
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn populated_registry() -> TelemetryRegistry {
        let reg = TelemetryRegistry::new(2);
        {
            let mut server = reg.server();
            server.note_request(3, 0);
            server.note_txn_begun();
            server.note_txn_decided(true);
            assert!(server.note_degraded_read(), "the first is the onset");
            assert!(!server.note_degraded_read());
            server.note_rebuild_start(40);
        }
        {
            let mut l0 = reg.lfs(0);
            l0.flush_batch(&[50_000; 4], 1_000, 2, 0);
            l0.wal_enabled = true;
            l0.wal_ring_used = 7;
            l0.wal_ring_capacity = 64;
            l0.disk.reads = 12;
        }
        reg.record_event(SimTime::from_nanos(5), HealthEvent::DiskLost { lfs: 1 });
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
        assert_eq!(snap.server.degraded_reads, 2);
        assert_eq!(snap.lfs.len(), 2);
        assert_eq!(snap.lfs[0].disk.reads, 12);
        assert_eq!(snap.lfs[0].wal_ring_used, 7);
        assert_eq!(snap.lfs[0].batch_mean(), 4.0);
        assert_eq!(snap.lfs[0].queue_depth_peak, 2);
        assert_eq!(snap.service.count(), 4);
        assert!(snap.has_event("disk.lost"));
        assert_eq!(snap.event_time("disk.lost"), Some(SimTime::from_nanos(5)));
    }

    #[test]
    fn columns_lost_is_counted_from_the_instances() {
        let reg = populated_registry();
        reg.lfs(1).media_lost = true;
        let snap = reg.snapshot(SimTime::from_nanos(100), None);
        assert_eq!(snap.server.columns_lost, 1);
        reg.lfs(1).media_lost = false;
        let snap = reg.snapshot(SimTime::from_nanos(200), None);
        assert_eq!(snap.server.columns_lost, 0);
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
        {
            let mut l0 = reg.lfs(0);
            l0.flush_batch(&[], 0, 0, 48);
            l0.wal_enabled = true;
            l0.wal_ring_used = 60;
            l0.wal_ring_capacity = 64;
        }
        reg.server().note_request(0, 9);
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
        let kernel = RunStats {
            events: 5,
            ready_peak: 3,
            end_time: SimTime::from_nanos(100),
            ..RunStats::default()
        };
        let b = reg.snapshot(SimTime::from_nanos(100), Some(kernel));
        let text = snapshots_to_json(&[a, b]);
        assert_eq!(validate_health_json(&text), Ok(2));
        assert!(text.contains("\"ready_peak\": 3"), "kernel exported whole");
        // Schema violations are caught.
        assert!(validate_health_json("{}").is_err());
        assert!(validate_health_json("{\"snapshots\": [{}]}").is_err());
        let short = text.replace("\"ready_peak\": 3, ", "");
        assert_ne!(short, text);
        assert!(validate_health_json(&short)
            .unwrap_err()
            .contains("kernel: missing numeric \"ready_peak\""));
    }

    #[test]
    fn renderer_mentions_the_load_bearing_state() {
        let reg = populated_registry();
        reg.lfs(1).media_lost = true;
        let snap = reg.snapshot(SimTime::from_nanos(2_000_000), None);
        let text = render_snapshot(&snap);
        assert!(text.contains("bridge-top"));
        assert!(text.contains("LOST"));
        assert!(text.contains("degraded-service"));
        assert!(text.contains("disk.lost"));
    }
}
